"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the one home for quantitative instrumentation (the paper's
§6 is entirely about such numbers: visits per match, per-job scheduling
time, planner query cost).  Design points:

* **Cheap instruments.**  A :class:`Counter` is one ``__slots__`` object and
  ``inc()`` is one attribute add — on par with the ad-hoc ``stats`` dict it
  replaces.  Hot loops should still batch locally and flush once (see
  ``Traverser._collect``).
* **Fixed bucket boundaries.**  Histograms never rebucket, so two runs (or
  two processes) can be merged/compared bucket-by-bucket.
* **Labels.**  ``registry.counter("sim.events", labels=("kind",))`` returns
  a family; ``family.labels(kind="fail")`` returns a child counter cached
  per label value.
* **Zero-cost when disabled.**  :data:`NULL_REGISTRY` hands out no-op
  singletons so instrumented code needs no conditionals.

Registries are plain objects: create as many as you like (each
:class:`~repro.match.traverser.Traverser` owns one; an
:class:`~repro.obs.Observer` shares one across a simulator).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_TIME_BUCKETS",
]

#: Default histogram boundaries for wall-clock durations, in seconds
#: (1 microsecond up to 10 s; everything slower lands in the +Inf bucket).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


class Counter:
    """Monotonically increasing count (decrements are a programming error)."""

    __slots__ = ("name", "description", "value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that can go up and down (queue depth, active allocations)."""

    __slots__ = ("name", "description", "value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Fixed-boundary histogram with total sum/count.

    ``boundaries`` are the upper bounds of the finite buckets; one extra
    +Inf bucket catches the tail.  ``observe(v)`` increments the first
    bucket whose bound is >= v.
    """

    __slots__ = ("name", "description", "boundaries", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        description: str = "",
        boundaries: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        bounds = tuple(boundaries)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one boundary")
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r} boundaries must be sorted")
        self.name = name
        self.description = description
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.boundaries):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket holding it.

        Edge cases are pinned down (and tested) so callers never see NaN:

        * empty histogram → ``0.0`` for every ``q``;
        * ``q=0`` → upper bound of the first **non-empty** bucket (the
          tightest bound on the minimum observation);
        * ``q=1`` → upper bound of the last non-empty bucket, clamped to
          the last finite boundary when the tail sits in the +Inf bucket;
        * negative observations land in the first bucket (``observe``
          uses ``value <= bound``), so they are attributed to its bound.

        ``q`` outside ``[0, 1]`` raises :class:`ValueError`.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        # A rank of at least 1 keeps q=0 from reporting the bound of a
        # leading empty bucket no observation ever landed in.
        target = max(q * self.count, 1)
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= target:
                if index < len(self.boundaries):
                    return self.boundaries[index]
                break
        return self.boundaries[-1]

    def as_dict(self) -> Dict[str, object]:
        buckets = {
            f"le_{bound:g}": count
            for bound, count in zip(self.boundaries, self.counts)
        }
        buckets["inf"] = self.counts[-1]
        return {"count": self.count, "sum": self.sum, "buckets": buckets}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name}, n={self.count}, sum={self.sum:.6f})"


class MetricFamily:
    """A labelled metric: one child instrument per label-value combination."""

    __slots__ = ("name", "description", "label_names", "_factory", "_children")

    def __init__(
        self,
        name: str,
        description: str,
        label_names: Tuple[str, ...],
        factory: "type",
    ) -> None:
        if not label_names:
            raise ValueError(f"family {name!r} needs at least one label name")
        self.name = name
        self.description = description
        self.label_names = label_names
        self._factory = factory
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, **labels: str) -> object:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"family {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            rendered = ",".join(
                f"{name}={value}" for name, value in zip(self.label_names, key)
            )
            child = self._factory(f"{self.name}{{{rendered}}}", self.description)
            self._children[key] = child
        return child

    def children(self) -> Iterator[object]:
        for key in sorted(self._children):
            yield self._children[key]


class MetricsRegistry:
    """Named home for instruments; idempotent creation, stable iteration."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    # -- creation ------------------------------------------------------
    def _get_or_create(self, name: str, factory, kind: type) -> object:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}"
            )
        return metric

    def counter(
        self,
        name: str,
        description: str = "",
        labels: Optional[Sequence[str]] = None,
    ) -> "Counter | MetricFamily":
        if labels:
            return self._get_or_create(
                name,
                lambda: MetricFamily(name, description, tuple(labels), Counter),
                MetricFamily,
            )
        return self._get_or_create(
            name, lambda: Counter(name, description), Counter
        )

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, description), Gauge)

    def histogram(
        self,
        name: str,
        description: str = "",
        boundaries: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, description, boundaries), Histogram
        )

    # -- introspection -------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Optional[object]:
        return self._metrics.get(name)

    def instruments(self) -> Iterator[object]:
        """Every leaf instrument (family children expanded), name order."""
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, MetricFamily):
                yield from metric.children()
            else:
                yield metric

    def as_dict(self) -> Dict[str, object]:
        """JSON-able snapshot: counters/gauges as numbers, histograms nested."""
        out: Dict[str, object] = {}
        for metric in self.instruments():
            if isinstance(metric, Histogram):
                out[metric.name] = metric.as_dict()
            else:
                out[metric.name] = metric.value
        return out

    def render(self) -> str:
        """Human-readable one-line-per-instrument dump."""
        lines: List[str] = []
        for metric in self.instruments():
            if isinstance(metric, Histogram):
                lines.append(
                    f"{metric.name} count={metric.count} sum={metric.sum:.6f} "
                    f"mean={metric.mean():.6f} p95<={metric.quantile(0.95):g}"
                )
            else:
                lines.append(f"{metric.name} {metric.value}")
        return "\n".join(lines)

    def merge_counts(self, other: "MetricsRegistry") -> None:
        """Add every counter of ``other`` into this registry (same names)."""
        for metric in other.instruments():
            if isinstance(metric, Counter):
                self.counter(metric.name, metric.description).inc(metric.value)


# ----------------------------------------------------------------------
# no-op implementations: observability disabled costs one method call
# ----------------------------------------------------------------------
class NullCounter:
    __slots__ = ()
    value = 0
    name = ""

    def inc(self, amount: int = 1) -> None:
        pass

    def reset(self) -> None:
        pass


class NullGauge:
    __slots__ = ()
    value = 0.0
    name = ""

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass


class NullHistogram:
    __slots__ = ()
    count = 0
    sum = 0.0
    name = ""

    def observe(self, value: float) -> None:
        pass

    def mean(self) -> float:
        return 0.0

    def quantile(self, q: float) -> float:
        return 0.0

    def as_dict(self) -> Dict[str, object]:
        return {"count": 0, "sum": 0.0, "buckets": {}}


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class _NullFamily:
    __slots__ = ("_child",)

    def __init__(self, child: object) -> None:
        self._child = child

    def labels(self, **labels: str) -> object:
        return self._child

    def children(self) -> Iterator[object]:
        return iter(())


_NULL_COUNTER_FAMILY = _NullFamily(_NULL_COUNTER)


class NullRegistry:
    """Registry look-alike that records nothing and allocates nothing."""

    __slots__ = ()

    def counter(
        self,
        name: str,
        description: str = "",
        labels: Optional[Sequence[str]] = None,
    ) -> object:
        return _NULL_COUNTER_FAMILY if labels else _NULL_COUNTER

    def gauge(self, name: str, description: str = "") -> NullGauge:
        return _NULL_GAUGE

    def histogram(
        self,
        name: str,
        description: str = "",
        boundaries: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> NullHistogram:
        return _NULL_HISTOGRAM

    def __contains__(self, name: str) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def get(self, name: str) -> None:
        return None

    def instruments(self) -> Iterator[object]:
        return iter(())

    def as_dict(self) -> Dict[str, object]:
        return {}

    def render(self) -> str:
        return ""

    def merge_counts(self, other: object) -> None:
        pass


NULL_REGISTRY = NullRegistry()
