"""repro.obs — unified observability: metrics, tracing, profiling.

The three legs (ISSUE 5 tentpole):

* :mod:`repro.obs.metrics` — counters / gauges / fixed-bucket histograms
  in a :class:`MetricsRegistry`, with no-op twins for the disabled path;
* :mod:`repro.obs.trace` — nested spans with deterministic virtual-time
  annotations plus wall-clock durations, exporting Chrome ``trace_event``
  JSON and line-JSON logs;
* :mod:`repro.obs.profile` — exact (sampling-free) aggregation of span
  durations into a callers/callees table and an ASCII flame summary,
  fronted by ``python -m repro.obs report``.

A fourth leg (ISSUE 10): :mod:`repro.obs.why` — per-job scheduling
decision provenance (admission verdicts, attempt outcomes, match-failure
attribution), rendered by ``report.explain(job_id)`` and
``python -m repro.obs why``.

Everything is **off by default**: pass ``ClusterSimulator(observe=True)``
(or an :class:`Observer`), or set ``FLUXOBS=1``.  Disabled instrumentation
routes through null singletons, keeping the hot-path cost to an attribute
load and an empty call.

:mod:`repro.obs.clock` is the audited wall-clock shim — the only
sanctioned ``time.perf_counter`` in ``src/repro`` (fluxlint rule OBS001
enforces this).
"""

from .clock import WallTimer, wall_now, wall_timer
from .metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from .profile import Profile, aggregate
from .why import (
    FAIL_KINDS,
    NULL_WHY,
    PRUNE_REASONS,
    DecisionRecorder,
    NullDecisionRecorder,
    render_cycle_summary,
    render_explain,
)
from .runtime import (
    ACTIVE,
    NULL_OBSERVER,
    Observer,
    ObserverStateError,
    activate,
    active,
    deactivate,
    env_enabled,
    resolve,
)
from .trace import NULL_TRACER, NullTracer, Tracer, read_jsonl, span_tree

__all__ = [
    "Observer",
    "NULL_OBSERVER",
    "ObserverStateError",
    "activate",
    "deactivate",
    "active",
    "env_enabled",
    "resolve",
    "ACTIVE",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "DEFAULT_TIME_BUCKETS",
    "DecisionRecorder",
    "NullDecisionRecorder",
    "NULL_WHY",
    "PRUNE_REASONS",
    "FAIL_KINDS",
    "render_explain",
    "render_cycle_summary",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "read_jsonl",
    "span_tree",
    "Profile",
    "aggregate",
    "wall_now",
    "wall_timer",
    "WallTimer",
]
