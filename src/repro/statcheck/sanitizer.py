"""FluxSan: opt-in runtime sanitizer for span-safety and determinism.

While at least one :class:`FluxSan` is active (``with FluxSan():``,
``ClusterSimulator(..., sanitize=True)`` or ``FLUXSAN=1``), refcounted
class-level proxies on the planners, the graph and the traverser check
what no other guard sees, raising :class:`~repro.errors.SanitizerError`:

* **span double-free** — the error names the call site of the *first*
  free, which a plain :class:`SpanNotFoundError` cannot give;
* **SDFU divergence** — every booking's filter spans against
  :func:`reference_sdfu_charges`, the tree's one independent recompute of
  §3.4.  The auditor cannot see a wrong charge: its expected table comes
  from the same :func:`~repro.match.writer.sdfu_charges` that booked;
* **double drain / resume** — a lost guard in the failure/repair path;
* **exclusivity**, at the call that broke it — the auditor's rule
  (:class:`~repro.match.writer.ExclusivityIndex`, one kept per traverser),
  allocations as owners.

:func:`dual_run` steps two builds of one simulation in lockstep and diffs
:func:`~repro.recovery.state_fingerprint` after every event, so a
wall-clock read, unseeded RNG or iteration-order leak surfaces at the
first event it poisons.  FluxSan is a debugging and CI tool.
"""

from __future__ import annotations

# FluxSan's stats dict is a diagnostic self-count rendered by its own
# report(), not scheduler observability — routing it through a
# MetricsRegistry would make the sanitizer depend on the layer it audits.
# fluxlint: disable-file=OBS001

import sys
import threading
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import SanitizerError
from ..match.traverser import Traverser
from ..match.writer import Allocation, ExclusivityIndex, Selection
from ..planner.multi import PlannerMulti
from ..planner.planner import Planner
from ..resource.graph import ResourceGraph
from ..resource.vertex import ResourceVertex

__all__ = [
    "FluxSan", "DualRunReport", "dual_run",
    "reference_exclusive_tops", "reference_sdfu_charges",
]

#: per-planner cap on remembered freed-span sites (oldest evicted first)
_FREED_SITE_LIMIT = 1024

_SKIP_SITE_FRAGMENTS = ("statcheck/sanitizer", "repro/planner/")

#: serializes proxy (un)installation and the active-instance list —
#: class-level patching is inherently process-wide, so concurrent
#: activations from two threads must not interleave
_SAN_LOCK = threading.Lock()


def _call_site() -> str:
    """Innermost stack frame outside the sanitizer and planner internals."""
    frame = sys._getframe(1)
    while frame is not None:
        code = frame.f_code
        filename = code.co_filename.replace("\\", "/")
        if not any(fragment in filename for fragment in _SKIP_SITE_FRAGMENTS):
            return f"{code.co_filename}:{frame.f_lineno} in {code.co_name}"
        frame = frame.f_back
    return "<unknown>"


class FluxSan:
    """Activatable bundle of runtime invariant checks.

    Use as a context manager, or call :meth:`activate` / :meth:`deactivate`
    explicitly.  :attr:`stats` counts checks performed; :meth:`report`
    renders them.
    """

    _active: List["FluxSan"] = []  # guarded-by: _SAN_LOCK
    _originals: Dict[Tuple[type, str], Callable] = {}  # guarded-by: _SAN_LOCK

    def __init__(self) -> None:
        #: id(planner) -> {span_id: call site of the free}
        self._freed: Dict[int, Dict[int, str]] = {}
        #: traverser -> (graph shape, its allocations indexed for the
        #: exclusivity rule); weak, so a finished run's traverser can go
        self._exclusive: "weakref.WeakKeyDictionary[Traverser, tuple]" = (
            weakref.WeakKeyDictionary()
        )
        self.stats: Dict[str, int] = dict.fromkeys((
            "frees_tracked", "double_frees", "exclusive_checks",
            "sdfu_checks", "status_checks",
        ), 0)

    # ------------------------------------------------------------------
    # activation / patching
    # ------------------------------------------------------------------
    @classmethod
    def active(cls) -> List["FluxSan"]:
        """The currently active sanitizer instances (usually 0 or 1)."""
        return list(cls._active)

    def activate(self) -> "FluxSan":
        """Install the checking proxies (refcounted; idempotent per instance)."""
        with _SAN_LOCK:
            if self not in FluxSan._active:
                if not FluxSan._active:
                    _install_proxies()
                FluxSan._active.append(self)
        return self

    def deactivate(self) -> None:
        """Remove this instance; restores originals when none remain active."""
        with _SAN_LOCK:
            if self in FluxSan._active:
                FluxSan._active.remove(self)
                if not FluxSan._active:
                    _uninstall_proxies()

    def __enter__(self) -> "FluxSan":
        return self.activate()

    def __exit__(self, *exc_info: object) -> None:
        self.deactivate()

    def report(self) -> str:
        """One-line summary of the checks this instance performed."""
        return (
            "FluxSan: "
            f"{self.stats['frees_tracked']} frees tracked, "
            f"{self.stats['exclusive_checks']} exclusivity checks, "
            f"{self.stats['sdfu_checks']} SDFU ground-truth checks, "
            f"{self.stats['status_checks']} status checks, "
            f"{self.stats['double_frees']} double-frees caught"
        )

    # ------------------------------------------------------------------
    # span double-free
    # ------------------------------------------------------------------
    def _pre_rem_span(self, planner: object, span_id: int) -> None:
        if planner.has_span(span_id):
            return
        site = self._freed.get(id(planner), {}).get(span_id)
        if site is not None:
            self.stats["double_frees"] += 1
            raise SanitizerError(
                f"span double-free: span {span_id} on {planner!r} was "
                f"already freed at {site}; second free at {_call_site()}"
            )

    def _post_rem_span(self, planner: object, span_id: int) -> None:
        sites = self._freed.setdefault(id(planner), {})
        if len(sites) >= _FREED_SITE_LIMIT:
            sites.pop(next(iter(sites)))
        sites[span_id] = _call_site()
        self.stats["frees_tracked"] += 1

    def _post_add_span(self, planner: object, span_id: int) -> None:
        # An explicit-id re-insert (crash recovery) legitimately reuses a
        # previously freed id; it is live again, so drop the free record.
        self._freed.get(id(planner), {}).pop(span_id, None)

    # ------------------------------------------------------------------
    # allocation checks (exclusivity + SDFU ground truth)
    # ------------------------------------------------------------------
    def _check_exclusive(self, traverser: Traverser, alloc: Allocation) -> None:
        """The auditor's exclusivity rule, on the one allocation just booked
        or installed, with allocations as owners: the first conflict raises.
        The index is kept per traverser and brought in step with its live
        allocations first."""
        self.stats["exclusive_checks"] += 1
        shape = traverser.graph.shape
        kept = self._exclusive.get(traverser)
        if kept is None or kept[0] != shape:
            kept = self._exclusive[traverser] = (
                shape, ExclusivityIndex(traverser.graph, traverser.subsystem)
            )
        index = kept[1]
        index.sync(traverser.allocations)
        for (sel_i, aid_i, alloc_i), (sel_k, aid_k, alloc_k) in index.conflicts(
            (alloc.alloc_id,)
        ):
            top, used = sel_i.vertex.name, sel_k.vertex.name
            inside = sel_i.vertex is not sel_k.vertex
            raise SanitizerError(
                f"overlapping allocations on exclusively-held vertex {used!r}"
                + (f" inside exclusively-held {top!r}" if inside else "")
                + f": allocation {aid_i} holds {top!r} exclusively over "
                f"[{alloc_i.at},{alloc_i.end}) and allocation {aid_k} uses "
                f"{used!r} over [{alloc_k.at},{alloc_k.end}); "
                "planner X-accounting was bypassed or corrupted"
            )

    def _check_sdfu(self, traverser: Traverser, alloc: Allocation) -> None:
        """Compare the filter spans actually booked for ``alloc`` against
        :func:`reference_sdfu_charges` of its selections."""
        graph = traverser.graph
        reference = reference_sdfu_charges(
            graph, traverser.subsystem, alloc.selections
        )
        owner = {id(graph.vertex(uid).prune_filters): uid for uid in reference}
        expected = {uid: counts for uid, counts in reference.items() if counts}
        actual: Dict[int, Dict[str, int]] = {}
        for planner, span_id in alloc._span_records:
            if not isinstance(planner, PlannerMulti):
                continue
            if not planner.has_span(span_id):
                raise SanitizerError(
                    f"allocation {alloc.alloc_id} records filter span "
                    f"{span_id} that the filter does not hold"
                )
            uid = owner.get(id(planner))
            if uid is None:
                raise SanitizerError(
                    f"SDFU divergence on allocation {alloc.alloc_id}: span "
                    f"{span_id} booked on a filter no selection charges"
                )
            per_type: Dict[str, int] = {}
            for rtype, sid in planner.get_span(span_id).items():
                span = planner.planner(rtype).get_span(sid)
                per_type[rtype] = span.request
                if (span.start, span.end) != (alloc.at, alloc.end):
                    raise SanitizerError(
                        f"SDFU window mismatch on allocation {alloc.alloc_id}: "
                        f"filter span for {rtype!r} covers "
                        f"[{span.start},{span.end}) but the allocation is "
                        f"[{alloc.at},{alloc.end})"
                    )
            actual[uid] = per_type
        if expected != actual:
            raise SanitizerError(
                "SDFU divergence on allocation "
                f"{alloc.alloc_id} [{alloc.at},{alloc.end}): expected filter "
                f"charges {_render_charges(graph, expected)} but the "
                f"traverser booked {_render_charges(graph, actual)}"
            )
        self.stats["sdfu_checks"] += 1

    # ------------------------------------------------------------------
    # graph status sanity
    # ------------------------------------------------------------------
    def _pre_mark(self, vertex: ResourceVertex, target: str) -> None:
        self.stats["status_checks"] += 1
        if vertex.status == target:
            verb = "drain" if target == "down" else "resume"
            raise SanitizerError(
                f"double {verb}: vertex {vertex.name!r} is already "
                f"{target!r} (at {_call_site()}); the failure/repair guard "
                "was bypassed"
            )


# ----------------------------------------------------------------------
# the independent SDFU reference
# ----------------------------------------------------------------------
def reference_exclusive_tops(
    graph: ResourceGraph, selections: Sequence[Selection], subsystem: str
) -> List[Selection]:
    """Reference for :func:`~repro.match.writer.exclusive_top_selections`:
    the exclusive selections none of whose :meth:`ResourceGraph.ancestors`
    is exclusively selected too."""
    exclusive = [s for s in selections if s.exclusive and not s.passthrough]
    held = {s.vertex.uniq_id for s in exclusive}
    return [
        sel for sel in exclusive
        if held.isdisjoint(
            v.uniq_id for v in graph.ancestors(sel.vertex, subsystem)
        )
    ]


def reference_sdfu_charges(
    graph: ResourceGraph, subsystem: str, selections: Sequence[Selection]
) -> Dict[int, Dict[str, int]]:
    """What §3.4 says the filters must be charged for ``selections``.

    The reference for :func:`~repro.match.writer.sdfu_charges`, with its
    contract — ``{uniq_id: {type: quantity}}`` in the same key order, a
    filter that tracks none of the charged types keeping an empty bucket —
    but derived by walking :meth:`ResourceGraph.ancestors` and
    :meth:`ResourceGraph.subtree_totals`, never the graph's
    structure-derived table.  Explicit (non-pass-through, amount-carrying)
    selections charge their amount to every ancestor filter; top-level
    exclusive selections also charge their subtree totals, minus the
    vertex itself and explicitly selected descendants, to their own filter
    and every ancestor filter.
    """
    prune_types = set(graph.prune_types)
    charges: Dict[int, Dict[str, int]] = {}
    if not prune_types:
        return charges
    above = {
        s.vertex.uniq_id: list(graph.ancestors(s.vertex, subsystem))
        for s in selections if not s.passthrough
    }

    def charge(targets: List[ResourceVertex], counts: Dict[str, int]) -> None:
        for target in targets:
            filters = target.prune_filters
            if filters is None:
                continue
            bucket = charges.setdefault(target.uniq_id, {})
            for rtype, qty in counts.items():
                if filters.tracks(rtype):
                    bucket[rtype] = bucket.get(rtype, 0) + qty

    explicit = [s for s in selections if not s.passthrough and s.amount]
    for sel in explicit:
        if sel.type in prune_types:
            charge(above[sel.vertex.uniq_id], {sel.type: sel.amount})
    tops = reference_exclusive_tops(graph, selections, subsystem)
    # what is explicitly booked below each top, by type
    below: Dict[int, Dict[str, int]] = {sel.vertex.uniq_id: {} for sel in tops}
    for sel in explicit:
        for anc in above[sel.vertex.uniq_id]:
            booked = below.get(anc.uniq_id)
            if booked is not None:
                booked[sel.type] = booked.get(sel.type, 0) + sel.amount
    for sel in tops:
        vertex = sel.vertex
        booked = below[vertex.uniq_id]
        totals = graph.subtree_totals(vertex, subsystem)  # a fresh dict
        totals[vertex.type] -= vertex.size
        extras = {
            rtype: qty - booked.get(rtype, 0) for rtype, qty in totals.items()
            if rtype in prune_types and qty > booked.get(rtype, 0)
        }
        if extras:
            charge([vertex] + above[vertex.uniq_id], extras)
    return charges


def _render_charges(graph: ResourceGraph, charges: Dict[int, Dict[str, int]]) -> str:
    rendered = {
        graph.vertex(uid).name: dict(sorted(bucket.items()))
        for uid, bucket in charges.items()
    }
    return repr(dict(sorted(rendered.items()))) if rendered else "{}"


# ----------------------------------------------------------------------
# class-level proxies
# ----------------------------------------------------------------------
def _install_proxies() -> None:  # guarded-by: _SAN_LOCK
    _patch(Planner, "rem_span", _wrap_rem_span)
    _patch(Planner, "add_span", _wrap_add_span)
    _patch(PlannerMulti, "rem_span", _wrap_rem_span)
    _patch(PlannerMulti, "add_span", _wrap_add_span)
    _patch(Traverser, "_book", _wrap_book)
    _patch(Traverser, "install_allocation", _wrap_install)
    _patch(ResourceGraph, "mark_down", _wrap_mark("down"))
    _patch(ResourceGraph, "mark_up", _wrap_mark("up"))


def _patch(cls: type, name: str, factory: Callable) -> None:  # guarded-by: _SAN_LOCK
    key = (cls, name)
    original = cls.__dict__[name]
    FluxSan._originals[key] = original
    setattr(cls, name, factory(original))


def _uninstall_proxies() -> None:  # guarded-by: _SAN_LOCK
    for (cls, name), original in FluxSan._originals.items():
        setattr(cls, name, original)
    FluxSan._originals.clear()


def _wrap_rem_span(original: Callable) -> Callable:
    def rem_span(self: object, span_id: int) -> Any:
        for sanitizer in FluxSan.active():
            sanitizer._pre_rem_span(self, span_id)
        result = original(self, span_id)
        for sanitizer in FluxSan.active():
            sanitizer._post_rem_span(self, span_id)
        return result

    rem_span.__doc__ = original.__doc__
    return rem_span


def _wrap_add_span(original: Callable) -> Callable:
    def add_span(self: object, *args: Any, **kwargs: Any) -> int:
        span_id = original(self, *args, **kwargs)
        for sanitizer in FluxSan.active():
            sanitizer._post_add_span(self, span_id)
        return span_id

    add_span.__doc__ = original.__doc__
    return add_span


def _wrap_book(original: Callable) -> Callable:
    def _book(self: Traverser, *args: Any, **kwargs: Any) -> Allocation:
        alloc = original(self, *args, **kwargs)
        if alloc is not None:
            for sanitizer in FluxSan.active():
                sanitizer._check_exclusive(self, alloc)
                sanitizer._check_sdfu(self, alloc)
        return alloc

    _book.__doc__ = original.__doc__
    return _book


def _wrap_install(original: Callable) -> Callable:
    def install_allocation(self: Traverser, alloc: Allocation) -> None:
        original(self, alloc)
        for sanitizer in FluxSan.active():
            # a recovery re-install books no new filter spans
            sanitizer._check_exclusive(self, alloc)

    install_allocation.__doc__ = original.__doc__
    return install_allocation


def _wrap_mark(target: str) -> Callable:
    def factory(original: Callable) -> Callable:
        def mark(self: ResourceGraph, vertex: ResourceVertex) -> None:
            for sanitizer in FluxSan.active():
                sanitizer._pre_mark(vertex, target)
            original(self, vertex)

        mark.__doc__ = original.__doc__
        return mark

    return factory


# ----------------------------------------------------------------------
# dual-run nondeterminism detector
# ----------------------------------------------------------------------
@dataclass
class DualRunReport:
    """Outcome of a lockstep dual run.

    ``diverged_at`` is ``None`` when the runs were identical; otherwise the
    zero-based event index at which the fingerprints first differed
    (``0`` = the factories already built different initial states), with
    ``diffs`` naming the differing fingerprint paths.
    """

    events: int
    diverged_at: Optional[int] = None
    diffs: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.diverged_at is None

    def summary(self) -> str:
        if self.ok:
            return (
                f"dual run deterministic over {self.events} event(s): "
                "fingerprints identical at every step"
            )
        shown = "; ".join(self.diffs[:5])
        more = len(self.diffs) - 5
        if more > 0:
            shown += f"; ... {more} more"
        return f"dual run DIVERGED at event {self.diverged_at}: {shown}"


def dual_run(
    build: Callable[[], Any],
    max_events: Optional[int] = None,
    raise_on_divergence: bool = True,
) -> DualRunReport:
    """Execute a simulation twice with identical inputs and diff states.

    ``build`` is a zero-argument factory returning a fully prepared
    :class:`~repro.sched.simulator.ClusterSimulator` (graph built, workload
    submitted).  It is called twice; both simulators are stepped in
    lockstep and their :func:`~repro.recovery.state_fingerprint` values are
    compared after every event.  Any hidden wall-clock read, unseeded RNG,
    or iteration-order dependence shows up as a divergence at the first
    event it influences.

    Raises :class:`~repro.errors.SanitizerError` on divergence (or returns
    the failing :class:`DualRunReport` when ``raise_on_divergence`` is
    false).
    """
    from ..recovery.diff import state_fingerprint, _walk

    first = build()
    second = build()
    events = 0
    while True:
        diffs: List[str] = []
        _walk(state_fingerprint(first), state_fingerprint(second), "", diffs)
        if diffs:
            report = DualRunReport(
                events=events, diverged_at=events, diffs=diffs
            )
            if raise_on_divergence:
                raise SanitizerError(report.summary())
            return report
        if max_events is not None and events >= max_events:
            return DualRunReport(events=events)
        when_first = first.step()
        when_second = second.step()
        if when_first != when_second:
            report = DualRunReport(
                events=events, diverged_at=events,
                diffs=[f"event time: {when_first!r} != {when_second!r}"],
            )
            if raise_on_divergence:
                raise SanitizerError(report.summary())
            return report
        if when_first is None:
            return DualRunReport(events=events)
        events += 1
