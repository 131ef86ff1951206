"""FluxSan: opt-in runtime sanitizer for span-safety and determinism.

FluxSan wraps the Planner/PlannerMulti/graph/traverser hot paths with
checking proxies while at least one :class:`FluxSan` instance is active
(``with FluxSan() as san:``, or for a whole simulation
``ClusterSimulator(..., sanitize=True)`` / environment ``FLUXSAN=1``).
Four checks, all raising :class:`~repro.errors.SanitizerError` with a
usable report:

* **span double-free** — releasing a planner span twice.  The error names
  the span, the planner, and the call site of the *first* free, which is
  the information a plain :class:`SpanNotFoundError` cannot give.
* **overlapping exclusive holds** — two live allocations touching the same
  vertex in overlapping windows while either holds it exclusively.  The
  planners' X_LIMIT accounting makes this impossible through the normal
  booking path, so seeing it means state was corrupted (typically by a
  recovery-rewiring or manual ``install_allocation`` bug).
* **SDFU divergence** — after every booking, the pruning-filter spans the
  traverser actually wrote are compared against an independent recompute of
  the Scheduler-Driven Filter Update from the allocation's selections
  (explicit amounts plus exclusive-subtree extras, §3.4).
* **graph status sanity** — draining an already-down vertex or resuming an
  already-up one indicates a lost guard in the failure/repair path.

Determinism is checked by :func:`dual_run`: build the same simulation
twice from a zero-argument factory, step both in lockstep, and diff
:func:`~repro.recovery.state_fingerprint` after every event.  Any
divergence — a wall-clock read, unseeded RNG, or iteration-order leak —
surfaces as a named fingerprint path at the first event it poisons.

Proxies are installed by class-level patching with activation
refcounting: nested/overlapping FluxSan activations compose, and the
original methods are restored when the last instance deactivates.  The
overhead is deliberately unbounded (ground-truth recomputes); FluxSan is
a debugging and CI tool, not a production mode.
"""

from __future__ import annotations

# FluxSan's stats dict is a diagnostic self-count rendered by its own
# report(), not scheduler observability — routing it through a
# MetricsRegistry would make the sanitizer depend on the layer it audits.
# fluxlint: disable-file=OBS001

import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import SanitizerError
from ..match.traverser import Traverser
from ..match.writer import Allocation
from ..planner.multi import PlannerMulti
from ..planner.planner import Planner
from ..resource.graph import ResourceGraph
from ..resource.vertex import ResourceVertex

__all__ = ["FluxSan", "DualRunReport", "dual_run"]

#: per-planner cap on remembered freed-span sites (oldest evicted first)
_FREED_SITE_LIMIT = 1024

_SKIP_SITE_FRAGMENTS = ("statcheck/sanitizer", "repro/planner/")

#: serializes proxy (un)installation and the active-instance list —
#: class-level patching is inherently process-wide, so concurrent
#: activations from two threads must not interleave
_SAN_LOCK = threading.Lock()


def _call_site() -> str:
    """Innermost stack frame outside the sanitizer and planner internals."""
    for frame in reversed(traceback.extract_stack()):
        filename = frame.filename.replace("\\", "/")
        if any(fragment in filename for fragment in _SKIP_SITE_FRAGMENTS):
            continue
        return f"{frame.filename}:{frame.lineno} in {frame.name}"
    return "<unknown>"


class FluxSan:
    """Activatable bundle of runtime invariant checks.

    Parameters
    ----------
    check_double_free / check_exclusive / check_sdfu / check_status:
        Toggle individual checks (all on by default).

    Use as a context manager, or call :meth:`activate` / :meth:`deactivate`
    explicitly.  :attr:`stats` counts checks performed; :meth:`report`
    renders them.
    """

    _active: List["FluxSan"] = []  # guarded-by: _SAN_LOCK
    _originals: Dict[Tuple[type, str], Callable] = {}  # guarded-by: _SAN_LOCK

    def __init__(
        self,
        check_double_free: bool = True,
        check_exclusive: bool = True,
        check_sdfu: bool = True,
        check_status: bool = True,
    ) -> None:
        self.check_double_free = check_double_free
        self.check_exclusive = check_exclusive
        self.check_sdfu = check_sdfu
        self.check_status = check_status
        #: id(planner) -> {span_id: call site of the free}
        self._freed: Dict[int, Dict[int, str]] = {}
        self.stats: Dict[str, int] = {
            "frees_tracked": 0,
            "double_frees": 0,
            "exclusive_checks": 0,
            "sdfu_checks": 0,
            "status_checks": 0,
        }

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
            f"{self.stats['exclusive_checks']} exclusive-overlap checks, "
            f"{self.stats['sdfu_checks']} SDFU ground-truth checks, "
            f"{self.stats['status_checks']} status checks, "
            f"{self.stats['double_frees']} double-frees caught"
        )

    # ------------------------------------------------------------------
    # span double-free
    # ------------------------------------------------------------------
    def _pre_rem_span(self, planner: object, span_id: int) -> None:
        if not self.check_double_free:
            return
        has = planner.has_span(span_id)
        if has:
            return
        site = self._freed.get(id(planner), {}).get(span_id)
        if site is not None:
            self.stats["double_frees"] += 1
            raise SanitizerError(
                f"span double-free: span {span_id} on {planner!r} was "
                f"already freed at {site}; second free at {_call_site()}"
            )

    def _post_rem_span(self, planner: object, span_id: int) -> None:
        if not self.check_double_free:
            return
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
    # allocation checks (exclusive overlap + SDFU ground truth)
    # ------------------------------------------------------------------
    def _check_allocation(
        self, traverser: Traverser, alloc: Allocation, booked: bool
    ) -> None:
        if self.check_exclusive:
            self._check_exclusive_overlap(traverser, alloc)
        if self.check_sdfu and booked:
            self._check_sdfu(traverser, alloc)

    def _check_exclusive_overlap(
        self, traverser: Traverser, alloc: Allocation
    ) -> None:
        self.stats["exclusive_checks"] += 1
        mine: Dict[int, Any] = {}
        for sel in alloc.selections:
            if not sel.passthrough:
                mine[sel.vertex.uniq_id] = sel
        for other in traverser.allocations.values():
            if other.alloc_id == alloc.alloc_id:
                continue
            if not (alloc.at < other.end and other.at < alloc.end):
                continue
            for osel in other.selections:
                sel = mine.get(osel.vertex.uniq_id)
                if sel is None:
                    continue
                if sel.exclusive or (osel.exclusive and not osel.passthrough):
                    raise SanitizerError(
                        "overlapping allocations on exclusively-held vertex "
                        f"{sel.vertex.name!r}: allocation {alloc.alloc_id} "
                        f"[{alloc.at},{alloc.end}) vs allocation "
                        f"{other.alloc_id} [{other.at},{other.end}) "
                        f"(exclusive={sel.exclusive}/{osel.exclusive}); "
                        "planner X-accounting was bypassed or corrupted"
                    )

    def _check_sdfu(self, traverser: Traverser, alloc: Allocation) -> None:
        """Compare the filter spans actually booked for ``alloc`` against an
        independent recompute of the SDFU charges from its selections."""
        graph = traverser.graph
        prune_types = set(graph.prune_types)
        expected = _expected_sdfu_charges(
            graph, traverser.subsystem, alloc, prune_types
        )
        actual: Dict[int, Dict[str, int]] = {}
        for planner, span_id in alloc._span_records:
            if not isinstance(planner, PlannerMulti):
                continue
            if not planner.has_span(span_id):
                raise SanitizerError(
                    f"allocation {alloc.alloc_id} records filter span "
                    f"{span_id} that the filter does not hold"
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
            actual[id(planner)] = per_type
        if expected != actual:
            names = _filter_owner_names(graph)
            raise SanitizerError(
                "SDFU divergence on allocation "
                f"{alloc.alloc_id} [{alloc.at},{alloc.end}): expected filter "
                f"charges {_render_charges(expected, names)} but the "
                f"traverser booked {_render_charges(actual, names)}"
            )
        self.stats["sdfu_checks"] += 1

    # ------------------------------------------------------------------
    # graph status sanity
    # ------------------------------------------------------------------
    def _pre_mark(self, vertex: ResourceVertex, target: str) -> None:
        if not self.check_status:
            return
        self.stats["status_checks"] += 1
        if vertex.status == target:
            verb = "drain" if target == "down" else "resume"
            raise SanitizerError(
                f"double {verb}: vertex {vertex.name!r} is already "
                f"{target!r} (at {_call_site()}); the failure/repair guard "
                "was bypassed"
            )


# ----------------------------------------------------------------------
# independent SDFU recompute (the ground truth the check compares against)
# ----------------------------------------------------------------------
def _expected_sdfu_charges(
    graph: ResourceGraph,
    subsystem: str,
    alloc: Allocation,
    prune_types: set,
) -> Dict[int, Dict[str, int]]:
    """What §3.4 says the filters must be charged for ``alloc``.

    Explicit (non-pass-through, amount-carrying) selections charge their
    amount to every ancestor filter tracking their type; top-level exclusive
    selections additionally charge their whole subtree totals (minus
    explicitly selected descendants) to their own filter and every ancestor
    filter.  Charges that net to zero or less are dropped.
    """
    if not prune_types:
        return {}
    charges: Dict[int, Dict[str, int]] = {}
    # Nested under = a descendant of, in the traverser's subsystem.
    above: Dict[int, List[ResourceVertex]] = {
        sel.vertex.uniq_id: list(graph.ancestors(sel.vertex, subsystem))
        for sel in alloc.selections
        if not sel.passthrough
    }
    above_ids = {uid: {v.uniq_id for v in ancs} for uid, ancs in above.items()}

    def charge(vertex: ResourceVertex, counts: Dict[str, int],
               include_self: bool) -> None:
        targets = above[vertex.uniq_id]
        if include_self:
            targets = [vertex] + targets
        for target in targets:
            filters = target.prune_filters
            if filters is None:
                continue
            bucket = charges.setdefault(id(filters), {})
            for rtype, qty in counts.items():
                if filters.tracks(rtype):
                    bucket[rtype] = bucket.get(rtype, 0) + qty

    explicit = [
        sel for sel in alloc.selections if not sel.passthrough and sel.amount
    ]
    for sel in explicit:
        if sel.type in prune_types:
            charge(sel.vertex, {sel.type: sel.amount}, include_self=False)

    exclusive = [
        sel for sel in alloc.selections if sel.exclusive and not sel.passthrough
    ]
    for sel in exclusive:
        uid = sel.vertex.uniq_id
        if any(other.vertex.uniq_id in above_ids[uid] for other in exclusive):
            continue  # nested under another exclusive hold
        extras = {
            rtype: total
            for rtype, total in graph.subtree_totals(
                sel.vertex, subsystem
            ).items()
            if rtype in prune_types
        }
        extras[sel.type] = extras.get(sel.type, 0) - sel.vertex.size
        for other in explicit:
            if uid in above_ids[other.vertex.uniq_id]:
                if other.type in extras:
                    extras[other.type] -= other.amount
        extras = {rtype: qty for rtype, qty in extras.items() if qty > 0}
        if extras:
            charge(sel.vertex, extras, include_self=True)

    return {
        fid: {rtype: qty for rtype, qty in bucket.items() if qty > 0}
        for fid, bucket in charges.items()
        if any(qty > 0 for qty in bucket.values())
    }


def _filter_owner_names(graph: ResourceGraph) -> Dict[int, str]:
    names: Dict[int, str] = {}
    for vertex in graph.vertices():
        if vertex.prune_filters is not None:
            names[id(vertex.prune_filters)] = vertex.name
    return names


def _render_charges(
    charges: Dict[int, Dict[str, int]], names: Dict[int, str]
) -> str:
    rendered = {
        names.get(fid, f"<filter {fid}>"): dict(sorted(bucket.items()))
        for fid, bucket in charges.items()
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
        for sanitizer in FluxSan.active():
            sanitizer._check_allocation(self, alloc, booked=True)
        return alloc

    _book.__doc__ = original.__doc__
    return _book


def _wrap_install(original: Callable) -> Callable:
    def install_allocation(self: Traverser, alloc: Allocation) -> None:
        original(self, alloc)
        for sanitizer in FluxSan.active():
            # Recovery re-installs book no new filter spans, so only the
            # overlap check applies here.
            sanitizer._check_allocation(self, alloc, booked=False)

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
        return (
            f"dual run DIVERGED at event {self.diverged_at}: {shown}"
        )


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
                events=events,
                diverged_at=events,
                diffs=[
                    f"event time: {when_first!r} != {when_second!r}"
                ],
            )
            if raise_on_divergence:
                raise SanitizerError(report.summary())
            return report
        if when_first is None:
            return DualRunReport(events=events)
        events += 1
