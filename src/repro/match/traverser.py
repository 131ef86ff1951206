"""The DFU traverser: graph matching, pruning and SDFU (paper §3.2-§3.4).

The traverser walks the resource graph store in depth-first order, matches an
abstract resource request graph (jobspec) against it, and emits the selected
resource set.  Three operations mirror Fluxion's match verbs:

* :meth:`Traverser.allocate` — match at a fixed time or fail;
* :meth:`Traverser.allocate_orelse_reserve` — match now, or reserve the
  earliest future window (conservative-backfill building block).  Candidate
  start times come from the containment root's pruning filter via
  ``PlannerMultiAvailTimeFirst`` (§4.1);
* :meth:`Traverser.satisfiable` — structural check against raw capacities,
  ignoring current allocations; answered once per jobspec shape until the
  graph's structure changes.

Gates (§3.4): before any walk, a timed match is refused when the root's
pruning filter, or the sum of its children's, cannot cover the jobspec's
totals over the window.

Pruning (§3.4): while collecting candidates the traverser consults each
interior vertex's pruning filter with the request's per-unit subtree demand
and skips subtrees that cannot satisfy it; exclusively-held vertices are
skipped outright.  After a successful match, :meth:`Traverser._book` books
:func:`~repro.match.writer.allocation_bookings` of the selections — their
spans, then the Scheduler-Driven Filter Update (SDFU) of every ancestor
filter along the selected paths only — through
:func:`~repro.match.writer.book`.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import (
    AllocationNotFoundError,
    MatchError,
    PlannerError,
    SchedulingDeadlineExceeded,
)
from ..jobspec import Jobspec, ResourceRequest
from ..obs import NULL_OBSERVER, MetricsRegistry, Observer
from ..resource import CONTAINMENT, ResourceGraph, ResourceVertex
from ..resource.vertex import X_LIMIT
from .policy import MatchPolicy, keeps_discovery_order, make_policy
from .writer import Allocation, Selection, allocation_bookings, book

if False:  # pragma: no cover - annotation-only imports
    from ..resilience.overload import WorkBudget

__all__ = ["Traverser", "Candidate"]


def _tracked_slice(
    filters, demand: Dict[str, int], cache: Dict[Tuple[str, ...], Dict[str, int]]
) -> Dict[str, int]:
    """The slice of ``demand`` a pruning filter tracks, memoized per filter
    type-set.

    Filters at the same graph level track identical type sets, so one
    ``_collect``/``_fill_count`` pass re-derives the same dict thousands of
    times; keying on ``filters.types`` collapses that to one comprehension
    per distinct set (a dict built per visited vertex otherwise).
    """
    key = filters.types
    tracked = cache.get(key)
    if tracked is None:
        tracked = {t: n for t, n in demand.items() if n and filters.tracks(t)}
        cache[key] = tracked
    return tracked


class Candidate:
    """A candidate vertex plus the interior vertices crossed to reach it.

    Slotted plain class: ``_collect`` materialises one per matching vertex
    per dispatch, so the per-instance dict a dataclass would carry is pure
    hot-path overhead.  Treated as immutable.  ``_collect`` sets
    the slots without ``__init__`` (which would cost more than its yield,
    EXPERIMENTS.md E22), so a new field goes there too.
    """

    __slots__ = ("vertex", "via")

    def __init__(
        self,
        vertex: ResourceVertex,
        via: Tuple[ResourceVertex, ...] = (),
    ) -> None:
        self.vertex = vertex
        self.via = via

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Candidate):
            return NotImplemented
        return self.vertex == other.vertex and self.via == other.via

    def __hash__(self) -> int:
        return hash((self.vertex, self.via))

    def __repr__(self) -> str:
        return f"Candidate(vertex={self.vertex!r}, via={self.via!r})"


class _Tentative:
    """Journalled tentative bookings for one in-progress match.

    Quantities and exclusivity levels claimed so far are tracked per vertex,
    each where :attr:`Selection.booking` will book it (a pool quantity in
    ``qty``, an exclusive, shared or pass-through level in ``x``);
    ``mark``/``rollback`` undo failed sub-matches cheaply.  ``assume_up``
    makes the walk of this match treat every drained vertex as in service.
    """

    __slots__ = ("qty", "x", "passthrough", "_journal", "assume_up")

    def __init__(self, assume_up: bool = False) -> None:
        self.assume_up = assume_up
        self.qty: Dict[int, int] = {}
        self.x: Dict[int, int] = {}
        self.passthrough: set = set()
        self._journal: List[Tuple[str, int, int]] = []

    def add_qty(self, uid: int, amount: int) -> None:
        if amount:
            self.qty[uid] = self.qty.get(uid, 0) + amount
            self._journal.append(("q", uid, amount))

    def add_x(self, uid: int, amount: int) -> None:
        self.x[uid] = self.x.get(uid, 0) + amount
        self._journal.append(("x", uid, amount))

    def add_passthrough(self, uid: int) -> bool:
        """Record a pass-through visit; False when already recorded."""
        if uid in self.passthrough:
            return False
        self.passthrough.add(uid)
        self._journal.append(("p", uid, 0))
        return True

    def mark(self) -> int:
        return len(self._journal)

    def rollback(self, mark: int) -> None:
        journal, qty, x = self._journal, self.qty, self.x
        while len(journal) > mark:
            kind, uid, amount = journal.pop()
            if kind == "q":
                qty[uid] -= amount
                if not qty[uid]:
                    del qty[uid]
            elif kind == "x":
                x[uid] -= amount
                if not x[uid]:
                    del x[uid]
            else:
                self.passthrough.discard(uid)


class Traverser:
    """Depth-first-and-up traverser over one subsystem of a resource graph.

    Parameters
    ----------
    graph:
        The resource graph store.
    policy:
        A :class:`~repro.match.policy.MatchPolicy` instance or registered
        policy name (``first``/``high``/``low``/``locality``/``variation``).
    prune:
        Enable pruning-filter consultation during candidate collection.
    subsystem:
        The subsystem to traverse (graph filtering, §3.3).
    max_reserve_iters:
        Safety bound on the candidate-time iteration of
        ``allocate_orelse_reserve``.
    obs:
        An :class:`repro.obs.Observer` for span tracing; counters always
        collect into :attr:`metrics` regardless (they are the paper's §6
        instrumentation and cost one attribute-add each).
    """

    def __init__(
        self,
        graph: ResourceGraph,
        policy: "MatchPolicy | str" = "first",
        prune: bool = True,
        subsystem: str = CONTAINMENT,
        max_reserve_iters: int = 100_000,
        obs: Optional[Observer] = None,
    ) -> None:
        self.graph = graph
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.prune = prune
        self.subsystem = subsystem
        self.max_reserve_iters = max_reserve_iters
        self.allocations: Dict[int, Allocation] = {}
        self._next_alloc_id = 1
        #: span tracing sink; replaced by ClusterSimulator(observe=...)
        self.obs = obs if obs is not None else NULL_OBSERVER
        #: per-traverser performance counters (always on; §6 numbers)
        self.metrics = MetricsRegistry()
        self._c_visits = self.metrics.counter(
            "dfu.visits", "graph vertices visited during collection")
        self._c_matched = self.metrics.counter(
            "dfu.matched", "successful full matches")
        self._c_failed = self.metrics.counter(
            "dfu.failed", "failed match/reserve attempts")
        self._c_reserve = self.metrics.counter(
            "dfu.reserve_iters", "candidate times tried by reserve search")
        self._c_filter_hits = self.metrics.counter(
            "sdfu.filter_hits", "pruning-filter consults that cut a subtree")
        self._c_filter_misses = self.metrics.counter(
            "sdfu.filter_misses", "pruning-filter consults that passed")
        self._c_sdfu_updates = self.metrics.counter(
            "sdfu.updates", "ancestor filters updated after a booking")
        self._c_deadline = self.metrics.counter(
            "dfu.deadline_cancels",
            "match attempts cut short by a scheduling deadline")
        self._c_satisfiable_hits = self.metrics.counter(
            "dfu.satisfiable_hits",
            "satisfiable() calls answered from a remembered shape")
        #: keep the list each booking wrote as ``Allocation._bookings``, so
        #: the expected state need not derive it again; switched on by the
        #: expected state a verifier keeps
        self.keep_bookings = False
        #: cooperative work budget (repro.resilience.overload): when an
        #: OverloadController attaches one for the duration of a dispatch
        #: cycle, candidate collection and the reservation search charge it
        #: and honour its cancellation checkpoints.  None = unbounded.
        self.budget: "Optional[WorkBudget]" = None
        #: shapes :meth:`satisfiable` has answered yes for, as (shape,
        #: assume_up), and what they were derived under: (graph.structure,
        #: policy, subsystem).  Derived state: dropped whole when any of the
        #: three differs, never exported, snapshotted or fingerprinted.
        self._satisfiable_yes: Set[Tuple[object, bool]] = set()
        self._satisfiable_under: Tuple[object, ...] = ()

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------
    def allocate(self, jobspec: Jobspec, at: int = 0) -> Optional[Allocation]:
        """Match and book ``jobspec`` starting exactly at ``at``.

        Returns the Allocation, or None when the request cannot be satisfied
        at that time — including when an attached work budget's *attempt*
        deadline fires mid-traversal (partial verdict: treated as no-match;
        a *cycle*-scope deadline propagates to the overload controller).
        """
        with self.obs.tracer.span("dfu.match", "match", vt=float(at)):
            if self.budget is not None:
                self.budget.begin_attempt()
            try:
                selections = self._match_at(at, jobspec.duration, jobspec)
            except SchedulingDeadlineExceeded as exc:
                if exc.scope != "attempt":
                    raise
                self._c_deadline.inc()
                self._c_failed.inc()
                why = self.obs.why
                if why.enabled:
                    why.fail("deadline", scope=exc.scope)
                return None
            alloc = None
            if selections is not None:
                alloc = self._book(selections, at, jobspec.duration, reserved=False)
            if alloc is None:
                self._c_failed.inc()
            return alloc

    def could_fit(self, jobspec: Jobspec, at: int) -> bool:
        """False when :meth:`allocate` at ``at`` is refused before any
        walk: the window passes ``graph.plan_end``, or cut 1 (see
        :meth:`_gated`) shows the totals are not free throughout it.  True
        says only that cut 1 lets the request through.  Records nothing."""
        duration = jobspec.duration
        if at + duration > self.graph.plan_end:
            return False
        return not self.prune or self._cut1(
            at, duration, jobspec.total_demand
        ) is not False

    def allocate_orelse_reserve(
        self, jobspec: Jobspec, now: int = 0
    ) -> Optional[Allocation]:
        """Match at ``now`` or reserve the earliest future window.

        Candidate start times are produced by the containment root's pruning
        filter (install one with
        :meth:`~repro.resource.graph.ResourceGraph.install_pruning_filters`);
        each candidate is verified with a full match, and the first success
        is booked.  Returns None when the request can never fit.
        """
        with self.obs.tracer.span("dfu.reserve_search", "match", vt=float(now)):
            if self.budget is not None:
                self.budget.begin_attempt()
            try:
                return self._reserve_search(jobspec, now)
            except SchedulingDeadlineExceeded as exc:
                if exc.scope != "attempt":
                    raise
                self._c_deadline.inc()
                self._c_failed.inc()
                why = self.obs.why
                if why.enabled:
                    why.fail("deadline", scope=exc.scope)
                return None

    def _reserve_search(
        self, jobspec: Jobspec, now: int
    ) -> Optional[Allocation]:
        duration = jobspec.duration
        totals = jobspec.total_demand
        # Availability only changes at scheduled points, so the earliest
        # feasible start is `now` or a later event: an allocation completing,
        # or any state change visible in a root pruning filter (which also
        # covers outage windows booked by CapacitySchedule).  A single root's
        # filter additionally *jumps* the candidate time forward with the
        # paper's PlannerMultiAvailTimeFirst: times whose aggregate
        # availability cannot cover the request totals are skipped wholesale
        # (§3.4, §4.1); several roots each see only part of the machine.
        why = self.obs.why
        horizon = self.graph.plan_end - duration
        if now > horizon:
            if why.enabled:
                why.fail("horizon", now=now, horizon=horizon)
            return None
        root_filters = [
            root.prune_filters
            for root in self.graph.roots(self.subsystem)
            if root.prune_filters is not None
        ]
        bound = self._bounding_root()
        filters = None if bound is None else bound.prune_filters
        candidate = now
        for _ in range(self.max_reserve_iters):
            self._c_reserve.inc()
            if self.budget is not None:
                self.budget.charge(1)
            if filters is not None:
                # Advance to the first aggregate-feasible time.
                t = filters.avail_time_first(totals, duration, candidate)
                if t is None:
                    self._c_failed.inc()
                    if why.enabled:
                        tracked = sorted(r for r in totals if filters.tracks(r))
                        why.fail(
                            "planner_time", after=candidate,
                            types=",".join(tracked),
                        )
                    return None
                candidate = t
            if candidate > horizon:
                self._c_failed.inc()
                if why.enabled:
                    why.fail(
                        "planner_time", candidate=candidate, horizon=horizon
                    )
                return None
            selections = self._match_at(candidate, duration, jobspec)
            if selections is not None:
                alloc = self._book(
                    selections, candidate, duration, reserved=candidate > now
                )
                if alloc is not None:
                    return alloc
            # Aggregates were satisfied but the full match (or its booking)
            # failed: spatial fragmentation, or an outage under an exclusive
            # selection.  Move to the next event after the candidate.
            events = [
                a.end
                for a in self.allocations.values()
                if candidate < a.end <= horizon
            ]
            for root_filter in root_filters:
                t = root_filter.next_event_time(candidate)
                if t is not None and t <= horizon:
                    events.append(t)
            if not events:
                break
            candidate = min(events)
        else:
            raise MatchError(
                f"reservation search exceeded {self.max_reserve_iters} "
                "candidate times"
            )
        self._c_failed.inc()
        if why.enabled:
            why.fail("reserve_exhausted", last_candidate=candidate)
        return None

    def reserve(self, jobspec: Jobspec, earliest: int = 0) -> Optional[Allocation]:
        """Reserve the earliest window at or after ``earliest`` (alias that
        never considers 'now' special; the result may still start at
        ``earliest``)."""
        return self.allocate_orelse_reserve(jobspec, now=earliest)

    def satisfiable(self, jobspec: Jobspec, assume_up: bool = False) -> bool:
        """Could ``jobspec`` ever match this graph, ignoring allocations?

        No when its duration exceeds the planning horizon: no window can
        hold it.  Otherwise the answer depends only on the jobspec's shape
        and on what exists and is in service, so a yes is remembered per
        shape until ``graph.structure`` moves (or the match policy or the
        subsystem is swapped) and the next job of that shape costs a
        lookup, not a walk of the whole graph.  A no is never remembered
        (it is rare, ends the job, and its walk is what tells fluxwhy why),
        and neither is a shape with a ``requires`` anywhere: its predicate
        reads ``vertex.properties``, which may be edited in place.
        ``assume_up`` asks the same of the machine with every drained
        vertex back in service.
        """
        graph = self.graph
        if jobspec.duration > graph.plan_end - graph.plan_start:
            why = self.obs.why
            if why.enabled:
                why.fail(
                    "horizon", duration=jobspec.duration,
                    plan_start=graph.plan_start, plan_end=graph.plan_end,
                )
            return False
        under = (graph.structure, self.policy, self.subsystem)
        if under != self._satisfiable_under:
            self._satisfiable_yes.clear()
            self._satisfiable_under = under
        key = (jobspec.shape, assume_up)
        if key in self._satisfiable_yes:
            self._c_satisfiable_hits.inc()
            return True
        if self._match_at(None, jobspec.duration, jobspec, assume_up) is None:
            return False
        if all(request.requires is None for request in jobspec.walk()):
            self._satisfiable_yes.add(key)
        return True

    def remove(self, alloc_id: int, now: Optional[int] = None) -> Allocation:
        """Release an allocation or cancel a reservation.

        ``now`` is the current time where the caller knows it: a release at
        or after the booked end gives back nothing the planners had not
        already announced (see :meth:`ResourceGraph.note_change`).
        """
        try:
            alloc = self.allocations.pop(alloc_id)
        except KeyError:
            raise AllocationNotFoundError(alloc_id) from None
        for planner, span_id in alloc._span_records:
            planner.rem_span(span_id)
        alloc._span_records.clear()
        alloc._bookings = None
        self.graph.note_change(planned=now is not None and alloc.end <= now)
        return alloc

    def install_allocation(self, alloc: Allocation) -> None:
        """Register an externally rebuilt allocation (crash recovery).

        The allocation's planner spans must already be booked; this only
        re-registers the record and keeps future alloc ids disjoint.
        """
        if alloc.alloc_id in self.allocations:
            raise MatchError(
                f"allocation id {alloc.alloc_id} already registered"
            )
        self.allocations[alloc.alloc_id] = alloc
        self._next_alloc_id = max(self._next_alloc_id, alloc.alloc_id + 1)

    def remove_all(self) -> None:
        """Release every allocation made through this traverser."""
        for alloc_id in list(self.allocations):
            self.remove(alloc_id)

    def update_end(self, alloc_id: int, new_end: int) -> Allocation:
        """Extend or truncate an allocation's window in place (§5.5).

        Extension succeeds only when every booked vertex (and filter) has the
        capacity free over the added segment — reservations made after this
        allocation physically block it, so walltime extensions can never
        invalidate the schedule.  A span extends against its own planner
        only, so a selection with an amount first asks the vertex's
        effective view (:meth:`ResourceVertex.avail_during`): a pool
        quantity must meet no exclusive hold, and an exclusive hold no pool
        quantity.  All-or-nothing: on failure the allocation is left exactly
        as it was and :class:`MatchError` is raised.
        """
        try:
            alloc = self.allocations[alloc_id]
        except KeyError:
            raise AllocationNotFoundError(alloc_id) from None
        if new_end == alloc.end:
            return alloc
        old_end = alloc.end
        added = new_end - old_end
        done = []
        try:
            for sel in alloc.selections:
                if added > 0 and sel.amount and not sel.vertex.avail_during(
                    old_end, added, sel.amount
                ):
                    raise PlannerError(
                        f"{sel.vertex.name} is in use in [{old_end},{new_end})"
                    )
            for planner, span_id in alloc._span_records:
                planner.update_span_end(span_id, new_end)
                done.append((planner, span_id))
        except PlannerError as exc:
            for planner, span_id in done:
                planner.update_span_end(span_id, old_end)
            raise MatchError(
                f"cannot move allocation {alloc_id} end to {new_end}: {exc}"
            ) from exc
        alloc.duration = new_end - alloc.at
        if new_end < old_end:
            self.graph.note_change()
        return alloc

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def _bounding_root(self) -> Optional[ResourceVertex]:
        """The containment root whose pruning filter bounds what the whole
        machine has free, or None: no filter installed, or several roots,
        each of whose filters sees only its own part."""
        roots = self.graph.roots(self.subsystem)
        if len(roots) == 1 and roots[0].prune_filters is not None:
            return roots[0]
        return None

    def _match_at(
        self,
        at: Optional[int],
        duration: int,
        jobspec: Jobspec,
        assume_up: bool = False,
    ) -> Optional[List[Selection]]:
        """Match the whole jobspec at time ``at`` (None = capacity mode,
        where ``assume_up`` may ask the walk to ignore drained status)."""
        if at is not None:
            why = self.obs.why
            if at + duration > self.graph.plan_end:
                if why.enabled:
                    why.fail(
                        "horizon", at=at, duration=duration,
                        plan_end=self.graph.plan_end,
                    )
                return None
            if self.prune and self._gated(at, duration, jobspec):
                return None
        tentative = _Tentative(assume_up)
        out: List[Selection] = []
        ok = self._match_requests(
            None, jobspec.resources, at, duration, False, tentative, out
        )
        if ok:
            self._c_matched.inc()
            return out
        return None

    def _cut1(
        self, at: int, duration: int, totals: Dict[str, int]
    ) -> Optional[bool]:
        """Cut 1: does the bounding root's filter show ``totals`` free
        throughout the window?  None when there is no bounding root."""
        root = self._bounding_root()
        if root is None:
            return None
        return root.prune_filters.avail_during(at, duration, totals)

    def _gated(self, at: int, duration: int, jobspec: Jobspec) -> bool:
        """The gates (§3.4): True when the filters show the jobspec's totals
        cannot be free over the window, so the match is refused without a
        walk.  No match uses less than the totals, and a filter never shows
        less than its subtree has free (DESIGN.md, "the gates").  Cut 1 is
        the bounding root's filter.  The sum over
        :meth:`ResourceGraph.cover` follows: the root's children (cut 2,
        asked only when cut 1 passes) or, with several roots, the roots
        themselves.  A refusal counts one filter hit and charges no work
        budget."""
        totals = jobspec.total_demand
        why = self.obs.why
        cut1 = self._cut1(at, duration, totals)
        if cut1 is False:
            self._c_filter_hits.inc()
            if why.enabled:
                # What the walk reports when it is cut at the root.
                root = self._bounding_root()
                first = jobspec.resources[0]
                if first.is_slot:
                    first = first.with_[0]
                why.prune("filter", root.type, root.name)
                why.fail("no_candidates", type=first.type, under="")
            return True
        if cut1:
            self._c_filter_misses.inc()
        short = self._cover_short(at, duration, totals)
        if short is None:
            return False
        self._c_filter_hits.inc()
        if why.enabled:
            rtype, have, need = short
            why.fail("cover", type=rtype, have=have, need=need)
        return True

    def _cover_short(
        self, at: int, duration: int, totals: Dict[str, int]
    ) -> Optional[Tuple[str, int, int]]:
        """The first demanded type whose :meth:`ResourceGraph.cover`
        planners, summed, have less than the need free throughout the
        window, as ``(type, have, need)``; None when every type is covered
        or abstains.  Each sum stops once it reaches the need."""
        cover = self.graph.cover
        subsystem = self.subsystem
        for rtype, need in totals.items():
            planners = cover(subsystem, rtype) if need > 0 else None
            if planners is None:
                continue
            have = 0
            for planner in planners:
                have += planner.avail_resources_during(at, duration)
                if have >= need:
                    break
            else:
                return rtype, have, need
        return None

    def _match_requests(
        self,
        parent: Optional[ResourceVertex],
        requests: Sequence[ResourceRequest],
        at: Optional[int],
        duration: int,
        exclusive_ctx: bool,
        tentative: _Tentative,
        out: List[Selection],
    ) -> bool:
        for request in requests:
            if request.is_slot:
                # A slot is a grouping shape: its children are matched with
                # multiplied counts and forced exclusivity (paper §4.2).
                for scaled in request.scaled_children:
                    if not self._match_one(
                        parent, scaled, at, duration, True, tentative, out
                    ):
                        return False
            elif not self._match_one(
                parent, request, at, duration, exclusive_ctx, tentative, out
            ):
                return False
        return True

    def _match_one(
        self,
        parent: Optional[ResourceVertex],
        request: ResourceRequest,
        at: Optional[int],
        duration: int,
        exclusive_ctx: bool,
        tentative: _Tentative,
        out: List[Selection],
    ) -> bool:
        exclusive = request.effective_exclusive(exclusive_ctx)
        demand = request.unit_demand
        why = self.obs.why
        pre = why.mark() if why.enabled else 0
        walk = self._collect(parent, request, at, duration, tentative, demand)
        if self._walk_stops(request):
            first = next(walk, None)
            candidates = None if first is None else chain((first,), walk)
        else:
            candidates = list(walk)
        if not candidates:
            if why.enabled:
                # No prune event fired during the walk → nothing of this
                # type exists in the searched region (type mismatch);
                # otherwise every instance was pruned (see prune buckets).
                why.fail(
                    "type" if why.mark() == pre else "no_candidates",
                    type=request.type,
                    under=parent.name if parent is not None else "",
                )
            return False
        quantity_mode = (
            not request.with_
            and request.type in self.graph.pool_types
            and any(c.vertex.size != 1 for c in candidates)
        )
        ordered = self.policy.order(candidates, request)
        mark = tentative.mark()
        length = len(out)
        try:
            if quantity_mode:
                ok = self._fill_quantity(
                    ordered, request, at, duration, exclusive, tentative, out
                )
            else:
                ok = self._fill_count(
                    ordered, request, at, duration, exclusive, demand, tentative, out
                )
        finally:
            walk.close()  # a walk the fill stopped accounts its work here
        if not ok:
            tentative.rollback(mark)
            del out[length:]
        return ok

    def _walk_stops(self, request: ResourceRequest) -> bool:
        """Whether the fill of ``request`` pulls candidates from the walk,
        which ends once the request is filled.  The fill holds only the
        candidate (never descended into) and its via path (passed), so the
        rest of the walk reads what the full walk read.  A nested match
        also writes below its candidate: where the subsystem is a tree the
        walk never reaches that again, but a DAG walk may still pass there,
        so a request with sub-requests stops only on a tree."""
        return (keeps_discovery_order(self.policy)
                and request.type not in self.graph.pool_types
                and (not request.with_ or self.graph.is_tree(self.subsystem)))

    def _fill_quantity(
        self,
        ordered: List[Candidate],
        request: ResourceRequest,
        at: Optional[int],
        duration: int,
        exclusive: bool,
        tentative: _Tentative,
        out: List[Selection],
    ) -> bool:
        """Aggregate units across pool candidates greedily.

        Fills toward ``request.max_count`` and succeeds once at least
        ``request.count`` units are gathered (moldable ranges take what is
        available, §5.5).
        """
        remaining = request.max_count
        minimum = request.count
        for candidate in ordered:
            vertex = candidate.vertex
            uid = vertex.uniq_id
            avail = self._avail_qty(vertex, at, duration) - tentative.qty.get(uid, 0)
            if avail <= 0:
                continue
            if self._avail_x(vertex, at, duration) - tentative.x.get(uid, 0) < 1:
                continue
            take = min(avail, remaining)
            tentative.add_qty(uid, take)
            # Pool quantities are owned by amount, not by exclusivity: the
            # allocated units can never be shared, and locking the whole pool
            # would block other jobs from the remaining units (an exclusive
            # jobspec flag on a pool is equivalent to requesting it all).
            out.append(Selection(vertex, take, False))
            self._book_passthrough(candidate.via, at, duration, tentative, out)
            remaining -= take
            if remaining == 0:
                return True
        gathered = request.max_count - remaining
        if gathered < minimum:
            why = self.obs.why
            if why.enabled:
                why.fail(
                    "quantity", type=request.type,
                    needed=minimum, got=gathered,
                )
            return False
        return True

    def _fill_count(
        self,
        ordered: Iterable[Candidate],
        request: ResourceRequest,
        at: Optional[int],
        duration: int,
        exclusive: bool,
        demand: Dict[str, int],
        tentative: _Tentative,
        out: List[Selection],
    ) -> bool:
        """Select distinct vertices (``request.count`` up to
        ``request.max_count``), matching children inside each; greedy with
        per-candidate fallback (no cross-subtree backtracking, mirroring
        Fluxion's one-pass DFS).  Pulls no candidate past the last one it
        needs, so a lazy ``ordered`` ends the walk there."""
        needed = request.max_count
        # demand is fixed for the whole fill, so feasibility checks across
        # candidates share one tracked-slice cache.
        tracked_cache: Dict[Tuple[str, ...], Dict[str, int]] = {}
        children = request.with_
        if self.policy.needs_full_feasible:
            feasible = [
                c
                for c in ordered
                if self._vertex_fits(
                    c.vertex, at, duration, exclusive, demand, tentative,
                    tracked_cache,
                )
            ]
            preference = self.policy.choose(feasible, needed, request) or []
        else:
            preference = ordered
        selected = 0
        used: set = set()
        for candidate in preference:
            vertex = candidate.vertex
            if vertex.uniq_id in used:
                continue
            if not self._vertex_fits(
                vertex, at, duration, exclusive, demand, tentative,
                tracked_cache,
            ):
                continue
            mark = tentative.mark()
            length = len(out)
            tentative.add_x(vertex.uniq_id, X_LIMIT if exclusive else 1)
            out.append(Selection(vertex, vertex.size if exclusive else 0, exclusive))
            self._book_passthrough(candidate.via, at, duration, tentative, out)
            if children and not self._match_requests(
                vertex, children, at, duration, exclusive, tentative, out
            ):
                tentative.rollback(mark)
                del out[length:]
                continue
            used.add(vertex.uniq_id)
            selected += 1
            if selected == needed:
                break
        if selected < request.count:
            why = self.obs.why
            if why.enabled:
                why.fail(
                    "count", type=request.type,
                    needed=request.count, got=selected,
                )
            return False
        return True

    # ------------------------------------------------------------------
    # candidate collection and feasibility
    # ------------------------------------------------------------------
    def _collect(
        self,
        parent: Optional[ResourceVertex],
        request: ResourceRequest,
        at: Optional[int],
        duration: int,
        tentative: _Tentative,
        demand: Dict[str, int],
    ) -> Iterator[Candidate]:
        """The DFU walk: yield candidates of ``request.type`` under ``parent``
        (or the roots) in discovery order, pruning infeasible subtrees; its
        work is accounted when it ends, drained or closed by the caller."""
        rtype = request.type
        predicate = request.predicate
        graph = self.graph
        if parent is None:
            frontier = graph.roots(self.subsystem)
        else:
            frontier = graph.children_toward(parent, rtype, self.subsystem)
        # demand as seen from an interior vertex: one candidate + its subtree
        interior_demand = dict(demand)
        interior_demand[rtype] = interior_demand.get(rtype, 0) + 1
        # One frame per level of the descent: what is left of a vertex's
        # children, and the interior vertices crossed to reach them.
        siblings, via = iter(frontier), ()
        stack: List[Tuple[Iterator[ResourceVertex], tuple]] = []
        visited: set = set()
        tracer = self.obs.tracer
        traced = tracer.enabled
        if traced:
            tracer.begin("dfu.collect", "match", rtype=rtype)
        budget = self.budget
        filter_hits = 0
        filter_misses = 0
        # Hot-loop hoists: bind per-call invariants to locals so the
        # DFS body — run once per visited vertex — skips repeated attribute
        # lookups; memoize the tracked demand slice per filter type-set.
        prune = self.prune
        subsystem = self.subsystem
        children_toward = graph.children_toward
        new_candidate = object.__new__
        tentative_x = tentative.x
        check_status = not tentative.assume_up
        tracked_cache: Dict[Tuple[str, ...], Dict[str, int]] = {}
        # Decision provenance (null-twin pattern): one hoisted bool guards
        # every probe, so a disabled recorder costs a local truth test on
        # the prune paths only; the bound method is hoisted too.
        why = self.obs.why
        why_on = why.enabled
        why_prune = why.prune
        try:
            while True:
                for vertex in siblings:
                    uid = vertex.uniq_id
                    if uid in visited:
                        continue
                    visited.add(uid)
                    if budget is not None:
                        # Cooperative cancellation checkpoint: may raise
                        # SchedulingDeadlineExceeded, aborting the walk with a
                        # partial verdict (the finally block still accounts the
                        # work already done).
                        budget.charge(1)
                    if check_status and vertex.status != "up":
                        # drained vertices close their whole subtree
                        if why_on:
                            why_prune("down", vertex.type, vertex.name)
                        continue
                    if vertex.type == rtype:
                        if predicate is None or predicate(vertex):
                            candidate = new_candidate(Candidate)
                            candidate.vertex = vertex
                            candidate.via = via
                            yield candidate
                        elif why_on:
                            why_prune("predicate", rtype, vertex.name)
                        continue
                    if at is not None:
                        # The filter first: in a full machine nearly every
                        # interior vertex fails it, and then its x-plan is
                        # never scanned.
                        if prune and vertex.prune_filters is not None:
                            filters = vertex.prune_filters
                            tracked = _tracked_slice(
                                filters, interior_demand, tracked_cache
                            )
                            if tracked:
                                if not filters.avail_during(at, duration, tracked):
                                    filter_hits += 1
                                    if why_on:
                                        why_prune("filter", vertex.type, vertex.name)
                                    continue
                                filter_misses += 1
                        # Exclusively-held vertices close their whole subtree
                        # (§3.4).
                        if not vertex.xplans.avail_during(
                            at, duration, 1 + tentative_x.get(uid, 0)
                        ):
                            if why_on:
                                why_prune("exclusive", vertex.type, vertex.name)
                            continue
                    # Down to the children that can be or hold a candidate:
                    # a childless vertex of another type is never visited.
                    stack.append((siblings, via))
                    siblings = iter(children_toward(vertex, rtype, subsystem))
                    via += (vertex,)
                    break
                else:
                    if not stack:
                        break
                    siblings, via = stack.pop()
        finally:
            visits = len(visited)
            self._c_visits.inc(visits)
            if filter_hits:
                self._c_filter_hits.inc(filter_hits)
            if filter_misses:
                self._c_filter_misses.inc(filter_misses)
            if traced:
                tracer.end(visits=visits, pruned=filter_hits)

    def _vertex_fits(
        self,
        vertex: ResourceVertex,
        at: Optional[int],
        duration: int,
        exclusive: bool,
        demand: Dict[str, int],
        tentative: _Tentative,
        tracked_cache: Optional[Dict[Tuple[str, ...], Dict[str, int]]] = None,
    ) -> bool:
        uid = vertex.uniq_id
        # Every hold but a pool quantity is in the x-plan, so it answers
        # first; an exclusive fit then asks the pool for no quantity held.
        need_x = X_LIMIT if exclusive else 1
        if self._avail_x(vertex, at, duration) - tentative.x.get(uid, 0) < need_x:
            return False
        if exclusive and (
            self._avail_qty(vertex, at, duration) - tentative.qty.get(uid, 0)
            < vertex.size
        ):
            return False
        if (
            self.prune
            and at is not None
            and demand
            and vertex.prune_filters is not None
        ):
            filters = vertex.prune_filters
            tracked = _tracked_slice(
                filters,
                demand,
                tracked_cache if tracked_cache is not None else {},
            )
            if tracked:
                if not filters.avail_during(at, duration, tracked):
                    self._c_filter_hits.inc()
                    return False
                self._c_filter_misses.inc()
        return True

    def _book_passthrough(
        self,
        via: Tuple[ResourceVertex, ...],
        at: Optional[int],
        duration: int,
        tentative: _Tentative,
        out: List[Selection],
    ) -> None:
        """Record shared pass-through holds on interior vertices once each."""
        for vertex in via:
            if tentative.add_passthrough(vertex.uniq_id):
                tentative.add_x(vertex.uniq_id, 1)
                out.append(Selection(vertex, 0, False, passthrough=True))

    def _avail_qty(self, vertex: ResourceVertex, at: Optional[int], duration: int) -> int:
        if at is None:
            return vertex.size
        return vertex.plans.avail_resources_during(at, duration)

    def _avail_x(self, vertex: ResourceVertex, at: Optional[int], duration: int) -> int:
        if at is None:
            return X_LIMIT
        return vertex.xplans.avail_resources_during(at, duration)

    # ------------------------------------------------------------------
    # booking
    # ------------------------------------------------------------------
    def _book(
        self, selections: List[Selection], at: int, duration: int, reserved: bool
    ) -> Optional[Allocation]:
        """Book ``selections``, all or nothing: None (nothing left booked)
        when a planner refuses a span the match did not foresee — an
        exclusive selection's subtree charge can exceed what an outage
        window has left in an ancestor's filter.  What is booked is
        :func:`allocation_bookings` of the selections: one span each, then
        the SDFU filter charges, which ``sdfu.updates`` counts."""
        bookings = allocation_bookings(self.graph, self.subsystem, selections)
        try:
            records = book(bookings, at, duration)
        except PlannerError as exc:
            why = self.obs.why
            if why.enabled:
                why.fail("booking", at=at, error=str(exc))
            return None
        filters = len(bookings) - len(selections)
        if filters:
            self._c_sdfu_updates.inc(filters)
        alloc = Allocation(
            alloc_id=self._next_alloc_id,
            at=at,
            duration=duration,
            reserved=reserved,
            selections=selections,
            _span_records=records,
        )
        if self.keep_bookings:
            alloc._bookings = bookings
        self._next_alloc_id += 1
        self.allocations[alloc.alloc_id] = alloc
        return alloc
