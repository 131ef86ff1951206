"""Planner: scalable scheduled-time-point management (paper §4.1, Fig. 3).

A Planner tracks the state of a single resource pool over time, like a
physical calendar planner.  Activities are *spans* — ``request`` units of the
resource held for ``[start, start + duration)`` — and the state between spans
is captured by *scheduled points*.  While no two spans overlap, a planner
keeps them as a start-sorted list of runs, so booking an idle calendar is one
list insert; the first overlapping span books them into one balanced tree,
keyed by time, which holds the points from then on (the SP tree):

* as it stands it answers "how much is available at time t?" in
  ``O(log N)`` and "is the request satisfiable throughout a window?" in
  ``O(log N + k)``, ``k`` the points inside the window;
* indexed by remaining resource — each node carrying the lowest and highest
  ``remaining`` of its subtree — it also answers "what is the earliest time
  the request fits?" by hopping from one free run to the next in
  ``O(log N)`` each.  The index is switched on by the first such question
  (most planners are never asked one).  The paper answers it from a second
  tree keyed by remaining resource (Algorithm 1); that one is kept as a
  reference in :mod:`repro.baselines.algorithm1`.

The Planner is the building block for per-vertex state tracking, pruning
filters (through :class:`~repro.planner.multi.PlannerMulti`) and
reservation-based backfilling.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import PlannerError, SpanNotFoundError
from ..obs import runtime as _obs_runtime
from .span import ScheduledPoint, Span
from .trees import SPTree

__all__ = ["Planner"]

#: hop-count buckets for the ``planner.search_hops`` histogram
_HOP_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class Planner:
    """Time-state tracker for one resource pool.

    Parameters
    ----------
    total:
        Schedulable quantity of the pool (e.g. 8 memory units, 48 cores,
        or 1 for a singleton resource).
    plan_start, plan_end:
        The planning horizon ``[plan_start, plan_end)`` in integer ticks.
    resource_type:
        Informational label (e.g. ``"core"``); used in error messages and by
        :class:`~repro.planner.multi.PlannerMulti`.
    """

    __slots__ = (
        "total",
        "plan_start",
        "plan_end",
        "resource_type",
        "_sp",
        "_runs",
        "_spans",
        "_next_span_id",
        "_base_point",
    )

    def __init__(
        self,
        total: int,
        plan_start: int = 0,
        plan_end: int = 2**62,
        resource_type: str = "",
    ) -> None:
        if total < 0:
            raise PlannerError(f"total must be non-negative, got {total}")
        if plan_end <= plan_start:
            raise PlannerError(
                f"empty planning horizon: [{plan_start}, {plan_end})"
            )
        self.total = total
        self.plan_start = plan_start
        self.plan_end = plan_end
        self.resource_type = resource_type
        # Resource graphs hold two Planners per vertex and most vertices are
        # never touched, so an empty Planner is a tiny shell that answers from
        # `total`.  Disjoint spans are sorted (start, end, request) runs; the SP
        # tree and base point come at the first overlapping add_span, and the
        # tree's index at the first earliest-time question (avail_time_first).
        self._sp: Optional[SPTree] = None
        self._runs: Optional[List[Tuple[int, int, int]]] = None
        # span id -> (start, end, request, metadata or None): ints only, so
        # the cyclic GC stops tracking the records (and then the dict).
        self._spans: Dict[int, tuple] = {}
        self._next_span_id = 1
        self._base_point: Optional[ScheduledPoint] = None

    def _ensure_tree(self) -> None:
        """Materialise the SP tree and base point, and book the runs into it."""
        self._sp = SPTree()
        # Permanent base point: the state from plan_start until the first span.
        self._base_point = ScheduledPoint(self.plan_start, 0, self.total, ref_count=1)
        self._sp.insert_node(self._base_point)
        runs, self._runs = self._runs, None
        for run in runs or ():
            self._tree_add(*run)

    def _least(self, at: int, end: int) -> int:
        """Least availability over ``[at, end)`` among the runs that meet it."""
        runs = self._runs
        i = bisect_left(runs, (at,))  # runs starting before `at`
        if i and runs[i - 1][1] > at:
            i -= 1
        most, count = 0, len(runs)
        while i < count and runs[i][0] < end:
            if runs[i][2] > most:
                most = runs[i][2]
            i += 1
        return self.total - most

    def _shift(self, start: int, end: int, delta: int) -> None:
        """Charge ``delta`` units (negative: release) to every scheduled point
        in ``[start, end)``; the one place point values change, so the index
        (where there is one) stays in step."""
        if delta:
            self._sp.shift(start, end, delta)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of active spans."""
        return len(self._spans)

    @property
    def span_count(self) -> int:
        """Number of active spans."""
        return len(self._spans)

    @property
    def point_count(self) -> int:
        """Number of scheduled points held, or a tree of the runs would hold."""
        if self._sp is not None:
            return len(self._sp)
        return len({self.plan_start}.union(*(run[:2] for run in self._runs or ())))

    @property
    def indexed(self) -> bool:
        """True once an earliest-time question has switched on the index of
        remaining resource.  Derived state: neither exported nor
        fingerprinted, and rebuilt on demand after a restore or rebuild."""
        return self._sp is not None and self._sp.indexed

    def spans(self) -> Iterator[Span]:
        """Iterate over active spans (unordered), each built on demand."""
        return (Span(sid, *record) for sid, record in self._spans.items())

    def get_span(self, span_id: int) -> Span:
        """Return the span with ``span_id``; raise SpanNotFoundError if absent."""
        try:
            return Span(span_id, *self._spans[span_id])
        except KeyError:
            raise SpanNotFoundError(span_id) from None

    def span_windows(self) -> Dict[int, Tuple[int, int, int]]:
        """``{span id: (start, end, request)}`` of every active span."""
        return {sid: record[:3] for sid, record in self._spans.items()}

    def has_span(self, span_id: int) -> bool:
        """True when ``span_id`` names an active span."""
        return span_id in self._spans

    # ------------------------------------------------------------------
    # availability queries
    # ------------------------------------------------------------------
    def avail_resources_at(self, at: int) -> int:
        """Resource units available at instant ``at``."""
        self._check_time(at)
        if self._sp is None:
            return self.total if self._runs is None else self._least(at, at + 1)
        return self._sp.floor(at).remaining  # the base point covers every at

    def avail_at(self, at: int, request: int) -> bool:
        """True when ``request`` units are available at instant ``at`` (SatAt)."""
        return self.avail_resources_at(at) >= request

    def avail_resources_during(self, at: int, duration: int) -> int:
        """Minimum availability over the window ``[at, at + duration)``."""
        # Fast-path guard: _check_window only ever raises, so call it only
        # when one of its checks would fail (this query dominates match time).
        if duration <= 0 or at < self.plan_start or at + duration > self.plan_end:
            self._check_window(at, duration)
        sp = self._sp
        if sp is None:
            return self.total if self._runs is None else self._least(at, at + duration)
        point, end = sp.floor(at), at + duration
        lowest = point.remaining
        while point is not None and point.key < end:
            if point.remaining < lowest:
                lowest = point.remaining
            point = point.next
        return lowest

    def avail_during(self, at: int, duration: int, request: int) -> bool:
        """True when ``request`` units stay available over the whole window
        ``[at, at + duration)`` (SatDuring / the paper's SPANOK check).

        Short-circuits at the first scheduled point that under-satisfies the
        request, so rejections are cheap.
        """
        if duration <= 0 or at < self.plan_start or at + duration > self.plan_end:
            self._check_window(at, duration)
        sp = self._sp
        if sp is None:
            runs = self._runs
            return request <= (self._least(at, at + duration) if runs else self.total)
        point, end = sp.floor(at), at + duration
        while point is not None and point.key < end:
            if point.remaining < request:
                return False
            point = point.next
        return True

    def next_event_time(self, after: int) -> Optional[int]:
        """Earliest span boundary strictly after ``after`` (or None).

        Availability can only change at span boundaries, so this is the
        next instant any time-based query could return a different answer.
        """
        if self._sp is None:
            runs = self._runs or ()
            i = bisect_left(runs, (after + 1,))  # runs starting at or before `after`
            if i and runs[i - 1][1] > after:
                return runs[i - 1][1]
            return runs[i][0] if i < len(runs) else None
        point = self._sp.ceiling(after + 1)
        if point is self._base_point and point.ref_count == 1:
            point = point.next  # the base point bounds no span
        return None if point is None else point.key

    def avail_time_first(
        self, request: int, duration: int = 1, on_or_after: int = 0
    ) -> Optional[int]:
        """Earliest time >= ``on_or_after`` at which ``request`` units are
        available for ``duration`` ticks (EarliestAt), or None if never.

        A fit starts at ``on_or_after`` or at a scheduled point where
        availability rises to the request, so the search hops along the
        calendar: from a candidate start to the first later point that falls
        short of the request — a fit if that lies a whole ``duration`` away —
        and from there to the next point that covers it.  Each hop is one
        ``O(log N)`` descent of the indexed SP tree (built here from the runs
        if need be).  (The paper's AVAILAT loop takes candidates out of a
        second tree and puts them back: :mod:`repro.baselines.algorithm1`.)
        """
        if duration <= 0:
            raise PlannerError(f"duration must be positive, got {duration}")
        obs = _obs_runtime.ACTIVE.get()
        if obs.enabled:
            obs.metrics.counter(
                "planner.queries", "single-type avail_time_first calls"
            ).inc()
        if request > self.total:
            return None
        at = max(on_or_after, self.plan_start)
        if at + duration > self.plan_end:
            return None
        if self._sp is None and self._runs is None:
            return at
        # The availability profile only changes at scheduled points, so the
        # earliest fit starts either exactly at `at` or at a later point.
        if self.avail_during(at, duration, request):
            return at
        if self._sp is None:
            self._ensure_tree()
        if not self._sp.indexed:
            self._sp.index()
        result, hops = self._sp.earliest_fit(at, duration, request)
        if result is not None and result + duration > self.plan_end:
            result = None
        if obs.enabled:
            obs.metrics.histogram(
                "planner.search_hops",
                "hops to a later candidate start per earliest-time search",
                boundaries=_HOP_BUCKETS,
            ).observe(hops)
        return result

    # ------------------------------------------------------------------
    # span mutation
    # ------------------------------------------------------------------
    def add_span(
        self,
        start: int,
        duration: int,
        request: int,
        metadata: Optional[dict] = None,
        span_id: Optional[int] = None,
    ) -> int:
        """Book ``request`` units over ``[start, start + duration)``.

        Returns the new span id.  Raises :class:`PlannerError` when the span
        falls outside the horizon, the request exceeds the pool, or the
        request is not available throughout the window (the Planner never
        lets a pool go negative).

        ``span_id`` re-inserts a span under an explicit id (crash recovery
        restores planners span-for-span, and external bookkeeping — e.g.
        ``Allocation._span_records`` — must keep resolving).  The id must be
        positive and unused; the auto-assignment counter advances past it so
        later spans never collide.

        Without a tree, a bisection of the runs and a list insert (the first
        overlap builds the tree).  On the tree, one ``floor`` descent and walks
        along the time links: one checks the window, one charges it (the
        indexed tree's range walk instead); a missing point is split in.
        """
        if duration <= 0 or start < self.plan_start or start + duration > self.plan_end:
            self._check_window(start, duration)
        if request < 0:
            raise PlannerError(f"negative request: {request}")
        if request > self.total:
            raise PlannerError(
                f"request {request} exceeds pool total {self.total}"
                f" ({self.resource_type or 'resource'})"
            )
        if span_id is not None:
            if span_id < 1:
                raise PlannerError(f"span id must be >= 1, got {span_id}")
            if span_id in self._spans:
                raise PlannerError(
                    f"span id {span_id} already in use"
                    f" ({self.resource_type or 'resource'})"
                )
        end = start + duration
        runs = self._runs
        if self._sp is not None:
            self._tree_add(start, end, request)
        elif runs is None:
            self._runs = [(start, end, request)]
        else:
            i = bisect_right(runs, (start, end, request))
            if (i and runs[i - 1][1] > start) or (i < len(runs) and runs[i][0] < end):
                self._ensure_tree()
                self._tree_add(start, end, request)
            else:
                runs.insert(i, (start, end, request))
        if span_id is None:
            span_id = self._next_span_id
            self._next_span_id += 1
        else:
            self._next_span_id = max(self._next_span_id, span_id + 1)
        self._spans[span_id] = (start, end, request, metadata or None)
        return span_id

    def _tree_add(self, start: int, end: int, request: int) -> None:
        """Book ``request`` units over ``[start, end)`` into the SP tree."""
        sp = self._sp
        first = last = point = sp.floor(start)
        while point is not None and point.key < end:
            if point.remaining < request:
                raise PlannerError(
                    f"request {request}x[{start},{end}) unavailable"
                    f" ({self.resource_type or 'resource'})"
                )
            last, point = point, point.next
        # `last` governs `end`; `point` is the first point at or after it
        if first.key != start:
            split = sp.split_after(first, start)
            last, first = (split if last is first else last), split
        if point is None or point.key != end:
            point = sp.split_after(last, end)
        first.ref_count += 1
        point.ref_count += 1
        sp.charge(first, end, request)

    def rem_span(self, span_id: int) -> Span:
        """Release the span with ``span_id`` and return it: with no tree, one
        bisection and a list delete; on the tree, one ``find``, then one walk
        along the time links to its end point."""
        span = self.get_span(span_id)
        if self._runs is not None:
            del self._runs[bisect_left(self._runs, (span.start,))]
            self._runs = self._runs or None  # an empty planner holds no list
        else:
            first = self._sp.find(span.start)
            last = self._sp.charge(first, span.end, -span.request)
            self._release(first)
            self._release(last)
        del self._spans[span_id]
        return span

    def update_span_end(self, span_id: int, new_end: int) -> Span:
        """Move a span's end to ``new_end`` (extend or truncate), keeping its id.

        Extension checks that the request stays available over the added
        segment; truncation releases the tail immediately.  Returns the
        updated span record.  The span id and start are preserved, so
        callers tracking (planner, span_id) pairs need no changes.
        """
        span = self.get_span(span_id)
        if new_end == span.end:
            return span
        if new_end <= span.start:
            raise PlannerError(
                f"new end {new_end} not after span start {span.start}"
            )
        if new_end > self.plan_end:
            raise PlannerError(
                f"new end {new_end} exceeds horizon end {self.plan_end}"
            )
        if self._sp is None:
            self._ensure_tree()
        extending = new_end > span.end
        # Extension: the added segment must have the request available.
        if extending and not self.avail_during(
            span.end, new_end - span.end, span.request
        ):
            raise PlannerError(
                f"extension [{span.end},{new_end}) unavailable"
                f" ({self.resource_type or 'resource'})"
            )
        self._get_or_create_point(new_end).ref_count += 1
        if extending:
            self._shift(span.end, new_end, span.request)
        else:
            # Truncation: release the tail [new_end, old_end).
            self._shift(new_end, span.end, -span.request)
        self._release(self._sp.find(span.end))
        start, _, request, metadata = self._spans[span_id]
        self._spans[span_id] = (start, new_end, request, metadata)
        return span.replace(end=new_end)

    def reset(self) -> None:
        """Drop all spans, returning the planner to its initial state."""
        for span_id in list(self._spans):
            self.rem_span(span_id)

    def rebuild(self, spans: Optional[Iterable[dict]] = None) -> int:
        """Reconstruct the point trees (and optionally the span registry).

        Corruption-repair support: discards the scheduled-point tree (and
        with it the index) outright — without walking it, so a damaged tree cannot
        make the rebuild fail — and re-books every span from scratch via
        :meth:`add_span`.  With ``spans=None`` the planner's own span
        registry is the source of truth (repairs point-tree drift while
        keeping bookings); otherwise ``spans`` is an iterable of
        export-format records (``{"id", "start", "end", "request",
        "metadata"}``) that replaces the registry entirely.  The span set
        must be feasible (never exceeding the pool at any instant) or
        :class:`PlannerError` propagates mid-rebuild.  The auto-id counter
        never moves backwards, so ids handed out after a rebuild cannot
        collide with ids seen before it.  Returns the span count re-booked.
        """
        if spans is None:
            records = self.export_state()["spans"]
        else:
            records = [dict(record) for record in spans]
        next_id = self._next_span_id
        self._spans = {}
        self._sp = self._runs = None
        self._base_point = None
        for record in records:
            self.add_span(
                record["start"],
                record["end"] - record["start"],
                record["request"],
                metadata=dict(record.get("metadata") or {}),
                span_id=record["id"],
            )
        self._next_span_id = max(self._next_span_id, next_id)
        return len(records)

    # ------------------------------------------------------------------
    # state export / import (crash recovery)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Serialise the planner's bookings to a JSON-able mapping.

        The document captures every active span (with its id) plus the
        auto-id counter, so :meth:`import_state` rebuilds a planner whose
        future behaviour — including the ids it will hand out next — is
        identical to this one's.  Pool configuration (total/horizon/type)
        is included for validation only; the importing planner must already
        be configured identically.
        """
        return {
            "total": self.total,
            "plan_start": self.plan_start,
            "plan_end": self.plan_end,
            "resource_type": self.resource_type,
            "next_span_id": self._next_span_id,
            "spans": [
                {
                    "id": span_id,
                    "start": start,
                    "end": end,
                    "request": request,
                    "metadata": dict(metadata or {}),
                }
                for span_id, (start, end, request, metadata) in self._spans.items()
            ],
        }

    def import_state(self, state: dict) -> None:
        """Rebuild bookings from :meth:`export_state` output.

        The planner must be empty and configured with the same pool total
        and horizon; spans are re-inserted under their original ids and the
        auto-id counter is restored exactly.
        """
        if self._spans:
            raise PlannerError(
                f"cannot import into a planner holding {len(self._spans)} spans"
            )
        for key, mine in (
            ("total", self.total),
            ("plan_start", self.plan_start),
            ("plan_end", self.plan_end),
        ):
            if state.get(key) != mine:
                raise PlannerError(
                    f"planner state mismatch on {key}: "
                    f"exported {state.get(key)}, importing into {mine}"
                )
        for record in state.get("spans", ()):
            self.add_span(
                record["start"],
                record["end"] - record["start"],
                record["request"],
                metadata=dict(record.get("metadata") or {}),
                span_id=record["id"],
            )
        self._next_span_id = max(
            int(state.get("next_span_id", self._next_span_id)),
            self._next_span_id,
        )

    def resize(self, new_total: int) -> None:
        """Grow or shrink the pool's schedulable quantity (elasticity, §5.5).

        Shrinking below the amount currently in use at any scheduled point
        raises :class:`PlannerError` (existing bookings are never broken).
        """
        if new_total < 0:
            raise PlannerError(f"total must be non-negative, got {new_total}")
        delta = new_total - self.total
        if delta == 0:
            return
        if self._runs is not None:
            self._ensure_tree()
        if self._sp is None:
            self.total = new_total
            return
        if delta < 0:
            for point in self._sp:
                if point.in_use > new_total:
                    raise PlannerError(
                        f"cannot shrink to {new_total}: {point.in_use} in use"
                        f" at t={point.time}"
                    )
        for point in self._sp:
            point.remaining += delta
        if self._sp.indexed:
            self._sp.index()  # every point moved: one pass re-indexes them
        self.total = new_total

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_time(self, at: int) -> None:
        if not (self.plan_start <= at < self.plan_end):
            raise PlannerError(
                f"time {at} outside horizon [{self.plan_start}, {self.plan_end})"
            )

    def _check_window(self, at: int, duration: int) -> None:
        if duration <= 0:
            raise PlannerError(f"duration must be positive, got {duration}")
        self._check_time(at)
        if at + duration > self.plan_end:
            raise PlannerError(
                f"window [{at}, {at + duration}) exceeds horizon end"
                f" {self.plan_end}"
            )

    def _get_or_create_point(self, time: int) -> ScheduledPoint:
        # One descent finds the point at `time` or the one governing it, whose
        # state a new point starts from.  A span may legitimately end exactly
        # at the horizon: that point is never iterated as part of any window.
        governing = self._sp.floor(time)
        if governing.key == time:
            return governing
        return self._sp.split_after(governing, time)

    def _release(self, point: Optional[ScheduledPoint]) -> None:
        assert point is not None, "missing scheduled point"
        point.ref_count -= 1
        if point.ref_count == 0 and point is not self._base_point:
            self._sp.delete_node(point)

    def check_invariants(self) -> None:
        """Check the runs, or the tree's points, against the registry (test support)."""
        if self._sp is None:
            runs = self._runs or []
            windows = sorted(record[:3] for record in self._spans.values())
            assert self._runs != [] and runs == windows, "runs differ from registry"
            for (_, end, _), (start, _, _) in zip(runs, runs[1:]):
                assert end <= start, f"runs overlap at t={start}"
            assert all(0 <= run[2] <= self.total for run in runs)
            return
        # Red-black and time order, the time links; where the tree is
        # indexed, every node's remaining range against a recomputation.
        self._sp.check_invariants()
        points = list(self._sp)
        assert points and points[0] is self._base_point
        # Recompute in_use at each point from the active spans.
        for point in points:
            expected = sum(
                request for start, end, request, _ in self._spans.values()
                if start <= point.key < end
            )
            assert point.in_use == expected, (
                f"in_use mismatch at t={point.time}: "
                f"{point.in_use} != {expected}"
            )
            assert point.remaining == self.total - point.in_use
            assert 0 <= point.in_use <= self.total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Planner(total={self.total}, type={self.resource_type!r}, "
            f"spans={len(self._spans)}, points={self.point_count})"
        )
