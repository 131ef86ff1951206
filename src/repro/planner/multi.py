"""PlannerMulti: joint time tracking for several resource types (paper §4.1).

The paper's pruning filters keep "aggregate amounts of available lower-level
resources" per high-level vertex; a filter tracks one Planner per tracked
resource type and books/queries them together.  The root filter additionally
drives reservation scheduling through ``avail_time_first`` — the paper's
``PlannerMultiAvailTimeFirst`` — which iteratively advances a candidate time
until every tracked type can satisfy its requested amount for the duration.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..errors import PlannerError, SpanNotFoundError
from ..obs import runtime as _obs_runtime
from .planner import Planner

__all__ = ["PlannerMulti"]

#: restart-count buckets for the ``planner.restart_iters`` histogram
_RESTART_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


class PlannerMulti:
    """A bundle of Planners, one per resource type, booked in lockstep.

    Parameters
    ----------
    totals:
        Mapping of resource type -> schedulable quantity.
    plan_start, plan_end:
        Shared planning horizon.
    """

    __slots__ = ("_planners", "plan_start", "plan_end", "_spans", "_next_span_id")

    def __init__(
        self,
        totals: Mapping[str, int],
        plan_start: int = 0,
        plan_end: int = 2**62,
    ) -> None:
        self.plan_start = plan_start
        self.plan_end = plan_end
        self._planners: Dict[str, Planner] = {
            rtype: Planner(total, plan_start, plan_end, resource_type=rtype)
            for rtype, total in totals.items()
        }
        # span id -> {type: per-planner span id}
        self._spans: Dict[int, Dict[str, int]] = {}
        self._next_span_id = 1

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def types(self) -> Tuple[str, ...]:
        """Tracked resource types, in insertion order."""
        return tuple(self._planners)

    def planner(self, rtype: str) -> Planner:
        """Return the underlying Planner for ``rtype``."""
        try:
            return self._planners[rtype]
        except KeyError:
            raise PlannerError(f"untracked resource type: {rtype!r}") from None

    def tracks(self, rtype: str) -> bool:
        """True when this bundle tracks ``rtype``."""
        return rtype in self._planners

    def total(self, rtype: str) -> int:
        return self.planner(rtype).total

    def add_type(self, rtype: str, total: int) -> None:
        """Start tracking a new resource type (used by elastic graph updates)."""
        if rtype in self._planners:
            raise PlannerError(f"type already tracked: {rtype!r}")
        self._planners[rtype] = Planner(
            total, self.plan_start, self.plan_end, resource_type=rtype
        )

    def resize(self, rtype: str, new_total: int) -> None:
        """Adjust the schedulable total of one tracked type."""
        self.planner(rtype).resize(new_total)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def avail_at(self, at: int, counts: Mapping[str, int]) -> bool:
        """True when every requested type has its count available at ``at``.

        Types absent from this bundle are ignored: a filter only prunes on
        what it tracks (paper §3.4).
        """
        return all(
            self._planners[rtype].avail_at(at, count)
            for rtype, count in counts.items()
            if rtype in self._planners and count
        )

    def avail_during(self, at: int, duration: int, counts: Mapping[str, int]) -> bool:
        """True when every requested type stays available over the window."""
        planners = self._planners
        for rtype, count in counts.items():
            if count and rtype in planners:
                if not planners[rtype].avail_during(at, duration, count):
                    return False
        return True

    def avail_resources_during(self, at: int, duration: int) -> Dict[str, int]:
        """Minimum availability per tracked type over the window."""
        return {
            rtype: planner.avail_resources_during(at, duration)
            for rtype, planner in self._planners.items()
        }

    def next_event_time(self, after: int) -> Optional[int]:
        """Earliest time strictly after ``after`` at which any tracked
        type's availability changes (None when nothing changes again)."""
        events = [
            t
            for t in (
                planner.next_event_time(after)
                for planner in self._planners.values()
            )
            if t is not None
        ]
        return min(events) if events else None

    def avail_time_first(
        self,
        counts: Mapping[str, int],
        duration: int = 1,
        on_or_after: int = 0,
    ) -> Optional[int]:
        """Earliest time every requested type is simultaneously available
        for ``duration`` ticks (PlannerMultiAvailTimeFirst), or None.

        Starting from ``on_or_after``, each tracked type proposes its own
        earliest fit; whenever a type pushes the candidate later, the scan
        restarts from the pushed time.  The candidate advances monotonically
        so the loop terminates (it is bounded by the number of scheduled
        points across the bundle).
        """
        if duration <= 0:
            raise PlannerError(f"duration must be positive, got {duration}")
        obs = _obs_runtime.ACTIVE.get()
        if not obs.enabled:
            return self._avail_search(counts, duration, on_or_after)[0]
        with obs.tracer.span(
            "planner.avail_time_first", "planner", vt=float(on_or_after),
            types=len(counts),
        ) as handle:
            result, restarts = self._avail_search(counts, duration, on_or_after)
            handle.event["args"]["restarts"] = restarts
            handle.event["args"]["found"] = result is not None
        obs.metrics.counter(
            "planner.multi_queries", "PlannerMultiAvailTimeFirst calls"
        ).inc()
        obs.metrics.histogram(
            "planner.restart_iters",
            "candidate-time restarts per multi query",
            boundaries=_RESTART_BUCKETS,
        ).observe(restarts)
        return result

    def _avail_search(
        self,
        counts: Mapping[str, int],
        duration: int,
        on_or_after: int,
    ) -> "Tuple[Optional[int], int]":
        """The restart loop; returns (earliest time or None, restart count)."""
        relevant = [
            (rtype, count)
            for rtype, count in counts.items()
            if rtype in self._planners and count
        ]
        at = max(on_or_after, self.plan_start)
        restarts = 0
        if not relevant:
            return (at if at + duration <= self.plan_end else None), restarts
        while True:
            moved = False
            for rtype, count in relevant:
                t = self._planners[rtype].avail_time_first(count, duration, at)
                if t is None:
                    return None, restarts
                if t > at:
                    at = t
                    moved = True
            if not moved:
                return at, restarts
            restarts += 1

    # ------------------------------------------------------------------
    # span mutation
    # ------------------------------------------------------------------
    def add_span(
        self,
        start: int,
        duration: int,
        counts: Mapping[str, int],
        span_id: Optional[int] = None,
    ) -> int:
        """Book ``counts`` over ``[start, start + duration)`` across the bundle.

        All-or-nothing: if any type cannot be booked, previously booked types
        are rolled back and :class:`PlannerError` propagates.  Types absent
        from the bundle are ignored; zero counts are skipped.  ``span_id``
        re-inserts the bundle span under an explicit id (crash recovery);
        it must be positive and unused.
        """
        if span_id is not None:
            if span_id < 1:
                raise PlannerError(f"span id must be >= 1, got {span_id}")
            if span_id in self._spans:
                raise PlannerError(f"bundle span id {span_id} already in use")
        booked: Dict[str, int] = {}
        try:
            for rtype, count in counts.items():
                if rtype in self._planners and count:
                    booked[rtype] = self._planners[rtype].add_span(
                        start, duration, count
                    )
        except PlannerError:
            for rtype, sid in booked.items():
                self._planners[rtype].rem_span(sid)
            raise
        if span_id is None:
            span_id = self._next_span_id
            self._next_span_id += 1
        else:
            self._next_span_id = max(self._next_span_id, span_id + 1)
        self._spans[span_id] = booked
        return span_id

    def update_span_end(self, span_id: int, new_end: int) -> None:
        """Move a bundle span's end across every booked type, all-or-nothing."""
        try:
            booked = self._spans[span_id]
        except KeyError:
            raise SpanNotFoundError(span_id) from None
        done = []
        try:
            for rtype, sid in booked.items():
                planner = self._planners[rtype]
                old_end = planner.get_span(sid).end
                planner.update_span_end(sid, new_end)
                done.append((planner, sid, old_end))
        except PlannerError:
            for planner, sid, old_end in done:
                planner.update_span_end(sid, old_end)
            raise

    def rem_span(self, span_id: int) -> None:
        """Release a bundle span previously returned by :meth:`add_span`."""
        try:
            booked = self._spans.pop(span_id)
        except KeyError:
            raise SpanNotFoundError(span_id) from None
        for rtype, sid in booked.items():
            self._planners[rtype].rem_span(sid)

    def reset(self) -> None:
        """Drop all bundle spans."""
        for span_id in list(self._spans):
            self.rem_span(span_id)

    def rebuild(self, bundles: Optional[Iterable[dict]] = None) -> int:
        """Reconstruct per-type point trees (and optionally the registry).

        Corruption-repair support.  With ``bundles=None`` every underlying
        planner rebuilds its trees from its own span registry (repairs
        point-tree drift while keeping bookings).  Otherwise ``bundles`` is
        an iterable of ``{"id", "start", "end", "counts"}`` records that
        replaces the bundle registry entirely: the underlying planners are
        wiped and every bundle re-booked through :meth:`add_span`.  Bundle
        ids are preserved; per-type span ids are freshly assigned.  Neither
        the bundle nor the per-type auto-id counters move backwards.
        Returns the number of bundle spans booked.
        """
        if bundles is None:
            for planner in self._planners.values():
                planner.rebuild()
            return len(self._spans)
        records = [dict(record) for record in bundles]
        next_id = self._next_span_id
        self._spans = {}
        for planner in self._planners.values():
            planner.rebuild(spans=())
        for record in records:
            self.add_span(
                record["start"],
                record["end"] - record["start"],
                dict(record["counts"]),
                span_id=record["id"],
            )
        self._next_span_id = max(self._next_span_id, next_id)
        return len(records)

    # ------------------------------------------------------------------
    # state export / import (crash recovery)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Serialise the bundle: per-type planner states plus the bundle
        span-id mapping, so :meth:`import_state` restores both the bookings
        and the exact ids future ``add_span`` calls will hand out."""
        return {
            "plan_start": self.plan_start,
            "plan_end": self.plan_end,
            "next_span_id": self._next_span_id,
            "planners": {
                rtype: planner.export_state()
                for rtype, planner in self._planners.items()
            },
            "spans": {
                str(sid): dict(booked) for sid, booked in self._spans.items()
            },
        }

    def import_state(self, state: dict) -> None:
        """Rebuild from :meth:`export_state` output.

        The bundle must be empty and track the same types with the same
        totals (the recovery layer re-installs pruning filters from the
        graph document before importing their bookings).
        """
        if self._spans:
            raise PlannerError(
                f"cannot import into a bundle holding {len(self._spans)} spans"
            )
        exported = state.get("planners") or {}
        if set(exported) != set(self._planners):
            raise PlannerError(
                f"bundle type mismatch: exported {sorted(exported)}, "
                f"importing into {sorted(self._planners)}"
            )
        for rtype, planner_state in exported.items():
            self._planners[rtype].import_state(planner_state)
        self._spans = {
            int(sid): {str(t): int(per) for t, per in booked.items()}
            for sid, booked in (state.get("spans") or {}).items()
        }
        self._next_span_id = max(
            int(state.get("next_span_id", self._next_span_id)),
            self._next_span_id,
        )

    @property
    def span_count(self) -> int:
        return len(self._spans)

    def has_span(self, span_id: int) -> bool:
        """True when ``span_id`` names an active bundle span."""
        return span_id in self._spans

    def span_ids(self) -> Tuple[int, ...]:
        """Active bundle span ids, in booking order."""
        return tuple(self._spans)

    def get_span(self, span_id: int) -> Dict[str, int]:
        """The per-type planner span ids booked under bundle ``span_id``."""
        try:
            return dict(self._spans[span_id])
        except KeyError:
            raise SpanNotFoundError(span_id) from None

    def check_invariants(self) -> None:
        for planner in self._planners.values():
            planner.check_invariants()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        totals = {t: p.total for t, p in self._planners.items()}
        return f"PlannerMulti({totals}, spans={len(self._spans)})"
