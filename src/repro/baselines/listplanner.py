"""Naive list-based planner — the foil for Planner's tree indexes (§4.1).

Implements the same query surface as :class:`~repro.planner.Planner` with a
flat list of spans and per-query linear scans.  Used by the ablation bench
(E7) to show why a tree over the scheduled points matters: every query here
is ``O(spans)`` or worse versus the tree's ``O(log spans)`` per step.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import PlannerError, SpanNotFoundError

__all__ = ["ListPlanner"]


class ListPlanner:
    """Drop-in (slow) replacement for Planner's core query API."""

    __slots__ = ("total", "plan_start", "plan_end", "resource_type", "_spans",
                 "_next_span_id")

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
            raise PlannerError(f"empty planning horizon: [{plan_start}, {plan_end})")
        self.total = total
        self.plan_start = plan_start
        self.plan_end = plan_end
        self.resource_type = resource_type
        self._spans: Dict[int, Tuple[int, int, int]] = {}  # id -> (start, end, req)
        self._next_span_id = 1

    @property
    def span_count(self) -> int:
        return len(self._spans)

    # ------------------------------------------------------------------
    # queries (all linear scans)
    # ------------------------------------------------------------------
    def avail_resources_at(self, at: int) -> int:
        self._check_time(at)
        in_use = sum(
            req for start, end, req in self._spans.values() if start <= at < end
        )
        return self.total - in_use

    def avail_at(self, at: int, request: int) -> bool:
        return self.avail_resources_at(at) >= request

    def avail_during(self, at: int, duration: int, request: int) -> bool:
        self._check_window(at, duration)
        window_end = at + duration
        # Availability changes only at span boundaries inside the window.
        probes = {at}
        for start, end, _ in self._spans.values():
            if at < start < window_end:
                probes.add(start)
            if at < end < window_end:
                probes.add(end)
        return all(self.avail_resources_at(p) >= request for p in probes)

    def avail_time_first(
        self, request: int, duration: int = 1, on_or_after: int = 0
    ) -> Optional[int]:
        if duration <= 0:
            raise PlannerError(f"duration must be positive, got {duration}")
        if request > self.total:
            return None
        at = max(on_or_after, self.plan_start)
        if at + duration > self.plan_end:
            return None
        candidates = sorted(
            {at}
            | {
                end
                for _, end, _ in self._spans.values()
                if at < end <= self.plan_end - duration
            }
        )
        for candidate in candidates:
            if self.avail_during(candidate, duration, request):
                return candidate
        return None

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_span(self, start: int, duration: int, request: int) -> int:
        self._check_window(start, duration)
        if request < 0:
            raise PlannerError(f"negative request: {request}")
        if request > self.total:
            raise PlannerError(f"request {request} exceeds pool total {self.total}")
        if not self.avail_during(start, duration, request):
            raise PlannerError(
                f"request {request}x[{start},{start + duration}) unavailable"
            )
        span_id = self._next_span_id
        self._next_span_id += 1
        self._spans[span_id] = (start, start + duration, request)
        return span_id

    def rem_span(self, span_id: int) -> None:
        try:
            del self._spans[span_id]
        except KeyError:
            raise SpanNotFoundError(span_id) from None

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
                f"window [{at}, {at + duration}) exceeds horizon end {self.plan_end}"
            )
