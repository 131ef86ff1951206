"""Algorithm 1 as the paper states it — the reference for EarliestAt (§4.1).

The paper answers "what is the earliest time the request fits?" from a second
tree over the scheduled points, the *earliest-time* (ET) tree: keyed by
remaining resource and augmented with the earliest scheduled time of each
subtree, so ``FINDEARLIESTAT`` proposes the earliest point that satisfies a
request in ``O(log N)``.  A proposal is only a point; the AVAILAT loop around
it checks the whole span (SPANOK), takes a failed candidate out of the tree,
asks again, and puts everything back afterwards.

:class:`~repro.planner.Planner` no longer works this way (it hops along its
one time-keyed tree, see :mod:`repro.planner.trees`), so the algorithm lives
here beside :class:`~repro.baselines.ListPlanner`: :class:`ETTree` with
``find_earliest`` as published, and :class:`Algorithm1` — the AVAILAT loop as
a query-only reference over a planner's public surface.  Tests hold the
product planner's answers against it; the ablation bench (E7) times it.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..errors import PlannerError
from ..planner.rbtree import RBNode, RBTree
from ..planner.span import ScheduledPoint

__all__ = ["Algorithm1", "ETTree"]


def _min_time_augment(node: RBNode) -> int:
    """Earliest scheduled time within the subtree rooted at ``node``."""
    best = node.value.time
    left_aug = node.left.aug
    if left_aug is not None and left_aug < best:
        best = left_aug
    right_aug = node.right.aug
    if right_aug is not None and right_aug < best:
        best = right_aug
    return best


class ETTree:
    """Earliest-time resource-augmented tree (paper Algorithm 1).

    Nodes are keyed by ``(remaining, time)`` so that a binary search on the
    remaining-resource dimension is possible while keeping keys unique.  Each
    node is augmented with the minimum ``time`` in its subtree, enabling the
    ``RIGHTET`` step of Algorithm 1: once a node satisfies the request, the
    node itself *and its entire right subtree* (which has >= remaining) are
    feasible, and the earliest feasible time there is
    ``min(node.time, right_subtree.min_time)``.
    """

    __slots__ = ("_tree",)

    def __init__(self) -> None:
        self._tree = RBTree(augment=_min_time_augment)

    def __len__(self) -> int:
        return len(self._tree)

    @staticmethod
    def _key(point: ScheduledPoint) -> tuple:
        return (point.remaining, point.time)

    def insert(self, point: ScheduledPoint) -> None:
        self._tree.insert(self._key(point), point)

    def remove(self, point: ScheduledPoint) -> None:
        """Remove ``point``; its ``remaining`` must match the value at insert time."""
        self._tree.delete(self._key(point))

    def find_earliest(self, request: int) -> Optional[ScheduledPoint]:
        """Return the scheduled point with the earliest time among those whose
        remaining resource satisfies ``request`` (Algorithm 1), or None.
        """
        tree = self._tree
        nil = tree.nil
        node = tree.root
        earliest_at: Optional[int] = None
        anchor: Optional[RBNode] = None
        while node is not nil:
            point: ScheduledPoint = node.value
            if request <= point.remaining:
                # This node and its whole right subtree satisfy the request.
                right_earliest = point.time
                if node.right is not nil and node.right.aug < right_earliest:
                    right_earliest = node.right.aug
                if earliest_at is None or right_earliest < earliest_at:
                    earliest_at = right_earliest
                    anchor = node
                node = node.left
            else:
                node = node.right
        if anchor is None:
            return None
        return self._find_et_point(anchor, earliest_at)

    def _find_et_point(self, anchor: RBNode, earliest_at: int) -> ScheduledPoint:
        """FINDETPOINT: locate the node with time == earliest_at under anchor.

        The anchor's subtree min-time augmentation guides the descent so the
        walk stays ``O(log N)``.
        """
        nil = self._tree.nil
        node = anchor
        while node is not nil:
            if node.value.time == earliest_at:
                return node.value
            if node.left is not nil and node.left.aug == earliest_at:
                node = node.left
            else:
                node = node.right
        raise AssertionError(  # pragma: no cover - internal invariant
            f"ET tree augmentation inconsistent: time {earliest_at} not found"
        )

    def __iter__(self) -> Iterator[ScheduledPoint]:
        for node in self._tree:
            yield node.value

    def check_invariants(self) -> None:
        self._tree.check_invariants()


class Algorithm1:
    """EarliestAt by the paper's AVAILAT loop, over a planner as it stands.

    Built from ``planner.spans()``: one scheduled point per span boundary
    (and one at ``plan_start``) goes into an :class:`ETTree`.  SPANOK is the
    planner's own ``avail_during``.  Query-only: book or release on the
    planner and this reference is out of date — build another.
    """

    __slots__ = ("_planner", "_et")

    def __init__(self, planner) -> None:
        self._planner = planner
        self._et = ETTree()
        changes = {planner.plan_start: 0}
        for span in planner.spans():
            changes[span.start] = changes.get(span.start, 0) + span.request
            changes[span.end] = changes.get(span.end, 0) - span.request
        in_use = 0
        for time in sorted(changes):
            in_use += changes[time]
            self._et.insert(ScheduledPoint(time, in_use, planner.total - in_use))

    def avail_time_first(
        self, request: int, duration: int = 1, on_or_after: int = 0
    ) -> Optional[int]:
        """Earliest time >= ``on_or_after`` at which ``request`` units are
        available for ``duration`` ticks, or None if never."""
        if duration <= 0:
            raise PlannerError(f"duration must be positive, got {duration}")
        planner, et = self._planner, self._et
        if request > planner.total:
            return None
        at = max(on_or_after, planner.plan_start)
        if at + duration > planner.plan_end:
            return None
        # The availability profile only changes at scheduled points, so the
        # earliest fit starts either exactly at `at` or at a later point.
        if planner.avail_during(at, duration, request):
            return at
        stash: List[ScheduledPoint] = []
        result: Optional[int] = None
        try:
            while True:
                point = et.find_earliest(request)
                if point is None:
                    break
                et.remove(point)
                stash.append(point)
                if point.time <= at:
                    continue
                if point.time + duration > planner.plan_end:
                    continue
                if planner.avail_during(point.time, duration, request):
                    result = point.time
                    break
        finally:
            for point in stash:
                et.insert(point)
        return result
