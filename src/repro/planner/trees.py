"""The Planner's index tree (paper §4.1).

:class:`SPTree` is the *scheduled-point* tree: an
:class:`~repro.planner.rbtree.RBTree` whose nodes are the
:class:`~repro.planner.span.ScheduledPoint` s themselves, keyed by time.  The
time-based queries are the tree's own — the state at time *t* is
``floor(t)``, and each later point one ``next`` link on, since the tree
links every point to its neighbours in time on each insert and delete —
and, once :meth:`SPTree.index` has switched it on, so is an index of
remaining resource over the same nodes: each node carries the ``(lowest, highest)`` ``remaining`` of its subtree, so the
earliest later point that covers a request, and the earliest that falls
short of it, are each one ``O(log N)`` descent.  Those two descents are what
the earliest-time question (EarliestAt) needs; the paper answers it from a
second tree keyed by remaining resource (Algorithm 1), kept as a reference
in :mod:`repro.baselines.algorithm1`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .rbtree import RBTree
from .span import ScheduledPoint

__all__ = ["SPTree"]


def _remaining_range(node: ScheduledPoint) -> Tuple[int, int]:
    """(lowest, highest) ``remaining`` within the subtree rooted at ``node``."""
    lowest = highest = node.remaining
    aug = node.left.aug
    if aug is not None:
        if aug[0] < lowest:
            lowest = aug[0]
        if aug[1] > highest:
            highest = aug[1]
    aug = node.right.aug
    if aug is not None:
        if aug[0] < lowest:
            lowest = aug[0]
        if aug[1] > highest:
            highest = aug[1]
    return lowest, highest


class SPTree(RBTree):
    """Scheduled-point tree: its nodes are :class:`ScheduledPoint` s, keyed
    by time (link one in with :meth:`insert_node`, or next to the point
    before it with :meth:`split_after`), each linked to its neighbours in
    time."""

    __slots__ = ()

    # ------------------------------------------------------------------
    # the time links
    # ------------------------------------------------------------------
    def _attach(
        self, z: ScheduledPoint, parent: ScheduledPoint, left: bool
    ) -> ScheduledPoint:
        # A new leaf's neighbour in time is the node it hangs from.
        if parent is self.nil:
            before = after = None
        elif left:
            before, after = parent.prev, parent
        else:
            before, after = parent, parent.next
        z.prev, z.next = before, after
        if before is not None:
            before.next = z
        if after is not None:
            after.prev = z
        return RBTree._attach(self, z, parent, left)

    def delete_node(self, z: ScheduledPoint) -> None:
        before, after = z.prev, z.next
        if before is not None:
            before.next = after
        if after is not None:
            after.prev = before
        RBTree.delete_node(self, z)
        z.prev = z.next = None

    def check_invariants(self) -> None:
        """Red-black, order and index invariants, and the time links: they
        follow the in-order walk, and ``prev`` and ``next`` agree."""
        RBTree.check_invariants(self)
        before = None
        for point in self:
            assert point.prev is before, f"prev link broken at t={point.key}"
            if before is not None:
                assert before.next is point, f"next link broken at t={before.key}"
            before = point
        assert before is None or before.next is None, "next link past the end"

    def split_after(self, node: ScheduledPoint, time: int) -> ScheduledPoint:
        """Link in a new point at ``time``, which lies between ``node`` and
        the point after it, holding ``node``'s state; return it.  No
        descent: the new leaf hangs right of ``node`` or, where that place
        is taken, left of the next point, the leftmost of that subtree."""
        point = ScheduledPoint(time, node.in_use, node.remaining)
        if node.right is self.nil:
            return self._attach(point, node, False)
        return self._attach(point, node.next, True)

    def charge(
        self, first: ScheduledPoint, end: int, delta: int
    ) -> Optional[ScheduledPoint]:
        """Charge ``delta`` units to ``first`` and every later point before
        ``end``, keeping the index, if there is one, in step; return the
        first point at or after ``end`` (None when there is none)."""
        point, indexed = first, self._augment is not None
        while point is not None and point.key < end:
            if not indexed:
                point.in_use += delta
                point.remaining -= delta
            point = point.next
        if indexed:
            self._shift_indexed(self.root, first.key, end, delta)
        return point

    # ------------------------------------------------------------------
    # the remaining-resource index
    # ------------------------------------------------------------------
    @property
    def indexed(self) -> bool:
        """True once :meth:`index` has been called."""
        return self.augmented

    def index(self) -> None:
        """Index the points by remaining resource, in one pass over the tree.

        Inserts, removals and :meth:`shift` keep the index current afterwards;
        call again after changing ``remaining`` any other way.
        """
        self.set_augment(_remaining_range)

    def shift(self, start: int, end: int, delta: int) -> None:
        """Charge ``delta`` units (negative: release) to every point with
        start <= time < end, keeping the index, if there is one, in step."""
        point = self.ceiling(start)
        if point is not None:
            self.charge(point, end, delta)

    def _shift_indexed(
        self, point: ScheduledPoint, start: int, end: int, delta: int
    ) -> None:
        """One range walk: adjust the points of ``[start, end)`` on the way
        down, recompute ``aug`` of every node visited on the way back up
        (``O(k + log N)`` for ``k`` points in range)."""
        if point is self.nil:
            return
        time = point.key
        if start < time:
            self._shift_indexed(point.left, start, end, delta)
        if time < end:
            if start <= time:
                point.in_use += delta
                point.remaining -= delta
            self._shift_indexed(point.right, start, end, delta)
        point.aug = _remaining_range(point)

    def first_covering(self, time: int, request: int) -> Optional[ScheduledPoint]:
        """Earliest point at or after ``time`` with ``remaining >= request``
        (None when there is none).  Needs the index."""
        return self._first(time, request, True)

    def first_short(self, time: int, request: int) -> Optional[ScheduledPoint]:
        """Earliest point at or after ``time`` with ``remaining < request``
        (None when there is none).  Needs the index."""
        return self._first(time, request, False)

    def _first(
        self, time: int, request: int, covering: bool
    ) -> Optional[ScheduledPoint]:
        point = self.ceiling(time)
        if point is not None and (point.remaining >= request) is not covering:
            point = self._next(point, request, covering)
        return point

    def earliest_fit(
        self, at: int, duration: int, request: int
    ) -> Tuple[Optional[int], int]:
        """Earliest time >= ``at`` from which ``request`` units stay available
        for ``duration`` ticks (None when there is none), and the number of
        hops the search took to a later candidate start.  Needs the index,
        and a point at or before ``at``.

        A fit starts at ``at`` or where availability rises to the request, so
        the search alternates the two descents: the first point that falls
        short decides the run that starts at the candidate — a fit if it lies
        a whole ``duration`` away — and the first covering point after that
        one is the next candidate.  Nothing in between is looked at.
        """
        step = self._next
        point = self.floor(at)
        start = at
        hops = 0
        short = point if point.remaining < request else step(point, request, False)
        while short is not None and short.key < start + duration:
            point = step(short, request, True)
            if point is None:
                return None, hops
            start = point.key
            hops += 1
            short = step(point, request, False)
        return start, hops

    def _next(
        self, node: ScheduledPoint, request: int, covering: bool
    ) -> Optional[ScheduledPoint]:
        """Earliest point after ``node`` that covers ``request``
        (``covering``) or falls short of it (not ``covering``).

        A subtree holds a covering point iff its highest ``remaining`` covers,
        a short one iff its lowest does not: both are the one comparison
        ``(bound >= request) is covering`` on the matching end of ``aug``.
        Starting from a node rather than the root, the walk costs the
        logarithm of the distance covered, not of the tree.
        """
        nil = self.nil
        end = 1 if covering else 0
        while True:
            child = node.right
            if child is not nil and (child.aug[end] >= request) is covering:
                # The answer is the leftmost such point of this subtree.
                node = child
                while True:
                    child = node.left
                    if child is not nil and (child.aug[end] >= request) is covering:
                        node = child
                    elif (node.remaining >= request) is covering:
                        return node
                    else:
                        node = node.right
            # Nothing below: climb to the first ancestor that lies later.
            parent = node.parent
            while parent is not nil and node is parent.right:
                node = parent
                parent = node.parent
            if parent is nil:
                return None
            node = parent
            if (node.remaining >= request) is covering:
                return node
