"""The Planner's index tree (paper §4.1).

:class:`SPTree` is the *scheduled-point* tree, keyed by time.  It supports
the ``O(log N)`` time-based queries — the state at time *t* (floor search)
and in-order iteration over later points — and, once :meth:`SPTree.index`
has switched it on, an index of remaining resource over the same nodes: each
node carries the ``(lowest, highest)`` ``remaining`` of its subtree, so the
earliest later point that covers a request, and the earliest that falls
short of it, are each one ``O(log N)`` descent.  Those two descents are what
the earliest-time question (EarliestAt) needs; the paper answers it from a
second tree keyed by remaining resource (Algorithm 1), kept as a reference
in :mod:`repro.baselines.algorithm1`.

A thin, purpose-specific wrapper over :class:`~repro.planner.rbtree.RBTree`.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from .rbtree import RBNode, RBTree
from .span import ScheduledPoint

__all__ = ["SPTree"]


def _remaining_range(node: RBNode) -> Tuple[int, int]:
    """(lowest, highest) ``remaining`` within the subtree rooted at ``node``."""
    lowest = highest = node.value.remaining
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


class SPTree:
    """Scheduled-point tree: maps time -> :class:`ScheduledPoint`."""

    __slots__ = ("_tree",)

    def __init__(self) -> None:
        self._tree = RBTree()

    def __len__(self) -> int:
        return len(self._tree)

    def insert(self, point: ScheduledPoint) -> None:
        """Insert ``point``; a point must be unique in time."""
        self._tree.insert(point.time, point)

    def remove(self, point: ScheduledPoint) -> None:
        """Remove the point scheduled at ``point.time``."""
        self._tree.delete(point.time)

    def get(self, time: int) -> Optional[ScheduledPoint]:
        """Return the point scheduled exactly at ``time``, or None."""
        node = self._tree.find(time)
        return None if node is None else node.value

    def state_at(self, time: int) -> Optional[ScheduledPoint]:
        """Return the point governing ``time`` (largest point time <= time)."""
        node = self._tree.floor(time)
        return None if node is None else node.value

    def first_at_or_after(self, time: int) -> Optional[ScheduledPoint]:
        """Return the earliest point with time >= ``time``, or None."""
        node = self._tree.ceiling(time)
        return None if node is None else node.value

    def iter_from(self, time: int) -> Iterator[ScheduledPoint]:
        """Yield points in time order starting at the first point >= ``time``."""
        node = self._tree.ceiling(time)
        while node is not None:
            yield node.value
            node = self._tree.successor(node)

    def iter_range(self, start: int, end: int) -> Iterator[ScheduledPoint]:
        """Yield points with start <= time < end, in time order."""
        node = self._tree.ceiling(start)
        while node is not None and node.key < end:
            yield node.value
            node = self._tree.successor(node)

    def __iter__(self) -> Iterator[ScheduledPoint]:
        for node in self._tree:
            yield node.value

    # ------------------------------------------------------------------
    # the remaining-resource index
    # ------------------------------------------------------------------
    @property
    def indexed(self) -> bool:
        """True once :meth:`index` has been called."""
        return self._tree.augmented

    def index(self) -> None:
        """Index the points by remaining resource, in one pass over the tree.

        Inserts, removals and :meth:`shift` keep the index current afterwards;
        call again after changing ``remaining`` any other way.
        """
        self._tree.set_augment(_remaining_range)

    def shift(self, start: int, end: int, delta: int) -> None:
        """Charge ``delta`` units (negative: release) to every point with
        start <= time < end, keeping the index, if there is one, in step."""
        tree = self._tree
        if tree.augmented:
            self._shift_indexed(tree.root, start, end, delta)
            return
        node = tree.ceiling(start)
        while node is not None and node.key < end:
            point = node.value
            point.in_use += delta
            point.remaining -= delta
            node = tree.successor(node)

    def _shift_indexed(self, node: RBNode, start: int, end: int, delta: int) -> None:
        """One range walk: adjust the points of ``[start, end)`` on the way
        down, recompute ``aug`` of every node visited on the way back up
        (``O(k + log N)`` for ``k`` points in range)."""
        if node is self._tree.nil:
            return
        time = node.key
        if start < time:
            self._shift_indexed(node.left, start, end, delta)
        if time < end:
            if start <= time:
                point = node.value
                point.in_use += delta
                point.remaining -= delta
            self._shift_indexed(node.right, start, end, delta)
        node.aug = _remaining_range(node)

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
        node = self._tree.ceiling(time)
        if node is not None and (node.value.remaining >= request) is not covering:
            node = self._next(node, request, covering)
        return None if node is None else node.value

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
        node = self._tree.floor(at)
        start = at
        hops = 0
        short = node if node.value.remaining < request else step(node, request, False)
        while short is not None and short.key < start + duration:
            node = step(short, request, True)
            if node is None:
                return None, hops
            start = node.key
            hops += 1
            short = step(node, request, False)
        return start, hops

    def _next(self, node: RBNode, request: int, covering: bool) -> Optional[RBNode]:
        """Earliest node after ``node`` whose point covers ``request``
        (``covering``) or falls short of it (not ``covering``).

        A subtree holds a covering point iff its highest ``remaining`` covers,
        a short one iff its lowest does not: both are the one comparison
        ``(bound >= request) is covering`` on the matching end of ``aug``.
        Starting from a node rather than the root, the walk costs the
        logarithm of the distance covered, not of the tree.
        """
        nil = self._tree.nil
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
                    elif (node.value.remaining >= request) is covering:
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
            if (node.value.remaining >= request) is covering:
                return node

    def check_invariants(self) -> None:
        self._tree.check_invariants()
