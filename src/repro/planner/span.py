"""Scheduled points and spans — the Planner's time-line records (paper §4.1).

A *span* marks an activity on the planner's calendar: ``request`` units of the
resource are in use from ``start`` (inclusive) to ``end`` (exclusive).  Adding
a span materialises two *scheduled points*, one at each boundary; every
scheduled point records the amount of resource in use — and remaining — from
its time until the next scheduled point.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Optional

from .rbtree import RBNode

__all__ = ["ScheduledPoint", "Span"]

#: the metadata of every span booked without any: one shared, read-only mapping
NO_METADATA: Mapping = MappingProxyType({})


class ScheduledPoint(RBNode):
    """A time point at which the planner's resource state changes.

    The point is its own node of the planner's SP tree, keyed by its time
    (``value`` is unused), so booking a boundary allocates one object.

    Attributes
    ----------
    time:
        The scheduled time (integer ticks): the node's ``key``.
    in_use:
        Resource units allocated during ``[time, next_point.time)``.
    remaining:
        Resource units still available during that interval
        (``planner.total - in_use``).
    ref_count:
        Number of spans whose start or end boundary is this point.  A point
        whose ref count drops to zero carries no information (its state equals
        its predecessor's) and is removed from the tree.
    prev, next:
        The neighbouring points in time order (None at either end), kept by
        the :class:`~repro.planner.trees.SPTree` that holds the point: a
        window is walked along them, never by climbing the tree.
    """

    __slots__ = ("in_use", "remaining", "ref_count", "prev", "next")

    def __init__(self, time: int, in_use: int, remaining: int, ref_count: int = 0):
        RBNode.__init__(self, time, None)
        self.in_use = in_use
        self.remaining = remaining
        self.ref_count = ref_count
        self.prev: Optional["ScheduledPoint"] = None
        self.next: Optional["ScheduledPoint"] = None

    @property
    def time(self) -> int:
        return self.key

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ScheduledPoint(t={self.time}, in_use={self.in_use}, "
            f"remaining={self.remaining}, refs={self.ref_count})"
        )


class Span:
    """An allocation of ``request`` units over ``[start, end)``.

    Spans are identified by the integer ``span_id`` the Planner hands back
    from :meth:`~repro.planner.Planner.add_span`.  A planner keeps a plain
    record per span and builds this view on demand.  Treated as immutable:
    updates go through :meth:`replace` (slotted plain class rather than a
    dataclass — ``__slots__`` drops the per-instance dict).
    ``metadata`` defaults to the shared, read-only :data:`NO_METADATA`.
    """

    __slots__ = ("span_id", "start", "end", "request", "metadata")

    def __init__(
        self,
        span_id: int,
        start: int,
        end: int,
        request: int,
        metadata: Optional[Mapping] = None,
    ) -> None:
        self.span_id = span_id
        self.start = start
        self.end = end
        self.request = request
        self.metadata = NO_METADATA if metadata is None else metadata

    def replace(self, **changes: object) -> "Span":
        """A copy with ``changes`` applied (dataclasses.replace equivalent)."""
        fields = {
            "span_id": self.span_id,
            "start": self.start,
            "end": self.end,
            "request": self.request,
            "metadata": self.metadata,
        }
        unknown = set(changes) - set(fields)
        if unknown:
            raise TypeError(f"unexpected span field(s): {sorted(unknown)}")
        fields.update(changes)
        return Span(**fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        # metadata is carried, not compared — matching the original
        # dataclass's compare=False field.
        return (
            self.span_id == other.span_id
            and self.start == other.start
            and self.end == other.end
            and self.request == other.request
        )

    def __hash__(self) -> int:
        return hash((self.span_id, self.start, self.end, self.request))

    def __repr__(self) -> str:
        return (
            f"Span(span_id={self.span_id}, start={self.start}, "
            f"end={self.end}, request={self.request}, "
            f"metadata={dict(self.metadata)})"
        )

    @property
    def duration(self) -> int:
        """Length of the span in ticks."""
        return self.end - self.start

    def overlaps(self, at: int, duration: int = 1) -> bool:
        """True when this span intersects the half-open window [at, at+duration)."""
        return self.start < at + duration and at < self.end
