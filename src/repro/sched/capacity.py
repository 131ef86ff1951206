"""Variable system capacity: planned outages and maintenance windows (§5.5).

"Variable capacity in system resources" [Zhang & Chien] means the scheduler
must plan around capacity that comes and goes: maintenance windows, power
emergencies, cloud capacity leases.  With the graph model an outage is just
an exclusive hold on a subtree for a future window — reservations and
backfilling then route around it automatically, because the planners already
encode when the capacity disappears and returns.

:class:`CapacitySchedule` books and releases such windows, keeping the
pruning filters consistent the same way the traverser's SDFU does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import ResourceGraphError
from ..match.writer import Selection, book
from ..resource import ResourceGraph, ResourceVertex

__all__ = ["CapacitySchedule", "Outage"]


@dataclass
class Outage:
    """A planned capacity removal of one subtree over ``[start, end)``."""

    outage_id: int
    vertex: ResourceVertex
    start: int
    end: int
    reason: str = ""
    _span_records: List[Tuple[object, int]] = field(default_factory=list,
                                                    repr=False)


class CapacitySchedule:
    """Planned-outage manager over one resource graph.

    Outages are booked exactly like exclusive allocations: an exclusive hold
    on every vertex of the subtree (its one span, the exclusivity level on
    the x-planner) and subtree totals into every pruning filter above — so
    matching, reservations and ``avail_time_first`` all see the window
    without any special-casing.
    """

    def __init__(self, graph: ResourceGraph) -> None:
        self.graph = graph
        self.outages: Dict[int, Outage] = {}
        self._next_id = 1
        # The auditor and the integrity scrubber read the graph's schedules
        # to know outage spans belong on the planners.
        graph.capacity_schedules.append(self)

    def bookings(
        self, vertex: ResourceVertex
    ) -> List[Tuple[ResourceVertex, str, object]]:
        """What an outage of ``vertex`` books, in booking order.

        ``(vertex, planner kind, booked)`` triples like
        :func:`~repro.match.writer.allocation_bookings`: an exclusive
        hold's one span on every vertex of the subtree, then the subtree's
        totals of each tracked type into the filters on the vertex and
        above.  :meth:`add_outage` books exactly this list through
        :func:`~repro.match.writer.book`, so it lines up with
        ``Outage._span_records``.
        """
        subtree = [vertex] + list(self.graph.descendants(vertex))
        out: List[Tuple[ResourceVertex, str, object]] = [
            (v,) + Selection(v, v.size, exclusive=True).booking
            for v in subtree
        ]
        prune_types = set(self.graph.prune_types)
        totals: Dict[str, int] = {}
        for v in subtree:
            if v.type in prune_types:
                totals[v.type] = totals.get(v.type, 0) + v.size
        for target in [vertex] + list(self.graph.ancestors(vertex)):
            filters = target.prune_filters
            if filters is None:
                continue
            tracked = {t: n for t, n in totals.items() if filters.tracks(t)}
            if tracked:
                out.append((target, "filter", tracked))
        return out

    def add_outage(
        self,
        vertex: ResourceVertex,
        start: int,
        duration: int,
        reason: str = "",
    ) -> Outage:
        """Take ``vertex`` and its subtree offline over ``[start, start+duration)``.

        Raises when any affected vertex already has conflicting bookings in
        the window (drain jobs first, or pick a window the planners show as
        free): :class:`ResourceGraphError` for a quantity in use there, the
        planner's error for a hold the outage's own spans meet.
        """
        bookings = self.bookings(vertex)
        for v, kind, _ in bookings:
            # An exclusive hold's span cannot see a pool quantity: ask the
            # effective view for the whole pool first.
            if kind != "filter" and not v.avail_during(
                start, duration, v.size
            ):
                raise ResourceGraphError(
                    f"outage of {vertex.name}: {v.name} is in use in "
                    f"[{start},{start + duration})"
                )
        outage = Outage(
            outage_id=self._next_id,
            vertex=vertex,
            start=start,
            end=start + duration,
            reason=reason,
            _span_records=book(bookings, start, duration),
        )
        self._next_id += 1
        self.outages[outage.outage_id] = outage
        return outage

    def cancel(self, outage_id: int) -> Outage:
        """Cancel a planned outage, restoring the capacity."""
        try:
            outage = self.outages.pop(outage_id)
        except KeyError:
            raise ResourceGraphError(f"unknown outage {outage_id}") from None
        for planner, span_id in outage._span_records:
            planner.rem_span(span_id)
        outage._span_records.clear()
        self.graph.note_change()
        return outage

    def capacity_at(self, rtype: str, at: int) -> int:
        """Schedulable capacity of ``rtype`` at instant ``at`` (excludes both
        outages and job allocations)."""
        return sum(
            v.avail_resources_at(at) for v in self.graph.vertices(rtype)
        )

    def offline_at(self, at: int) -> List[Outage]:
        """Outages active at instant ``at``."""
        return [o for o in self.outages.values() if o.start <= at < o.end]
