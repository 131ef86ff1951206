"""Repair actions for the fluxfsck subsystem.

Repairs write nothing to the journal.  They always run inside a journaled
command (a dispatched event's scrub pass, a replayed ``corrupt`` command)
or a salvage restore, so replay regenerates them by re-running that
command.  The ``integrity.*`` metrics count what they did.

Repair strategies (tentpole spec):

* **rebuild planner spans from the expected-state table** — plans/xplans/
  filter registries and their scheduled-point trees are reconstructed to
  exactly what :func:`~repro.recovery.integrity.expected_span_table` says
  the live allocations and planned outages booked.
* **reconcile aggregate DFU filters** — the same rebuild on a filter,
  fixing drifted aggregates.
* **release orphaned spans** — spans no allocation accounts for are
  dropped as part of the registry rebuild.
* **requeue jobs whose reservations were lost** — when a vertex cannot be
  verified clean after repair, every job holding it is evacuated: spans
  released tolerantly, the job killed with ``NODE_FAILURE`` and resubmitted
  under the simulator's retry policy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from ..errors import FluxionError
from ..resource.vertex import PLANNER_KINDS

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..match.writer import Allocation
    from ..resource import ResourceVertex
    from ..sched.simulator import ClusterSimulator
    from .integrity import Expectation, Finding, IntegrityMonitor, SpanTable

__all__ = ["RepairEngine"]


class RepairEngine:
    """Deterministic state repair for one simulator instance."""

    def __init__(
        self,
        sim: "ClusterSimulator",
        monitor: Optional["IntegrityMonitor"] = None,
    ) -> None:
        self.sim = sim
        self.monitor = monitor
        self.skipped_spans = 0

    # ------------------------------------------------------------------
    # repair actions
    # ------------------------------------------------------------------
    def restore_structure(self, vertex: "ResourceVertex") -> bool:
        """Restore a vertex's structural fields from the attach baseline.

        Identity fields (type/basename/id) are not touched — the baseline
        is keyed by name, so identity corruption presents as an unknown
        vertex and is handled by quarantine, not rewriting.  Returns False
        when no baseline is known.
        """
        base = (
            self.monitor.baseline_structure(vertex)
            if self.monitor is not None
            else None
        )
        if base is None:
            return False
        vertex.size = base["size"]
        vertex.unit = base["unit"]
        vertex.rank = base["rank"]
        vertex.properties = dict(base["properties"])
        vertex.paths = dict(base["paths"])
        self.sim.graph.note_change(structural=True)
        return True

    def rebuild_planner(
        self,
        vertex: "ResourceVertex",
        pkind: str,
        want: Dict[int, "Expectation"],
    ) -> int:
        """Rebuild one planner to exactly the expected span set.

        ``want`` is the per-span expectation from
        :func:`~repro.recovery.integrity.expected_span_table`; the registry
        is replaced wholesale (releasing orphans) and the point trees are
        reconstructed from scratch, so even unreadable trees repair.
        Returns the number of spans booked.
        """
        planner = vertex.planner_of(pkind)
        if planner is None:
            return 0
        # Orphan spans go with the old registry: capacity may come back.
        self.sim.graph.note_change()
        booked_key = "counts" if pkind == "filter" else "request"
        records = [
            {"id": sid, "start": start, "end": end, booked_key: booked}
            for sid, (start, end, booked) in sorted(want.items())
        ]
        if pkind == "filter":
            return planner.rebuild(bundles=records)
        return planner.rebuild(spans=records)

    def repair_vertex(
        self,
        vertex: "ResourceVertex",
        findings: Iterable["Finding"],
        expected: "SpanTable",
    ) -> List[str]:
        """Apply the repair actions implied by ``findings``; returns labels.

        A planner whose expected span set turns out infeasible (corrupt
        beyond reconciliation) is skipped — the caller re-scans and
        escalates to :meth:`evacuate_vertex`.
        """
        actions: List[str] = []
        kinds = {f.kind for f in findings}
        planners = {f.planner for f in findings if f.planner is not None}
        if "structure" in kinds and self.restore_structure(vertex):
            actions.append("restore-structure")
        for pkind in PLANNER_KINDS:
            if pkind not in planners:
                continue
            want = expected.get((vertex.name, pkind), {})
            try:
                self.rebuild_planner(vertex, pkind, want)
            except FluxionError:
                # Leave it dirty; the monitor escalates after re-scanning.
                continue
            actions.append(f"rebuild-{pkind}")
        return actions

    # ------------------------------------------------------------------
    # bounded-loss escalation
    # ------------------------------------------------------------------
    def release_allocation(self, alloc: "Allocation") -> int:
        """Tolerantly release every span behind ``alloc`` and deregister it.

        Unlike :meth:`Traverser.remove`, a span that is already gone (or a
        tree too damaged to unbook) is skipped and counted in
        :attr:`skipped_spans` instead of aborting — the enclosing repair
        rebuilds the planner afterwards.  Returns spans actually released.
        """
        released = 0
        for planner, span_id in list(alloc._span_records):
            try:
                planner.rem_span(span_id)
                released += 1
            except FluxionError:
                self.skipped_spans += 1
        alloc._span_records.clear()
        alloc._bookings = None
        self.sim.traverser.allocations.pop(alloc.alloc_id, None)
        self.sim._started_allocs.discard(alloc.alloc_id)
        self.sim.graph.note_change()
        return released

    def evacuate_vertex(self, vertex: "ResourceVertex") -> int:
        """Requeue every job holding ``vertex`` (reservations lost).

        The bounded-loss last resort: allocations beneath the vertex are
        released tolerantly, each victim killed with ``NODE_FAILURE`` and
        resubmitted per the retry policy (work-credit accounting included,
        exactly like a hardware failure).  Returns the victim count.
        """
        from ..sched.failures import affected_jobs
        from ..sched.job import CancelReason

        victims = affected_jobs(self.sim, vertex)
        if not victims:
            return 0
        for job in victims:
            for alloc in list(job.allocations):
                self.release_allocation(alloc)
            self.sim._kill(job, CancelReason.NODE_FAILURE, retry=True)
        return len(victims)
