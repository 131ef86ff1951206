"""Scheduler-state invariant auditing: silent corruption becomes loud.

Cancel-and-requeue storms exercise every bookkeeping path at once —
traverser allocations, planner spans, pruning filters, exclusivity holds
and job state machines all mutate together, and a single missed release
turns into quiet schedule corruption that only surfaces as inexplicable
placements much later.  The :class:`InvariantAuditor` cross-checks all of
that after every scheduling cycle (attach it with
``ClusterSimulator(..., audit=True)``) and raises a structured
:class:`InvariantViolation` carrying an expected-vs-actual diff per broken
invariant.

Checked invariants
------------------
* **alloc-ownership** — every live traverser allocation is held by exactly
  one active job, and inactive jobs hold no live allocations;
* **span-accounting** — every planner (vertex ``plans``/``xplans`` and
  pruning filters) carries exactly the spans the live allocations and the
  graph's :class:`~repro.sched.capacity.CapacitySchedule` outages booked,
  with matching windows and amounts (the diff of
  :func:`~repro.recovery.integrity.expected_span_table` against the
  planners — the table the integrity scrubber repairs from);
* **exclusivity** — no two active jobs overlap in time on a vertex either
  holds exclusively, including descendants of exclusively-held subtrees;
* **job-state** — PENDING jobs hold nothing, RUNNING/RESERVED jobs hold a
  consistent window around ``now``, CANCELED jobs carry a cancel reason;
* **down-vertex** — no active job holds resources on a drained vertex or
  inside a drained subtree.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..errors import FluxionError
from ..recovery.integrity import expected_span_table, scan_planners
from ..sched.job import JobState

__all__ = ["InvariantAuditor", "InvariantViolation", "Violation"]


@dataclass(frozen=True)
class Violation:
    """One broken invariant, as an expected-vs-actual diff entry."""

    invariant: str  # which invariant family (e.g. "span-accounting")
    subject: str  # what it is about (a job, vertex, allocation, planner)
    expected: str
    actual: str

    def __str__(self) -> str:
        return (
            f"[{self.invariant}] {self.subject}: "
            f"expected {self.expected}, actual {self.actual}"
        )


class InvariantViolation(FluxionError):
    """Scheduler state failed an audit; ``violations`` lists every diff."""

    def __init__(self, violations: Sequence[Violation], now: int) -> None:
        self.violations = list(violations)
        self.now = now
        lines = "\n".join(f"  {v}" for v in self.violations)
        super().__init__(
            f"{len(self.violations)} invariant violation(s) at t={now}:\n{lines}"
        )


class InvariantAuditor:
    """Cross-checks a :class:`~repro.sched.simulator.ClusterSimulator`.

    Parameters
    ----------
    deep:
        Additionally run every planner's internal
        ``check_invariants()`` (tree-structure self-checks) each audit —
        the **planner-invariants** family.  Off by default: it is O(spans)
        per planner and the recovery tests are its main consumer.
    """

    def __init__(self, deep: bool = False) -> None:
        self.deep = deep
        #: audits performed (each one covers every invariant family)
        self.checks_run = 0

    def check(self, sim: "ClusterSimulator") -> None:
        """Audit ``sim``; raise :class:`InvariantViolation` on any breakage."""
        violations = self.collect(sim)
        self.checks_run += 1
        if violations:
            raise InvariantViolation(violations, sim.now)

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def collect(self, sim: "ClusterSimulator") -> List[Violation]:
        """Run every check and return the violations (empty = healthy)."""
        out: List[Violation] = []
        live = sim.traverser.allocations
        active = [j for j in sim.jobs.values() if j.is_active]
        self._check_ownership(sim, live, active, out)
        self._check_planners(sim, out)
        self._check_exclusivity(sim, active, out)
        self._check_job_states(sim, out)
        self._check_down_vertices(sim, active, out)
        return out

    def _check_planners(self, sim, out: List[Violation]) -> None:
        """**span-accounting** (and, ``deep``, **planner-invariants**): the
        integrity scan's findings, reported instead of repaired."""
        expected = expected_span_table(sim)
        for vertex in sim.graph.vertices():
            for finding in scan_planners(vertex, expected, deep=self.deep):
                tree = finding.kind == "tree-drift"
                out.append(
                    Violation(
                        "planner-invariants" if tree else "span-accounting",
                        f"{finding.vertex}.{finding.planner}",
                        "internal planner invariants hold"
                        if tree
                        else "the spans live allocations and outages booked",
                        finding.detail,
                    )
                )

    def _check_ownership(self, sim, live, active, out: List[Violation]) -> None:
        owner: Dict[int, int] = {}
        for job in sim.jobs.values():
            for alloc in job.allocations:
                aid = alloc.alloc_id
                if job.is_active:
                    if aid in owner:
                        out.append(
                            Violation(
                                "alloc-ownership",
                                f"allocation {aid}",
                                f"one owner (job {owner[aid]})",
                                f"also held by job {job.job_id}",
                            )
                        )
                    owner[aid] = job.job_id
                    if live.get(aid) is not alloc:
                        out.append(
                            Violation(
                                "alloc-ownership",
                                f"job {job.job_id}",
                                f"allocation {aid} live in the traverser",
                                "missing or replaced there",
                            )
                        )
                elif aid in live:
                    out.append(
                        Violation(
                            "alloc-ownership",
                            f"job {job.job_id} ({job.state.value})",
                            "no live allocations after release",
                            f"allocation {aid} still live",
                        )
                    )
        for aid in live:
            if aid not in owner:
                out.append(
                    Violation(
                        "alloc-ownership",
                        f"allocation {aid}",
                        "an active owning job",
                        "orphaned in the traverser",
                    )
                )

    def _check_exclusivity(self, sim, active, out: List[Violation]) -> None:
        # entries: one per live selection of an active job
        entries: List[Tuple[object, int, object, object]] = []
        by_vertex: Dict[int, List[int]] = {}
        for job in active:
            for alloc in job.allocations:
                for sel in alloc.selections:
                    index = len(entries)
                    entries.append((sel, job.job_id, alloc, sel.vertex))
                    by_vertex.setdefault(sel.vertex.uniq_id, []).append(index)

        def overlaps(a, b) -> bool:
            return a.at < b.end and b.at < a.end

        # same-vertex conflicts: an exclusive hold vs. any overlapping use
        for indices in by_vertex.values():
            if len(indices) < 2:
                continue
            exclusive = [i for i in indices if entries[i][0].exclusive]
            if not exclusive:
                continue
            for i in exclusive:
                sel_i, job_i, alloc_i, vertex = entries[i]
                for k in indices:
                    if k == i:
                        continue
                    sel_k, job_k, alloc_k, _ = entries[k]
                    if job_k != job_i and overlaps(alloc_i, alloc_k):
                        out.append(
                            Violation(
                                "exclusivity",
                                vertex.name,
                                f"exclusive hold by job {job_i} over "
                                f"[{alloc_i.at},{alloc_i.end})",
                                f"job {job_k} also holds it over "
                                f"[{alloc_k.at},{alloc_k.end})",
                            )
                        )
        # subtree conflicts: nothing of another job below an exclusive hold
        paths = sorted(
            (entry[3].path("containment"), i)
            for i, entry in enumerate(entries)
            if entry[3].path("containment")
        )
        keys = [p for p, _ in paths]
        for i, (sel, job_id, alloc, vertex) in enumerate(entries):
            if not sel.exclusive:
                continue
            prefix = vertex.path("containment")
            if not prefix:
                continue
            prefix += "/"
            pos = bisect_left(keys, prefix)
            while pos < len(keys) and keys[pos].startswith(prefix):
                k = paths[pos][1]
                _, job_k, alloc_k, vertex_k = entries[k]
                if job_k != job_id and overlaps(alloc, alloc_k):
                    out.append(
                        Violation(
                            "exclusivity",
                            vertex_k.name,
                            f"free: inside job {job_id}'s exclusive "
                            f"{vertex.name} subtree",
                            f"held by job {job_k} over "
                            f"[{alloc_k.at},{alloc_k.end})",
                        )
                    )
                pos += 1

    def _check_job_states(self, sim, out: List[Violation]) -> None:
        now = sim.now
        for job in sim.jobs.values():
            alloc = job.allocation
            if job.state is JobState.PENDING and job.allocations:
                out.append(
                    Violation(
                        "job-state",
                        f"job {job.job_id}",
                        "PENDING with no allocations",
                        f"{len(job.allocations)} allocation(s) attached",
                    )
                )
            elif job.state is JobState.RUNNING:
                if alloc is None:
                    out.append(
                        Violation(
                            "job-state",
                            f"job {job.job_id}",
                            "RUNNING with an allocation",
                            "no allocation",
                        )
                    )
                elif not (alloc.at <= now <= alloc.end):
                    out.append(
                        Violation(
                            "job-state",
                            f"job {job.job_id}",
                            f"RUNNING inside its window at t={now}",
                            f"window [{alloc.at},{alloc.end})",
                        )
                    )
            elif job.state is JobState.RESERVED:
                if alloc is None or alloc.at < now:
                    out.append(
                        Violation(
                            "job-state",
                            f"job {job.job_id}",
                            f"RESERVED with a future start (t={now})",
                            "no allocation"
                            if alloc is None
                            else f"start {alloc.at}",
                        )
                    )
            elif job.state is JobState.CANCELED and job.cancel_reason is None:
                out.append(
                    Violation(
                        "job-state",
                        f"job {job.job_id}",
                        "CANCELED with a cancel reason",
                        "no reason recorded",
                    )
                )

    def _check_down_vertices(self, sim, active, out: List[Violation]) -> None:
        down = [v for v in sim.graph.vertices() if v.status != "up"]
        if not down:
            return
        closed = set()
        for vertex in down:
            closed.add(vertex.uniq_id)
            for v in sim.graph.descendants(vertex):
                closed.add(v.uniq_id)
        for job in active:
            for alloc in job.allocations:
                for sel in alloc.selections:
                    if sel.vertex.uniq_id in closed:
                        out.append(
                            Violation(
                                "down-vertex",
                                f"job {job.job_id}",
                                "no holds on drained subtrees",
                                f"holds {sel.vertex.name} over "
                                f"[{alloc.at},{alloc.end})",
                            )
                        )
