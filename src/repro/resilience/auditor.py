"""Scheduler-state invariant auditing: silent corruption becomes loud.

Cancel-and-requeue storms exercise every bookkeeping path at once —
traverser allocations, planner spans, pruning filters, exclusivity holds
and job state machines all mutate together, and a single missed release
turns into quiet schedule corruption that only surfaces as inexplicable
placements much later.  The :class:`InvariantAuditor` cross-checks what
each scheduling cycle wrote at the end of that cycle (attach it with
``ClusterSimulator(..., audit=True)``), the whole state on demand
(:meth:`InvariantAuditor.collect`), and raises a structured
:class:`InvariantViolation` carrying an expected-vs-actual diff per broken
invariant — with an integrity monitor attached, only what the monitor's
pass could not repair.

Checked invariants
------------------
* **alloc-ownership** — every live traverser allocation is held by exactly
  one active job, and inactive jobs hold no live allocations;
* **span-accounting** — every planner (vertex ``plans``/``xplans`` and
  pruning filters) carries exactly the spans the live allocations and the
  graph's :class:`~repro.sched.capacity.CapacitySchedule` outages booked,
  with matching windows and amounts (the diff of the kept
  :class:`~repro.recovery.integrity.ExpectedState` table against the
  planners — the table the integrity monitor repairs from);
* **exclusivity** — no two active jobs overlap in time on a vertex either
  holds exclusively, including descendants of exclusively-held subtrees;
* **job-state** — PENDING jobs hold nothing, RUNNING/RESERVED jobs hold a
  consistent window around ``now``, CANCELED jobs carry a cancel reason;
* **down-vertex** — no active job holds resources on a drained vertex or
  inside a drained subtree.

What a per-cycle check guarantees: a write made through the scheduler's own
booking paths (``Traverser._book`` / ``remove`` / ``update_end``,
``CapacitySchedule``, ``RepairEngine``) is verified in the cycle it
happens; anything else — a planner nobody wrote to, damaged behind the
scheduler's back — within ceil(vertices / slice) cycles; everything on
demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from ..errors import FluxionError
from ..recovery.integrity import ExpectedState, IntegrityConfig, expected_state
from ..sched.job import JobState

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..recovery.integrity import IntegrityMonitor
    from ..resource import ResourceVertex
    from ..sched.job import Job
    from ..sched.simulator import ClusterSimulator

__all__ = ["InvariantAuditor", "InvariantViolation", "Violation"]

#: vertices of the rotation an auditor without an integrity monitor re-reads
#: per check: the monitor's default window, so the bound reads the same
SLICE = IntegrityConfig.scrub_window


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

    :meth:`check` is the per-cycle audit: it verifies what changed since
    the previous one — the planners of every vertex a booking, release,
    window move, outage or evacuation touched, exclusivity for the
    allocations that entered or moved, ownership and state of the jobs
    that were or became active — and a rotating slice of the graph, so a
    planner nobody wrote to is still re-read within
    ceil(vertices / slice) cycles.  The simulator's auditor hands its
    planner reads to the simulator's integrity monitor, whose window is
    the slice; otherwise the slice is :data:`SLICE` vertices of the
    auditor's own.  :meth:`collect` is the full audit:
    the same checks over every vertex, allocation and job, against a
    table derived from nothing.  An auditor's first check, and any check
    after the kept table was derived again (a vertex, an edge or a pool
    size changed), is a full one; after a drain or a return to service the
    table stands and **down-vertex** is asked of every active allocation.

    Parameters
    ----------
    deep:
        Additionally run the internal ``check_invariants()`` (tree-structure
        self-checks) of every planner an audit reads — the
        **planner-invariants** family.  Off by default: it is O(spans)
        per planner and the recovery tests are its main consumer.
    """

    def __init__(self, deep: bool = False) -> None:
        self.deep = deep
        #: audits performed through :meth:`check`
        self.checks_run = 0
        #: set by :meth:`check` for the one :meth:`collect` it makes
        self._per_cycle = False
        # What the previous audit saw (derived state, gone after a restore):
        # the simulator, the derivation of its kept table and the structure
        # it was of, the jobs active then, the first job id not yet looked
        # at, the drained subtrees, and where the auditor's own slice of the
        # rotation stands.
        self._sim: Optional["ClusterSimulator"] = None
        self._rebuilds = -1
        self._structure = -1
        self._active: List["Job"] = []
        self._next_job_id = 0
        self._closed: Set[int] = set()
        self._cursor = 0

    def check(self, sim: "ClusterSimulator") -> None:
        """Audit what changed in ``sim`` since the previous check; raise
        :class:`InvariantViolation` on any breakage."""
        self._per_cycle = True
        try:
            with sim.obs.tracer.span("audit.check", "audit", vt=float(sim.now)):
                violations = self.collect(sim)
        finally:  # a collect() override need not have taken the flag down
            self._per_cycle = False
        self.checks_run += 1
        if violations:
            raise InvariantViolation(violations, sim.now)

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def collect(self, sim: "ClusterSimulator") -> List[Violation]:
        """Run every check over everything and return the violations
        (empty = healthy): the full audit, against a table derived from
        nothing, leaving what the next :meth:`check` covers as it was.  The
        one collection method: :meth:`check` goes through it too, narrowed
        to what changed since the previous check."""
        per_cycle, self._per_cycle = self._per_cycle, False
        graph = sim.graph
        state = (
            expected_state(sim) if per_cycle
            else ExpectedState(sim, exclusive=True)
        )
        state.refresh()
        full = (
            not per_cycle
            or self._sim is not sim
            or self._rebuilds != state.rebuilds
        )
        monitor = sim.integrity if per_cycle and sim.auditor is self else None
        if full:
            vertices = list(graph.vertices())
        else:
            changed = state.changed
            if monitor is None:
                order = state.order
                for i in range(min(SLICE, len(order))):
                    vertex = order[(self._cursor + i) % len(order)]
                    changed[vertex.uniq_id] = vertex
                self._cursor = (self._cursor + SLICE) % max(1, len(order))
            vertices = [changed[uid] for uid in sorted(changed)]
        state.changed.clear()
        if sim.obs.enabled:
            metrics = sim.obs.metrics
            metrics.counter(
                "audit.vertices_checked", "vertices whose planners an audit read"
            ).inc(len(vertices))
            if full:
                metrics.counter(
                    "audit.full_checks", "audits of every vertex and job"
                ).inc()
        planners: List[Violation] = []
        self._check_planners(state, vertices, monitor, planners)
        # a status flip books nothing: the table stands, the drains moved
        moved = full or self._structure != graph.structure
        closed = self._drained_subtrees(sim) if moved else self._closed
        if full:
            jobs = list(sim.jobs.values())
            entered = None
        else:
            jobs = self._active + [
                sim.jobs[job_id]
                for job_id in range(self._next_job_id, sim._next_job_id)
                if job_id in sim.jobs
            ]
            entered = state.entered
        active = [j for j in jobs if j.is_active]
        if per_cycle:
            self._sim, self._rebuilds = sim, state.rebuilds
            self._structure = graph.structure
            self._active, self._next_job_id = active, sim._next_job_id
            self._closed = closed
        out: List[Violation] = []
        owner = self._check_ownership(sim, jobs, out)
        out.extend(planners)
        self._check_exclusivity(state, owner, entered, out)
        self._check_job_states(sim, jobs, out)
        self._check_down_vertices(
            closed, owner, active, None if moved else entered, out
        )
        state.entered.clear()
        return out

    def _check_planners(
        self, state: ExpectedState, vertices: List["ResourceVertex"],
        monitor: Optional["IntegrityMonitor"], out: List[Violation],
    ) -> None:
        """**span-accounting** (and, ``deep``, **planner-invariants**): the
        integrity scan's findings on ``vertices`` — through ``monitor``'s
        pass, which repairs first, when given one."""
        findings = []
        if monitor is not None:
            findings = monitor.scrub_cycle(state, vertices, self.deep)
            changed = state.changed  # what an evacuation released
            vertices = [changed.pop(uid) for uid in sorted(changed)]
        for vertex in vertices:
            findings += state.scan(vertex, deep=self.deep)
        for finding in findings:
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

    def _check_ownership(
        self, sim: "ClusterSimulator", jobs: List["Job"], out: List[Violation]
    ) -> Dict[int, "Job"]:
        """**alloc-ownership** over ``jobs`` and every live allocation;
        returns the active owner of each allocation id."""
        live = sim.traverser.allocations
        owner: Dict[int, "Job"] = {}
        for job in jobs:
            for alloc in job.allocations:
                aid = alloc.alloc_id
                if job.is_active:
                    if aid in owner:
                        out.append(
                            Violation(
                                "alloc-ownership",
                                f"allocation {aid}",
                                f"one owner (job {owner[aid].job_id})",
                                f"also held by job {job.job_id}",
                            )
                        )
                    owner[aid] = job
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
        return owner

    def _check_exclusivity(
        self,
        state: ExpectedState,
        owner: Dict[int, "Job"],
        entered: Optional[Dict[int, object]],
        out: List[Violation],
    ) -> None:
        """**exclusivity**: every live selection of an active job against
        the exclusive holds of other jobs on its vertex and on its ancestors
        in the traverser's subsystem, as the table's kept
        :class:`~repro.match.writer.ExclusivityIndex` answers it.
        ``entered`` narrows it to the pairs an allocation in it takes part
        in (a conflict that was not there at the previous audit needs one);
        None is every pair."""
        jobs = {aid: job.job_id for aid, job in owner.items()}
        for (sel_i, job_i, alloc_i), (sel_k, job_k, alloc_k) in (
            state.exclusive.conflicts(entered, jobs)
        ):
            if sel_i.vertex is sel_k.vertex:
                expected = (
                    f"exclusive hold by job {job_i} over "
                    f"[{alloc_i.at},{alloc_i.end})"
                )
                actual = f"job {job_k} also holds it over "
            else:
                expected = (
                    f"free: inside job {job_i}'s exclusive "
                    f"{sel_i.vertex.name} subtree"
                )
                actual = f"held by job {job_k} over "
            out.append(
                Violation(
                    "exclusivity",
                    sel_k.vertex.name,
                    expected,
                    actual + f"[{alloc_k.at},{alloc_k.end})",
                )
            )

    def _check_job_states(
        self, sim: "ClusterSimulator", jobs: List["Job"], out: List[Violation]
    ) -> None:
        now = sim.now
        for job in jobs:
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

    @staticmethod
    def _drained_subtrees(sim: "ClusterSimulator") -> Set[int]:
        """Ids of every vertex that is drained or below a drained one, in
        the traverser's subsystem."""
        graph = sim.graph
        subsystem = sim.traverser.subsystem
        closed: Set[int] = set()
        for vertex in graph.vertices():
            if vertex.status != "up" and vertex.uniq_id not in closed:
                closed.add(vertex.uniq_id)
                if subsystem in graph.subsystems:
                    for v in graph.descendants(vertex, subsystem):
                        closed.add(v.uniq_id)
        return closed

    @staticmethod
    def _check_down_vertices(
        closed: Set[int],
        owner: Dict[int, "Job"],
        active: List["Job"],
        entered: Optional[Dict[int, object]],
        out: List[Violation],
    ) -> None:
        """**down-vertex** for every allocation of ``active``, or only the
        ``entered`` ones where what stood at the previous audit stood on the
        same drains (``structure`` has not moved)."""
        if not closed:
            return
        if entered is None:
            held = [(job, alloc) for job in active for alloc in job.allocations]
        else:
            held = [
                (owner[aid], alloc)
                for aid, alloc in entered.items()
                if aid in owner
            ]
        for job, alloc in held:
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
