"""Event-driven cluster simulator.

Drives a resource graph + traverser + queue policy through simulated time:
job submissions, starts, completions, hardware failures/repairs and walltime
kills are heap events; every submission, completion, failure, repair or kill
triggers a scheduling cycle.  This substitutes for the Flux resource manager
around Fluxion (the paper's experiments only measure the matching layer,
which is identical here).

Typical use::

    graph = tiny_cluster()
    sim = ClusterSimulator(graph, match_policy="low", queue="conservative")
    sim.submit(simple_node_jobspec(cores=4, duration=600), at=0)
    report = sim.run()
    print(report.summary())

Resilience: failure/repair events can be scheduled directly
(:meth:`ClusterSimulator.schedule_failure` / :meth:`schedule_repair`) or
generated from seeded MTBF/MTTR distributions by
:class:`~repro.resilience.FaultInjector`.  A
:class:`~repro.resilience.RetryPolicy` governs how killed jobs are
resubmitted, and ``audit=True`` cross-checks scheduler state after every
cycle (:mod:`repro.resilience.auditor`).
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..errors import RecoveryError, SchedulerError
from ..jobspec import Jobspec, parse_jobspec
from ..match import MatchPolicy, Traverser
from ..obs import Observer, resolve as _resolve_observer
from ..obs import runtime as _obs_runtime
from ..resource import ResourceGraph, ResourceVertex
from .job import CancelReason, Job, JobState
from .queue import QueuePolicy, make_queue_policy

__all__ = ["COMMANDS", "ClusterSimulator", "Command", "SimulationReport"]

_SUBMIT, _START, _END, _FAIL, _REPAIR, _WALLTIME = 0, 1, 2, 3, 4, 5
#: states in which a job waits in the queue (RUNNING and beyond never return)
_QUEUED = (JobState.PENDING, JobState.RESERVED)


class Command(NamedTuple):
    """One journaled command of :data:`COMMANDS`: how it is written, read
    back and applied."""

    #: ``(sim, *args) -> record fields``
    encode: Callable[..., Dict[str, Any]]
    #: ``(sim, record, vertices by name) -> args``
    decode: Callable[..., tuple]
    #: ``(sim, *args) -> result``
    apply: Callable[..., Any]


@dataclass
class SimulationReport:
    """Aggregate results of a simulation run."""

    jobs: List[Job]
    makespan: int
    total_sched_time: float
    #: total schedulable node pool size of the graph (for utilization)
    node_capacity: int = 0
    #: vertex failure events processed
    failures: int = 0
    #: jobs resubmitted after a failure or walltime kill
    retries: int = 0
    #: node-seconds of capacity unavailable due to down vertices
    node_seconds_lost: int = 0
    #: node-seconds of job progress discarded by kills (after checkpoints)
    work_lost: int = 0
    #: node-seconds jobs actually occupied resources (finished jobs only)
    busy_node_seconds: int = 0
    #: mean observed repair time over completed down intervals (0 if none)
    mttr_observed: float = 0.0
    # -- crash-recovery observability (repro.recovery) -----------------
    #: snapshots written by an attached RecoveryManager
    snapshots_taken: int = 0
    #: write-ahead-journal records appended
    journal_records: int = 0
    #: journal records consumed while replaying after a restart
    journal_replayed: int = 0
    #: torn (truncated/corrupt) trailing journal records dropped on recovery
    torn_records_dropped: int = 0
    #: times this simulator state was restored from snapshot+journal
    recoveries: int = 0
    #: replay heap-top divergences observed (raises outside salvage mode)
    replay_divergences: int = 0
    #: CRC-bad mid-stream journal records skipped by salvage recovery
    salvage_skipped: int = 0
    #: replay-suffix records dropped after a salvage-mode divergence stop
    salvage_dropped: int = 0
    #: corrupt snapshot sections dropped and rebuilt by salvage recovery
    snapshot_sections_rebuilt: int = 0
    # -- observability (repro.obs) --------------------------------------
    #: metrics snapshot (observer + traverser registries) when the run was
    #: observed (ClusterSimulator(observe=...) / FLUXOBS=1), else None
    metrics: "Optional[Dict[str, object]]" = None
    #: fluxwhy decision-provenance export (schema "fluxwhy-v1") when the
    #: run was observed with a DecisionRecorder, else None
    provenance: "Optional[Dict[str, object]]" = None
    # -- overload protection (repro.resilience.overload) ----------------
    #: True when an OverloadController was attached for the run
    overload_enabled: bool = False
    #: submissions refused over the queue bound (``max_pending``)
    overload_rejected: int = 0
    #: match attempts cut short by the attempt deadline
    deadline_attempts: int = 0
    #: dispatch cycles cut short by the cycle deadline
    deadline_cycles: int = 0
    #: worst cycle-budget overrun in work units (bounded by one
    #: cancellation-checkpoint interval)
    max_cycle_overrun: int = 0
    # -- state integrity (repro.recovery.integrity) ----------------------
    #: True when an IntegrityMonitor scrubbed this run
    integrity_enabled: bool = False
    #: window vertices the monitor's passes read over the whole run
    vertices_scrubbed: int = 0
    #: individual findings detected (checksum/span/tree drift)
    corruption_detected: int = 0
    #: vertices quarantined (drained pending repair)
    corruption_quarantined: int = 0
    #: vertices repaired and returned to service
    corruption_repaired: int = 0
    #: vertices left quarantined (repair + evacuation both failed)
    corruption_unrepaired: int = 0
    #: repair actions applied
    integrity_repair_actions: int = 0
    #: jobs requeued because their reservations were lost to corruption
    integrity_jobs_requeued: int = 0

    @property
    def completed(self) -> List[Job]:
        return [j for j in self.jobs if j.state is JobState.COMPLETED]

    @property
    def canceled(self) -> List[Job]:
        """Every CANCELED job, regardless of reason."""
        return [j for j in self.jobs if j.state is JobState.CANCELED]

    def _by_reason(self, reason: CancelReason) -> List[Job]:
        return [j for j in self.canceled if j.cancel_reason is reason]

    @property
    def unsatisfiable(self) -> List[Job]:
        """Jobs the machine can never run (not failure/walltime victims)."""
        return self._by_reason(CancelReason.UNSATISFIABLE)

    @property
    def failure_killed(self) -> List[Job]:
        return self._by_reason(CancelReason.NODE_FAILURE)

    @property
    def walltime_exceeded(self) -> List[Job]:
        return self._by_reason(CancelReason.WALLTIME)

    @property
    def user_canceled(self) -> List[Job]:
        return self._by_reason(CancelReason.USER)

    @property
    def admission_rejected(self) -> List[Job]:
        """Jobs refused over the queue bound."""
        return self._by_reason(CancelReason.ADMISSION)

    def mean_wait(self) -> float:
        """Mean wait (submit -> start) over jobs that started."""
        waits = [j.wait_time for j in self.jobs if j.wait_time is not None]
        return sum(waits) / len(waits) if waits else 0.0

    def immediate_starts(self) -> int:
        """Jobs that started the instant they were submitted (§6.3 reports 62/200)."""
        return sum(1 for j in self.jobs if j.wait_time == 0)

    def utilization(self) -> float:
        """Raw node utilization: occupied node-seconds over capacity."""
        denom = self.node_capacity * self.makespan
        return self.busy_node_seconds / denom if denom else 0.0

    def goodput(self) -> float:
        """Useful node utilization: occupancy minus work lost to kills."""
        denom = self.node_capacity * self.makespan
        if not denom:
            return 0.0
        return (self.busy_node_seconds - self.work_lost) / denom

    def explain(self, job_id: int) -> str:
        """Explain-tree for one job's scheduling decisions (fluxwhy).

        Renders the recorded admission verdicts, attempt outcomes and
        blocking constraints for ``job_id``; a header line carries the
        job's final state.  Needs a run observed with a decision recorder
        (``observe=True`` enables one) — otherwise reports that nothing
        was recorded.
        """
        from ..obs.why import render_explain

        job = next((j for j in self.jobs if j.job_id == job_id), None)
        return render_explain(self.provenance or {}, job_id, job)

    def summary(self) -> str:
        text = (
            f"{len(self.completed)}/{len(self.jobs)} jobs completed, "
            f"makespan={self.makespan}, mean wait={self.mean_wait():.1f}, "
            f"sched time={self.total_sched_time:.3f}s"
        )
        if self.failures or self.retries:
            text += (
                f"; {self.failures} failures, {self.retries} retries, "
                f"{self.node_seconds_lost} node-s down, "
                f"{self.work_lost} node-s work lost, "
                f"goodput={self.goodput():.2f}/{self.utilization():.2f}"
            )
        if (
            self.snapshots_taken
            or self.journal_records
            or self.recoveries
            or self.torn_records_dropped
            or self.replay_divergences
        ):
            text += (
                f"; recovery: {self.snapshots_taken} snapshots, "
                f"{self.journal_records} journal records, "
                f"{self.recoveries} restarts "
                f"({self.journal_replayed} replayed, "
                f"{self.torn_records_dropped} torn dropped, "
                f"{self.replay_divergences} replay divergences)"
            )
        if (
            self.salvage_skipped
            or self.salvage_dropped
            or self.snapshot_sections_rebuilt
        ):
            text += (
                f"; salvage: {self.salvage_skipped} records skipped, "
                f"{self.salvage_dropped} dropped post-divergence, "
                f"{self.snapshot_sections_rebuilt} snapshot sections rebuilt"
            )
        if self.integrity_enabled:
            text += (
                f"; integrity: {self.vertices_scrubbed} scrubbed, "
                f"{self.corruption_detected} findings, "
                f"{self.corruption_quarantined} quarantined, "
                f"{self.corruption_repaired} repaired "
                f"({self.integrity_repair_actions} actions, "
                f"{self.integrity_jobs_requeued} jobs requeued, "
                f"{self.corruption_unrepaired} unrepaired)"
            )
        if self.overload_enabled:
            text += (
                f"; overload: {self.overload_rejected} rejected, "
                f"{self.deadline_attempts} attempt deadlines, "
                f"{self.deadline_cycles} cut cycles"
            )
        if self.metrics:
            visits = self.metrics.get("dfu.visits", 0)
            matched = self.metrics.get("dfu.matched", 0)
            hits = self.metrics.get("sdfu.filter_hits", 0)
            misses = self.metrics.get("sdfu.filter_misses", 0)
            consults = hits + misses
            attempts = self.metrics.get("sched.attempt_seconds")
            attempt_count = (
                attempts.get("count", 0) if isinstance(attempts, dict) else 0
            )
            text += (
                f"; obs: {self.metrics.get('sim.cycles', 0)} cycles, "
                f"{attempt_count} sched attempts, {visits} visits, "
                f"{matched} matched, sdfu prune hits {hits}/{consults}"
            )
        if self.provenance:
            totals = self.provenance.get("totals", {})
            text += (
                f"; why: {totals.get('attempts', 0)} attempts recorded "
                f"({totals.get('failed', 0)} failed, "
                f"{totals.get('events', 0)} admission events); "
                f"see report.explain(job_id)"
            )
        return text


class ClusterSimulator:
    """Discrete-event simulation of one cluster under one queue policy.

    Parameters
    ----------
    graph:
        The resource graph store (one simulator owns its planners).
    match_policy:
        Traverser match policy name or instance.
    queue:
        Queue policy name (``fcfs``/``easy``/``conservative``) or instance.
    prune:
        Enable pruning filters during matching.
    retry_policy:
        Optional :class:`~repro.resilience.RetryPolicy` governing
        resubmission of failure/walltime-killed jobs.  ``None`` preserves the
        historical behaviour: immediate resubmission, no backoff, no
        checkpointing, unlimited attempts.
    audit:
        Run the :class:`~repro.resilience.InvariantAuditor` after every
        scheduling cycle, raising
        :class:`~repro.resilience.InvariantViolation` on corrupt state.
        Pass ``True`` for a default auditor or an auditor instance (a
        snapshot keeps its ``deep`` flag).
    sanitize:
        Activate the :class:`~repro.statcheck.FluxSan` runtime sanitizer for
        this simulator's lifetime (span double-free, exclusivity and
        SDFU-divergence checks).  Also enabled globally by setting the
        ``FLUXSAN=1`` environment variable.
    observe:
        Observability (:mod:`repro.obs`): ``True`` (or ``FLUXOBS=1`` in the
        environment) records metrics and structured trace spans for the
        whole run; an :class:`~repro.obs.Observer` instance shares sinks
        across simulators.  Off by default; the disabled path costs only
        no-op calls.  See :meth:`export_trace` and
        :attr:`SimulationReport.metrics`.
    overload:
        Overload protection (:mod:`repro.resilience.overload`): an
        :class:`~repro.resilience.OverloadConfig` bounds the queue depth
        and the work of each scheduling cycle and match attempt for this
        simulator.  ``None`` (default) keeps the historical unbounded
        behaviour.
    integrity:
        Online state-integrity repair (:mod:`repro.recovery.integrity`):
        an :class:`~repro.recovery.IntegrityConfig` makes the pass at the
        end of every scheduling cycle also read a rotating window and
        quarantine and repair what it finds; the auditor then raises only
        what stays unrepaired.  ``None`` (default) disables it.
    """

    def __init__(
        self,
        graph: ResourceGraph,
        match_policy: "MatchPolicy | str" = "first",
        queue: "QueuePolicy | str" = "conservative",
        prune: bool = True,
        retry_policy: "Optional[RetryPolicy]" = None,
        audit: "bool | InvariantAuditor" = False,
        sanitize: bool = False,
        observe: "Observer | bool | None" = None,
        overload: "OverloadConfig | None" = None,
        integrity: "IntegrityConfig | None" = None,
    ) -> None:
        self.graph = graph
        self.obs = _resolve_observer(observe)
        self.traverser = Traverser(
            graph, policy=match_policy, prune=prune, obs=self.obs
        )
        self.queue_policy = (
            make_queue_policy(queue) if isinstance(queue, str) else queue
        )
        self.queue_policy.obs = self.obs
        self.jobs: Dict[int, Job] = {}
        #: (submit_time, job_id) heap of jobs not yet due, and the due jobs
        #: last seen queued, in job-id order: a cycle reads these, never
        #: every job ever submitted (see :meth:`_queued_jobs`)
        self._future: List[Tuple[int, int]] = []
        self._queue: List[Job] = []
        self.now = graph.plan_start
        self._events: List[tuple] = []  # (time, kind, seq, ref, data)
        self._event_seq = 0
        self._next_job_id = 1
        self._started_allocs: set = set()
        #: chronological (time, event, ref) log: submit/start/end/cancel/
        #: walltime per job, fail/repair per vertex name
        self.event_log: List[tuple] = []
        self.retry_policy = retry_policy
        #: what the planners should hold, kept for the end-of-cycle pass
        #: (:func:`repro.recovery.integrity.expected_state` makes
        #: it when a guard first asks; derived state, never snapshotted)
        self._expected_state = None
        self.auditor = None
        if audit:
            from ..resilience.auditor import InvariantAuditor

            self.auditor = audit if not isinstance(audit, bool) else InvariantAuditor()
        # resilience accounting
        self.failures = 0
        self.retries = 0
        self._down_since: Dict[int, Tuple[int, int]] = {}  # uid -> (t, nodes)
        self._downtime: List[Tuple[int, int, int, int]] = []  # uid, t0, t1, nodes
        self._busy_node_seconds = 0
        self._work_lost = 0
        # crash recovery (repro.recovery): a RecoveryManager journals every
        # top-level command before it is applied and restores state after a
        # crash; a CrashInjector kills the process at named cut points.
        self.recovery = None
        self._crash_injector = None
        #: seq of the journal record being replayed; 0 when running live
        self._replaying = 0
        self._applying = 0  # >0 while executing a journaled command
        self.recovery_stats = {
            "snapshots_taken": 0,
            "journal_records": 0,
            "journal_replayed": 0,
            "torn_records_dropped": 0,
            "recoveries": 0,
            "replay_divergences": 0,
            "salvage_skipped": 0,
            "salvage_dropped": 0,
            "snapshot_sections_rebuilt": 0,
        }
        # opt-in runtime sanitizer (repro.statcheck): FLUXSAN=1 in the
        # environment turns it on for every simulator; sanitize=True for one.
        self.fluxsan = None
        if sanitize or os.environ.get("FLUXSAN", "") not in ("", "0"):
            from ..statcheck.sanitizer import FluxSan

            self.fluxsan = FluxSan().activate()
        # overload protection (repro.resilience.overload)
        self.overload = None
        if overload is not None:
            from ..resilience.overload import OverloadController

            self.overload = OverloadController(overload)
            self.overload.attach(self)
        # online state-integrity scrubbing (repro.recovery.integrity)
        self.integrity = None
        if integrity is not None:
            from ..recovery.integrity import IntegrityMonitor

            self.integrity = IntegrityMonitor(integrity)
            self.integrity.attach(self)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        jobspec: Jobspec,
        at: Optional[int] = None,
        name: str = "",
        priority: int = 0,
        actual_duration: Optional[int] = None,
    ) -> Job:
        """Queue ``jobspec`` for submission at time ``at`` (default: now).

        ``priority`` reorders the queue: higher-priority jobs are considered
        first by every queue policy (ties resolved by submission order).
        ``actual_duration`` is the job's true work requirement when it
        differs from the requested walltime (``jobspec.duration``): shorter
        jobs complete early, longer jobs are killed at the walltime limit.
        """
        submit_time = self.now if at is None else at
        if submit_time < self.now:
            raise SchedulerError(
                f"cannot submit in the past (t={submit_time} < now={self.now})"
            )
        if actual_duration is not None and actual_duration < 1:
            raise SchedulerError(
                f"actual_duration must be >= 1, got {actual_duration}"
            )
        return self._command(
            "submit", jobspec, submit_time, name, priority, actual_duration
        )

    def cancel(self, job: Job, reason: CancelReason = CancelReason.USER) -> None:
        """Cancel a pending/reserved/running job, releasing its resources."""
        if not job.is_active:
            raise SchedulerError(f"job {job.job_id} is not active")
        self._command("cancel", job, reason)

    # ------------------------------------------------------------------
    # failures and repairs (resilience layer)
    # ------------------------------------------------------------------
    def schedule_failure(self, vertex: ResourceVertex, at: int) -> None:
        """Enqueue a failure of ``vertex`` at simulated time ``at``."""
        if at < self.now:
            raise SchedulerError(
                f"cannot schedule a failure in the past (t={at} < now={self.now})"
            )
        self._command("sched_fail", vertex, at)

    def schedule_repair(self, vertex: ResourceVertex, at: int) -> None:
        """Enqueue a repair of ``vertex`` at simulated time ``at``."""
        if at < self.now:
            raise SchedulerError(
                f"cannot schedule a repair in the past (t={at} < now={self.now})"
            )
        self._command("sched_repair", vertex, at)

    def fail(
        self, vertex: ResourceVertex, resubmit: bool = True
    ) -> Tuple[List[Job], List[Job]]:
        """Fail ``vertex`` now: drain it, kill the jobs beneath it, retry.

        Every active job holding resources at or below ``vertex`` is
        canceled with :attr:`CancelReason.NODE_FAILURE`; with ``resubmit``
        each victim is resubmitted per the simulator's retry policy (or
        immediately when no policy is set).  A scheduling cycle runs before
        returning so survivors and retries are placed without waiting for
        the next natural event.  Returns ``(canceled, resubmitted)``.
        """
        if vertex.status == "down":
            return [], []
        return self._command("fail", vertex, resubmit)

    def repair(self, vertex: ResourceVertex) -> None:
        """Return a failed vertex to service and reschedule pending work."""
        if vertex.status == "up":
            return
        self._command("repair", vertex)

    def reschedule(self) -> None:
        """Run one scheduling cycle now (public hook for external changes:
        repairs, graph growth, manual priority adjustments, ...)."""
        self._command("reschedule")

    def inject_corruption(
        self, kind: str, vertex: ResourceVertex, salt: int = 0
    ) -> bool:
        """Deterministically corrupt live state on ``vertex`` (test hook).

        A journaled top-level command, exactly like :meth:`fail`: the
        ``corrupt`` record is written *before* the damage is applied, so
        crash-recovery replay re-corrupts the restored state identically,
        and the monitor reads the vertex in the command's own cycle, so
        replay regenerates every quarantine/repair effect there.
        Kinds are documented at
        :func:`~repro.recovery.integrity.apply_corruption`; returns False
        when the vertex holds no state of the requested kind.
        """
        return self._command("corrupt", kind, vertex, salt)

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> SimulationReport:
        """Process events until the heap drains (or simulated ``until``)."""
        while self._events:
            when = self._events[0][0]
            if until is not None and when > until:
                break
            self.step()
        return self.report()

    def step(self) -> Optional[int]:
        """Process a single event; returns its time or None when drained.

        The event is journaled as a ``dispatch`` command *before* it is
        popped and applied (write-ahead), so a crash mid-application replays
        it in full from the reconstructed heap.
        """
        if not self._events:
            return None
        when, kind, _, ref, data = self._events[0]
        self._command("dispatch", when, kind, ref, data)
        if self.recovery is not None and not self._replaying:
            self.recovery.after_event(self)
        return when

    def report(self) -> SimulationReport:
        ends = []
        for j in self.jobs.values():
            if j.finished_at is not None:
                ends.append(j.finished_at)
            elif j.end_time is not None:
                ends.append(j.end_time)
        makespan = max(ends, default=self.now)
        overload: Dict[str, object] = {}
        if self.overload is not None:
            counters = self.overload.counters
            overload = {
                "overload_enabled": True,
                "overload_rejected": counters["rejected"],
                "deadline_attempts": counters["deadline_attempts"],
                "deadline_cycles": counters["deadline_cycles"],
                "max_cycle_overrun": self.overload.max_cycle_overrun,
            }
        integrity: Dict[str, object] = {}
        if self.integrity is not None:
            icounters = self.integrity.counters
            integrity = {
                "integrity_enabled": True,
                "vertices_scrubbed": icounters["scrubbed_vertices"],
                "corruption_detected": icounters["detected"],
                "corruption_quarantined": icounters["quarantined"],
                "corruption_repaired": icounters["repaired"],
                "corruption_unrepaired": icounters["unrepaired"],
                "integrity_repair_actions": icounters["repair_actions"],
                "integrity_jobs_requeued": icounters["jobs_requeued"],
            }
        closed = [(t1 - t0) for _, t0, t1, _ in self._downtime]
        node_seconds_lost = sum(
            (t1 - t0) * nodes for _, t0, t1, nodes in self._downtime
        ) + sum(
            (self.now - t0) * nodes for t0, nodes in self._down_since.values()
        )
        return SimulationReport(
            jobs=sorted(self.jobs.values(), key=lambda j: j.job_id),
            makespan=makespan,
            total_sched_time=sum(j.sched_time for j in self.jobs.values()),
            node_capacity=sum(v.size for v in self.graph.vertices("node")),
            failures=self.failures,
            retries=self.retries,
            node_seconds_lost=node_seconds_lost,
            work_lost=self._work_lost,
            busy_node_seconds=self._busy_node_seconds,
            mttr_observed=sum(closed) / len(closed) if closed else 0.0,
            snapshots_taken=self.recovery_stats["snapshots_taken"],
            journal_records=self.recovery_stats["journal_records"],
            journal_replayed=self.recovery_stats["journal_replayed"],
            torn_records_dropped=self.recovery_stats["torn_records_dropped"],
            recoveries=self.recovery_stats["recoveries"],
            replay_divergences=self.recovery_stats["replay_divergences"],
            salvage_skipped=self.recovery_stats["salvage_skipped"],
            salvage_dropped=self.recovery_stats["salvage_dropped"],
            snapshot_sections_rebuilt=self.recovery_stats[
                "snapshot_sections_rebuilt"
            ],
            metrics=self.metrics_snapshot() if self.obs.enabled else None,
            provenance=(
                self.obs.why.export() if self.obs.why.enabled else None
            ),
            **overload,
            **integrity,
        )

    def metrics_snapshot(self) -> Dict[str, object]:
        """Observer + traverser registries as one JSON-able dict."""
        merged: Dict[str, object] = dict(self.obs.metrics.as_dict())
        merged.update(self.traverser.metrics.as_dict())
        return merged

    def export_trace(
        self, path: str, jsonl_path: Optional[str] = None
    ) -> None:
        """Write the run's Chrome ``trace_event`` JSON to ``path``.

        The metrics snapshot rides along in ``otherData.metrics`` so
        ``python -m repro.obs report`` can print both.  ``jsonl_path``
        additionally writes the native line-JSON event log.  Raises
        :class:`SchedulerError` when the simulator was not observed.
        """
        if not self.obs.enabled:
            raise SchedulerError(
                "no trace recorded: construct the simulator with "
                "observe=True (or set FLUXOBS=1)"
            )
        other: Dict[str, object] = {"metrics": self.metrics_snapshot()}
        if self.obs.why.enabled:
            other["provenance"] = self.obs.why.export()
        self.obs.tracer.write_chrome(path, other)
        if jsonl_path is not None:
            self.obs.tracer.write_jsonl(jsonl_path)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _push(
        self, when: int, kind: int, ref: int, data: Optional[int] = None
    ) -> None:
        heapq.heappush(self._events, (when, kind, self._event_seq, ref, data))
        self._event_seq += 1

    def _command(self, rtype: str, *args: Any) -> Any:
        """Journal the command ``rtype`` with ``args``, then apply it.

        The record is written *before* the command acts (write-ahead), and
        only by a top-level call: a call nested inside a command
        (``_applying > 0``) is part of what that command does, and replay
        re-executes it with the command; a replayed record is already on
        disk.  A record is encoded only when a journal will write it.
        """
        command = COMMANDS[rtype]
        if self.recovery is not None and not (self._replaying or self._applying):
            record = command.encode(self, *args)
            record["type"] = rtype
            self.recovery.record(record)
        self._applying += 1
        try:
            return command.apply(self, *args)
        finally:
            self._applying -= 1

    def _crashpoint(self, name: str) -> None:
        """Named crash-injection cut point (see repro.recovery.crash)."""
        if self._crash_injector is not None:
            self._crash_injector.hit(name)

    # -- what each command does (applied through :data:`COMMANDS`) -------
    def _submit(
        self,
        jobspec: Jobspec,
        at: int,
        name: str,
        priority: int,
        actual_duration: Optional[int],
    ) -> Job:
        job = Job(
            job_id=self._next_job_id,
            jobspec=jobspec,
            submit_time=at,
            name=name or f"job{self._next_job_id}",
            priority=priority,
            actual_duration=actual_duration,
        )
        self._next_job_id += 1
        self._register(job)
        self._push(at, _SUBMIT, job.job_id)
        self.event_log.append((at, "submit", job.job_id))
        return job

    def _cancel(self, job: Job, reason: CancelReason) -> None:
        for alloc in job.allocations:
            if alloc.alloc_id in self.traverser.allocations:
                self.traverser.remove(alloc.alloc_id, self.now)
            self._started_allocs.discard(alloc.alloc_id)
        job.allocations.clear()
        job.cancel_reason = reason
        job.transition(JobState.CANCELED)
        self.event_log.append((self.now, "cancel", job.job_id))

    def _fail(
        self, vertex: ResourceVertex, resubmit: bool
    ) -> Tuple[List[Job], List[Job]]:
        from .failures import affected_jobs

        self.graph.mark_down(vertex)
        self.failures += 1
        self._down_since[vertex.uniq_id] = (self.now, self._node_weight(vertex))
        self.event_log.append((self.now, "fail", vertex.name))
        victims = affected_jobs(self, vertex)
        retries: List[Job] = []
        for job in victims:
            retry = self._kill(job, CancelReason.NODE_FAILURE, retry=resubmit)
            if retry is not None:
                retries.append(retry)
        self._cycle()
        return victims, retries

    def _repair(self, vertex: ResourceVertex) -> None:
        self.graph.mark_up(vertex)
        record = self._down_since.pop(vertex.uniq_id, None)
        if record is not None:
            down_at, nodes = record
            self._downtime.append((vertex.uniq_id, down_at, self.now, nodes))
        self.event_log.append((self.now, "repair", vertex.name))
        self._cycle()

    def _corrupt(self, kind: str, vertex: ResourceVertex, salt: int) -> bool:
        from ..recovery.integrity import apply_corruption

        applied = apply_corruption(self, vertex, kind, salt)
        if applied:
            self.event_log.append((self.now, "corrupt", vertex.name))
            if self.integrity is not None:
                self.integrity.damaged[vertex.uniq_id] = vertex
            # Run a cycle immediately (like fail()) so the monitor sees
            # the damage before span releases can mask it.
            self._cycle()
        return applied

    def _dispatch(self, when: int, kind: int, ref: int, data: Optional[int]) -> None:
        """Pop the heap top, which must be the event ``(when, kind, ref,
        data)``, and run it.  Live it is by construction, so only a replayed
        ``dispatch`` is checked."""
        if self._replaying:
            self._check_heap_top(when, kind, ref, data)
        heapq.heappop(self._events)
        # Tracing is observability, never part of the command stream, and
        # a replayed dispatch is not traced.
        observed = self.obs.enabled and not self._replaying
        if observed:
            self.obs.tracer.begin(
                "sim.dispatch", "sim", vt=float(when), kind=kind
            )
        try:
            self.now = max(self.now, when)
            if kind == _SUBMIT:
                self._on_submit(self.jobs[ref])
            elif kind == _START:
                self._on_start(self.jobs[ref], data)
            elif kind == _END:
                self._on_end(self.jobs[ref], data)
            elif kind == _FAIL:
                self.fail(self.graph.vertex(ref))
            elif kind == _REPAIR:
                self.repair(self.graph.vertex(ref))
            else:
                self._on_walltime(self.jobs[ref], data)
        finally:
            if observed:
                self.obs.tracer.end()

    def _event_ref(self, kind: int, ref: Any) -> Any:
        """A heap event's ``ref`` as a record holds it: a vertex by name."""
        return self.graph.vertex(ref).name if kind in (_FAIL, _REPAIR) else ref

    def _check_heap_top(self, when: int, kind: int, ref: Any, data: Any) -> None:
        """A replayed ``dispatch`` must find its event on top of the heap;
        otherwise replay has diverged: count it, and raise naming both (as
        records write them) and the state replayed so far."""
        top = self._events[0] if self._events else None
        seen = top and (top[0], top[1], self._event_ref(top[1], top[3]), top[4])
        expected = (when, kind, self._event_ref(kind, ref), data)
        if seen == expected:
            return
        from ..recovery.diff import state_fingerprint

        self.recovery_stats["replay_divergences"] += 1
        if self.obs.enabled:
            self.obs.metrics.counter(
                "replay.divergences", "replayed dispatches not matching journal"
            ).inc()
        state = json.dumps(
            state_fingerprint(self), sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(state.encode("utf-8")).hexdigest()
        where = f"journal record {self._replaying}"
        if top is None:
            raise RecoveryError(
                f"{where}: dispatch with an empty event heap (replaying "
                f"state fingerprint sha256:{digest})"
            )
        raise RecoveryError(
            f"{where}: replay divergence — expected (journaled) "
            f"{expected!r}, observed (heap top) {seen!r}; replaying state "
            f"fingerprint sha256:{digest}"
        )

    def _register(self, job: Job) -> None:
        """Add ``job`` to the job table; it joins the queue once due."""
        self.jobs[job.job_id] = job
        heapq.heappush(self._future, (job.submit_time, job.job_id))

    def _queued_jobs(self) -> List[Job]:
        """Jobs due by now that were queued at the end of the last cycle, in
        job-id order.  Some may have left the queue since (started,
        canceled); :meth:`_run_cycle` drops those when it is done."""
        future, queue = self._future, self._queue
        if future and future[0][0] <= self.now:
            while future and future[0][0] <= self.now:
                queue.append(self.jobs[heapq.heappop(future)[1]])
            queue.sort(key=lambda j: j.job_id)
        return queue

    def _pending_jobs(self) -> List[Job]:
        """Schedulable jobs in attempt order: priority, then submission."""
        return sorted(
            (j for j in self._queued_jobs() if j.state in _QUEUED),
            key=lambda j: (-j.priority, j.job_id),
        )

    def _on_submit(self, job: Job) -> None:
        if job.state is not JobState.PENDING:
            return  # canceled between submission and dispatch
        why = self.obs.why
        if why.enabled:
            why.begin_attempt(
                job.job_id, float(self.now), "satisfiable", name=job.name
            )
            satisfiable = self.traverser.satisfiable(job.jobspec)
            why.end_attempt("ok" if satisfiable else "unsat")
        else:
            satisfiable = self.traverser.satisfiable(job.jobspec)
        if not satisfiable:
            # Failure retries are spared the insta-cancel while the shortfall
            # is only down (not missing) hardware: they wait for the repair.
            if not (
                job.attempt
                and self.traverser.satisfiable(job.jobspec, assume_up=True)
            ):
                job.cancel_reason = CancelReason.UNSATISFIABLE
                job.transition(JobState.CANCELED)
                why.event(
                    job.job_id, float(self.now), "unsatisfiable",
                    name=job.name,
                )
                return
        if self.overload is not None and not self.overload.admit(job):
            return  # rejected over the queue bound: no cycle to run
        self._cycle()

    def _on_start(self, job: Job, alloc_id: Optional[int]) -> None:
        alloc = job.allocation
        if (
            job.state is JobState.RESERVED
            and alloc is not None
            and alloc.alloc_id == alloc_id
            and alloc.at == self.now
        ):
            self._crashpoint("start.pre")
            job.transition(JobState.RUNNING)
            self.event_log.append((self.now, "start", job.job_id))
            self._crashpoint("start.post")

    def _finish_time(self, job: Job) -> Optional[int]:
        """When the job's current allocation actually stops running."""
        alloc = job.allocation
        if alloc is None:
            return None
        return alloc.at + min(job.work_required, alloc.duration)

    def _on_end(self, job: Job, alloc_id: Optional[int]) -> None:
        # Stale events (from re-planned EASY reservations or killed jobs) are
        # ignored: the job must be running this allocation and due to end now.
        alloc = job.allocation
        if (
            job.state is not JobState.RUNNING
            or alloc is None
            or alloc.alloc_id != alloc_id
            or self._finish_time(job) != self.now
        ):
            return
        self._crashpoint("end.pre")
        elapsed = self.now - alloc.at
        job.ran_seconds += elapsed
        self._busy_node_seconds += elapsed * max(1, self._nodes_of(job))
        for held in job.allocations:
            if held.alloc_id in self.traverser.allocations:
                self.traverser.remove(held.alloc_id, self.now)
        self._crashpoint("end.released")
        job.finished_at = self.now
        job.transition(JobState.COMPLETED)
        self.event_log.append((self.now, "end", job.job_id))
        self._cycle()
        self._crashpoint("end.post")

    def _on_walltime(self, job: Job, alloc_id: Optional[int]) -> None:
        alloc = job.allocation
        if (
            job.state is not JobState.RUNNING
            or alloc is None
            or alloc.alloc_id != alloc_id
            or alloc.end != self.now
        ):
            return
        self.event_log.append((self.now, "walltime", job.job_id))
        # Without a retry policy there is no checkpoint credit and no retry
        # budget: a resubmitted overrunner would overrun again, identically
        # and forever.  Only retry walltime kills under a policy.
        self._kill(
            job, CancelReason.WALLTIME, retry=self.retry_policy is not None
        )
        self._cycle()

    def _kill(
        self, job: Job, reason: CancelReason, retry: bool = True
    ) -> Optional[Job]:
        """Cancel a failure/walltime victim, account lost work, resubmit.

        Returns the retry job, or None when retries are disabled/exhausted.
        Checkpointing (``retry_policy.checkpoint_period``) credits completed
        work so the retry resumes with the remainder instead of restarting.
        """
        self._crashpoint("kill.pre")
        policy = self.retry_policy
        elapsed = credited = 0
        if job.state is JobState.RUNNING and job.start_time is not None:
            elapsed = self.now - job.start_time
            if policy is not None and policy.checkpoint_period:
                credited = min(
                    (elapsed // policy.checkpoint_period)
                    * policy.checkpoint_period,
                    job.work_required,
                )
            job.finished_at = self.now
        nodes = max(1, self._nodes_of(job))
        job.ran_seconds += elapsed
        self._busy_node_seconds += elapsed * nodes
        self._work_lost += (elapsed - credited) * nodes
        self.cancel(job, reason=reason)
        self._crashpoint("kill.canceled")
        if not retry:
            self._crashpoint("kill.post")
            return None
        if policy is not None and not policy.should_retry(job.attempt):
            self._crashpoint("kill.post")
            return None
        delay = 0 if policy is None else policy.delay(job.attempt)
        boost = 0 if policy is None else policy.priority_boost
        remaining = job.work_required - credited
        retry_job = self.submit(
            job.jobspec,
            at=self.now + delay,
            name=f"{job.name}-retry",
            priority=job.priority + boost,
            actual_duration=(
                remaining
                if (job.actual_duration is not None or credited)
                else None
            ),
        )
        retry_job.attempt = job.attempt + 1
        retry_job.retry_of = job.retry_of if job.retry_of is not None else job.job_id
        retry_job.work_credited = job.work_credited + credited
        self.retries += 1
        self._crashpoint("kill.post")
        return retry_job

    def _nodes_of(self, job: Job) -> int:
        """Distinct node vertices the job's allocations touch."""
        uids = set()
        for alloc in job.allocations:
            for sel in alloc.selections:
                if sel.vertex.type == "node":
                    uids.add(sel.vertex.uniq_id)
        return len(uids)

    def _node_weight(self, vertex: ResourceVertex) -> int:
        """Node pool size at or below ``vertex`` (for downtime accounting)."""
        weight = vertex.size if vertex.type == "node" else 0
        for v in self.graph.descendants(vertex):
            if v.type == "node":
                weight += v.size
        return weight

    def _cycle(self) -> None:
        """Run one scheduling cycle and enqueue start/end/kill events."""
        obs = self.obs
        if not obs.enabled:
            self._run_cycle()
            return
        # Planner-layer instrumentation reads the context-local observer
        # (planners have no back-pointer to the simulator); activate ours
        # only while our cycle runs so interleaved simulators stay honest,
        # and deactivate with the token so misnesting fails loudly.
        obs_token = _obs_runtime.activate(obs)
        obs.metrics.counter("sim.cycles", "scheduling cycles run").inc()
        obs.why.begin_cycle(float(self.now))
        obs.tracer.begin(
            "sim.cycle", "sim", vt=float(self.now), policy=self.queue_policy.name
        )
        try:
            self._run_cycle()
        finally:
            obs.tracer.end()
            _obs_runtime.deactivate(obs_token)

    def _run_cycle(self) -> None:
        self._crashpoint("cycle.pre")
        pending = self._pending_jobs()
        if self.obs.enabled:
            self.obs.metrics.gauge(
                "queue.depth", "schedulable jobs at cycle start"
            ).set(len(pending))
            self.obs.tracer.sample(
                "queue.depth", {"pending": len(pending)}, vt=float(self.now)
            )
        if self.overload is not None:
            self.overload.run_cycle(pending)
        else:
            self.queue_policy.cycle(pending, self.traverser, self.now)
        self._crashpoint("cycle.booked")
        # Only a job that was queued can have been given an allocation.
        queued = self._queued_jobs()
        for job in queued:
            alloc = job.allocation
            if alloc is None or alloc.alloc_id in self._started_allocs:
                continue
            self._started_allocs.add(alloc.alloc_id)
            if job.state is JobState.RESERVED:
                self._push(alloc.at, _START, job.job_id, alloc.alloc_id)
            else:
                self.event_log.append((self.now, "start", job.job_id))
            if job.work_required > alloc.duration:
                self._push(alloc.end, _WALLTIME, job.job_id, alloc.alloc_id)
            else:
                self._push(
                    self._finish_time(job), _END, job.job_id, alloc.alloc_id
                )
        self._queue = [j for j in queued if j.state in _QUEUED]
        if self.auditor is not None:
            self.auditor.check(self)
        elif self.integrity is not None:
            self.integrity.scrub_cycle()
        self._crashpoint("cycle.post")


#: How a record field holds the argument it is named after: argument ->
#: field, and ``(sim, field, vertices by name)`` -> argument.  A field not
#: named here holds its argument as it is.
_CODECS: Dict[str, Tuple[Callable[..., Any], Callable[..., Any]]] = {
    "vertex": (lambda vertex: vertex.name, lambda sim, name, vs: vs[name]),
    "jobspec": (lambda spec: spec.to_dict(), lambda sim, d, vs: parse_jobspec(d)),
    "job_id": (lambda job: job.job_id, lambda sim, job_id, vs: sim.jobs[job_id]),
    "reason": (lambda reason: reason.value, lambda sim, value, vs: CancelReason(value)),
}


def _fields(*names: str) -> Tuple[Callable[..., Any], Callable[..., Any]]:
    """``encode`` and ``decode`` for a record whose fields hold the
    command's arguments in order, each through its :data:`_CODECS` entry."""

    def encode(sim: ClusterSimulator, *args: Any) -> Dict[str, Any]:
        return {
            name: _CODECS[name][0](arg) if name in _CODECS else arg
            for name, arg in zip(names, args)
        }

    def decode(sim: ClusterSimulator, record: dict, vertices: dict) -> tuple:
        return tuple(
            _CODECS[name][1](sim, record[name], vertices)
            if name in _CODECS else record[name]
            for name in names
        )

    return encode, decode


#: Every journaled command by record type: the one owner of the record
#: format.  The public methods check their arguments and call
#: :meth:`ClusterSimulator._command`, which journals and applies through
#: the entry; recovery replay decodes a record and applies it through the
#: same entry.  Records name vertices (``uniq_id`` is not stable across a
#: restore) and jobs by id.
COMMANDS: Dict[str, Command] = {
    "submit": Command(
        *_fields("jobspec", "at", "name", "priority", "actual_duration"),
        ClusterSimulator._submit,
    ),
    "cancel": Command(*_fields("job_id", "reason"), ClusterSimulator._cancel),
    "sched_fail": Command(
        *_fields("vertex", "at"),
        lambda sim, vertex, at: sim._push(at, _FAIL, vertex.uniq_id),
    ),
    "sched_repair": Command(
        *_fields("vertex", "at"),
        lambda sim, vertex, at: sim._push(at, _REPAIR, vertex.uniq_id),
    ),
    "fail": Command(*_fields("vertex", "resubmit"), ClusterSimulator._fail),
    "repair": Command(*_fields("vertex"), ClusterSimulator._repair),
    "reschedule": Command(*_fields(), ClusterSimulator._cycle),
    "corrupt": Command(
        *_fields("kind", "vertex", "salt"), ClusterSimulator._corrupt
    ),
    # one per event-heap pop: the heap top, a vertex event's ref by name
    "dispatch": Command(
        lambda sim, when, kind, ref, data: {
            "when": when, "kind": kind, "ref": sim._event_ref(kind, ref),
            "data": data,
        },
        lambda sim, r, vertices: (
            r["when"], r["kind"],
            vertices[r["ref"]].uniq_id if r["kind"] in (_FAIL, _REPAIR)
            else r["ref"],
            r["data"],
        ),
        ClusterSimulator._dispatch,
    ),
}
