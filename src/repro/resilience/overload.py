"""Overload protection: admission control, deadlines, breakers, degradation.

Fluxion's match cost grows with graph size and queue depth (§6), so a
scheduler that never sheds or degrades work stalls exactly when the cluster
is busiest.  This module keeps the scheduler *live* under pressure with four
cooperating mechanisms, all of them deterministic (decisions depend only on
simulator + controller state, never wall-clock, so crash-recovery replay
reproduces them exactly):

**Admission control** (:meth:`OverloadController.admit`) bounds the
schedulable pending-queue depth (``max_pending``).  Over the bound, the
configured policy applies: ``reject`` cancels the new job
(:attr:`~repro.sched.job.CancelReason.ADMISSION`), ``shed`` cancels the
lowest-priority queued job to make room
(:attr:`~repro.sched.job.CancelReason.SHED`), ``defer`` parks the new job in
a holding bay outside the schedulable queue until depth recedes.

**Scheduling deadlines** (:class:`WorkBudget`) bound the work one dispatch
cycle and one match attempt may perform.  Budgets are measured in
deterministic *work units* — graph vertices visited plus reservation
candidate times tried — not seconds; the traverser charges the budget at
cooperative cancellation checkpoints and an over-budget traversal raises
:class:`~repro.errors.SchedulingDeadlineExceeded`, which the traverser turns
into a no-match verdict (attempt scope) or the controller turns into an
early end of cycle (cycle scope).  Overrun is bounded by one checkpoint
interval.

**Circuit breakers** (:class:`CircuitBreaker`) watch those deadline events:
a breaker per queue policy trips when whole cycles keep overrunning, a
breaker per match subsystem trips when individual attempts keep overrunning
or running slow.  An open breaker forces the degradation ladder down until a
half-open probe succeeds.

**The degradation ladder** (:class:`DegradeLevel`) steps match fidelity down
under sustained pressure and back up when pressure clears::

    FULL -> COARSE -> NODECENTRIC -> DEFER

``FULL`` runs the configured queue policy unchanged.  ``COARSE`` bypasses
the queue policy and matches a *coarsened* jobspec — the whole-node
exclusive shape of :func:`~repro.jobspec.build.nodes_jobspec`, the jobspec
analogue of the LOD pool coarsening in :mod:`repro.resource.lod` — with
allocate-now only (no reservation search).  ``NODECENTRIC`` additionally
forces the ``first`` match policy, reducing matching to the flat first-fit
of :mod:`repro.baselines.nodecentric`.  ``DEFER`` skips scheduling entirely
for the cycle (pure backoff).  Every transition is journaled, counted in
``overload.*`` metrics and marked in the trace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, TYPE_CHECKING

import enum

from ..errors import SchedulingDeadlineExceeded, SchedulerError
from ..jobspec import Jobspec
from ..jobspec.build import nodes_jobspec
from ..match.policy import make_policy

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..match import Traverser
    from ..match.writer import Allocation
    from ..sched.job import Job
    from ..sched.simulator import ClusterSimulator

__all__ = [
    "ADMISSION_POLICIES",
    "CircuitBreaker",
    "DegradeLevel",
    "OverloadConfig",
    "OverloadController",
    "WorkBudget",
    "coarsen_jobspec",
]

ADMISSION_POLICIES = ("reject", "shed", "defer")

#: resource types a whole-node coarsening still covers: anything that lives
#: at or below a node (an exclusive node hold subsumes its whole subtree).
_COARSE_TYPES = frozenset(
    {"slot", "node", "core", "gpu", "memory", "ssd", "socket"}
)


class DegradeLevel(enum.IntEnum):
    """Rungs of the degradation ladder, mildest first."""

    FULL = 0
    COARSE = 1
    NODECENTRIC = 2
    DEFER = 3


@dataclass
class OverloadConfig:
    """Tuning knobs for :class:`OverloadController`.

    Parameters
    ----------
    max_pending:
        Bound on the schedulable pending-queue depth (PENDING + RESERVED
        jobs whose submit time has arrived, deferred jobs excluded).  None
        disables admission control.
    admission_policy:
        What to do with a submission that would exceed ``max_pending``:
        ``reject`` | ``shed`` | ``defer``.
    cycle_budget:
        Work units one dispatch cycle may spend before it is cut short.
        None disables the cycle deadline.
    attempt_budget:
        Work units one match attempt may spend before it returns no-match.
        None disables the attempt deadline.
    checkpoint_interval:
        Units between cooperative cancellation checkpoints; bounds how far
        a budget can be overrun before the traversal notices.
    latency_threshold:
        Attempts spending more than this many units count as *slow* for the
        match breaker even when they finish within budget.  None disables.
    degrade_after:
        Consecutive pressured cycles (cycle cut short, or any attempt
        deadline hit) before the ladder steps down one level.
    recover_after:
        Consecutive healthy cycles before the ladder steps back up.
    breaker_window:
        Sliding window (in recorded outcomes) a breaker evaluates.
    breaker_failure_threshold:
        Failures within the window that trip a closed breaker.
    breaker_cooldown:
        Cycles an open breaker waits before probing (half-open).
    breaker_probes:
        Consecutive successful probes required to close again.
    """

    max_pending: Optional[int] = None
    admission_policy: str = "reject"
    cycle_budget: Optional[int] = None
    attempt_budget: Optional[int] = None
    checkpoint_interval: int = 64
    latency_threshold: Optional[int] = None
    degrade_after: int = 2
    recover_after: int = 4
    breaker_window: int = 8
    breaker_failure_threshold: int = 3
    breaker_cooldown: int = 6
    breaker_probes: int = 1

    def __post_init__(self) -> None:
        if self.admission_policy not in ADMISSION_POLICIES:
            raise SchedulerError(
                f"unknown admission policy {self.admission_policy!r}; "
                f"known: {list(ADMISSION_POLICIES)}"
            )
        if self.max_pending is not None and self.max_pending < 1:
            raise SchedulerError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        for name in ("cycle_budget", "attempt_budget", "latency_threshold"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise SchedulerError(f"{name} must be >= 1, got {value}")
        for name in (
            "checkpoint_interval",
            "degrade_after",
            "recover_after",
            "breaker_window",
            "breaker_failure_threshold",
            "breaker_cooldown",
            "breaker_probes",
        ):
            if getattr(self, name) < 1:
                raise SchedulerError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )

    def to_dict(self) -> dict:
        """JSON-able form (snapshot / chaos reproducer serialisation)."""
        return {
            "max_pending": self.max_pending,
            "admission_policy": self.admission_policy,
            "cycle_budget": self.cycle_budget,
            "attempt_budget": self.attempt_budget,
            "checkpoint_interval": self.checkpoint_interval,
            "latency_threshold": self.latency_threshold,
            "degrade_after": self.degrade_after,
            "recover_after": self.recover_after,
            "breaker_window": self.breaker_window,
            "breaker_failure_threshold": self.breaker_failure_threshold,
            "breaker_cooldown": self.breaker_cooldown,
            "breaker_probes": self.breaker_probes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OverloadConfig":
        """Rebuild from :meth:`to_dict` output."""
        return cls(**data)


class WorkBudget:
    """Deterministic work budget for one dispatch cycle.

    The traverser calls :meth:`charge` once per unit of match work (a graph
    vertex visited, a reservation candidate time tried).  Every
    ``checkpoint_interval`` units a cooperative cancellation checkpoint
    compares spend against the limits and raises
    :class:`~repro.errors.SchedulingDeadlineExceeded` — cycle scope first
    (more severe), then attempt scope — so overrun is bounded by one
    checkpoint interval.
    """

    __slots__ = (
        "cycle_limit",
        "attempt_limit",
        "checkpoint_interval",
        "latency_threshold",
        "cycle_spent",
        "attempt_spent",
        "attempts",
        "deadline_attempts",
        "slow_attempts",
        "cycle_deadline_hit",
        "max_cycle_overrun",
        "_since_checkpoint",
        "_attempt_hit",
        "_in_attempt",
    )

    def __init__(
        self,
        cycle_limit: Optional[int] = None,
        attempt_limit: Optional[int] = None,
        checkpoint_interval: int = 64,
        latency_threshold: Optional[int] = None,
    ) -> None:
        if checkpoint_interval < 1:
            raise SchedulerError(
                f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
            )
        self.cycle_limit = cycle_limit
        self.attempt_limit = attempt_limit
        self.checkpoint_interval = checkpoint_interval
        self.latency_threshold = latency_threshold
        self.cycle_spent = 0
        self.attempt_spent = 0
        self.attempts = 0
        self.deadline_attempts = 0
        self.slow_attempts = 0
        self.cycle_deadline_hit = False
        self.max_cycle_overrun = 0
        self._since_checkpoint = 0
        self._attempt_hit = False
        self._in_attempt = False

    @property
    def cycle_exhausted(self) -> bool:
        """True once the cycle budget is spent (queue policies stop early)."""
        return (
            self.cycle_limit is not None
            and self.cycle_spent >= self.cycle_limit
        )

    @property
    def attempt_cut(self) -> bool:
        """True when the latest attempt was stopped by its deadline: the
        ``None`` it returned is not a verdict on the request."""
        return self._attempt_hit

    def charge(self, units: int = 1) -> None:
        """Account ``units`` of match work; checkpoint when due."""
        self.cycle_spent += units
        self.attempt_spent += units
        self._since_checkpoint += units
        if self._since_checkpoint >= self.checkpoint_interval:
            self._since_checkpoint = 0
            self.checkpoint()

    def checkpoint(self) -> None:
        """Cooperative cancellation point: raise when a budget is exceeded."""
        if self.cycle_limit is not None and self.cycle_spent > self.cycle_limit:
            self.cycle_deadline_hit = True
            self.max_cycle_overrun = max(
                self.max_cycle_overrun, self.cycle_spent - self.cycle_limit
            )
            raise SchedulingDeadlineExceeded(
                "cycle", self.cycle_spent, self.cycle_limit
            )
        if (
            self.attempt_limit is not None
            and self.attempt_spent > self.attempt_limit
        ):
            self._attempt_hit = True
            raise SchedulingDeadlineExceeded(
                "attempt", self.attempt_spent, self.attempt_limit
            )

    def begin_attempt(self) -> None:
        """Start a new match attempt (finalising the previous one)."""
        self._finalize_attempt()
        self._in_attempt = True

    def finish(self) -> None:
        """Close the budget at end of cycle, finalising the last attempt."""
        self._finalize_attempt()
        if self.cycle_limit is not None and self.cycle_spent > self.cycle_limit:
            self.max_cycle_overrun = max(
                self.max_cycle_overrun, self.cycle_spent - self.cycle_limit
            )

    def _finalize_attempt(self) -> None:
        if self._in_attempt:
            self.attempts += 1
            if self._attempt_hit:
                self.deadline_attempts += 1
            elif (
                self.latency_threshold is not None
                and self.attempt_spent > self.latency_threshold
            ):
                self.slow_attempts += 1
        self.attempt_spent = 0
        self._attempt_hit = False
        self._in_attempt = False


class CircuitBreaker:
    """A closed/open/half-open breaker over deterministic outcomes.

    Unlike service-mesh breakers this one never reads a clock: outcomes are
    recorded per scheduling cycle and the cooldown is counted in cycles, so
    a recovered run replays the exact same state transitions.

    * CLOSED — outcomes recorded into a sliding window; ``failure_threshold``
      failures within ``window`` trip it OPEN.
    * OPEN — the protected path is bypassed; after ``cooldown`` cycles the
      breaker turns HALF_OPEN.
    * HALF_OPEN — the path is probed; ``probes`` consecutive successes close
      the breaker, any failure re-opens it.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    __slots__ = (
        "name",
        "window",
        "failure_threshold",
        "cooldown",
        "probes",
        "state",
        "trips",
        "_outcomes",
        "_opened_at",
        "_probes_left",
    )

    def __init__(
        self,
        name: str,
        window: int = 8,
        failure_threshold: int = 3,
        cooldown: int = 6,
        probes: int = 1,
    ) -> None:
        self.name = name
        self.window = window
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.probes = probes
        self.state = self.CLOSED
        self.trips = 0
        self._outcomes: Deque[bool] = deque(maxlen=window)
        self._opened_at = 0
        self._probes_left = 0

    @property
    def is_open(self) -> bool:
        """True while the protected path must be bypassed."""
        return self.state == self.OPEN

    def tick(self, cycle: int) -> None:
        """Advance the breaker's cycle clock (cooldown -> half-open)."""
        if self.state == self.OPEN and cycle - self._opened_at >= self.cooldown:
            self.state = self.HALF_OPEN
            self._probes_left = self.probes

    def record(self, ok: bool, cycle: int) -> None:
        """Record one outcome of the protected path at ``cycle``."""
        if self.state == self.HALF_OPEN:
            if ok:
                self._probes_left -= 1
                if self._probes_left <= 0:
                    self.state = self.CLOSED
                    self._outcomes.clear()
            else:
                self._trip(cycle)
            return
        if self.state == self.OPEN:
            return
        self._outcomes.append(ok)
        failures = sum(1 for outcome in self._outcomes if not outcome)
        if failures >= self.failure_threshold:
            self._trip(cycle)

    def _trip(self, cycle: int) -> None:
        self.state = self.OPEN
        self.trips += 1
        self._opened_at = cycle
        self._outcomes.clear()

    # -- snapshot state (crash recovery) -------------------------------
    def export_state(self) -> dict:
        """Serialise dynamic state (configuration lives in OverloadConfig)."""
        return {
            "state": self.state,
            "trips": self.trips,
            "outcomes": [int(outcome) for outcome in self._outcomes],
            "opened_at": self._opened_at,
            "probes_left": self._probes_left,
        }

    def import_state(self, state: dict) -> None:
        """Restore :meth:`export_state` output."""
        self.state = state["state"]
        self.trips = int(state["trips"])
        self._outcomes = deque(
            (bool(outcome) for outcome in state["outcomes"]), maxlen=self.window
        )
        self._opened_at = int(state["opened_at"])
        self._probes_left = int(state["probes_left"])


def coarsen_jobspec(jobspec: Jobspec) -> Optional[Jobspec]:
    """Coarsen ``jobspec`` to the whole-node exclusive shape, or None.

    The degraded-match analogue of LOD pool coarsening
    (:mod:`repro.resource.lod`): instead of rewriting the graph, rewrite the
    *request* to the cheapest shape that still covers it — ``n`` exclusive
    whole nodes, where ``n`` is the jobspec's total node demand.  An
    exclusive node hold subsumes every resource beneath the node, so any
    request built solely from node-subtree types is covered (possibly
    over-served).  Requests that constrain resources above or outside the
    node subtree (racks, switches, power, ...) or carry property
    predicates cannot be expressed this way and return None.
    """
    nnodes = jobspec.totals().get("node", 0)
    if nnodes < 1:
        return None
    for request in jobspec.walk():
        if request.type not in _COARSE_TYPES:
            return None
        if request.requires is not None:
            return None
    return nodes_jobspec(int(nnodes), duration=jobspec.duration)


class OverloadController:
    """Admission control, deadlines, breakers and the degradation ladder.

    Attach one per :class:`~repro.sched.simulator.ClusterSimulator` (the
    simulator does this when constructed with ``overload=``).  All decisions
    are pure functions of simulator + controller state: the controller
    journals them as ``internal`` records (audit trail only) and recovery
    replay regenerates them by re-executing the enclosing commands.
    """

    def __init__(self, config: OverloadConfig) -> None:
        self.config = config
        self.sim: Optional["ClusterSimulator"] = None
        self.level = DegradeLevel.FULL
        #: job ids parked by the ``defer`` admission policy
        self.deferred: set = set()
        self.cycle_index = 0
        self.max_cycle_overrun = 0
        self.counters: Dict[str, int] = {
            "admitted": 0,
            "rejected": 0,
            "shed": 0,
            "deferred": 0,
            "promoted": 0,
            "degraded_matches": 0,
            "inexpressible": 0,
            "deadline_attempts": 0,
            "deadline_cycles": 0,
            "transitions": 0,
        }
        self._consecutive_bad = 0
        self._consecutive_good = 0
        self.breakers: Dict[str, CircuitBreaker] = {}
        self._first_policy = make_policy("first")

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, sim: "ClusterSimulator") -> None:
        """Bind this controller to ``sim`` and create its breakers."""
        self.sim = sim
        self.breakers = {
            f"queue.{sim.queue_policy.name}": self._make_breaker(
                f"queue.{sim.queue_policy.name}"
            ),
            f"match.{sim.traverser.subsystem}": self._make_breaker(
                f"match.{sim.traverser.subsystem}"
            ),
        }
        self._queue_breaker = self.breakers[f"queue.{sim.queue_policy.name}"]
        self._match_breaker = self.breakers[f"match.{sim.traverser.subsystem}"]

    def _make_breaker(self, name: str) -> CircuitBreaker:
        cfg = self.config
        return CircuitBreaker(
            name,
            window=cfg.breaker_window,
            failure_threshold=cfg.breaker_failure_threshold,
            cooldown=cfg.breaker_cooldown,
            probes=cfg.breaker_probes,
        )

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def check_admission(self, priority: int = 0) -> None:
        """Service-style pre-flight: raise when a submission at ``priority``
        would be refused right now (for callers that prefer an exception to
        a canceled job; the simulator path cancels instead)."""
        from ..errors import AdmissionRejected

        cfg = self.config
        if cfg.max_pending is None or self.sim is None:
            return
        depth = self._depth()
        if depth < cfg.max_pending:
            return
        if cfg.admission_policy == "shed":
            victim = self._shed_victim(priority, None)
            if victim is not None:
                return
        elif cfg.admission_policy == "defer":
            return  # a deferred submission is still accepted
        raise AdmissionRejected(
            f"queue depth {depth} at bound {cfg.max_pending}; "
            f"policy {cfg.admission_policy!r} refuses priority {priority}",
            policy=cfg.admission_policy,
            depth=depth,
        )

    def admit(self, job: "Job") -> bool:
        """Apply admission control to a just-dispatched submission.

        Returns True when the job was admitted (a scheduling cycle should
        run), False when it was rejected, shed or deferred.
        """
        sim = self.sim
        cfg = self.config
        if sim is None or cfg.max_pending is None:
            self.counters["admitted"] += 1
            return True
        depth = self._depth()
        if depth <= cfg.max_pending:
            self.counters["admitted"] += 1
            return True
        return self._admit_pressured(job)

    def _admit_pressured(self, job: "Job") -> bool:
        """Apply the configured admission policy to an over-bound queue.

        Every outcome journals its decision *before* mutating state
        (write-ahead order), so a crash between the two replays cleanly.
        """
        from ..sched.job import CancelReason

        sim = self.sim
        cfg = self.config
        assert sim is not None
        sim._crashpoint("admit.pre")
        why = sim.obs.why
        if cfg.admission_policy == "reject":
            self._journal("admission", job_id=job.job_id, action="reject")
            self.counters["rejected"] += 1
            self._obs_count("overload.rejected")
            if why.enabled:
                why.event(
                    job.job_id, float(sim.now), "admission-reject",
                    name=job.name, policy="reject", depth=self._depth(),
                )
            sim.cancel(job, reason=CancelReason.ADMISSION)
            sim._crashpoint("admit.post")
            return False
        if cfg.admission_policy == "defer":
            self._journal("admission", job_id=job.job_id, action="defer")
            self.counters["deferred"] += 1
            self._obs_count("overload.deferred")
            if why.enabled:
                why.event(
                    job.job_id, float(sim.now), "admission-defer",
                    name=job.name, policy="defer", depth=self._depth(),
                )
            self.deferred.add(job.job_id)
            sim.event_log.append((sim.now, "defer", job.job_id))
            sim._crashpoint("admit.post")
            return False
        # shed-lowest-priority: the weakest queued job makes room — which
        # may be the new job itself when nothing queued ranks below it.
        victim = self._shed_victim(job.priority, job.job_id)
        if victim is None:
            self._journal(
                "admission", job_id=job.job_id, action="shed", victim=job.job_id
            )
            self.counters["shed"] += 1
            self._obs_count("overload.shed")
            if why.enabled:
                why.event(
                    job.job_id, float(sim.now), "admission-shed",
                    name=job.name, policy="shed", victim=job.job_id,
                )
            sim.cancel(job, reason=CancelReason.SHED)
            sim._crashpoint("admit.post")
            return False
        self._journal(
            "admission", job_id=job.job_id, action="shed", victim=victim.job_id
        )
        self.counters["shed"] += 1
        self._obs_count("overload.shed")
        if why.enabled:
            why.event(
                job.job_id, float(sim.now), "admission-shed-victim",
                name=job.name, policy="shed", victim=victim.job_id,
            )
            why.event(
                victim.job_id, float(sim.now), "shed",
                name=victim.name, policy="shed", displaced_by=job.job_id,
            )
        sim.cancel(victim, reason=CancelReason.SHED)
        sim._crashpoint("admit.shed")
        self.counters["admitted"] += 1
        sim._crashpoint("admit.post")
        return True

    def _depth(self) -> int:
        """Schedulable pending-queue depth (deferred jobs excluded)."""
        assert self.sim is not None
        return len(self.sim._pending_jobs())

    def _shed_victim(
        self, priority: int, exclude_id: Optional[int]
    ) -> Optional["Job"]:
        """Lowest-priority queued job strictly below ``priority`` (ties:
        youngest loses), or None when nothing outranked exists."""
        assert self.sim is not None
        candidates = [
            j
            for j in self.sim._pending_jobs()
            if j.job_id != exclude_id and j.priority < priority
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda j: (j.priority, -j.job_id))

    def promote_deferred(self) -> int:
        """Move deferred jobs back into the schedulable queue while depth
        allows; returns how many were promoted."""
        sim = self.sim
        if sim is None or not self.deferred:
            return 0
        promoted = 0
        while self.deferred:
            job = self._next_promotion()
            if job is None:
                break
            self._promote(job)
            promoted += 1
        self._drop_stale_deferred()
        return promoted

    def _next_promotion(self) -> "Optional[Job]":
        """The deferred job that should re-enter the queue now, if any
        (highest priority first, submission order breaking ties)."""
        sim = self.sim
        cfg = self.config
        assert sim is not None
        depth = self._depth()
        if cfg.max_pending is not None and depth >= cfg.max_pending:
            return None
        ready = [
            sim.jobs[jid]
            for jid in self.deferred
            if sim.jobs[jid].submit_time <= sim.now
            and sim.jobs[jid].is_active
        ]
        if not ready:
            return None
        return min(ready, key=lambda j: (-j.priority, j.job_id))

    def _promote(self, job: "Job") -> None:
        """Journal (write-ahead), then move ``job`` out of the parking set."""
        sim = self.sim
        assert sim is not None
        self._journal("admission", job_id=job.job_id, action="promote")
        self.deferred.discard(job.job_id)
        sim.event_log.append((sim.now, "promote", job.job_id))
        self.counters["promoted"] += 1
        self._obs_count("overload.promoted")
        why = sim.obs.why
        if why.enabled:
            why.event(
                job.job_id, float(sim.now), "admission-promote",
                name=job.name,
            )

    def _drop_stale_deferred(self) -> None:
        """Forget deferred entries whose jobs are no longer active (e.g.
        canceled by the user while parked)."""
        sim = self.sim
        assert sim is not None
        for jid in list(self.deferred):
            if not sim.jobs[jid].is_active:
                self.deferred.discard(jid)

    # ------------------------------------------------------------------
    # the scheduling cycle under budget + ladder
    # ------------------------------------------------------------------
    def run_cycle(self, pending: List["Job"]) -> None:
        """Run one dispatch cycle under budget, at the effective ladder
        level, feeding breakers and the ladder with the outcome."""
        sim = self.sim
        assert sim is not None
        self.cycle_index += 1
        for breaker in self.breakers.values():
            breaker.tick(self.cycle_index)
        cfg = self.config
        budget = WorkBudget(
            cycle_limit=cfg.cycle_budget,
            attempt_limit=cfg.attempt_budget,
            checkpoint_interval=cfg.checkpoint_interval,
            latency_threshold=cfg.latency_threshold,
        )
        level = self.effective_level()
        traverser = sim.traverser
        traverser.budget = budget
        cycle_cut = False
        try:
            if level is DegradeLevel.FULL:
                sim.queue_policy.cycle(pending, traverser, sim.now)
            elif level is DegradeLevel.DEFER:
                pass  # pure backoff: touch nothing this cycle
            else:
                self._degraded_cycle(pending, traverser, level)
        except SchedulingDeadlineExceeded as exc:
            if exc.scope != "cycle":
                raise  # attempt-scope signals are handled in the traverser
            cycle_cut = True
        finally:
            traverser.budget = None
            budget.finish()
        self._after_cycle(budget, cycle_cut, level)

    def effective_level(self) -> DegradeLevel:
        """The ladder level this cycle actually runs at: the controller's
        level floored by any open breaker (queue breaker open -> at least
        COARSE, match breaker open -> at least NODECENTRIC)."""
        level = self.level
        if self._queue_breaker.is_open:
            level = max(level, DegradeLevel.COARSE)
        if self._match_breaker.is_open:
            level = max(level, DegradeLevel.NODECENTRIC)
        return level

    def _degraded_cycle(
        self,
        pending: List["Job"],
        traverser: "Traverser",
        level: DegradeLevel,
    ) -> None:
        """Allocate-now over coarsened jobspecs, bypassing the queue policy.

        ``NODECENTRIC`` additionally swaps in the ``first`` match policy for
        each attempt, degenerating the match to flat first-fit (the
        node-centric baseline's behaviour).  Jobs whose requests cannot be
        coarsened are skipped (they stay pending for a healthier cycle); no
        reservations are made at degraded levels.
        """
        from ..sched.job import JobState

        sim = self.sim
        assert sim is not None
        verb = f"degraded_{level.name.lower()}"
        with sim.obs.tracer.span(
            "overload.degraded_cycle", "overload",
            vt=float(sim.now), level=level.name,
        ):
            for job in pending:
                if job.state is not JobState.PENDING:
                    continue
                budget = traverser.budget
                if budget is not None and budget.cycle_exhausted:
                    break
                coarse = coarsen_jobspec(job.jobspec)
                if coarse is None:
                    self.counters["inexpressible"] += 1
                    continue
                with sim.queue_policy._attempt(job, sim.now, verb):
                    alloc = self._degraded_allocate(traverser, coarse, level)
                    if alloc is not None:
                        job.allocations.append(alloc)
                        job.transition(JobState.RUNNING)
                        job.degraded = level.name
                        self.counters["degraded_matches"] += 1
                        self._obs_count("overload.degraded_matches")

    def _degraded_allocate(
        self, traverser: "Traverser", coarse: Jobspec, level: DegradeLevel
    ) -> "Optional[Allocation]":
        if level is not DegradeLevel.NODECENTRIC:
            return traverser.allocate(coarse, at=self.sim.now)
        saved = traverser.policy
        traverser.policy = self._first_policy
        try:
            return traverser.allocate(coarse, at=self.sim.now)
        finally:
            traverser.policy = saved

    def _after_cycle(
        self, budget: WorkBudget, cycle_cut: bool, level: DegradeLevel
    ) -> None:
        sim = self.sim
        assert sim is not None
        cfg = self.config
        self.max_cycle_overrun = max(
            self.max_cycle_overrun, budget.max_cycle_overrun
        )
        self.counters["deadline_attempts"] += budget.deadline_attempts
        if cycle_cut:
            self.counters["deadline_cycles"] += 1
            self._obs_count("overload.deadline_cycles")
        if budget.deadline_attempts:
            self._obs_count("overload.deadline_attempts",
                            budget.deadline_attempts)
        # Breakers: the queue breaker watches whole-cycle overruns of the
        # FULL path; the match breaker watches per-attempt overruns and slow
        # attempts wherever they happen.
        if level is DegradeLevel.FULL:
            self._queue_breaker.record(not cycle_cut, self.cycle_index)
        if budget.attempts:
            self._match_breaker.record(
                budget.deadline_attempts == 0 and budget.slow_attempts == 0,
                self.cycle_index,
            )
        # Ladder: sustained pressure steps down, sustained health steps up.
        pressured = cycle_cut or budget.deadline_attempts > 0
        if pressured:
            self._consecutive_bad += 1
            self._consecutive_good = 0
        else:
            self._consecutive_good += 1
            self._consecutive_bad = 0
        if (
            self._consecutive_bad >= cfg.degrade_after
            and self.level < DegradeLevel.DEFER
        ):
            self._transition(DegradeLevel(self.level + 1))
            self._consecutive_bad = 0
        elif (
            self._consecutive_good >= cfg.recover_after
            and self.level > DegradeLevel.FULL
        ):
            self._transition(DegradeLevel(self.level - 1))
            self._consecutive_good = 0
        if sim.obs.enabled:
            sim.obs.metrics.gauge(
                "overload.level", "degradation ladder level (0=full)"
            ).set(int(self.effective_level()))

    def _transition(self, new_level: DegradeLevel) -> None:
        sim = self.sim
        assert sim is not None
        old = self.level
        label = f"{old.name.lower()}->{new_level.name.lower()}"
        self._journal("degrade", transition=label)
        self.level = new_level
        self.counters["transitions"] += 1
        sim.event_log.append((sim.now, "overload", label))
        self._obs_count("overload.transitions")
        if sim.obs.enabled:
            sim.obs.tracer.instant(
                "overload.transition", "overload",
                vt=float(sim.now), transition=label,
            )

    @property
    def breaker_trips(self) -> int:
        """Total trips across every breaker (report accounting)."""
        return sum(breaker.trips for breaker in self.breakers.values())

    # ------------------------------------------------------------------
    # journal / metrics plumbing
    # ------------------------------------------------------------------
    def _journal(self, kind: str, **fields: object) -> None:
        sim = self.sim
        if sim is None:
            return
        record = {"type": kind, "at": sim.now}
        record.update(fields)
        sim._journal(record)

    def _obs_count(self, name: str, amount: int = 1) -> None:
        sim = self.sim
        if sim is not None and sim.obs.enabled:
            sim.obs.metrics.counter(
                name, "overload-protection events"
            ).inc(amount)

    # ------------------------------------------------------------------
    # snapshot state (crash recovery)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Dynamic controller state for snapshots and fingerprints."""
        return {
            "level": self.level.name,
            "cycle_index": self.cycle_index,
            "consecutive_bad": self._consecutive_bad,
            "consecutive_good": self._consecutive_good,
            "max_cycle_overrun": self.max_cycle_overrun,
            "deferred": sorted(self.deferred),
            "counters": dict(self.counters),
            "breakers": {
                name: breaker.export_state()
                for name, breaker in sorted(self.breakers.items())
            },
        }

    def import_state(self, state: dict) -> None:
        """Restore :meth:`export_state` output (after :meth:`attach`)."""
        self.level = DegradeLevel[state["level"]]
        self.cycle_index = int(state["cycle_index"])
        self._consecutive_bad = int(state["consecutive_bad"])
        self._consecutive_good = int(state["consecutive_good"])
        self.max_cycle_overrun = int(state["max_cycle_overrun"])
        self.deferred = set(state["deferred"])
        self.counters.update(state["counters"])
        for name, breaker_state in state["breakers"].items():
            if name in self.breakers:
                self.breakers[name].import_state(breaker_state)
