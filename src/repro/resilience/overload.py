"""Overload protection: a bounded queue and a scheduling work budget.

Fluxion's match cost grows with graph size and queue depth (§6), so the
simulator can bound both.  The two mechanisms are deterministic (decisions
depend only on simulator + controller state, never wall-clock, so
crash-recovery replay reproduces them exactly):

**A bounded queue** (:meth:`OverloadController.admit`) caps the
schedulable pending-queue depth at ``max_pending``: a submission that takes
the queue over the bound is canceled
(:attr:`~repro.sched.job.CancelReason.ADMISSION`).

**Scheduling deadlines** (:class:`WorkBudget`) bound the work one dispatch
cycle and one match attempt may perform.  Budgets are measured in
deterministic *work units* — graph vertices visited plus reservation
candidate times tried — not seconds; the traverser charges the budget at
cooperative cancellation checkpoints and an over-budget traversal raises
:class:`~repro.errors.SchedulingDeadlineExceeded`, which the traverser turns
into a no-match verdict (attempt scope) or the controller turns into an
early end of cycle (cycle scope).  Overrun is bounded by one checkpoint
interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from ..errors import SchedulingDeadlineExceeded
from ..settings import GuardSettings, _refuse_unknown

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..sched.job import Job
    from ..sched.simulator import ClusterSimulator

__all__ = ["OverloadConfig", "OverloadController", "WorkBudget"]


@dataclass
class OverloadConfig(GuardSettings):
    """Tuning knobs for :class:`OverloadController`.  Nothing is retired:
    a document naming a setting of the older controller is refused.

    Parameters
    ----------
    max_pending:
        Bound on the schedulable pending-queue depth (PENDING + RESERVED
        jobs whose submit time has arrived).  None disables the bound.
    cycle_budget:
        Work units one dispatch cycle may spend before it is cut short.
        None disables the cycle deadline.
    attempt_budget:
        Work units one match attempt may spend before it returns no-match.
        None disables the attempt deadline.
    checkpoint_interval:
        Units between cooperative cancellation checkpoints; bounds how far
        a budget can be overrun before the traversal notices.
    """

    max_pending: Optional[int] = None
    cycle_budget: Optional[int] = None
    attempt_budget: Optional[int] = None
    checkpoint_interval: int = 64


class WorkBudget:
    """Deterministic work budget for one dispatch cycle.

    The traverser calls :meth:`charge` once per unit of match work (a graph
    vertex visited, a reservation candidate time tried).  Every
    ``checkpoint_interval`` units a cooperative cancellation checkpoint
    compares spend against the limits and raises
    :class:`~repro.errors.SchedulingDeadlineExceeded` — cycle scope first
    (more severe), then attempt scope — so overrun is bounded by one
    checkpoint interval.  The guard settings it is built from have checked
    its limits.
    """

    __slots__ = (
        "cycle_limit",
        "attempt_limit",
        "checkpoint_interval",
        "cycle_spent",
        "attempt_spent",
        "attempts",
        "deadline_attempts",
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
    ) -> None:
        self.cycle_limit = cycle_limit
        self.attempt_limit = attempt_limit
        self.checkpoint_interval = checkpoint_interval
        self.cycle_spent = 0
        self.attempt_spent = 0
        self.attempts = 0
        self.deadline_attempts = 0
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
        self.attempt_spent = 0
        self._attempt_hit = False
        self._in_attempt = False


class OverloadController:
    """The queue bound and the per-cycle work budget of one simulator.

    Attach one per :class:`~repro.sched.simulator.ClusterSimulator` (the
    simulator does this when constructed with ``overload=``).  Every
    decision is a pure function of simulator + controller state, so the
    controller journals nothing: recovery replay regenerates each decision
    by re-executing the enclosing command.
    """

    def __init__(self, config: OverloadConfig) -> None:
        self.config = config
        self.sim: Optional["ClusterSimulator"] = None
        self.max_cycle_overrun = 0
        self.counters: Dict[str, int] = {
            "rejected": 0,
            "deadline_attempts": 0,
            "deadline_cycles": 0,
        }

    def attach(self, sim: "ClusterSimulator") -> None:
        """Bind this controller to ``sim``."""
        self.sim = sim

    # ------------------------------------------------------------------
    # the queue bound
    # ------------------------------------------------------------------
    def admit(self, job: "Job") -> bool:
        """Apply the queue bound to a just-dispatched submission.

        Returns True when the job was admitted (a scheduling cycle should
        run), False when it was rejected.  The submission's ``dispatch``
        is already journaled, so a crash between the bound's verdict and
        the cancel replays that dispatch and decides the same again.
        """
        from ..sched.job import CancelReason

        sim = self.sim
        cfg = self.config
        if sim is None or cfg.max_pending is None:
            return True
        depth = len(sim._pending_jobs())
        if depth <= cfg.max_pending:
            return True
        sim._crashpoint("admit.pre")
        self.counters["rejected"] += 1
        self._obs_count("overload.rejected")
        why = sim.obs.why
        if why.enabled:
            why.event(
                job.job_id, float(sim.now), "admission-reject",
                name=job.name, depth=depth, bound=cfg.max_pending,
            )
        sim.cancel(job, reason=CancelReason.ADMISSION)
        sim._crashpoint("admit.post")
        return False

    # ------------------------------------------------------------------
    # the scheduling cycle under budget
    # ------------------------------------------------------------------
    def run_cycle(self, pending: List["Job"]) -> None:
        """Run one dispatch cycle of the queue policy under a fresh budget;
        a cycle-scope deadline ends the cycle early."""
        sim = self.sim
        assert sim is not None
        cfg = self.config
        budget = WorkBudget(
            cycle_limit=cfg.cycle_budget,
            attempt_limit=cfg.attempt_budget,
            checkpoint_interval=cfg.checkpoint_interval,
        )
        traverser = sim.traverser
        traverser.budget = budget
        cycle_cut = False
        try:
            sim.queue_policy.cycle(pending, traverser, sim.now)
        except SchedulingDeadlineExceeded as exc:
            if exc.scope != "cycle":
                raise  # attempt-scope signals are handled in the traverser
            cycle_cut = True
        finally:
            traverser.budget = None
            budget.finish()
        self.max_cycle_overrun = max(
            self.max_cycle_overrun, budget.max_cycle_overrun
        )
        self.counters["deadline_attempts"] += budget.deadline_attempts
        if budget.deadline_attempts:
            self._obs_count(
                "overload.deadline_attempts", budget.deadline_attempts
            )
        if cycle_cut:
            self.counters["deadline_cycles"] += 1
            self._obs_count("overload.deadline_cycles")

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
            "max_cycle_overrun": self.max_cycle_overrun,
            "counters": dict(self.counters),
        }

    def import_state(self, state: dict) -> None:
        """Restore :meth:`export_state` output; a key this controller does
        not own (state of an older controller) raises SchedulerError."""
        _refuse_unknown("overload state", state, self.export_state())
        _refuse_unknown("overload counters", state["counters"], self.counters)
        self.max_cycle_overrun = int(state["max_cycle_overrun"])
        self.counters.update(state["counters"])
