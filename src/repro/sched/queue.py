"""Queue policies: FCFS, EASY backfill, conservative backfill (paper §3.2).

The resource model deliberately knows nothing about queueing — these policies
sit on top of a :class:`~repro.match.Traverser` and only call its public
match verbs (separation of concerns, §3.5).  Because reservations are
physically booked in the planners, backfilled jobs can never delay a
reservation: the match itself refuses conflicting windows.

* :class:`FCFSQueue` — strict order, no reservations: the queue head either
  starts now or everything waits.
* :class:`EasyBackfill` — the head of the queue gets a reservation; later
  jobs may start *now* if they fit (they cannot push the head back).
* :class:`ConservativeBackfill` — every job gets allocate-orelse-reserve in
  submit order, the discipline the paper's §6.3 study uses.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import SchedulerError
from ..match import Traverser
from ..obs import NULL_OBSERVER, Observer, WallTimer
from .job import Job, JobState

__all__ = [
    "QueuePolicy",
    "FCFSQueue",
    "EasyBackfill",
    "ConservativeBackfill",
    "QUEUE_POLICIES",
    "make_queue_policy",
]


class _SchedAttempt:
    """Times one full scheduling attempt for one job.

    Everything inside the ``with`` block — match/reserve verbs, reservation
    cancels during re-planning, state transitions — is charged to
    ``job.sched_time`` (wall-clock observability only; excluded from state
    fingerprints so it cannot break replay determinism).  When an observer
    is enabled the attempt also lands in the ``sched.attempt_seconds``
    histogram and opens a ``sched.attempt`` tracer span.
    """

    __slots__ = ("_obs", "_job", "_now", "_verb", "_timer", "_alloc0")

    def __init__(self, obs: Observer, job: Job, now: int, verb: str) -> None:
        self._obs = obs
        self._job = job
        self._now = now
        self._verb = verb
        self._timer = WallTimer()
        self._alloc0 = 0

    def __enter__(self) -> "_SchedAttempt":
        if self._obs.enabled:
            self._obs.tracer.begin(
                "sched.attempt", "sched", vt=float(self._now),
                job=self._job.job_id, verb=self._verb,
            )
            why = self._obs.why
            if why.enabled:
                self._alloc0 = len(self._job.allocations)
                why.begin_attempt(
                    self._job.job_id, float(self._now), self._verb,
                    name=self._job.name,
                )
        self._timer.__enter__()
        return self

    def __exit__(self, *exc: object) -> None:
        self._timer.__exit__()
        self._job.sched_time += self._timer.elapsed
        if self._obs.enabled:
            self._obs.metrics.histogram(
                "sched.attempt_seconds",
                "wall time per full scheduling attempt",
            ).observe(self._timer.elapsed)
            why = self._obs.why
            if why.enabled:
                why.end_attempt(*self._outcome(exc))
            self._obs.tracer.end()

    def _outcome(self, exc: tuple) -> tuple:
        """(outcome, degradation level) for the attempt that just closed."""
        level = None
        if self._verb.startswith("degraded_"):
            level = self._verb[len("degraded_"):].upper()
        if exc and exc[0] is not None:
            return "deadline", level
        if self._verb == "replan_cancel":
            return "replan_cancel", level
        if len(self._job.allocations) > self._alloc0:
            alloc = self._job.allocations[-1]
            return ("reserved" if alloc.reserved else "matched"), level
        return "failed", level


class QueuePolicy:
    """Base queue policy; subclasses implement :meth:`cycle`."""

    name = "base"
    #: observability sink; ``ClusterSimulator(observe=...)`` replaces this
    #: per instance (class default keeps standalone policies zero-cost).
    obs: Observer = NULL_OBSERVER

    def cycle(self, pending: List[Job], traverser: Traverser, now: int) -> None:
        """Try to place pending jobs (in submit order) at time ``now``.

        Implementations mutate job state/allocations via the traverser.  Jobs
        left PENDING stay in the queue for the next cycle.
        """
        raise NotImplementedError

    def _attempt(self, job: Job, now: int, verb: str) -> _SchedAttempt:
        """Scope one job's full scheduling attempt (see _SchedAttempt)."""
        return _SchedAttempt(self.obs, job, now, verb)

    @staticmethod
    def _out_of_budget(traverser: Traverser) -> bool:
        """True when an attached overload work budget is spent: policies
        stop attempting further jobs this cycle (clean stop between
        attempts; mid-attempt the budget's own cancellation checkpoints
        fire — see :mod:`repro.resilience.overload`)."""
        budget = traverser.budget
        return budget is not None and budget.cycle_exhausted

    @staticmethod
    def _attach(job: Job, alloc, now: int) -> None:
        job.allocations.append(alloc)
        job.transition(JobState.RUNNING if alloc.at <= now else JobState.RESERVED)

    # -- snapshot state (crash recovery) -------------------------------
    def export_state(self) -> dict:
        """Policy-internal state to carry across a restart (default: none)."""
        return {}

    def import_state(self, state: dict, jobs: Dict[int, Job]) -> None:
        """Restore :meth:`export_state` output; ``jobs`` maps id -> Job."""


class FCFSQueue(QueuePolicy):
    """First-come first-served without backfilling."""

    name = "fcfs"

    def cycle(self, pending: List[Job], traverser: Traverser, now: int) -> None:
        for job in pending:
            if job.state is not JobState.PENDING:
                continue
            if self._out_of_budget(traverser):
                break
            with self._attempt(job, now, "allocate"):
                alloc = traverser.allocate(job.jobspec, at=now)
                if alloc is not None:
                    self._attach(job, alloc, now)
            if alloc is None:
                break  # head of queue blocks everyone behind it


class EasyBackfill(QueuePolicy):
    """EASY backfilling: one reservation for the queue head, others start-now.

    The head's reservation is re-planned every cycle (canceled and re-made)
    so completions pull it earlier; backfilled jobs physically cannot delay
    it because the reservation's spans are booked in the planners.
    """

    name = "easy"

    def __init__(self) -> None:
        self._head_reservation: Dict[int, tuple] = {}  # job_id -> (job, alloc_id)

    def cycle(self, pending: List[Job], traverser: Traverser, now: int) -> None:
        # Cancel the standing head reservation (if it has not started running
        # in the meantime); it is re-planned below so completions pull it
        # earlier.
        for job_id, (job, alloc_id) in list(self._head_reservation.items()):
            del self._head_reservation[job_id]
            if job.state is JobState.RESERVED and alloc_id in traverser.allocations:
                # Re-planning work is scheduling cost too: charge the cancel
                # to the job whose reservation is being re-made.
                with self._attempt(job, now, "replan_cancel"):
                    traverser.remove(alloc_id)
                    job.transition(JobState.PENDING)
                    job.allocations.clear()
        head_blocked = False
        for job in pending:
            if self._out_of_budget(traverser):
                break
            if not head_blocked:
                with self._attempt(job, now, "allocate_orelse_reserve"):
                    alloc = traverser.allocate_orelse_reserve(
                        job.jobspec, now=now
                    )
                    if alloc is not None:
                        self._attach(job, alloc, now)
                if alloc is None:
                    continue  # never satisfiable; skip (stays pending)
                if alloc.reserved:
                    head_blocked = True
                    self._head_reservation[job.job_id] = (job, alloc.alloc_id)
            else:
                with self._attempt(job, now, "backfill"):
                    alloc = traverser.allocate(job.jobspec, at=now)
                    if alloc is not None:
                        self._attach(job, alloc, now)

    def export_state(self) -> dict:
        return {
            "head_reservation": {
                str(job_id): alloc_id
                for job_id, (_job, alloc_id) in self._head_reservation.items()
            }
        }

    def import_state(self, state: dict, jobs: Dict[int, Job]) -> None:
        self._head_reservation = {
            int(job_id): (jobs[int(job_id)], int(alloc_id))
            for job_id, alloc_id in (state.get("head_reservation") or {}).items()
        }


class ConservativeBackfill(QueuePolicy):
    """Conservative backfilling: every job allocates now or reserves.

    Reservations are kept (never re-planned), so each job's planned start can
    only be honored, matching the guarantee conservative backfilling makes.

    ``depth`` bounds how many jobs hold future reservations at once
    (Fluxion's ``queue-depth``): deep queues stop paying reservation-planning
    cost for jobs far from the head, at the price of weaker start-time
    guarantees for them.  ``None`` means unlimited.
    """

    name = "conservative"

    def __init__(self, depth: Optional[int] = None) -> None:
        if depth is not None and depth < 1:
            raise SchedulerError(f"queue depth must be >= 1, got {depth}")
        self.depth = depth

    def cycle(self, pending: List[Job], traverser: Traverser, now: int) -> None:
        reserved = sum(1 for job in pending if job.state is JobState.RESERVED)
        for job in pending:
            if job.state is not JobState.PENDING:
                continue
            if self._out_of_budget(traverser):
                break
            if self.depth is not None and reserved >= self.depth:
                # Depth reached: only start-now placements beyond this point.
                with self._attempt(job, now, "allocate"):
                    alloc = traverser.allocate(job.jobspec, at=now)
                    if alloc is not None:
                        self._attach(job, alloc, now)
            else:
                with self._attempt(job, now, "allocate_orelse_reserve"):
                    alloc = traverser.allocate_orelse_reserve(
                        job.jobspec, now=now
                    )
                    if alloc is not None:
                        self._attach(job, alloc, now)
            if alloc is not None and alloc.reserved:
                reserved += 1

    def export_state(self) -> dict:
        return {"depth": self.depth}

    def import_state(self, state: dict, jobs: Dict[int, Job]) -> None:
        self.depth = state.get("depth")


QUEUE_POLICIES = {
    "fcfs": FCFSQueue,
    "easy": EasyBackfill,
    "conservative": ConservativeBackfill,
}


def make_queue_policy(name: str) -> QueuePolicy:
    """Instantiate a queue policy by registry name."""
    try:
        return QUEUE_POLICIES[name]()
    except KeyError:
        raise SchedulerError(
            f"unknown queue policy {name!r}; known: {sorted(QUEUE_POLICIES)}"
        ) from None
