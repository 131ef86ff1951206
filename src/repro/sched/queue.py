"""Queue policies: FCFS, EASY backfill, conservative backfill (paper §3.2).

The resource model deliberately knows nothing about queueing — these policies
sit on top of a :class:`~repro.match.Traverser` and only call its public
match verbs (separation of concerns, §3.5).  Because reservations are
physically booked in the planners, backfilled jobs can never delay a
reservation: the match itself refuses conflicting windows.

* :class:`FCFSQueue` — strict order, no reservations: the queue head either
  starts now or everything waits.
* :class:`EasyBackfill` — the head of the queue gets a reservation; later
  jobs may start *now* if they fit (they cannot push the head back).  The
  reservation stands until capacity comes back early, and a job that did
  not fit is not asked again until the answer could differ.
* :class:`ConservativeBackfill` — every job gets allocate-orelse-reserve in
  submit order, the discipline the paper's §6.3 study uses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import RecoveryError, SchedulerError
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

    Everything inside the ``with`` block — match/reserve verbs, the cancel
    when a reservation is re-planned, state transitions — is charged to
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
                why.end_attempt(self._outcome(exc))
            self._obs.tracer.end()

    def _outcome(self, exc: tuple) -> str:
        """The outcome of the attempt that just closed."""
        if exc and exc[0] is not None:
            return "deadline"
        if self._verb == "replan_cancel":
            return "replan_cancel"
        if len(self._job.allocations) > self._alloc0:
            alloc = self._job.allocations[-1]
            return "reserved" if alloc.reserved else "matched"
        return "failed"


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

    Backfilled jobs physically cannot delay the head: its reservation's
    spans are booked in the planners.  The policy acts on events instead of
    re-trying the world every cycle; both memories below are keyed on the
    change counters of the graph (:meth:`ResourceGraph.note_change`), so
    whoever releases capacity or edits the structure invalidates them
    without knowing this class exists.

    * The head's reservation *stands* across cycles.  It is canceled and
      re-made only when the answer could differ: another job is first in
      ``pending``, its start time has come (the cycle must start it), or
      ``graph.unplanned`` moved since it was made — capacity came back
      before its booked end, or the structure changed.  A release at its
      booked end is what the reservation was planned around.
    * A backfill candidate whose ``allocate(at=now)`` was refused is not
      asked again until capacity could have come free: ``graph.freed``
      moved (any release, booked ends included), or the clock crossed the
      booked end of a span nothing has released yet (see
      :func:`_span_ended`).  Even then it stays refused while
      :meth:`~repro.match.Traverser.could_fit` says no at ``now``: the
      root filter still cannot cover it, so ``allocate`` would refuse it
      before any walk.  A refusal cut short by a scheduling deadline is no
      verdict and is never remembered.
    """

    name = "easy"

    def __init__(self) -> None:
        #: the standing head reservation: (job, alloc id, ``graph.unplanned``
        #: when it was made; None when unknown, which never matches)
        self._head: Optional[Tuple[Job, int, Optional[int]]] = None
        #: ids of jobs refused by ``allocate(at=now)``: still refused while
        #: ``graph.freed`` reads ``_refused_gen`` and no booked span has
        #: ended since ``_refused_at``, and re-checked by cut 1 when either
        #: moves
        self._refused: Set[int] = set()
        self._refused_gen: Optional[int] = None
        self._refused_at = 0

    def cycle(self, pending: List[Job], traverser: Traverser, now: int) -> None:
        graph = traverser.graph
        head_blocked = self._head_stands(pending, traverser, now)
        # After the cancel above on purpose: it releases capacity too.
        refused = self._refused
        if self._refused_gen != graph.freed or _span_ended(
            traverser, self._refused_at, now
        ):
            # Still refused: the jobs cut 1 still refuses at ``now``.
            refused = self._refused = {
                job.job_id for job in pending
                if job.job_id in refused
                and not traverser.could_fit(job.jobspec, now)
            }
            self._refused_gen = graph.freed
            self._refused_at = now
        obs = self.obs
        for job in pending[1:] if head_blocked else pending:
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
                    self._head = (job, alloc.alloc_id, graph.unplanned)
            elif job.job_id in refused:
                if obs.enabled:
                    obs.metrics.counter(
                        "sched.backfill_skipped",
                        "backfill candidates not re-tried: nothing they "
                        "could use came free since they were refused",
                    ).inc()
                    obs.why.skipped(
                        job.job_id, float(now), "backfill", job.name
                    )
            else:
                with self._attempt(job, now, "backfill"):
                    alloc = traverser.allocate(job.jobspec, at=now)
                    if alloc is not None:
                        self._attach(job, alloc, now)
                budget = traverser.budget
                if alloc is None and not (
                    budget is not None and budget.attempt_cut
                ):
                    refused.add(job.job_id)

    def _head_stands(
        self, pending: List[Job], traverser: Traverser, now: int
    ) -> bool:
        """True when ``pending[0]`` holds a reservation that still stands;
        otherwise any reservation left is canceled for re-planning."""
        head = self._head
        if head is None:
            return False
        job, alloc_id, made = head
        alloc = traverser.allocations.get(alloc_id)
        if job.state is not JobState.RESERVED or alloc is None:
            self._head = None  # started, canceled or evacuated meanwhile
            return False
        if (
            pending
            and pending[0] is job
            and made == traverser.graph.unplanned
            and alloc.at > now
        ):
            obs = self.obs
            if obs.enabled:
                obs.metrics.counter(
                    "sched.replans_kept",
                    "cycles the head's reservation stood without re-planning",
                ).inc()
                obs.why.skipped(job.job_id, float(now), "reservation", job.name)
            return True
        self._head = None
        # Re-planning work is scheduling cost too: charge the cancel to the
        # job whose reservation is being re-made.
        with self._attempt(job, now, "replan_cancel"):
            traverser.remove(alloc_id, now)
            job.transition(JobState.PENDING)
            job.allocations.clear()
        return False

    def export_state(self) -> dict:
        head = self._head
        return {
            "head": (
                None if head is None else [head[0].job_id, head[1], head[2]]
            ),
            "refused": {
                "gen": self._refused_gen,
                "at": self._refused_at,
                "jobs": sorted(self._refused),
            },
        }

    def import_state(self, state: dict, jobs: Dict[int, Job]) -> None:
        head = state.get("head")
        # Snapshots from before the reservation outlived its cycle say
        # {"head_reservation": {job id: alloc id}}: when it was made is
        # unknown, so it is re-planned once.
        for job_id, alloc_id in (state.get("head_reservation") or {}).items():
            head = [job_id, alloc_id, None]
        if head is None:
            self._head = None
        else:
            job_id, alloc_id, made = head
            try:
                job = jobs[int(job_id)]
            except KeyError:
                raise RecoveryError(
                    f"queue state reserves for job {job_id}, which is "
                    "missing from the job table"
                ) from None
            self._head = (job, int(alloc_id), made)
        refused = state.get("refused") or {}
        self._refused = {int(job_id) for job_id in refused.get("jobs", ())}
        self._refused_gen = refused.get("gen")
        self._refused_at = int(refused.get("at", 0))


def _span_ended(traverser: Traverser, since: int, now: int) -> bool:
    """Has the booked end of a span nothing released yet passed in
    ``(since, now]``?

    Capacity that comes free by the clock alone: SUBMIT sorts before END at
    one instant, so a cycle can run with a finished job's allocation still
    registered although its spans no longer cover ``now``; the outages of a
    :class:`~repro.sched.capacity.CapacitySchedule` end with no event at
    all.
    """
    if now <= since:
        return False
    for alloc in traverser.allocations.values():
        if since < alloc.end <= now:
            return True
    for schedule in traverser.graph.capacity_schedules:
        for outage in schedule.outages.values():
            if since < outage.end <= now:
                return True
    return False


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
