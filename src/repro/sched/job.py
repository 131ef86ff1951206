"""Job lifecycle records for the scheduling framework."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import JobError
from ..jobspec import Jobspec
from ..match import Allocation

__all__ = ["Job", "JobState", "CancelReason"]


class JobState(enum.Enum):
    """Lifecycle: PENDING -> (RESERVED ->) RUNNING -> COMPLETED | CANCELED."""

    PENDING = "pending"
    RESERVED = "reserved"
    RUNNING = "running"
    COMPLETED = "completed"
    CANCELED = "canceled"


class CancelReason(enum.Enum):
    """Why a job ended up CANCELED.

    A single terminal state covers very different fates — a request the
    machine can never satisfy, an operator's cancel, a hardware failure
    under the job, or the job overrunning its requested walltime — and
    reports must not conflate them.
    """

    UNSATISFIABLE = "unsatisfiable"
    USER = "user"
    NODE_FAILURE = "node-failure"
    WALLTIME = "walltime"
    #: refused by admission control at submission (queue depth bound)
    ADMISSION = "admission-reject"


_TRANSITIONS = {
    JobState.PENDING: {JobState.RESERVED, JobState.RUNNING, JobState.CANCELED},
    JobState.RESERVED: {JobState.RUNNING, JobState.PENDING, JobState.CANCELED},
    JobState.RUNNING: {JobState.COMPLETED, JobState.CANCELED},
    JobState.COMPLETED: set(),
    JobState.CANCELED: set(),
}


@dataclass
class Job:
    """One job moving through the scheduler.

    A job may hold several allocations when grown elastically (§5.5); the
    first is the primary one whose window defines start/end.  ``priority``
    orders the queue (higher first; ties by submission order).

    The requested walltime is ``jobspec.duration`` — what the scheduler books.
    ``actual_duration`` is how much work the job really needs: shorter jobs
    complete early, longer ones are killed at the walltime limit (and may be
    retried with the remaining work when checkpointing is configured).
    """

    job_id: int
    jobspec: Jobspec
    submit_time: int = 0
    name: str = ""
    priority: int = 0
    state: JobState = JobState.PENDING
    allocations: List[Allocation] = field(default_factory=list)
    #: wall-clock seconds the scheduler spent matching this job (Fig 7b metric)
    sched_time: float = 0.0
    #: true work requirement in ticks (None: exactly the requested walltime)
    actual_duration: Optional[int] = None
    #: why the job was canceled (None while not CANCELED)
    cancel_reason: Optional[CancelReason] = None
    #: retry generation: 0 for an original submission, +1 per resubmission
    attempt: int = 0
    #: job_id of the original submission this job retries (None if original)
    retry_of: Optional[int] = None
    #: checkpointed work carried over from killed prior attempts
    work_credited: int = 0
    #: ticks this job actually occupied resources (across kills/completion)
    ran_seconds: int = 0
    #: simulation time the job stopped running (completed or killed)
    finished_at: Optional[int] = None

    @property
    def allocation(self) -> Optional[Allocation]:
        """The primary allocation (None while pending)."""
        return self.allocations[0] if self.allocations else None

    @property
    def start_time(self) -> Optional[int]:
        alloc = self.allocation
        return None if alloc is None else alloc.at

    @property
    def end_time(self) -> Optional[int]:
        alloc = self.allocation
        return None if alloc is None else alloc.end

    @property
    def wait_time(self) -> Optional[int]:
        """Ticks between submission and (planned) start."""
        start = self.start_time
        return None if start is None else start - self.submit_time

    @property
    def walltime(self) -> int:
        """Requested walltime: the window length the scheduler books."""
        return self.jobspec.duration

    @property
    def work_required(self) -> int:
        """Work remaining for this attempt (defaults to the walltime)."""
        return self.walltime if self.actual_duration is None else self.actual_duration

    @property
    def overruns(self) -> bool:
        """True when the job needs more work than its walltime allows."""
        return self.work_required > self.walltime

    def transition(self, new_state: JobState) -> None:
        """Move to ``new_state``, enforcing the lifecycle state machine."""
        if new_state not in _TRANSITIONS[self.state]:
            raise JobError(
                f"job {self.job_id}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    @property
    def is_active(self) -> bool:
        """True while the job still holds or may acquire resources."""
        return self.state in (JobState.PENDING, JobState.RESERVED, JobState.RUNNING)

    # ------------------------------------------------------------------
    # snapshot records (crash recovery)
    # ------------------------------------------------------------------
    def to_record(self) -> dict:
        """Serialise this job for a scheduler snapshot.

        Allocations are recorded by id only — the snapshot layer serialises
        them once through the traverser and rewires references on restore.
        """
        return {
            "job_id": self.job_id,
            "jobspec": self.jobspec.to_dict(),
            "submit_time": self.submit_time,
            "name": self.name,
            "priority": self.priority,
            "state": self.state.value,
            "alloc_ids": [a.alloc_id for a in self.allocations],
            "sched_time": self.sched_time,
            "actual_duration": self.actual_duration,
            "cancel_reason": (
                None if self.cancel_reason is None else self.cancel_reason.value
            ),
            "attempt": self.attempt,
            "retry_of": self.retry_of,
            "work_credited": self.work_credited,
            "ran_seconds": self.ran_seconds,
            "finished_at": self.finished_at,
        }

    @classmethod
    def from_record(cls, record: dict, allocations: dict) -> "Job":
        """Rebuild a job from :meth:`to_record` output.

        ``allocations`` maps alloc id -> restored Allocation; ids a job
        references must already be present there.
        """
        from ..jobspec import parse_jobspec

        reason = record.get("cancel_reason")
        job = cls(
            job_id=int(record["job_id"]),
            jobspec=parse_jobspec(record["jobspec"]),
            submit_time=int(record["submit_time"]),
            name=record.get("name", ""),
            priority=int(record.get("priority", 0)),
            state=JobState(record["state"]),
            allocations=[allocations[int(i)] for i in record["alloc_ids"]],
            sched_time=float(record.get("sched_time", 0.0)),
            actual_duration=record.get("actual_duration"),
            cancel_reason=None if reason is None else CancelReason(reason),
            attempt=int(record.get("attempt", 0)),
            retry_of=record.get("retry_of"),
            work_credited=int(record.get("work_credited", 0)),
            ran_seconds=int(record.get("ran_seconds", 0)),
            finished_at=record.get("finished_at"),
        )
        return job

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        window = ""
        if self.allocation:
            window = f" [{self.start_time},{self.end_time})"
        return f"Job(#{self.job_id} {self.state.value}{window})"
