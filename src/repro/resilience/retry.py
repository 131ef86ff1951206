"""Retry policies for failure- and walltime-killed jobs.

A :class:`RetryPolicy` attached to a
:class:`~repro.sched.simulator.ClusterSimulator` replaces the historical
hardcoded immediate resubmit: killed jobs come back after an exponential
backoff with seeded jitter, up to a bounded number of attempts, optionally
with a priority boost (so storm victims do not starve behind the queue) and
checkpoint-aware work crediting (retries resume with the remaining work
instead of restarting from zero).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..errors import SchedulerError
from ..settings import Settings

__all__ = ["RetryPolicy"]


@dataclass
class RetryPolicy(Settings):
    """How killed jobs are resubmitted.

    Parameters
    ----------
    max_retries:
        Total resubmissions allowed per original job (its retry budget).
    backoff_base:
        Delay in ticks before the first retry.
    backoff_factor:
        Multiplier applied per subsequent attempt (exponential backoff).
    backoff_cap:
        Upper bound on the computed delay, pre-jitter.
    jitter:
        Fractional spread: the delay is scaled by a seeded uniform draw
        from ``[1 - jitter, 1 + jitter]`` to de-synchronise retry storms.
    priority_boost:
        Added to the job's priority on each resubmission.
    checkpoint_period:
        Checkpoint cadence in ticks; a killed job is credited with the work
        of its last completed checkpoint and retried with the remainder.
        ``None`` (default) restarts attempts from zero.
    seed:
        Seed for the jitter stream (determinism across runs).
    """

    max_retries: int = 3
    backoff_base: int = 30
    backoff_factor: float = 2.0
    backoff_cap: int = 3600
    jitter: float = 0.1
    priority_boost: int = 0
    checkpoint_period: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise SchedulerError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise SchedulerError("backoff_base/backoff_cap must be >= 0")
        if self.backoff_factor < 1.0:
            raise SchedulerError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise SchedulerError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.checkpoint_period is not None and self.checkpoint_period < 1:
            raise SchedulerError(
                f"checkpoint_period must be >= 1, got {self.checkpoint_period}"
            )
        self._rng = random.Random(self.seed)

    def should_retry(self, attempt: int) -> bool:
        """May a job on retry generation ``attempt`` be resubmitted again?"""
        return attempt < self.max_retries

    def delay(self, attempt: int) -> int:
        """Backoff before the resubmission of generation ``attempt``."""
        raw = min(
            self.backoff_cap, self.backoff_base * self.backoff_factor ** attempt
        )
        if self.jitter:
            raw *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return max(0, int(round(raw)))

    def export_state(self) -> list:
        """Where the jitter stream stands, JSON-able (snapshots)."""
        version, internal, gauss = self._rng.getstate()
        return [version, list(internal), gauss]

    def import_state(self, state: list) -> None:
        """Restore :meth:`export_state` output."""
        version, internal, gauss = state
        self._rng.setstate((version, tuple(internal), gauss))
