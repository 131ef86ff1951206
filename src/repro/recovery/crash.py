"""Crash injection: kill the scheduler at named cut points.

The simulator calls ``self._crashpoint(name)`` at every point where a crash
would leave partially applied state.  A :class:`CrashInjector` attached to a
simulator raises :class:`SimulatedCrash` at the *n*-th hit of a chosen point;
the test harness treats the exception as a process death — the in-memory
simulator is discarded and :func:`repro.recovery.recover` rebuilds a new one
from the snapshot + journal on disk.

``CRASH_POINTS`` lists every named point, grouped by the method that hosts
it (``OverloadController.admit``, ``_cycle``, ``_on_start``, ``_on_end``,
``_kill``).  The ``admit.*`` points are only reached when the simulator runs
with overload protection enabled (``ClusterSimulator(overload=...)``) *and*
a submission actually goes over its queue bound.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["CRASH_POINTS", "SimulatedCrash", "CrashInjector"]

#: every named cut point the simulator exposes, in execution order
CRASH_POINTS = (
    # OverloadController.admit (only hit when overload protection is on)
    "admit.pre",        # rejection decided, nothing applied yet
    "admit.post",       # rejection fully applied
    # ClusterSimulator._cycle
    "cycle.pre",        # before the queue policy places anything
    "cycle.booked",     # allocations booked, start/end events not yet pushed
    "cycle.post",       # cycle fully applied (after the auditor)
    # ClusterSimulator._on_start
    "start.pre",        # reservation due, RUNNING transition not yet applied
    "start.post",       # start fully applied
    # ClusterSimulator._on_end
    "end.pre",          # job due to end, nothing released yet
    "end.released",     # allocations released, job not yet COMPLETED
    "end.post",         # end fully applied (including the follow-up cycle)
    # ClusterSimulator._kill
    "kill.pre",         # kill decided, nothing applied yet
    "kill.canceled",    # victim canceled, retry not yet submitted
    "kill.post",        # kill fully applied
)


class SimulatedCrash(BaseException):
    """The injected scheduler death.

    Derives from ``BaseException`` so ordinary ``except Exception`` cleanup
    in library or test code cannot accidentally swallow the crash — exactly
    like a real ``kill -9`` would not be catchable.
    """

    def __init__(self, point: str, hit: int) -> None:
        super().__init__(f"simulated crash at {point!r} (hit {hit})")
        self.point = point
        self.hit = hit


class CrashInjector:
    """Raise :class:`SimulatedCrash` at the ``nth`` hit of ``point``.

    Parameters
    ----------
    point:
        One of :data:`CRASH_POINTS`.
    nth:
        Which hit triggers the crash (1 = first).  Crash points inside hot
        paths (``cycle.*``) fire many times per run; varying ``nth`` moves
        the cut around the schedule.

    An injector fires at most once (``armed`` drops after raising) so a
    recovered simulator re-attached to the same injector is not re-killed.
    """

    def __init__(self, point: str, nth: int = 1) -> None:
        if point not in CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {point!r}; known: {list(CRASH_POINTS)}"
            )
        if nth < 1:
            raise ValueError(f"nth must be >= 1, got {nth}")
        self.point = point
        self.nth = nth
        self.armed = True
        #: hit counters for every point, for post-mortem inspection
        self.hits: Dict[str, int] = {}

    def attach(self, sim: "ClusterSimulator") -> None:
        """Install this injector on ``sim`` (one injector per simulator)."""
        sim._crash_injector = self

    def hit(self, point: str) -> None:
        """Called by the simulator at each cut point."""
        self.hits[point] = self.hits.get(point, 0) + 1
        if self.armed and point == self.point and self.hits[point] == self.nth:
            self.armed = False
            raise SimulatedCrash(point, self.nth)
