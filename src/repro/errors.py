"""Exception hierarchy for the Fluxion reproduction.

All library errors derive from :class:`FluxionError` so callers can catch a
single base class.  Subsystems raise the most specific subclass available.
"""

from __future__ import annotations


class FluxionError(Exception):
    """Base class for all errors raised by this library."""


class PlannerError(FluxionError):
    """Raised on invalid Planner operations (bad span bounds, overcommit, ...)."""


class PlannerInvariantError(PlannerError, AssertionError):
    """Raised when a planner's records contradict each other (its tree, time
    links or span registry): what ``check_invariants`` finds, and a release
    that meets a missing point.  Also an ``AssertionError``, so a caller that
    catches that still sees a broken planner."""


class SpanNotFoundError(PlannerError, KeyError):
    """Raised when a span id is unknown to a Planner."""


class ResourceGraphError(FluxionError):
    """Raised on invalid resource-graph construction or mutation."""


class SubsystemError(ResourceGraphError):
    """Raised when a subsystem name is unknown or inconsistent."""


class RecipeError(FluxionError):
    """Raised when a GRUG-style generation recipe is malformed."""


class JobspecError(FluxionError):
    """Raised when a canonical jobspec cannot be parsed or validated."""


class MatchError(FluxionError):
    """Raised on traverser/matching failures that are programming errors.

    An *unsatisfiable* request is not an error — the traverser reports that
    through its return value — but a malformed request or an inconsistent
    internal state is.
    """


class AllocationNotFoundError(MatchError, KeyError):
    """Raised when an allocation id is unknown to the traverser."""


class SchedulerError(FluxionError):
    """Raised on invalid scheduler/queue operations."""


class JobError(SchedulerError):
    """Raised on invalid job state transitions."""


class OverloadError(SchedulerError):
    """Base class for overload-protection control flow (repro.resilience).

    Subclasses are *control-flow signals*, not defects: the work budget
    raises them and the traverser and overload controller catch them to
    bound work under pressure.  Code outside the overload machinery must
    never swallow them (lint rule OVL001 enforces this) — a silently
    absorbed signal turns a bounded cycle back into an unbounded one.
    """


class SchedulingDeadlineExceeded(OverloadError):
    """Raised at a cooperative cancellation checkpoint when a scheduling
    work budget is exhausted.

    ``scope`` is ``"attempt"`` (one match attempt overran; the traverser
    converts it into a no-match verdict) or ``"cycle"`` (the whole dispatch
    cycle overran; the overload controller ends the cycle early).  ``spent``
    and ``limit`` are deterministic work units (graph visits + reserve
    iterations), never wall-clock.
    """

    def __init__(self, scope: str, spent: int, limit: int) -> None:
        super().__init__(
            f"scheduling {scope} budget exceeded: {spent} work units "
            f"spent, limit {limit}"
        )
        self.scope = scope
        self.spent = spent
        self.limit = limit


class SanitizerError(FluxionError):
    """Raised by the FluxSan runtime sanitizer on a detected invariant
    violation: span double-free, overlapping exclusive holds, pruning-filter
    (SDFU) divergence, or a nondeterministic dual run.

    The message always carries a usable report: what diverged, where it was
    first touched, and which check fired.
    """


class RecoveryError(FluxionError):
    """Raised when crash-consistent state cannot be saved or restored."""


class SnapshotError(RecoveryError):
    """Raised when a snapshot document is missing, corrupt or inconsistent."""


class JournalError(RecoveryError):
    """Raised on invalid write-ahead-journal operations."""


class JournalCorruptError(JournalError):
    """Raised when the journal is corrupt beyond its torn tail.

    A truncated or CRC-failing *trailing* record is a torn write and is
    silently dropped during recovery; corruption *followed by further valid
    records* means the journal body itself is damaged and recovery must not
    guess."""


class IntegrityError(RecoveryError):
    """Raised by the fluxfsck integrity layer (repro.recovery.integrity).

    Signals live-state corruption that could not be contained: a vertex the
    repair engine could not bring back to a verified-clean state, or an
    integrity scan requested against state the scrubber cannot reason about
    (e.g. an unattached monitor).  Detected-and-repaired drift never raises —
    it is quarantined, repaired, and accounted in ``integrity.*`` counters.
    """
