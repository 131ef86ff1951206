"""Resilience layer: stochastic faults, retries, and state auditing.

Production resource managers live with hardware that fails under running
jobs (Milroy et al., arXiv:2109.03739 treat resources as continuously
appearing and disappearing).  This package supplies the pieces the
simulator needs to model that credibly:

``repro.resilience.faults``
    :class:`FaultModel` / :class:`FaultInjector` — seeded MTBF/MTTR
    distributions (exponential or Weibull) per resource type, or explicit
    failure traces, converted into first-class failure/repair events on the
    simulator's heap.
``repro.resilience.retry``
    :class:`RetryPolicy` — bounded retries with exponential backoff,
    jitter, optional priority boost and checkpoint-aware work crediting.
``repro.resilience.auditor``
    :class:`InvariantAuditor` / :class:`InvariantViolation` — cross-checks
    traverser allocations against planner span accounting, graph
    exclusivity and job states after every scheduling cycle, turning
    silent state corruption into loud, structured failures.
``repro.resilience.overload``
    :class:`OverloadConfig` / :class:`OverloadController` — a bounded
    queue depth (submissions over it are rejected) and deterministic
    scheduling-work deadlines with cooperative cancellation
    (:class:`WorkBudget`).
``repro.resilience.chaos``
    :class:`CampaignSpec` / :func:`run_campaign` / :func:`shrink_campaign`
    — seeded chaos campaigns composing submission bursts, fault storms and
    crash injection, audited every cycle, with greedy shrinking of failing
    campaigns to a minimal reproducer.
"""

from .auditor import InvariantAuditor, InvariantViolation, Violation
from .chaos import CampaignResult, CampaignSpec, run_campaign, shrink_campaign
from .faults import FaultEvent, FaultInjector, FaultModel, install_trace
from .overload import OverloadConfig, OverloadController, WorkBudget
from .retry import RetryPolicy

__all__ = [
    "CampaignResult",
    "CampaignSpec",
    "FaultEvent",
    "FaultInjector",
    "FaultModel",
    "InvariantAuditor",
    "InvariantViolation",
    "OverloadConfig",
    "OverloadController",
    "RetryPolicy",
    "Violation",
    "WorkBudget",
    "install_trace",
    "run_campaign",
    "shrink_campaign",
]
