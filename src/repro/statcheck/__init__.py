"""statcheck: project-specific static analysis (fluxlint) + runtime sanitizer (FluxSan).

PRs 1-2 made the scheduler crash-consistent; correctness of recovery replay
rests on three whole-codebase invariants:

* **determinism** — no wall-clock reads or unseeded randomness on any code
  path that feeds scheduler state (replay re-executes journaled commands and
  must reproduce identical decisions);
* **journaling** — every state mutation in a simulator command handler is
  appended to the write-ahead journal *before* it is applied;
* **span safety** — planner spans are freed exactly once, exclusive holds
  never overlap, and the pruning filters (SDFU) never diverge from the
  allocations that fed them.

Example-based tests cannot enforce these across ~50 modules, so this package
checks them mechanically:

* :mod:`repro.statcheck.core` / :mod:`repro.statcheck.rules` — **fluxlint**,
  an AST lint engine with project-specific rules (DET001, EXC001, FLT001,
  MUT001, JRN001, API001), per-line suppression via
  ``# fluxlint: disable=RULE`` and text/JSON reporters.  Run it with
  ``python -m repro.statcheck src/repro``.
* :mod:`repro.statcheck.sanitizer` — **FluxSan**, an opt-in runtime
  sanitizer (``FLUXSAN=1`` or ``ClusterSimulator(..., sanitize=True)``)
  that wraps the Planner/PlannerMulti/graph/traverser hot paths with
  checking proxies: span double-free, the auditor's exclusivity rule per
  booking, SDFU divergence from the one independent reference, and a
  dual-run nondeterminism detector.

See ``docs/static_analysis.md`` for the rule catalogue and suppression
policy.
"""

from __future__ import annotations

from .core import (
    LintEngine,
    LintParseError,
    LintRule,
    SourceModule,
    Violation,
    all_rules,
    lint_paths,
    lint_source,
    register_rule,
)
from .reporters import render_json, render_sarif, render_text
from .sanitizer import DualRunReport, FluxSan, dual_run

# Importing the rule modules populates the one registry in ``core`` as a
# side effect: the AST rules, the interprocedural analyses (SPAN001, DET002,
# EXC002, JRN002) and the profile-guided perf rules (PRF001-PRF004).
from . import rules as _rules  # noqa: F401  (registration import)
from . import hot as _hot  # noqa: F401  (registration import)
from .cache import LintCache
from .flow import FlowEngine, analyze_sources

__all__ = [
    "LintEngine",
    "LintParseError",
    "LintRule",
    "SourceModule",
    "Violation",
    "all_rules",
    "lint_paths",
    "lint_source",
    "register_rule",
    "render_text",
    "render_json",
    "render_sarif",
    "LintCache",
    "FlowEngine",
    "analyze_sources",
    "FluxSan",
    "DualRunReport",
    "dual_run",
]
