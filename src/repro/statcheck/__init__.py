"""statcheck: project-specific static analysis (fluxlint) + runtime sanitizer (FluxSan).

Correctness of recovery replay and of the paper's model rests on
whole-codebase invariants:

* **determinism** — no wall-clock reads or unseeded randomness on any code
  path that feeds scheduler state (replay re-executes journaled commands and
  must reproduce identical decisions);
* **journaling** — a method that journals appends its record *before* it
  does anything to its object;
* **span safety** — planner spans are freed exactly once, exclusive holds
  never overlap, and the pruning filters (SDFU) never diverge from the
  allocations that fed them.

Example-based tests cannot enforce these across ~50 modules, so this package
checks them mechanically:

* :mod:`repro.statcheck.core` / :mod:`repro.statcheck.rules` — **fluxlint**,
  an AST lint engine with project-specific rules (DET001, EXC001, FLT001,
  JRN001, OBS001, OVL001), per-line suppression via
  ``# fluxlint: disable=RULE`` and text/JSON reporters.  Run it with
  ``python -m repro.statcheck src/repro``; the tree is held at zero
  findings.
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
from .reporters import render_json, render_text
from .sanitizer import DualRunReport, FluxSan, dual_run

# Importing the rule module populates the one registry in ``core``.
from . import rules as _rules  # noqa: F401  (registration import)

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
    "FluxSan",
    "DualRunReport",
    "dual_run",
]
