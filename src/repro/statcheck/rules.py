"""The fluxlint rule catalogue.

Each rule enforces one invariant the recovery/resilience layers depend on;
the rationale for every rule lives in docs/static_analysis.md.  Rules are
deliberately conservative: they aim for zero false positives on this
codebase and accept missing exotic violations — a lint that cries wolf gets
suppressed wholesale.

========  ==============================================================
DET001    no wall-clock reads or unseeded RNG (breaks recovery replay)
EXC001    no broad exception handlers that can swallow or starve
          ``SimulatedCrash`` (a ``BaseException``)
FLT001    no ``==``/``!=`` on float-typed times (use repro.epsilon)
JRN001    a method that journals does nothing to its object before
          the journal call
OBS001    instrumentation goes through ``repro.obs``: no raw timer
          reads or hand-rolled stats-dict counters elsewhere
OVL001    the work budget's deadline signal
          (``SchedulingDeadlineExceeded``) is only absorbed by the
          overload machinery itself; everywhere else must re-raise
========  ==============================================================
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from .core import LintRule, register_rule

__all__ = [
    "WallClockRule",
    "ExceptionSwallowRule",
    "FloatTimeEqualityRule",
    "JournalBeforeMutateRule",
    "ObservabilityFunnelRule",
    "OverloadSignalSwallowRule",
]


def _dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


class _ImportTracker:
    """Resolves local names back to the modules/objects they were imported as."""

    def __init__(self, tree: ast.Module) -> None:
        #: local alias -> imported module dotted name ("np" -> "numpy")
        self.modules: Dict[str, str] = {}
        #: local alias -> (module, original name) for from-imports
        self.names: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.names[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )

    def resolve_call(self, func: ast.AST) -> Optional[Tuple[str, str]]:
        """Resolve a call target to ``(module, dotted attr)``.

        ``np.random.seed`` with ``import numpy as np`` resolves to
        ``("numpy", "random.seed")``; ``now()`` after ``from datetime import
        datetime as now``... does not arise — from-imported *names* resolve
        to ``(module, name)`` with any trailing attributes appended.
        """
        parts = _dotted_parts(func)
        if not parts:
            return None
        head, rest = parts[0], parts[1:]
        if head in self.modules:
            return self.modules[head], ".".join(rest)
        if head in self.names:
            module, original = self.names[head]
            return module, ".".join([original] + rest)
        return None


@register_rule
class WallClockRule(LintRule):
    """DET001: recovery replay re-executes journaled commands and must make
    byte-identical decisions; any wall-clock read or unseeded RNG on a
    scheduler code path diverges on replay."""

    rule_id = "DET001"
    summary = "wall-clock read or unseeded RNG breaks deterministic replay"

    _TIME_FNS = {
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "clock",
    }
    _DATETIME_FNS = {
        "datetime.now", "datetime.utcnow", "datetime.today",
        "date.today", "now", "utcnow", "today",
    }
    # random-module attributes that are *safe* to call: seeded-instance
    # construction and non-RNG helpers.
    _RANDOM_SAFE = {"Random", "getstate", "setstate"}
    _NUMPY_GLOBAL_FNS = {
        "random", "rand", "randn", "randint", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "seed", "uniform",
        "normal", "poisson", "exponential", "standard_normal", "bytes",
    }

    def visit_Call(self, node: ast.Call) -> None:
        self._check(node)
        self.generic_visit(node)

    def _check(self, node: ast.Call) -> None:
        tracker = self._tracker()
        resolved = tracker.resolve_call(node.func)
        if resolved is None:
            return
        module, attr = resolved
        if module == "time" and attr in self._TIME_FNS:
            self.report(
                node,
                f"wall-clock read time.{attr}() is not replayable; derive "
                "times from simulator state or suppress for observability-"
                "only metrics",
            )
        elif module == "datetime" and attr in self._DATETIME_FNS:
            self.report(
                node,
                f"wall-clock read datetime {attr}() is not replayable",
            )
        elif module == "random":
            first = attr.split(".")[0]
            if first in self._RANDOM_SAFE:
                if first == "Random" and not (node.args or node.keywords):
                    self.report(
                        node,
                        "random.Random() without a seed is nondeterministic; "
                        "pass an explicit seed",
                    )
            elif "." not in attr:
                self.report(
                    node,
                    f"random.{attr}() uses the unseeded global RNG; use a "
                    "seeded random.Random(seed) instance",
                )
        elif module == "numpy":
            if attr == "random.default_rng" and not (node.args or node.keywords):
                self.report(
                    node,
                    "numpy.random.default_rng() without a seed is "
                    "nondeterministic; pass an explicit seed",
                )
            elif (
                attr.startswith("random.")
                and attr.split(".")[1] in self._NUMPY_GLOBAL_FNS
            ):
                self.report(
                    node,
                    f"numpy.{attr}() uses the unseeded global RNG; use "
                    "numpy.random.default_rng(seed)",
                )

    def _tracker(self) -> _ImportTracker:
        tracker = getattr(self, "_tracker_cache", None)
        if tracker is None:
            tracker = _ImportTracker(self.module.tree)
            self._tracker_cache = tracker
        return tracker


def _handler_catches(handler: ast.ExceptHandler, name: str) -> bool:
    """True when the handler's type spec names ``name`` (directly or in a tuple)."""
    spec = handler.type
    if spec is None:
        return False
    specs = spec.elts if isinstance(spec, ast.Tuple) else [spec]
    for entry in specs:
        if isinstance(entry, ast.Name) and entry.id == name:
            return True
        if isinstance(entry, ast.Attribute) and entry.attr == name:
            return True
    return False


def _has_bare_reraise(handler: ast.ExceptHandler) -> bool:
    """True when the handler body contains a top-level bare ``raise``."""
    return any(
        isinstance(stmt, ast.Raise) and stmt.exc is None
        for stmt in handler.body
    )


def _swallows(handler: ast.ExceptHandler) -> bool:
    """True when the handler body does nothing observable (pass/.../continue)."""
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or bare literal
        if isinstance(stmt, ast.Continue):
            continue
        return False
    return True


@register_rule
class ExceptionSwallowRule(LintRule):
    """EXC001: ``SimulatedCrash`` derives from ``BaseException`` so that
    cleanup written as ``except Exception`` cannot eat it — but handlers
    broad enough to catch it (bare / BaseException) must re-raise, and
    cleanup-then-reraise handlers must catch BaseException or the cleanup
    is silently skipped when the crash fires mid-block."""

    rule_id = "EXC001"
    summary = "broad exception handler can swallow or starve SimulatedCrash"

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        bare = node.type is None
        catches_base = _handler_catches(node, "BaseException")
        catches_exc = _handler_catches(node, "Exception")
        if bare or catches_base:
            if not _has_bare_reraise(node):
                what = "bare except:" if bare else "except BaseException:"
                self.report(
                    node,
                    f"{what} can swallow SimulatedCrash; re-raise with a "
                    "bare `raise` or narrow the handler",
                )
        elif catches_exc:
            if _swallows(node):
                self.report(
                    node,
                    "except Exception: pass silently discards failures "
                    "adjacent to SimulatedCrash; handle or narrow it",
                )
            elif _has_bare_reraise(node) and len(node.body) > 1:
                self.report(
                    node,
                    "cleanup-then-reraise must catch BaseException, not "
                    "Exception: a SimulatedCrash here would skip the cleanup "
                    "and leak partially-applied state",
                )
        self.generic_visit(node)


@register_rule
class FloatTimeEqualityRule(LintRule):
    """FLT001: float-typed times (``sched_time`` and friends are wall-clock
    accumulations) must not be compared with ``==``/``!=`` — rounding makes
    the result platform-dependent.  Use :mod:`repro.epsilon` helpers."""

    rule_id = "FLT001"
    summary = "exact equality on float-typed times; use repro.epsilon"

    #: attribute/variable names known to hold float times in this codebase
    _FLOAT_TIME_NAMES = {
        "sched_time", "total_sched_time", "mttr_observed",
        "mean_wait", "mean_response", "avg_wait",
    }

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if self._is_float_time(left) or self._is_float_time(right):
                self.report(
                    node,
                    "== / != on a float-typed time is not portable; use "
                    "repro.epsilon.approx_eq / approx_zero",
                )
                break
        self.generic_visit(node)

    def _is_float_time(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and type(node.value) is float:
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "float":
                return True
            name = (
                node.func.attr
                if isinstance(node.func, ast.Attribute)
                else getattr(node.func, "id", None)
            )
            return name in self._FLOAT_TIME_NAMES
        if isinstance(node, ast.Attribute):
            return node.attr in self._FLOAT_TIME_NAMES
        if isinstance(node, ast.Name):
            return node.id in self._FLOAT_TIME_NAMES
        return False


@register_rule
class JournalBeforeMutateRule(LintRule):
    """JRN001: write-ahead discipline in every class that journals.

    In any class that defines a journal entry point (:attr:`JOURNAL_CALLS`:
    ``_command``, which journals a command and applies it, or ``_journal``),
    in any file, a method that calls one may do nothing to its object on a
    line before the first such call:

    * no call on ``self`` or ``self.<attr>`` other than the entry points and
      ``_crashpoint``, and no call handed ``self`` or ``self`` state as an
      argument (a callee may mutate, and the rule does not look inside it,
      so a reading helper is refused too);
    * no assignment or deletion through ``self``.

    A crash between such an effect and the append keeps the effect and loses
    the command, and replay diverges.  A method of any journaling class named
    like one of the simulator's command handlers (:attr:`REQUIRED_HANDLERS`)
    must also journal at all.
    """

    rule_id = "JRN001"
    summary = "journaling method acts on its object before the journal call"

    REQUIRED_HANDLERS = {
        "submit", "cancel", "schedule_failure", "schedule_repair",
        "fail", "repair", "reschedule", "step", "inject_corruption",
    }
    #: the methods that journal: defining one makes a class journaling, and
    #: calling one is the journal call
    JOURNAL_CALLS = {"_command", "_journal"}
    #: calls on ``self`` allowed ahead of the journal call
    _EXEMPT = JOURNAL_CALLS | {"_crashpoint"}

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        methods = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if not self.JOURNAL_CALLS & methods.keys():
            self.generic_visit(node)
            return
        for name, method in methods.items():
            if name in self.JOURNAL_CALLS:
                continue
            journal_line = min(
                (
                    sub.lineno
                    for sub in ast.walk(method)
                    if isinstance(sub, ast.Call)
                    and _self_method(sub) in self.JOURNAL_CALLS
                ),
                default=None,
            )
            if journal_line is None:
                if name in self.REQUIRED_HANDLERS:
                    self.report(
                        method,
                        f"command handler {name}() never journals; send the "
                        "command through self._command(...) before mutating "
                        "state",
                    )
                continue
            early = self._first_effect_before(method, journal_line)
            if early is not None:
                where, what = early
                self.report(
                    where,
                    f"{name}() {what} on line {where.lineno} before journaling "
                    f"on line {journal_line}; a crash in between keeps the "
                    "effect and loses the command (write-ahead order)",
                )
        # Class bodies never nest another journaling class here; no
        # generic_visit so nested defs are not double-walked.

    def _first_effect_before(
        self, method: ast.AST, journal_line: int
    ) -> Optional[Tuple[ast.AST, str]]:
        effects = []
        for node in ast.walk(method):
            if getattr(node, "lineno", journal_line) >= journal_line:
                continue
            if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                if _rooted_at_self(node):
                    effects.append((node, f"mutates {ast.unparse(node)}"))
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and _rooted_at_self(func.value):
                    if _self_method(node) not in self._EXEMPT:
                        effects.append((node, f"calls {ast.unparse(func)}()"))
                elif any(_rooted_at_self(arg) for arg in node.args):
                    effects.append(
                        (node, f"calls {ast.unparse(func)}() on self state")
                    )
        return min(
            effects, key=lambda e: (e[0].lineno, e[0].col_offset), default=None
        )


def _rooted_at_self(node: ast.AST) -> bool:
    """``self``, ``self.a``, ``self.a[k].b``, ..."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


def _self_method(node: ast.Call) -> Optional[str]:
    """``meth`` for a ``self.meth(...)`` call, else None."""
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    ):
        return func.attr
    return None


@register_rule
class ObservabilityFunnelRule(LintRule):
    """OBS001: instrumentation must funnel through :mod:`repro.obs`.

    Two patterns used to be scattered across the codebase and are now
    centralized: raw ``time.perf_counter()``-style wall-clock timing (the
    audited shim is :func:`repro.obs.clock.wall_now` / ``WallTimer``) and
    hand-rolled ``stats["key"] += n`` counter dicts (the replacement is a
    :class:`repro.obs.MetricsRegistry` counter).  Scattered instrumentation
    drifts: each site needs its own DET001 audit, and ad-hoc dicts never
    reach trace exports or ``repro.obs report``.
    """

    rule_id = "OBS001"
    summary = "raw timer read or stats-dict counter outside repro.obs"

    #: every ``time`` module entry point that reads a clock
    _TIMER_FNS = {
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
        "thread_time", "thread_time_ns", "clock",
    }

    @classmethod
    def applies_to(cls, path: str) -> bool:
        # repro.obs itself is the one place allowed to touch raw clocks
        # and accumulator internals.
        return "repro/" in path and "repro/obs/" not in path

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._tracker().resolve_call(node.func)
        if resolved is not None:
            module, attr = resolved
            if module == "time" and attr in self._TIMER_FNS:
                self.report(
                    node,
                    f"raw time.{attr}() bypasses the observability layer; "
                    "use repro.obs.wall_now()/WallTimer (audited clock shim) "
                    "or a MetricsRegistry histogram",
                )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Subscript) and self._is_stats_dict(
            target.value
        ):
            self.report(
                node,
                "manual stats-dict increment; register a counter on a "
                "repro.obs MetricsRegistry so it reaches trace exports "
                "and `python -m repro.obs report`",
            )
        self.generic_visit(node)

    def _is_stats_dict(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id == "stats"
        if isinstance(node, ast.Attribute):
            return node.attr == "stats"
        return False

    def _tracker(self) -> _ImportTracker:
        tracker = getattr(self, "_tracker_cache", None)
        if tracker is None:
            tracker = _ImportTracker(self.module.tree)
            self._tracker_cache = tracker
        return tracker


@register_rule
class OverloadSignalSwallowRule(LintRule):
    """OVL001: the work budget's deadline signal is a scheduling
    *decision*, not a failure.
    :class:`~repro.errors.SchedulingDeadlineExceeded` (and its
    :class:`~repro.errors.OverloadError` base) is raised at a budget
    checkpoint so the traverser can end an attempt and the overload
    controller can end a cycle.  A handler elsewhere that catches it and
    does not re-raise lets the walk carry on past its budget: a bounded
    cycle turns back into an unbounded one, and the cut never reaches the
    accounting.  Only the overload package itself (``repro/resilience/``),
    the budget-aware traverser and the simulator dispatch loop may absorb
    it."""

    rule_id = "OVL001"
    summary = "handler swallows an overload-control signal"

    _SIGNALS = ("OverloadError", "SchedulingDeadlineExceeded")
    _ABSORBERS = (
        "repro/resilience/",
        "repro/match/traverser.py",
        "repro/sched/simulator.py",
    )

    @classmethod
    def applies_to(cls, path: str) -> bool:
        normalized = path.replace("\\", "/")
        return not any(part in normalized for part in cls._ABSORBERS)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        for name in self._SIGNALS:
            if _handler_catches(node, name) and not _has_bare_reraise(node):
                self.report(
                    node,
                    f"except {name}: outside the overload machinery must "
                    "re-raise with a bare `raise`; swallowing it here turns "
                    "a bounded scheduling cycle back into an unbounded "
                    "one",
                )
                break
        self.generic_visit(node)
