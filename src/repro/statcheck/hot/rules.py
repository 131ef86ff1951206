"""fluxhot PRF rules: perf anti-patterns, checked only where the profile
says they matter.

========  ==============================================================
PRF001    per-iteration allocation in a hot loop: list/dict/set/tuple
          construction, comprehensions, or string concatenation inside
          a loop of a hot function
PRF002    repeated attribute/global lookups inside a hot loop that
          should be hoisted to locals before the loop
PRF003    hot class with no ``__slots__``: every instance built on the
          hot path allocates an attribute dict
PRF004    accidental O(n) scan on a hot path: membership tests against
          lists, ``list.index``, or re-sorting inside a loop
========  ==============================================================

Each finding carries the fluxflow hot-caller chain (how the profiled root
reaches the offending function) and the function's share of workload time.
Findings report through the standard :class:`Violation` records, honour
``# fluxlint: disable=`` suppressions, and gate through the same baseline
files as every other rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple, Type

from ..core import Violation, register_rule, resolve_rules
from ..flow.callgraph import CallGraph, build_call_graph, walk_own
from ..flow.program import FlowProgram, FunctionInfo, ModuleInfo
from .model import HOT_THRESHOLD, HotModel, load_hotspots

__all__ = [
    "PerfContext",
    "PerfRule",
    "PerfEngine",
    "render_hot_report",
]

#: lookups per iteration before PRF002 calls it worth hoisting
_LOOKUP_THRESHOLD = 3


@dataclass
class PerfContext:
    """Everything a PRF rule needs: program, call graph, hotness model."""

    program: FlowProgram
    graph: CallGraph
    model: HotModel

    def hot_suffix(self, qualname: str) -> str:
        """The per-finding diagnostic tail: share of time + caller chain."""
        score = self.model.score(qualname)
        return (
            f" [{score * 100:.1f}% of workload; "
            f"hot path: {self.model.chain_text(qualname)}]"
        )


class PerfRule:
    """Base class for profile-guided perf rules (one instance per run)."""

    rule_id: str = ""
    summary: str = ""
    kind: str = "perf"

    def __init__(self) -> None:
        self.violations: List[Violation] = []

    def run(self, ctx: PerfContext) -> List[Violation]:
        """Default driver: visit every hot function, hottest first."""
        for info in ctx.model.hot_functions():
            fn = ctx.program.functions.get(info.qualname)
            if fn is not None:
                self.check_function(fn, ctx)
        return self.violations

    def check_function(self, fn: FunctionInfo, ctx: PerfContext) -> None:
        raise NotImplementedError

    def report(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> None:
        line = getattr(node, "lineno", 0)
        if not module.source_module.is_suppressed(self.rule_id, line):
            self.violations.append(
                Violation(
                    module.path,
                    line,
                    getattr(node, "col_offset", 0),
                    self.rule_id,
                    message,
                )
            )


# ---------------------------------------------------------------------------
# loop helpers
# ---------------------------------------------------------------------------


def _own_loops(fn: FunctionInfo) -> List[ast.AST]:
    """Every for/while loop in the function's own body (nested defs skipped)."""
    return [
        node
        for node in walk_own(fn.node)
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While))
    ]


def _loop_body_nodes(loop: ast.AST) -> Iterable[ast.AST]:
    """Nodes executed per iteration: the loop body and else, excluding
    nested function/class definitions."""
    stack: List[ast.AST] = list(loop.body) + list(loop.orelse)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _dotted_chain(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` for an Attribute chain rooted at a Name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return ".".join(parts)
    return None


# ---------------------------------------------------------------------------
# PRF001 — per-iteration allocation in hot loops
# ---------------------------------------------------------------------------


@register_rule
class HotLoopAllocationRule(PerfRule):
    """PRF001: the match/planner hot path visits tens of thousands of
    vertices per dispatch; a container built per visit is a constant
    factor the paper's §6 scaling results cannot afford."""

    rule_id = "PRF001"
    summary = "container allocated on every iteration of a hot loop"

    _CTORS = ("list", "dict", "set", "tuple", "frozenset")
    _COMP_NAMES = {
        ast.ListComp: "list comprehension",
        ast.SetComp: "set comprehension",
        ast.DictComp: "dict comprehension",
    }

    def check_function(self, fn: FunctionInfo, ctx: PerfContext) -> None:
        suffix = ctx.hot_suffix(fn.qualname)
        for loop in _own_loops(fn):
            for node in _loop_body_nodes(loop):
                what = self._allocation(node)
                if what is not None:
                    self.report(
                        fn.module,
                        node,
                        f"{what} allocated on every iteration of the loop "
                        f"on line {loop.lineno} in {fn.name}(); build it "
                        "once outside the loop or restructure to avoid the "
                        f"per-cycle allocation{suffix}",
                    )

    def _allocation(self, node: ast.AST) -> Optional[str]:
        kind = self._COMP_NAMES.get(type(node))
        if kind is not None:
            return f"a {kind} is"
        if isinstance(node, (ast.List, ast.Set)) and node.elts:
            return f"a {type(node).__name__.lower()} literal is"
        if isinstance(node, ast.Dict) and node.keys:
            return "a dict literal is"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._CTORS
        ):
            return f"{node.func.id}() is"
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            if self._is_stringy(node.value):
                return "a string concatenation result is"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            if self._is_stringy(node.left) or self._is_stringy(node.right):
                return "a string concatenation result is"
        return None

    @staticmethod
    def _is_stringy(node: ast.AST) -> bool:
        return isinstance(node, ast.JoinedStr) or (
            isinstance(node, ast.Constant) and isinstance(node.value, str)
        )


# ---------------------------------------------------------------------------
# PRF002 — repeated lookups in hot loops
# ---------------------------------------------------------------------------


@register_rule
class HotLoopLookupRule(PerfRule):
    """PRF002: every ``self.x.y`` inside a loop re-runs the descriptor
    machinery per iteration; a local binding before the loop is the
    classic CPython hoist."""

    rule_id = "PRF002"
    summary = "repeated attribute/global lookup in a hot loop; hoist to a local"

    def check_function(self, fn: FunctionInfo, ctx: PerfContext) -> None:
        suffix = ctx.hot_suffix(fn.qualname)
        for loop in _own_loops(fn):
            body = list(_loop_body_nodes(loop))
            # a ``for`` target is rebound per iteration like any assignment
            target = getattr(loop, "target", None)
            rebound = self._names_rebound(
                body + (list(ast.walk(target)) if target is not None else [])
            )
            chain_counts: Dict[str, Tuple[int, ast.AST]] = {}
            global_counts: Dict[str, Tuple[int, ast.AST]] = {}
            for node in body:
                if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
                    chain = _dotted_chain(node)
                    if chain is None or chain.split(".", 1)[0] in rebound:
                        continue
                    count, first = chain_counts.get(chain, (0, node))
                    chain_counts[chain] = (count + 1, first)
                elif isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Load
                ):
                    if node.id in rebound or not self._is_module_global(
                        fn.module, node.id
                    ):
                        continue
                    count, first = global_counts.get(node.id, (0, node))
                    global_counts[node.id] = (count + 1, first)
            self._report_best(
                fn, loop, chain_counts, "attribute chain", suffix
            )
            self._report_best(
                fn, loop, global_counts, "module-global name", suffix
            )

    def _report_best(
        self,
        fn: FunctionInfo,
        loop: ast.AST,
        counts: Dict[str, Tuple[int, ast.AST]],
        kind: str,
        suffix: str,
    ) -> None:
        best = None
        for chain, (count, node) in counts.items():
            if count < _LOOKUP_THRESHOLD:
                continue
            key = (-count, chain)
            if best is None or key < best[0]:
                best = (key, chain, count, node)
        if best is not None:
            _, chain, count, node = best
            self.report(
                fn.module,
                node,
                f"{kind} '{chain}' is looked up {count} times per "
                f"iteration of the loop on line {loop.lineno} in "
                f"{fn.name}(); bind it to a local before the loop{suffix}",
            )

    @staticmethod
    def _names_rebound(body: List[ast.AST]) -> Set[str]:
        return {
            node.id
            for node in body
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, (ast.Store, ast.Del))
        }

    @staticmethod
    def _is_module_global(module: ModuleInfo, name: str) -> bool:
        return (
            name in module.functions
            or name in module.classes
            or name in module.import_names
            or name in module.import_modules
        )


# ---------------------------------------------------------------------------
# PRF003 — hot classes without __slots__
# ---------------------------------------------------------------------------


@register_rule
class HotClassSlotsRule(PerfRule):
    """PRF003: vertex/edge/span/candidate objects are built per visit on
    the hot path; without ``__slots__`` each instance also allocates an
    attribute dict."""

    rule_id = "PRF003"
    summary = "hot class has no __slots__ (per-instance dict on the hot path)"

    def run(self, ctx: PerfContext) -> List[Violation]:
        constructed = self._hot_constructions(ctx)
        for qualname in sorted(ctx.program.classes):
            ci = ctx.program.classes[qualname]
            hot_method = next(
                (
                    m.qualname
                    for m in ci.methods.values()
                    if ctx.model.is_hot(m.qualname)
                ),
                None,
            )
            hot_site = constructed.get(qualname)
            if hot_method is None and hot_site is None:
                continue
            if self._has_slots(ci.node) or not self._bases_slotted(ctx, ci):
                continue
            witness = hot_method or hot_site
            self.report(
                ci.module,
                ci.node,
                f"hot class '{ci.name}' has no __slots__: instances are "
                "built on the hot path and each allocates an attribute "
                f"dict{ctx.hot_suffix(witness)}",
            )
        return self.violations

    @staticmethod
    def _hot_constructions(ctx: PerfContext) -> Dict[str, str]:
        """Class qualname -> hot function that constructs it."""
        out: Dict[str, str] = {}
        for info in ctx.model.hot_functions():
            fn = ctx.program.functions.get(info.qualname)
            if fn is None:
                continue
            for site in ctx.graph.sites_in(fn):
                if site.constructed is not None:
                    out.setdefault(site.constructed.qualname, info.qualname)
        return out

    @staticmethod
    def _has_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        return False

    def _bases_slotted(self, ctx: PerfContext, ci) -> bool:
        """Only flag when every resolvable project base already has
        ``__slots__`` (adding slots under a dict-carrying base is useless);
        unresolvable (external) bases disqualify the class entirely."""
        for base in ci.base_exprs:
            resolved = ctx.program.resolve_expr(ci.module, base)
            if resolved is None or not hasattr(resolved, "node"):
                return False
            if not isinstance(resolved.node, ast.ClassDef):
                return False
            if not self._has_slots(resolved.node) and not _is_dataclass_node(
                resolved.node
            ):
                return False
        return True


def _is_dataclass_node(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        chain = _dotted_chain(target)
        if chain is not None and chain.split(".")[-1] == "dataclass":
            return True
    return False


# ---------------------------------------------------------------------------
# PRF004 — accidental O(n) scans in hot paths
# ---------------------------------------------------------------------------


@register_rule
class HotLinearScanRule(PerfRule):
    """PRF004: an ``in list`` or ``list.index`` buried in a hot function
    turns an O(log N) dispatch into O(N); the chain shows how the hot
    caller reaches it."""

    rule_id = "PRF004"
    summary = "O(n) list scan or per-call re-sort on a hot path"

    def check_function(self, fn: FunctionInfo, ctx: PerfContext) -> None:
        suffix = ctx.hot_suffix(fn.qualname)
        list_locals = self._list_locals(fn)
        loop_nodes = {
            id(node)
            for loop in _own_loops(fn)
            for node in _loop_body_nodes(loop)
        }
        for node in walk_own(fn.node):
            if isinstance(node, ast.Compare):
                self._check_membership(fn, node, list_locals, suffix)
            elif isinstance(node, ast.Call):
                self._check_call(fn, node, list_locals, loop_nodes, suffix)

    def _check_membership(
        self,
        fn: FunctionInfo,
        node: ast.Compare,
        list_locals: Set[str],
        suffix: str,
    ) -> None:
        for op, comparator in zip(node.ops, node.comparators):
            if not isinstance(op, (ast.In, ast.NotIn)):
                continue
            if self._is_listy(comparator, list_locals):
                self.report(
                    fn.module,
                    node,
                    f"membership test against a list in {fn.name}() is an "
                    "O(n) scan per call; use a set or dict for hot-path "
                    f"membership{suffix}",
                )

    def _check_call(
        self,
        fn: FunctionInfo,
        node: ast.Call,
        list_locals: Set[str],
        loop_nodes: Set[int],
        suffix: str,
    ) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "index":
            if self._is_listy(func.value, list_locals):
                self.report(
                    fn.module,
                    node,
                    f"list.index() in {fn.name}() is an O(n) scan per "
                    f"call; keep a position map instead{suffix}",
                )
        elif id(node) in loop_nodes:
            if isinstance(func, ast.Name) and func.id == "sorted":
                self.report(
                    fn.module,
                    node,
                    f"sorted() runs on every iteration of a loop in "
                    f"{fn.name}(); sort once outside the loop or maintain "
                    f"sorted order incrementally{suffix}",
                )
            elif isinstance(func, ast.Attribute) and func.attr == "sort":
                self.report(
                    fn.module,
                    node,
                    f".sort() runs on every iteration of a loop in "
                    f"{fn.name}(); sort once outside the loop or maintain "
                    f"sorted order incrementally{suffix}",
                )

    @staticmethod
    def _is_listy(node: ast.AST, list_locals: Set[str]) -> bool:
        if isinstance(node, (ast.List, ast.ListComp)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "list"
        ):
            return True
        return isinstance(node, ast.Name) and node.id in list_locals

    @staticmethod
    def _list_locals(fn: FunctionInfo) -> Set[str]:
        """Locals assigned a list literal/comprehension/list() call."""
        out: Set[str] = set()
        for stmt in walk_own(fn.node):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if isinstance(target, ast.Name) and HotLinearScanRule._is_listy(
                stmt.value, set()
            ):
                out.add(target.id)
        return out


# ---------------------------------------------------------------------------
# engine + ranked report
# ---------------------------------------------------------------------------


class PerfEngine:
    """Runs a selected set of PRF rules over a whole program + manifest."""

    def __init__(
        self,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
    ) -> None:
        self.rules: List[Type[PerfRule]] = resolve_rules("perf", select, ignore)

    def analyze_program(
        self,
        program: FlowProgram,
        manifest: dict,
        threshold: float = HOT_THRESHOLD,
    ) -> Tuple[List[Violation], HotModel]:
        graph = build_call_graph(program)
        model = HotModel.build(program, graph, manifest, threshold)
        ctx = PerfContext(program=program, graph=graph, model=model)
        violations: List[Violation] = []
        for rule_cls in self.rules:
            violations.extend(rule_cls().run(ctx))
        return sorted(set(violations)), model

    def analyze_paths(
        self,
        paths,
        manifest_path: str,
        threshold: float = HOT_THRESHOLD,
    ) -> Tuple[List[Violation], HotModel]:
        program = FlowProgram.from_paths(paths)
        manifest = load_hotspots(manifest_path)
        return self.analyze_program(program, manifest, threshold)


def render_hot_report(model: HotModel) -> str:
    """The ranked hot-path worklist (the ``--hot-report`` CI artifact)."""
    lines = [
        f"fluxhot ranked hot-path report — workload: "
        f"{model.workload or 'unknown'}, total {model.total_s:.3f}s, "
        f"hot threshold {model.threshold * 100:.1f}%",
        "",
        f"{'rank':>4}  {'share':>6}  {'cum_s':>8}  {'self_s':>8}  "
        f"{'calls':>9}  function",
    ]
    for rank, info in enumerate(model.hot_functions(), start=1):
        origin = "" if info.measured else "  (inherited)"
        lines.append(
            f"{rank:>4}  {info.score * 100:>5.1f}%  {info.cum_s:>8.4f}  "
            f"{info.self_s:>8.4f}  {info.calls:>9}  {info.qualname}{origin}"
        )
        chain = model.chain_text(info.qualname)
        if chain != info.qualname:
            lines.append(f"{'':>4}  {'':>6}  via {chain}")
    if len(lines) == 3:
        lines.append("(no hot functions above the threshold)")
    return "\n".join(lines)
