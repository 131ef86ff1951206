"""fluxflow: interprocedural data-flow analysis for fluxlint.

Layered on the intraprocedural rule engine in :mod:`repro.statcheck.core`:

* :mod:`program` — whole-program model (modules, imports, classes,
  functions, attribute/local type inference);
* :mod:`callgraph` — call-site resolution and qualname edges;
* :mod:`cfg` — per-function control-flow graphs with exception edges;
* :mod:`fixpoint` — worklist solvers for CFG data-flow and summaries;
* :mod:`summaries` — per-parameter release/escape and mutation summaries;
* :mod:`analyses` — the SPAN001 / DET002 / EXC002 / JRN002 rules;
* :mod:`baseline` — accepted-findings gating for CI.
"""

from .analyses import (
    CrashSwallowTaintAnalysis,
    DeterminismTaintAnalysis,
    FlowAnalysis,
    FlowContext,
    FlowEngine,
    JournalHelperAnalysis,
    SpanLeakAnalysis,
    analyze_sources,
)
from .baseline import apply_baseline, load_baseline, save_baseline
from .callgraph import CallGraph, CallSite, build_call_graph
from .cfg import CFG, CFGNode, build_cfg
from .fixpoint import solve_cfg, solve_summaries
from .program import FlowProgram, FunctionInfo, ModuleInfo
from .summaries import FunctionSummary, SummaryTable, compute_summaries

__all__ = [
    "FlowAnalysis",
    "FlowContext",
    "FlowEngine",
    "SpanLeakAnalysis",
    "DeterminismTaintAnalysis",
    "CrashSwallowTaintAnalysis",
    "JournalHelperAnalysis",
    "analyze_sources",
    "apply_baseline",
    "load_baseline",
    "save_baseline",
    "CallGraph",
    "CallSite",
    "build_call_graph",
    "CFG",
    "CFGNode",
    "build_cfg",
    "solve_cfg",
    "solve_summaries",
    "FlowProgram",
    "FunctionInfo",
    "ModuleInfo",
    "FunctionSummary",
    "SummaryTable",
    "compute_summaries",
]
