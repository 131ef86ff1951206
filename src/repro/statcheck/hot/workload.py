"""Profile the scale workload and emit ``statcheck-hotspots.json``.

``python -m repro.statcheck hotprofile`` runs the same workload as
``benchmarks/test_bench_scale.py`` (fill a Med-LOD system with the §6.1
jobspec, core pruning on) under :mod:`cProfile`, maps the measured frames
back to fluxflow qualnames, and writes the manifest the ``--perf`` mode
consumes.  Checked in so CI and reviewers share one hotness ranking; the
manifest is a ranking input, not a benchmark — absolute times vary by host
but the *shape* (which functions dominate) is stable.
"""

from __future__ import annotations

import cProfile
import io
import json
import os
import pstats
import time
from typing import Dict, List, Optional, Tuple

from ..flow.program import FlowProgram, FunctionInfo, ModuleInfo
from .model import DEFAULT_MANIFEST, HOTSPOTS_VERSION

__all__ = ["run_scale_workload", "run_hotprofile"]

#: drop manifest entries whose cumulative share of total time is below this
RECORD_CUTOFF = 0.005

#: tolerance (lines) between a frame's co_firstlineno and the matched
#: ``def`` line — decorated functions report the decorator's line
_DEF_LINE_SLACK = 10


def run_scale_workload(racks: int = 4, nodes_per_rack: int = 16) -> dict:
    """The ``test_bench_scale`` fill: Med LOD, core pruning, §6.1 jobspec.

    Mirrors ``benchmarks/harness.fig6a_run_one("med", True, ...)`` so the
    profile ranks exactly the code path the scale benchmarks time.
    """
    from ...grug import build_lod
    from ...jobspec import simple_node_jobspec
    from ...match import Traverser

    graph = build_lod(
        "med",
        racks=racks,
        nodes_per_rack=nodes_per_rack,
        prune_types=("core",),
    )
    traverser = Traverser(graph, policy="first", prune=True)
    jobspec = simple_node_jobspec(cores=10, memory=8, ssds=1, duration=10_000)
    jobs = 0
    while traverser.allocate(jobspec, at=0) is not None:
        jobs += 1
    visits = traverser.metrics.counter("dfu.visits").value
    return {"jobs": jobs, "visits": visits}


def run_hotprofile(
    output_path: str = DEFAULT_MANIFEST,
    racks: int = 4,
    nodes_per_rack: int = 16,
    cutoff: float = RECORD_CUTOFF,
) -> dict:
    """Profile the scale workload and write the hotspot manifest.

    Returns the manifest document (also written to ``output_path``).
    """
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    repro_dir = os.path.join(src_root, "repro")

    profiler = cProfile.Profile()
    # Wall-clock is the measurement here, not simulator state:
    t0 = time.perf_counter()  # fluxlint: disable=DET001,OBS001
    profiler.enable()
    meta = run_scale_workload(racks=racks, nodes_per_rack=nodes_per_rack)
    profiler.disable()
    total_s = time.perf_counter() - t0  # fluxlint: disable=DET001,OBS001

    stats = pstats.Stats(profiler, stream=io.StringIO())
    program = FlowProgram.from_paths([repro_dir])
    entries = _map_frames(stats, program, src_root)

    functions = [
        entry
        for entry in entries
        if entry["cum_s"] >= cutoff * total_s
    ]
    functions.sort(key=lambda e: (-e["cum_s"], e["qualname"]))

    document = {
        "version": HOTSPOTS_VERSION,
        "workload": (
            f"test_bench_scale fill: med LOD, prune, "
            f"{racks}x{nodes_per_rack} = {racks * nodes_per_rack} nodes, "
            f"{meta['jobs']} jobs, {meta['visits']} visits"
        ),
        "total_s": round(total_s, 6),
        "functions": functions,
    }
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return document


def _map_frames(
    stats: pstats.Stats, program: FlowProgram, src_root: str
) -> List[dict]:
    """pstats rows ``(filename, lineno, funcname)`` -> qualname entries.

    Frames outside the analyzed tree (stdlib, builtins) are dropped; frames
    mapping to the same qualname (e.g. a function and a nested lambda)
    accumulate.
    """
    by_path: Dict[str, ModuleInfo] = {}
    for path, info in program.modules_by_path.items():
        by_path[os.path.abspath(path).replace(os.sep, "/")] = info

    merged: Dict[str, dict] = {}
    for (filename, lineno, funcname), row in stats.stats.items():
        calls, _primitive, self_t, cum_t = row[0], row[1], row[2], row[3]
        if not filename or filename.startswith("<"):
            continue
        info = by_path.get(os.path.abspath(filename).replace(os.sep, "/"))
        if info is None:
            continue
        fn = _match_function(program, info, lineno, funcname)
        if fn is None:
            continue
        entry = merged.setdefault(
            fn.qualname,
            {
                "qualname": fn.qualname,
                "file": _repo_relative(info.path, src_root),
                "line": fn.node.lineno,
                "calls": 0,
                "self_s": 0.0,
                "cum_s": 0.0,
            },
        )
        entry["calls"] += int(calls)
        entry["self_s"] = round(entry["self_s"] + self_t, 6)
        entry["cum_s"] = round(max(entry["cum_s"], cum_t), 6)
    return list(merged.values())


def _match_function(
    program: FlowProgram,
    info: ModuleInfo,
    lineno: int,
    funcname: str,
) -> Optional[FunctionInfo]:
    fn = program.function_at(info, lineno)
    if fn is not None and fn.name == funcname:
        return fn
    # Decorated functions profile under the decorator's line, which sits
    # just above the ``def`` — fall back to a nearest name match.
    best: Optional[Tuple[int, FunctionInfo]] = None
    for candidate in program.functions.values():
        if candidate.module is not info or candidate.name != funcname:
            continue
        distance = abs(candidate.node.lineno - lineno)
        if distance <= _DEF_LINE_SLACK and (best is None or distance < best[0]):
            best = (distance, candidate)
    return best[1] if best is not None else None


def _repo_relative(path: str, src_root: str) -> str:
    absolute = os.path.abspath(path).replace(os.sep, "/")
    root = os.path.abspath(src_root).replace(os.sep, "/")
    if absolute.startswith(root + "/"):
        return "src/" + absolute[len(root) + 1 :]
    return absolute
