#!/usr/bin/env python3
"""Experiment harness: regenerates every table and figure of the paper's
evaluation (§6) and prints them in the paper's shape.

Usage::

    python benchmarks/harness.py fig6a     # LOD x pruning match performance
    python benchmarks/harness.py fig6b     # Planner query scaling
    python benchmarks/harness.py fig7a     # performance-class histogram
    python benchmarks/harness.py fig7b     # per-job scheduling overhead
    python benchmarks/harness.py table1    # figure-of-merit comparison (+Fig 8)
    python benchmarks/harness.py all

Scale: the defaults run on a laptop in a few minutes using a reduced system
size; set ``FLUXION_BENCH_FULL=1`` for the paper's full scale (1008 nodes for
Fig 6a, 10^6 spans for Fig 6b, 2418 nodes / 200 jobs for §6.3).  Absolute
times differ from the paper (pure Python vs C++), but the shapes — which
configuration wins, how queries scale, where the variation-aware policy
lands — are the comparison targets; see EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.baselines import Algorithm1, ListPlanner
from repro.grug import build_lod, quartz
from repro.jobspec import simple_node_jobspec
from repro.match import Traverser
from repro.planner import Planner
from repro.sched import ClusterSimulator
from repro.usecases import (
    assign_perf_classes,
    class_histogram,
    fom_histogram,
    performance_classes,
    synthetic_node_scores,
)
from repro.workloads import planner_span_workload, synthetic_trace

FULL = bool(int(os.environ.get("FLUXION_BENCH_FULL", "0")))


# ======================================================================
# E1 — Fig 6a: match performance vs level of detail, with/without pruning
# ======================================================================
def fig6a_config() -> Tuple[int, int]:
    """(racks, nodes_per_rack): paper scale is 56x18 = 1008 nodes."""
    return (56, 18) if FULL else (14, 9)


def fig6a_run_one(
    lod: str, prune: bool, racks: int, nodes_per_rack: int
) -> Dict[str, float]:
    """Fill one LOD system with the §6.1 jobspec; return match-time stats."""
    graph = build_lod(
        lod,
        racks=racks,
        nodes_per_rack=nodes_per_rack,
        prune_types=("core",) if prune else None,
    )
    traverser = Traverser(graph, policy="first", prune=prune)
    jobspec = simple_node_jobspec(
        cores=10, memory=8, ssds=1, duration=10_000
    )
    times: List[float] = []
    while True:
        t0 = time.perf_counter()
        alloc = traverser.allocate(jobspec, at=0)
        times.append(time.perf_counter() - t0)
        if alloc is None:
            break
    return {
        "lod": lod,
        "prune": prune,
        "jobs": len(times) - 1,
        "mean_ms": statistics.mean(times) * 1e3,
        "total_s": sum(times),
        "visits": traverser.metrics.counter("dfu.visits").value,
    }


def fig6a(out=sys.stdout) -> List[Dict[str, float]]:
    racks, nodes_per_rack = fig6a_config()
    print(
        f"Fig 6a — match time to fully allocate a {racks * nodes_per_rack}-node"
        f" system (jobspec: 10 cores + 8GB + 1 burst buffer per node)",
        file=out,
    )
    print(f"{'config':>14} | {'jobs':>5} | {'mean ms/match':>13} | "
          f"{'total s':>8} | {'visits':>9}", file=out)
    print("-" * 62, file=out)
    rows = []
    for lod in ("high", "med", "low", "low2"):
        for prune in (False, True):
            row = fig6a_run_one(lod, prune, racks, nodes_per_rack)
            rows.append(row)
            label = f"{lod}{' prune' if prune else ''}"
            print(
                f"{label:>14} | {row['jobs']:5d} | {row['mean_ms']:13.2f} | "
                f"{row['total_s']:8.2f} | {row['visits']:9d}",
                file=out,
            )
    return rows


# ======================================================================
# E2 — Fig 6b: Planner query performance vs pre-populated span load
# ======================================================================
def fig6b_loads() -> List[int]:
    loads = [1_000, 10_000, 100_000]
    if FULL:
        loads.append(1_000_000)
    return loads


def build_loaded_planner(n_spans: int, seed: int = 11) -> Planner:
    """A 128-unit planner pre-populated with n_spans conservative-backfill
    spans, as in §6.2.

    Spans are placed at their earliest fit in increasing hint order
    (time-ordered arrivals, as a real scheduler would book them); in any
    other order each placement searches from its own hint across a plan
    that no longer thins out behind it, and the build is quadratic at the
    paper's 10^6-span scale.
    """
    planner = Planner(128, 0, 2**60, resource_type="unnamed")
    workload = sorted(planner_span_workload(n_spans, seed=seed))
    for start_hint, duration, request in workload:
        # Local forward scan from the hint (conservative placement): the
        # same plan avail_time_first(request, duration, start_hint) books,
        # point by point.  Arrivals are time-ordered, so the fit lies a few
        # points past the hint and the scan is the cheaper loader (10^5
        # spans: 2.6 s against 4.9 s through the indexed search, E13); it
        # also keeps the planner un-indexed until the question below.
        at = start_hint
        while not planner.avail_during(at, duration, request):
            at = planner.next_event_time(at)
            assert at is not None  # horizon is effectively unbounded
        planner.add_span(at, duration, request)
    if planner.span_count:
        # The tree is indexed by the first earliest-time question the fast
        # path cannot answer (the pool is not whole where a span starts);
        # ask it here so no timed EarliestAt query pays the one-off pass.
        planner.avail_time_first(
            planner.total, 1, min(span.start for span in planner.spans())
        )
    return planner


def _time_queries(fn: Callable[[], object], repeats: int) -> float:
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats * 1e6  # microseconds


def fig6b_run_one(planner, seed: int = 3, repeats: int = 200) -> Dict[str, float]:
    """SatAt / SatDuring / EarliestAt mean query times on one planner."""
    rng = np.random.default_rng(seed)
    horizon = 2**40
    requests = [2**k for k in range(8)]  # 1..128, powers of two
    times = rng.integers(0, horizon, size=repeats)
    durations = rng.integers(1, 43_200, size=repeats)

    def sat_at():
        for i in range(len(requests)):
            planner.avail_at(int(times[i]), requests[i])

    def sat_during():
        for i in range(len(requests)):
            planner.avail_during(int(times[i]), int(durations[i]), requests[i])

    def earliest_at():
        for request in requests:
            planner.avail_time_first(request, 1, 0)

    reps = max(1, repeats // len(requests))
    return {
        "SatAt_us": _time_queries(sat_at, reps) / len(requests),
        "SatDuring_us": _time_queries(sat_during, reps) / len(requests),
        "EarliestAt_us": _time_queries(earliest_at, reps) / len(requests),
    }


def fig6b(out=sys.stdout, planner_cls=Planner) -> List[Dict[str, float]]:
    print("Fig 6b — Planner query time vs pre-populated spans "
          "(128 units, 12h max duration)", file=out)
    print(f"{'spans':>9} | {'SatAt us':>9} | {'SatDuring us':>12} | "
          f"{'EarliestAt us':>13}", file=out)
    print("-" * 54, file=out)
    rows = []
    for load in fig6b_loads():
        planner = build_loaded_planner(load)
        row = {"spans": load, **fig6b_run_one(planner)}
        rows.append(row)
        print(
            f"{load:9d} | {row['SatAt_us']:9.2f} | "
            f"{row['SatDuring_us']:12.2f} | {row['EarliestAt_us']:13.2f}",
            file=out,
        )
    return rows


# ======================================================================
# E3/E4/E5 — §6.3 variation-aware study (Fig 7a, Fig 7b, Table 1 / Fig 8)
# ======================================================================
def variation_config() -> Tuple[int, int, int]:
    """(racks, nodes_per_rack, n_jobs)."""
    return (39, 62, 200) if FULL else (10, 62, 200)


def fig7a(out=sys.stdout) -> List[int]:
    racks, nodes_per_rack, _ = variation_config()
    n_nodes = racks * nodes_per_rack
    scores = synthetic_node_scores(n_nodes, seed=2023)
    hist = class_histogram(performance_classes(scores))
    print(f"Fig 7a — histogram of {n_nodes} nodes across 5 performance "
          "classes (Eq. 1 deciles)", file=out)
    print(f"{'class':>6} | {'nodes':>6} | share", file=out)
    print("-" * 30, file=out)
    for class_id, count in enumerate(hist, start=1):
        print(f"{class_id:>6} | {count:6d} | {count / n_nodes:5.1%}", file=out)
    return hist


def variation_run_policy(policy: str, seed: int = 7):
    racks, nodes_per_rack, n_jobs = variation_config()
    n_nodes = racks * nodes_per_rack
    classes = performance_classes(synthetic_node_scores(n_nodes, seed=2023))
    graph = quartz(racks=racks, nodes_per_rack=nodes_per_rack)
    assign_perf_classes(graph, classes)
    trace = synthetic_trace(n_jobs, seed=seed, max_nodes=n_nodes // 3)
    sim = ClusterSimulator(graph, match_policy=policy, queue="conservative")
    for job in trace:
        sim.submit(job.to_jobspec(), at=0)
    report = sim.run(until=0)  # plan all jobs at the snapshot instant
    return report


def fig7b(out=sys.stdout) -> Dict[str, Dict[str, float]]:
    racks, nodes_per_rack, n_jobs = variation_config()
    print(f"Fig 7b — per-job scheduling time, {n_jobs} jobs on "
          f"{racks * nodes_per_rack} nodes (conservative backfill)", file=out)
    print(f"{'policy':>16} | {'total s':>8} | {'mean ms':>8} | "
          f"{'p50 ms':>7} | {'max ms':>7} | {'immediate':>9}", file=out)
    print("-" * 72, file=out)
    results = {}
    for policy, label in (("high", "HighestID"), ("low", "LowestID"),
                          ("variation", "Variation-aware")):
        report = variation_run_policy(policy)
        sched_times = [j.sched_time for j in report.jobs]
        row = {
            "total_s": sum(sched_times),
            "mean_ms": statistics.mean(sched_times) * 1e3,
            "p50_ms": statistics.median(sched_times) * 1e3,
            "max_ms": max(sched_times) * 1e3,
            "immediate": report.immediate_starts(),
            "per_job_s": sched_times,
        }
        results[label] = row
        print(
            f"{label:>16} | {row['total_s']:8.2f} | {row['mean_ms']:8.2f} | "
            f"{row['p50_ms']:7.2f} | {row['max_ms']:7.2f} | "
            f"{row['immediate']:9d}",
            file=out,
        )
    return results


def table1(out=sys.stdout) -> Dict[str, List[int]]:
    racks, nodes_per_rack, n_jobs = variation_config()
    print(f"Table 1 / Fig 8 — figure-of-merit histogram per policy "
          f"({n_jobs} jobs; fom = class spread per job, Eq. 2; "
          "more fom=0 is better)", file=out)
    print(f"{'policy':>16} | {'fom=0':>6} {'fom=1':>6} {'fom=2':>6} "
          f"{'fom=3':>6} {'fom=4':>6}", file=out)
    print("-" * 56, file=out)
    results = {}
    for policy, label in (("high", "HighestID"), ("low", "LowestID"),
                          ("variation", "Variation-aware")):
        report = variation_run_policy(policy)
        hist = fom_histogram([j.allocation for j in report.jobs if j.allocation])
        results[label] = hist
        print(f"{label:>16} | " + " ".join(f"{h:6d}" for h in hist), file=out)
    va, hi, lo = (results["Variation-aware"][0], results["HighestID"][0],
                  results["LowestID"][0])
    print(f"\nvariation-aware fom=0 advantage: {va / max(hi, 1):.1f}x vs "
          f"HighestID (paper: 2.8x), {va / max(lo, 1):.1f}x vs LowestID "
          "(paper: 2.3x)", file=out)
    return results


# ======================================================================
# E6 — ablation: pruning / SDFU effect   E7 — tree vs naive list planner
# ======================================================================
def ablation_pruning(out=sys.stdout) -> Dict[str, Dict[str, float]]:
    racks, nodes_per_rack = (28, 18) if FULL else (8, 9)
    print(f"Ablation — pruning filters on/off while filling a "
          f"{racks * nodes_per_rack}-node Med-LOD system", file=out)
    print(f"{'config':>10} | {'mean ms/match':>13} | {'visits':>9}", file=out)
    print("-" * 40, file=out)
    rows = {}
    for prune in (False, True):
        row = fig6a_run_one("med", prune, racks, nodes_per_rack)
        rows["prune" if prune else "no-prune"] = row
        print(f"{'prune' if prune else 'no-prune':>10} | "
              f"{row['mean_ms']:13.2f} | {row['visits']:9d}", file=out)
    speedup = rows["no-prune"]["mean_ms"] / rows["prune"]["mean_ms"]
    print(f"pruning speedup: {speedup:.2f}x", file=out)
    return rows


def as_list_planner(planner: Planner) -> ListPlanner:
    """The naive list planner holding the same spans as ``planner``."""
    naive = ListPlanner(planner.total, planner.plan_start, planner.plan_end)
    for span in planner.spans():
        naive.add_span(span.start, span.duration, span.request)
    return naive


def ablation_planner_baseline(out=sys.stdout) -> List[Dict[str, float]]:
    loads = [1_000, 4_000, 16_000] if not FULL else [1_000, 10_000, 100_000]
    print("Ablation — tree planner vs naive list planner "
          "(EarliestAt query, us)", file=out)
    print(f"{'spans':>7} | {'tree us':>9} | {'list us':>11} | {'ratio':>7}",
          file=out)
    print("-" * 44, file=out)
    rows = []
    for load in loads:
        tree = build_loaded_planner(load)
        naive = as_list_planner(tree)
        tree_us = _time_queries(lambda: tree.avail_time_first(64, 1, 0), 20)
        naive_us = _time_queries(lambda: naive.avail_time_first(64, 1, 0), 3)
        row = {"spans": load, "tree_us": tree_us, "naive_us": naive_us}
        rows.append(row)
        print(f"{load:7d} | {tree_us:9.2f} | {naive_us:11.2f} | "
              f"{naive_us / tree_us:7.1f}x", file=out)
    return rows


def build_dense_planner(n_spans: int, seed: int = 11) -> Planner:
    """A 128-unit planner holding ``n_spans`` spans packed from one instant:
    every span (request U[1,64], duration U[60,43200]) is booked at its
    earliest fit on or after 0, as conservative backfill books a queue that
    is already waiting.  The plan is dense — no run of free resource is left
    that a later request could have used — so an earliest-time search has to
    pass many free runs too short for it (the state the ledger's
    ``planner_steady_1000`` keeps a planner in)."""
    rng = np.random.default_rng(seed)
    planner = Planner(128, 0, 2**60, resource_type="unnamed")
    for request, duration in zip(
        rng.integers(1, 65, size=n_spans).tolist(),
        rng.integers(60, 43_201, size=n_spans).tolist(),
    ):
        planner.add_span(
            planner.avail_time_first(request, duration, 0), duration, request
        )
    return planner


def dense_plan_queries(planner: Planner, late: bool, n: int = 10, seed: int = 5):
    """``n`` (request, duration, on_or_after) probes of the booking mix, asked
    from the start of ``planner``'s plan or (``late``) from its last tenth —
    the only place the list planner, whose search is quadratic in the spans
    still ahead of it, answers in under a minute."""
    rng = np.random.default_rng(seed)
    at = max(span.end for span in planner.spans()) * 9 // 10 if late else 0
    return [
        (int(rng.integers(1, 65)), int(rng.integers(60, 43_201)), at)
        for _ in range(n)
    ]


def ablation_dense_plan(
    out=sys.stdout, loads=(1_000, 4_000, 16_000)
) -> List[Dict[str, float]]:
    """E7/E13: EarliestAt on a dense plan — the list planner, the paper's
    Algorithm 1 (ET tree + stash loop) and the indexed SP tree, per query."""
    print("Ablation — EarliestAt on a dense plan (128 units, spans packed "
          "from t=0), ms per query", file=out)
    print(f"{'spans':>6} | {'from':>10} | {'list':>9} | {'Algorithm 1':>11} | "
          f"{'index':>8}", file=out)
    print("-" * 56, file=out)
    rows = []
    for load in loads:
        planner = build_dense_planner(load)
        impls = {"algorithm1": Algorithm1(planner), "index": planner}
        for label, late in (("t=0", False), ("last tenth", True)):
            probes = dense_plan_queries(planner, late)
            if late and load <= 4_000:  # minutes per query beyond
                impls["list"] = as_list_planner(planner)

            def ask(impl):
                return [impl.avail_time_first(*probe) for probe in probes]

            row = {"spans": load, "from": label}
            for name, impl in impls.items():
                assert ask(impl) == ask(planner), (name, load, label)
                repeats = 1 if name == "list" else 3
                row[f"{name}_ms"] = (
                    _time_queries(lambda: ask(impl), repeats) / len(probes) / 1e3
                )
            rows.append(row)
            listed = f"{row['list_ms']:9.1f}" if "list_ms" in row else f"{'-':>9}"
            print(f"{load:6d} | {label:>10} | {listed} | "
                  f"{row['algorithm1_ms']:11.3f} | {row['index_ms']:8.3f}",
                  file=out)
    return rows


def scale_sweep(out=sys.stdout) -> List[Dict[str, float]]:
    """Scalability sweep (ours): mean match time vs system size.

    Fills Med-LOD systems from 64 up to ~1000 nodes with the §6.1 jobspec
    and reports mean per-match latency — the scaling complement to Fig 6a's
    fixed-size LOD comparison ("ability to scale ... to the world's fastest
    supercomputers", §1).
    """
    sizes = [(4, 16), (8, 16), (16, 16), (28, 18)]
    if FULL:
        sizes.append((56, 18))
    print("Scale sweep — Med LOD, core pruning, §6.1 jobspec, "
          "fill to capacity", file=out)
    print(f"{'nodes':>6} | {'jobs':>5} | {'mean ms/match':>13} | "
          f"{'visits/job':>10}", file=out)
    print("-" * 46, file=out)
    rows = []
    for racks, nodes_per_rack in sizes:
        row = fig6a_run_one("med", True, racks, nodes_per_rack)
        row["nodes"] = racks * nodes_per_rack
        rows.append(row)
        print(
            f"{row['nodes']:6d} | {row['jobs']:5d} | {row['mean_ms']:13.2f} |"
            f" {row['visits'] / max(row['jobs'], 1):10.1f}",
            file=out,
        )
    return rows


def ablation_hierarchy(out=sys.stdout) -> Dict[str, float]:
    """E8 — throughput of flat vs hierarchical scheduling (§5.6).

    N single-node jobs scheduled by one root instance over the whole
    machine, versus the same jobs split across k child instances each
    owning 1/k of the nodes.  Children match over much smaller graphs, so
    per-job match time drops — the paper's scalability argument for the
    fully hierarchical model.
    """
    from repro.grug import tiny_cluster
    from repro.jobspec import nodes_jobspec, simple_node_jobspec
    from repro.sched import Instance

    racks, nodes_per_rack, k = (16, 16, 4) if FULL else (8, 8, 4)
    n_jobs = racks * nodes_per_rack  # one single-node job per node
    job = simple_node_jobspec(cores=1, duration=10_000)

    def run_flat() -> float:
        root = Instance(tiny_cluster(racks=racks, nodes_per_rack=nodes_per_rack,
                                     cores=4), match_policy="first")
        t0 = time.perf_counter()
        for _ in range(n_jobs):
            assert root.allocate(job, at=0) is not None
        return time.perf_counter() - t0

    def run_hierarchical() -> float:
        root = Instance(tiny_cluster(racks=racks, nodes_per_rack=nodes_per_rack,
                                     cores=4), match_policy="first")
        per_child = (racks * nodes_per_rack) // k
        children = [
            root.spawn_child(nodes_jobspec(per_child, duration=2**30))
            for _ in range(k)
        ]
        t0 = time.perf_counter()
        for i in range(n_jobs):
            assert children[i % k].allocate(job, at=0) is not None
        return time.perf_counter() - t0

    flat = run_flat()
    hier = run_hierarchical()
    print(f"Ablation — flat vs hierarchical scheduling of {n_jobs} "
          f"single-node jobs ({racks * nodes_per_rack} nodes, k={k} children)",
          file=out)
    print(f"{'config':>14} | {'total s':>8} | {'ms/job':>7}", file=out)
    print("-" * 38, file=out)
    print(f"{'flat root':>14} | {flat:8.2f} | {flat / n_jobs * 1e3:7.2f}",
          file=out)
    print(f"{'4 children':>14} | {hier:8.2f} | {hier / n_jobs * 1e3:7.2f}",
          file=out)
    print(f"hierarchy speedup: {flat / hier:.2f}x (child match excludes "
          "the grant-splitting cost)", file=out)
    return {"flat_s": flat, "hier_s": hier, "n_jobs": n_jobs}


EXPERIMENTS = {
    "fig6a": fig6a,
    "fig6b": fig6b,
    "fig7a": fig7a,
    "fig7b": fig7b,
    "table1": table1,
    "ablation-prune": ablation_pruning,
    "ablation-planner": ablation_planner_baseline,
    "ablation-dense-plan": ablation_dense_plan,
    "ablation-hierarchy": ablation_hierarchy,
    "scale-sweep": scale_sweep,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = list(argv if argv is not None else sys.argv[1:])
    csv_dir = None
    if "--csv" in args:
        idx = args.index("--csv")
        try:
            csv_dir = args[idx + 1]
        except IndexError:
            print("--csv requires a directory", file=sys.stderr)
            return 1
        del args[idx:idx + 2]
        os.makedirs(csv_dir, exist_ok=True)
    targets = args or ["all"]
    if targets == ["all"]:
        targets = list(EXPERIMENTS)
    for target in targets:
        if target not in EXPERIMENTS:
            print(f"unknown experiment {target!r}; known: "
                  f"{sorted(EXPERIMENTS)} or 'all'", file=sys.stderr)
            return 1
        result = EXPERIMENTS[target]()
        if csv_dir and isinstance(result, list) and result                 and isinstance(result[0], dict):
            from repro.analysis import rows_to_csv

            path = os.path.join(csv_dir, f"{target}.csv")
            rows_to_csv(result, path)
            print(f"[csv] wrote {path}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
