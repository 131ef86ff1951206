#!/usr/bin/env python3
"""Tuning the level of detail (paper §3.3, §6.1).

Shows the LOD trade-off live:

1. the same 72-node system modeled at the paper's four granularities
   (High/Med/Low/Low2), filled with the §6.1 jobspec, timing each fill;
2. pruning filters toggled on/off;
3. *dynamic* LOD control: memory pools coarsened at runtime, and a Low-LOD
   core pool refined back into singleton cores — capacity conserved both
   ways.

Run:  python examples/lod_tuning.py
"""

import time

from repro import Traverser, build_lod, simple_node_jobspec
from repro.resource import coarsen_pools, refine_pool

RACKS, NODES_PER_RACK = 4, 6


def fill(lod: str, prune: bool) -> dict:
    graph = build_lod(
        lod, racks=RACKS, nodes_per_rack=NODES_PER_RACK,
        prune_types=("core",) if prune else None,
    )
    traverser = Traverser(graph, policy="first", prune=prune)
    jobspec = simple_node_jobspec(cores=10, memory=8, ssds=1, duration=10_000)
    start = time.perf_counter()
    jobs = 0
    while traverser.allocate(jobspec, at=0):
        jobs += 1
    elapsed = time.perf_counter() - start
    return {
        "vertices": graph.vertex_count,
        "jobs": jobs,
        "ms_per_match": elapsed / (jobs + 1) * 1e3,
        "visits": traverser.metrics.counter("dfu.visits").value,
    }


def main() -> None:
    print(f"same {RACKS * NODES_PER_RACK}-node system, four levels of detail"
          " (paper Fig 6a protocol)\n")
    print(f"{'config':>12} | {'vertices':>8} | {'jobs':>4} | "
          f"{'ms/match':>8} | {'visits':>8}")
    print("-" * 56)
    for lod in ("high", "med", "low", "low2"):
        for prune in (False, True):
            row = fill(lod, prune)
            label = f"{lod}{'+prune' if prune else ''}"
            print(f"{label:>12} | {row['vertices']:8d} | {row['jobs']:4d} | "
                  f"{row['ms_per_match']:8.2f} | {row['visits']:8d}")
    print("\ncoarser graphs and pruning both cut match time; every config"
          " packs the same 4 jobs per node (capacity is invariant, §3.3).")

    # --- dynamic LOD control -------------------------------------------
    print("\ndynamic granularity on a live graph:")
    graph = build_lod("med", racks=1, nodes_per_rack=1)
    node = graph.find(type="node")[0]
    memories = [c for c in graph.children(node) if c.type == "memory"]
    print(f"  node starts with {len(memories)} memory pools of "
          f"{memories[0].size} GB")
    merged = coarsen_pools(graph, memories)
    print(f"  coarsened -> 1 pool of {merged.size} GB "
          f"(total {graph.total_by_type()['memory']} GB, unchanged)")
    parts = refine_pool(graph, merged, [64] * (merged.size // 64))
    print(f"  refined  -> {len(parts)} pools of 64 GB")

    low = build_lod("low", racks=1, nodes_per_rack=1)
    node = low.find(type="node")[0]
    pool = [c for c in low.children(node) if c.type == "core"][0]
    singles = refine_pool(low, pool, [1] * pool.size)
    print(f"  Low-LOD core pool (size {len(singles)}) promoted to "
          f"{len(singles)} singleton cores — the §3.3 'promoted to its own "
          "vertex' case")


if __name__ == "__main__":
    main()
