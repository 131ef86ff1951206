#!/usr/bin/env python3
"""Quickstart: the graph resource model in five minutes.

Builds a small cluster graph, matches a few jobspecs against it (allocate,
reserve, satisfiability), inspects the selected resource sets, and frees
everything — the full life of a Fluxion-style scheduler interaction
(paper §3.2, Fig. 1c).

Run:  python examples/quickstart.py

With FLUXOBS=1 the simulation section at the end runs observed and writes
a Chrome trace (quickstart-trace.json, or $FLUXOBS_TRACE) you can open in
chrome://tracing or feed to ``python -m repro.obs report`` — see
docs/observability.md.
"""

import os

from repro import Traverser, simple_node_jobspec, nodes_jobspec, tiny_cluster
from repro.jobspec import parse_jobspec
from repro.obs import env_enabled
from repro.sched import ClusterSimulator


def main() -> None:
    # -- Step 1+2: initialize the resource graph store -------------------
    # tiny_cluster gives cluster -> racks -> nodes -> cores/gpus/memory and
    # installs pruning filters (aggregate availability per rack/node, §3.4).
    graph = tiny_cluster(racks=2, nodes_per_rack=4, cores=8, gpus=1,
                         memory_pools=4, memory_size=16)
    print(f"resource graph: {graph.vertex_count} vertices, "
          f"{graph.edge_count} edges")
    print(f"capacity: {graph.total_by_type()}")

    # -- Step 3: express a job as an abstract resource request graph -----
    # Builders cover the common shapes; YAML works too (§4.2):
    jobspec = parse_jobspec("""
version: 1
resources:
  - type: node
    count: 1
    with:
      - type: slot
        count: 1
        with:
          - {type: core, count: 4}
          - {type: memory, count: 8, unit: GB}
attributes:
  system:
    duration: 3600
""")
    print(f"\njobspec: {jobspec.summary()}")

    # -- Step 4-7: traverse, match, emit ---------------------------------
    traverser = Traverser(graph, policy="low")   # low node-ids first
    alloc = traverser.allocate(jobspec, at=0)
    print(f"allocated: {alloc.summary()}")
    for sel in alloc.resources():
        marker = "!" if sel.exclusive else ""
        print(f"   {sel.vertex.path('containment')}  {sel.type}:{sel.amount}{marker}")

    # Shared nodes: a second job packs onto the same node.
    second = traverser.allocate(simple_node_jobspec(cores=4, duration=3600), at=0)
    print(f"\nsecond job landed on: {second.nodes()[0].name} "
          f"(same node, shared: {second.nodes()[0] is alloc.nodes()[0]})")

    # Whole-node exclusive jobs + reservations (conservative backfilling).
    big = nodes_jobspec(8, duration=7200)          # all nodes, exclusive
    reservation = traverser.allocate_orelse_reserve(big, now=0)
    print(f"\nexclusive 8-node job: {reservation.summary()}")
    assert reservation.reserved  # must wait for the shared jobs to finish

    # Satisfiability is a capacity question, not an availability one (§3.2).
    print(f"\nsatisfiable 8 nodes: {traverser.satisfiable(nodes_jobspec(8))}")
    print(f"satisfiable 9 nodes: {traverser.satisfiable(nodes_jobspec(9))}")

    # R-lite style emission for the execution system.
    rlite = alloc.to_rlite()
    print(f"\nR-lite: starttime={rlite['execution']['starttime']} "
          f"entries={len(rlite['resources'])}")

    # -- Cleanup ----------------------------------------------------------
    traverser.remove_all()
    print(f"\nfreed everything; active allocations: "
          f"{len(traverser.allocations)}")
    print(f"traverser counters: {traverser.metrics.as_dict()}")

    # -- Bonus: an observed simulation ------------------------------------
    # observe=None defers to the environment: FLUXOBS=1 turns on the
    # metrics registry + structured tracer (docs/observability.md).
    sim = ClusterSimulator(tiny_cluster(racks=2, nodes_per_rack=4, cores=8),
                           queue="easy", observe=None)
    for i in range(6):
        sim.submit(nodes_jobspec(2 + i % 3, duration=300 + 60 * i), at=30 * i)
    report = sim.run()
    print(f"\nsimulated: {report.summary()}")
    if env_enabled():
        trace_path = os.environ.get("FLUXOBS_TRACE", "quickstart-trace.json")
        sim.export_trace(trace_path)
        print(f"wrote Chrome trace: {trace_path} "
              f"({len(sim.obs.tracer.events)} events); inspect with "
              f"`python -m repro.obs report {trace_path}`")


if __name__ == "__main__":
    main()
