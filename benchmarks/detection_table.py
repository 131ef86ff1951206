"""Which per-cycle pass finds planted damage, and in which cycle.

    PYTHONPATH=src python3 benchmarks/detection_table.py [rows.json]

Plants each live-corruption kind (``span``, ``point``, ``aggregate``,
``structure``) behind the scheduler's back, three times: on a vertex the
next cycle writes (the bookings after the plant land under it) and on a
cold vertex nothing writes, both outside the next rotation window, and on
the written vertex again with the next window over it (``window``: a pass
at the head of the cycle reads it before the match, one at the end after).
On a cluster with one memory pool per node, ``structure`` is also planted
on the pool of a node the bookings take, outside the window (``pool``) and
in it (``pool-window``).  Every cycle after the plant matches a new job, so
a match may read the damage before a pass reports it.  Each plant runs under
three setups: integrity monitor and deep auditor, monitor alone, deep
auditor alone.  For each cell it prints the pass that first reports the
damage (``monitor`` when the integrity monitor quarantines the vertex,
``auditor`` when the auditor raises), the cycle it does so in (1 = the
cycle right after the plant), the verdict at the end of the run and a
digest of the run's ``event_log``, so two trees' tables can be compared
cell by cell for decisions that moved.  A plant no pass finds within the
run reads ``-``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Dict, List, Optional

from repro import ClusterSimulator, nodes_jobspec, tiny_cluster
from repro.recovery import (
    CORRUPTION_KINDS,
    IntegrityConfig,
    IntegrityMonitor,
    apply_corruption,
    corruption_targets,
)
from repro.resilience import InvariantAuditor, InvariantViolation

SETUPS = ("monitor+auditor", "monitor", "auditor")
#: ``(kind, plant)`` rows, in print order
PLANTS = [
    (kind, plant)
    for kind in CORRUPTION_KINDS
    for plant in ("hot", "cold", "window")
] + [("structure", "pool"), ("structure", "pool-window")]
#: jobs submitted after the plant, one cycle each (plus their ends); the
#: rotation covers the 27 vertices in 4 cycles
CYCLES = 12


def build(setup: str, pools: bool) -> ClusterSimulator:
    """Rack 0 held by one long job nothing else touches, two nodes of rack
    1 by another: rack 0 is cold, rack 1 and the cluster are written by
    every booking that lands in rack 1.  ``pools``: one memory pool per
    node."""
    sim = ClusterSimulator(
        tiny_cluster(2, 4, cores=2, gpus=0, memory_pools=int(pools)), "low",
        queue="easy",
        audit=InvariantAuditor(deep=True) if "auditor" in setup else False,
        integrity=IntegrityConfig() if "monitor" in setup else None,
    )
    sim.submit(nodes_jobspec(4, duration=10**6), at=0)
    sim.submit(nodes_jobspec(2, duration=10**6), at=0)
    sim.run(until=0)
    sim.reschedule()
    return sim


def next_window(sim: ClusterSimulator) -> List[str]:
    """The vertices the next rotation step reads: the monitor's window, or
    the auditor's own slice when no monitor is attached."""
    order = sorted(v.name for v in sim.graph.vertices())
    cursor = (
        sim.integrity.cursor if sim.integrity is not None
        else sim.auditor._cursor
    )
    return [order[(cursor + i) % len(order)] for i in range(8)]


def target(sim: ClusterSimulator, kind: str, plant: str) -> str:
    """The first ``kind`` target, nodes first, then by name: where the
    bookings after the plant land (rack 1's free nodes and what they hold,
    rack 1, the cluster; only those nodes' memory pools for the ``pool``
    plants), or in rack 0 (``cold``); outside the next window unless the
    plant is a ``window`` one."""
    graph = sim.graph
    if plant != "cold":
        free = [graph.vertex_by_name(n) for n in ("node6", "node7")]
        near = ["rack1", "cluster0"] + [
            v.name for node in free
            for v in [node] + list(graph.descendants(node))
        ]
        if plant.startswith("pool"):
            near = [n for n in near if graph.vertex_by_name(n).type == "memory"]
    else:
        rack = graph.vertex_by_name("rack0")
        near = [rack.name] + [v.name for v in graph.descendants(rack)]
    rank = {name: i for i, name in enumerate(sorted(
        near, key=lambda n: (not n.startswith("node"), n)
    ))}
    window = set() if plant.endswith("window") else set(next_window(sim))
    return min(
        (name for name in corruption_targets(sim, kind)
         if name in rank and name not in window),
        key=rank.get,
    )


def run_cell(kind: str, plant: str, setup: str) -> Dict[str, object]:
    sim = build(setup, plant.startswith("pool"))
    if plant.endswith("window"):
        name = target(sim, kind, plant)
        while name not in next_window(sim):
            sim.reschedule()  # the next window over the plant
    else:
        while {"cluster0", "rack1"} & set(next_window(sim)):
            sim.reschedule()  # the written vertices out of the next window
        name = target(sim, kind, plant)
    cycle = [0]
    found: Dict[str, object] = {}
    run_cycle = ClusterSimulator._run_cycle
    handle = IntegrityMonitor._handle_dirty

    def counted(self):
        cycle[0] += 1
        return run_cycle(self)

    def handled(self, state, vertex, findings):
        if vertex.name == name and not found:
            found.update(by="monitor", cycle=cycle[0])
        return handle(self, state, vertex, findings)

    ClusterSimulator._run_cycle = counted
    IntegrityMonitor._handle_dirty = handled
    try:
        assert apply_corruption(sim, sim.graph.vertex_by_name(name), kind, 3)
        # a one-node job every 10 s: each cycle matches, into rack 1
        start = sim.now
        for i in range(1, CYCLES + 1):
            sim.submit(nodes_jobspec(1, duration=25), at=start + 10 * i)
        verdict = "ran"
        try:
            sim.run(until=start + 10 * CYCLES + 100)
        except InvariantViolation as err:
            if not found:
                found.update(by="auditor", cycle=cycle[0])
            verdict = "raised " + ",".join(
                sorted({v.invariant for v in err.violations})
            )
        except Exception as err:  # a booking on damage may fail anywhere
            verdict = f"crashed {type(err).__name__}"
    finally:
        ClusterSimulator._run_cycle = run_cycle
        IntegrityMonitor._handle_dirty = handle
    left = InvariantAuditor(deep=True).collect(sim)
    if verdict == "ran":
        verdict = "clean" if not left else f"{len(left)} left"
    log = json.dumps(sim.event_log)
    return {
        "event_log": sim.event_log,
        "kind": kind,
        "plant": plant,
        "vertex": name,
        "setup": setup,
        "by": found.get("by", "-"),
        "cycle": found.get("cycle", "-"),
        "verdict": verdict,
        "events": hashlib.sha256(log.encode()).hexdigest()[:12],
    }


def main(argv: Optional[List[str]] = None) -> int:
    """Print the table; given a path, also write every row with its
    ``event_log`` there as JSON."""
    argv = sys.argv[1:] if argv is None else argv
    rows = [
        run_cell(kind, plant, setup)
        for kind, plant in PLANTS
        for setup in SETUPS
    ]
    print(f"{'kind':10} {'plant':11} {'vertex':8} {'setup':16} "
          f"{'by':8} {'cycle':>5}  {'verdict':28} events")
    for row in rows:
        print(f"{row['kind']:10} {row['plant']:11} {row['vertex']:8} "
              f"{row['setup']:16} {row['by']:8} {row['cycle']!s:>5}  "
              f"{row['verdict']:28} {row['events']}")
    if argv:
        with open(argv[0], "w") as out:
            json.dump(rows, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
