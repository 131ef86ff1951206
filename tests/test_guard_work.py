"""Each per-cycle guard pays once per fact, and answers as before.

The guards keep what the run already holds instead of deriving it again:
the bookings the traverser wrote, an exclusivity index
kept as allocations enter and leave, the structure dict taken at attach
time, one serialization per snapshot section.  Each kept or cheaper path
is pinned here against the derivation it replaced:

(i)   the long-lived exclusivity index finds, after every operation of a
      random sequence, the conflicts one built from nothing finds, and both
      find what a brute force over every pair of selections finds; the
      auditor reads it over live allocations only;
(ii)  ``write_snapshot`` writes the bytes of ``json.dumps`` of the whole
      wrapper, non-ASCII keys and values included;
(iii) the bookings kept at booking are ``allocation_bookings`` of the
      selections, and an allocation installed by recovery derives its own.
"""

import hashlib
import json
import random

import pytest

from repro import ClusterSimulator, nodes_jobspec, tiny_cluster
from repro.errors import FluxionError
from repro.jobspec import simple_node_jobspec
from repro.match.writer import (
    Allocation,
    ExclusivityIndex,
    Selection,
    allocation_bookings,
)
from repro.recovery import RepairEngine, integrity
from repro.recovery.integrity import expected_state
from repro.recovery.snapshot import (
    load_snapshot,
    restore_simulator,
    snapshot_state,
    write_snapshot,
)
from repro.resilience import InvariantAuditor
from repro.sched.capacity import CapacitySchedule


# ----------------------------------------------------------------------
# (i) the kept exclusivity index
# ----------------------------------------------------------------------
def named(conflicts):
    """A conflict as ``(hold vertex, hold alloc, use vertex, use alloc)``."""
    return sorted(
        (hold[0].vertex.name, hold[2].alloc_id, use[0].vertex.name, use[2].alloc_id)
        for hold, use in conflicts
    )


def brute_force(graph, subsystem, allocations):
    """Every exclusive selection against every selection of another
    allocation in an overlapping window, on its vertex or below it."""
    found = []
    for a in allocations:
        for b in allocations:
            if a is b or not (a.at < b.end and b.at < a.end):
                continue
            for hold in a.selections:
                if not hold.exclusive:
                    continue
                for use in b.selections:
                    above = {v.uniq_id for v in graph.ancestors(use.vertex, subsystem)}
                    if use.vertex is hold.vertex or hold.vertex.uniq_id in above:
                        found.append(
                            (hold.vertex.name, a.alloc_id, use.vertex.name, b.alloc_id)
                        )
    return sorted(found)


def plant(sim, rng):
    """Install, behind the matcher's back, an allocation overlapping a live
    exclusive hold: on the held vertex or on a vertex below it."""
    live = [a for a in sim.traverser.allocations.values()
            if any(s.exclusive for s in a.selections)]
    if not live:
        return None
    victim = rng.choice(live)
    held = rng.choice([s for s in victim.selections if s.exclusive]).vertex
    below = [held] + list(sim.graph.descendants(held, sim.traverser.subsystem))
    vertex = rng.choice(below)
    rogue = Allocation(
        sim.traverser._next_alloc_id, victim.at, victim.duration, False,
        [Selection(vertex, 0, exclusive=rng.random() < 0.5)],
    )
    sim.traverser.install_allocation(rogue)
    return rogue


def operate(sim, rng, schedule, step):
    graph = sim.graph
    nodes = graph.find(type="node")
    op = rng.choice(
        ["book", "book", "book", "remove", "update_end", "outage", "drain",
         "evacuate", "plant"]
    )
    jobs = [j for j in sim.jobs.values() if j.is_active and j.allocation]
    if op == "book":
        sim.submit(nodes_jobspec(rng.randint(1, 3), rng.randint(20, 300)),
                   at=sim.now)
        sim.run(until=sim.now)
    elif op == "remove" and jobs:
        sim.cancel(rng.choice(jobs))
    elif op == "update_end" and jobs:
        alloc = rng.choice(jobs).allocation
        if alloc.duration > 2:
            sim.traverser.update_end(alloc.alloc_id, alloc.at + alloc.duration // 2)
    elif op == "outage":
        try:
            schedule.add_outage(rng.choice(nodes), sim.now + 500 + step, 50)
        except FluxionError:
            pass  # something is booked there: refused, nothing changed
    elif op == "drain":
        node = rng.choice(nodes)
        (graph.mark_up if node.status != "up" else graph.mark_down)(node)
    elif op == "evacuate":
        RepairEngine(sim).evacuate_vertex(rng.choice(nodes))
    elif op == "plant":
        return plant(sim, rng)
    else:
        sim.run(until=sim.now + rng.randint(1, 120))
    return None


@pytest.mark.parametrize("seed", range(6))
def test_kept_index_finds_what_one_built_from_nothing_finds(seed):
    rng = random.Random(seed)
    graph = tiny_cluster(2, 4, cores=2, gpus=0, memory_pools=0)
    sim = ClusterSimulator(graph, "low", queue="easy")
    subsystem = sim.traverser.subsystem
    schedule = CapacitySchedule(graph)
    kept = expected_state(sim)
    planted = 0
    for step in range(60):
        rogue = operate(sim, rng, schedule, step)
        kept.entered.clear()
        kept.refresh()
        live = list(sim.traverser.allocations.values())
        fresh = ExclusivityIndex(graph, subsystem)
        for alloc in live:
            fresh.add(alloc)
        everything = named(fresh.conflicts())
        assert named(kept.exclusive.conflicts()) == everything
        assert everything == brute_force(graph, subsystem, live)
        # asked about what entered since the previous refresh only: every
        # conflict one of those takes part in, each once
        entered = set(kept.entered)
        assert named(kept.exclusive.conflicts(entered)) == [
            c for c in everything if c[1] in entered or c[3] in entered
        ]
        if rogue is not None:
            planted += 1
            assert any(rogue.alloc_id in (c[1], c[3]) for c in everything)
            sim.traverser.allocations.pop(rogue.alloc_id)  # taken out again
    assert planted


def test_planted_overlapping_hold_is_reported_with_owners():
    sim = ClusterSimulator(
        tiny_cluster(2, 4, cores=2, gpus=0, memory_pools=0), "low", queue="easy"
    )
    job = sim.submit(nodes_jobspec(1, duration=100), at=0)
    sim.run(until=0)
    kept = expected_state(sim)
    kept.refresh()
    node = job.allocation.nodes()[0]
    core = next(iter(sim.graph.descendants(node, sim.traverser.subsystem)))
    rogue = Allocation(99, 50, 100, False, [Selection(core, 1)])
    sim.traverser.install_allocation(rogue)
    kept.entered.clear()
    kept.refresh()
    assert named(kept.exclusive.conflicts(kept.entered)) == [
        (node.name, job.allocation.alloc_id, core.name, 99)
    ]
    # one owner for both: nothing to report; the rogue without one holds
    # nothing and uses nothing
    same = {job.allocation.alloc_id: "a", 99: "a"}
    assert not list(kept.exclusive.conflicts(None, same))
    assert not list(kept.exclusive.conflicts(None, {job.allocation.alloc_id: "a"}))


def two_node_jobs():
    sim = ClusterSimulator(
        tiny_cluster(2, 4, cores=2, gpus=0, memory_pools=0), "low", queue="easy"
    )
    a = sim.submit(nodes_jobspec(1, duration=100), at=0)
    b = sim.submit(nodes_jobspec(1, duration=100), at=0)
    sim.run(until=0)
    assert a.allocation.nodes() != b.allocation.nodes()
    return sim, a, b


def families(sim):
    return {v.invariant for v in InvariantAuditor().collect(sim)}


def test_exclusivity_reads_live_allocations_under_one_owner():
    # a job's allocation replaced, behind the traverser's back, by one on the
    # other job's node: the traverser never booked it, so it is an ownership
    # fault, not a conflict between two live holds
    sim, a, b = two_node_jobs()
    assert families(sim) == set()
    b.allocations[0] = Allocation(
        99, 0, 100, False, [Selection(a.allocation.nodes()[0], 1, exclusive=True)]
    )
    assert families(sim) == {"alloc-ownership"}

    # one allocation held by two active jobs: reported once, as ownership
    sim, a, b = two_node_jobs()
    b.allocations[0] = a.allocation
    assert families(sim) == {"alloc-ownership"}

    # the same hold live in the traverser under its own owner is a conflict
    sim, a, b = two_node_jobs()
    rogue = Allocation(
        99, 0, 100, False, [Selection(a.allocation.nodes()[0], 1, exclusive=True)]
    )
    sim.traverser.install_allocation(rogue)
    b.allocations.append(rogue)
    assert "exclusivity" in families(sim)


# ----------------------------------------------------------------------
# (ii) a snapshot is serialized once, into the same bytes
# ----------------------------------------------------------------------
WORDS = ["version", "ß", "日本", "naïve", "a b", "\x01", "☃", "Z", "é"]


def generated(rng, depth=0):
    roll = rng.random()
    if depth > 3 or roll < 0.3:
        return rng.choice(
            [1, -2.5, 10**20, 1e-7, None, True, "é☃x", 'a"b\\', rng.choice(WORDS)]
        )
    if roll < 0.6:
        return [generated(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {
        rng.choice(WORDS) + str(rng.randrange(9)): generated(rng, depth + 1)
        for _ in range(rng.randrange(5))
    }


def test_snapshot_bytes_are_those_of_the_whole_wrapper(tmp_path):
    rng = random.Random(3)
    path = str(tmp_path / "snap.json")
    canonical = dict(sort_keys=True, separators=(",", ":"))
    for _ in range(300):
        doc = {
            rng.choice(WORDS) + str(i): generated(rng)
            for i in range(rng.randrange(7))
        }
        write_snapshot(doc, path)
        payload = json.dumps(doc, **canonical)
        wrapper = {
            "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
            "sections": {
                key: hashlib.sha256(
                    json.dumps(value, **canonical).encode("utf-8")
                ).hexdigest()
                for key, value in doc.items()
            },
            "snapshot": doc,
        }
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == json.dumps(wrapper, **canonical)
        assert load_snapshot(path) == doc


# ----------------------------------------------------------------------
# (iii) the bookings are kept as written, once a verifier asks
# ----------------------------------------------------------------------
def test_kept_bookings_are_those_of_the_selections(monkeypatch):
    calls = []
    derive = integrity.allocation_bookings

    def watched(graph, subsystem, selections):
        calls.append(selections)
        return derive(graph, subsystem, selections)

    monkeypatch.setattr(integrity, "allocation_bookings", watched)
    graph = tiny_cluster(2, 4, cores=2, gpus=0, memory_pools=1)
    sim = ClusterSimulator(graph, "low", queue="easy", audit=True)
    traverser = sim.traverser
    assert not traverser.keep_bookings  # no verifier has asked yet
    kept, unkept = [], []
    book = traverser._book

    def booked(*args, **kwargs):
        alloc = book(*args, **kwargs)
        if alloc is not None:
            (kept if alloc._bookings is not None else unkept).append(alloc)
            if alloc._bookings is not None:
                assert alloc._bookings == allocation_bookings(
                    graph, traverser.subsystem, alloc.selections)
        return alloc

    traverser._book = booked
    rng = random.Random(5)
    for i in range(30):
        spec = rng.choice([
            nodes_jobspec(rng.randint(1, 3), duration=rng.randint(50, 400)),
            simple_node_jobspec(cores=rng.randint(1, 2), memory=rng.choice([0, 4]),
                                duration=rng.randint(50, 400)),
        ])
        sim.submit(spec, at=15 * i)
    sim.run()
    assert traverser.keep_bookings
    # every allocation but the first cycle's, booked before the kept state
    # existed, kept the list it wrote; only those were derived again
    assert kept and len(unkept) <= 1
    assert len(calls) <= len(unkept)
    for selections in calls:
        assert any(selections is alloc.selections for alloc in unkept)

    # recovery installs allocations without a booking: they derive theirs
    sim2 = ClusterSimulator(
        tiny_cluster(2, 4, cores=2, gpus=0, memory_pools=1), "low",
        queue="easy", audit=True,
    )
    sim2.submit(nodes_jobspec(2, duration=1000), at=0)
    sim2.run(until=10)
    restored = restore_simulator(snapshot_state(sim2))
    calls.clear()
    restored.reschedule()
    assert len(calls) == len(restored.traverser.allocations)
    assert calls and restored.auditor.collect(restored) == []
