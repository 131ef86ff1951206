"""The single derivation of expected planner state, checked differentially.

``allocation_bookings`` is the list ``Traverser._book`` hands to ``book``:
over seeded random jobspecs every span an allocation records must hold
exactly the window and request/counts the derivation, made again from the
selections alone, lists, in the same order, and the planners must hold
nothing else.  Everything that needs
"what should the planners hold" reads the table built from it — the scrubber,
fsck, the auditor and snapshot salvage — so the second half checks the
consumers on the state where the old copies disagreed: a planned outage.
"""

import random

import pytest

from repro.grug import build_lod, tiny_cluster
from repro.jobspec import (
    Jobspec,
    ResourceRequest,
    nodes_jobspec,
    pool_jobspec,
    simple_node_jobspec,
    slot,
)
from repro.errors import IntegrityError
from repro.match.writer import allocation_bookings
from repro.recovery import IntegrityConfig, expected_span_table
from repro.recovery.diff import state_fingerprint
from repro.recovery.integrity import scan_planners
from repro.recovery.snapshot import restore_simulator, snapshot_state
from repro.resilience import InvariantAuditor
from repro.sched import CapacitySchedule, ClusterSimulator


def _tiny():
    return tiny_cluster(racks=3, nodes_per_rack=3, cores=4, gpus=1,
                        memory_pools=2, plan_end=100_000)


def _med():
    return build_lod("med", 2, 3, prune_types=("core", "memory", "ssd", "node"),
                     plan_end=100_000)


def _random_jobspec(rng, graph):
    """One of the booking shapes the derivation has to mirror."""
    duration = rng.randint(1, 400)
    cores = len(graph.find(type="core")) // len(graph.find(type="node"))
    kind = rng.choice(
        ["nodes", "shared", "exclusive-node", "pool", "rack-explicit",
         "rack-bare", "rack-shared"]
    )
    if kind == "nodes":  # exclusive nodes reached through pass-through racks
        return nodes_jobspec(rng.randint(1, 3), duration=duration)
    if kind in ("shared", "exclusive-node"):
        # a shared node is a zero-amount selection with exclusive children
        return simple_node_jobspec(
            cores=rng.randint(1, cores), memory=rng.choice([0, 4, 20]),
            nodes=rng.randint(1, 2), duration=duration,
            node_exclusive=kind == "exclusive-node",
        )
    if kind == "pool":
        return pool_jobspec("memory", rng.randint(1, 40),
                            within=rng.choice([None, "node"]),
                            duration=duration)
    if kind == "rack-explicit":
        # an exclusive rack whose descendants are selected explicitly: the
        # subtree charge is the totals minus what the descendants book
        node = ResourceRequest(
            type="node", count=rng.randint(1, 2),
            with_=(ResourceRequest(type="core", count=rng.randint(1, cores)),),
        )
        rack = ResourceRequest(type="rack", count=1, exclusive=True,
                               with_=(node,))
        return Jobspec(resources=(rack,), duration=duration)
    if kind == "rack-bare":
        return Jobspec(resources=(slot(1, ResourceRequest(type="rack", count=1)),),
                       duration=duration)
    rack = ResourceRequest(
        type="rack", count=rng.randint(1, 2),
        with_=(slot(1, ResourceRequest(type="node", count=1)),),
    )
    return Jobspec(resources=(rack,), duration=duration)


def _read(planner, kind, span_id):
    """``(windows, booked)`` of one span, read through the planner API."""
    if kind != "filter":
        span = planner.get_span(span_id)
        return {(span.start, span.end)}, span.request
    spans = {
        rtype: planner.planner(rtype).get_span(per_type)
        for rtype, per_type in planner.get_span(span_id).items()
    }
    return (
        {(s.start, s.end) for s in spans.values()},
        {rtype: s.request for rtype, s in spans.items()},
    )


@pytest.mark.parametrize("make_graph", [_tiny, _med])
@pytest.mark.parametrize("seed", range(12))
def test_derivation_mirrors_book(make_graph, seed):
    rng = random.Random(seed)
    graph = make_graph()
    sim = ClusterSimulator(graph, match_policy=rng.choice(["first", "low", "high"]))
    traverser = sim.traverser
    live = []
    shapes = set()
    for _ in range(30):
        if live and rng.random() < 0.2:
            traverser.remove(live.pop(rng.randrange(len(live))))
            continue
        alloc = traverser.allocate_orelse_reserve(
            _random_jobspec(rng, graph), now=rng.choice([0, 0, 250])
        )
        if alloc is not None:
            live.append(alloc.alloc_id)
    booked = {}  # id(planner) -> span ids some allocation accounts for
    for alloc in traverser.allocations.values():
        bookings = allocation_bookings(graph, traverser.subsystem,
                                       alloc.selections)
        assert len(bookings) == len(alloc._span_records)
        for (vertex, kind, want), (planner, span_id) in zip(
            bookings, alloc._span_records
        ):
            assert planner is vertex.planner_of(kind)
            windows, have = _read(planner, kind, span_id)
            assert windows == {(alloc.at, alloc.end)}
            assert have == want, (vertex.name, kind, alloc.selections)
            booked.setdefault(id(planner), set()).add(span_id)
        for sel in alloc.selections:
            shapes.add(("passthrough" if sel.passthrough else
                        "exclusive" if sel.exclusive else
                        "zero" if not sel.amount else "amount"))
    for vertex in graph.vertices():  # nothing extra
        assert {s.span_id for s in vertex.plans.spans()} == booked.get(
            id(vertex.plans), set())
        assert {s.span_id for s in vertex.xplans.spans()} == booked.get(
            id(vertex.xplans), set())
        if vertex.prune_filters is not None:
            assert set(vertex.prune_filters.span_ids()) == booked.get(
                id(vertex.prune_filters), set())
    expected = expected_span_table(sim)  # and the consumers' scan agrees
    assert [f for v in graph.vertices() for f in scan_planners(v, expected)] == []
    assert {"passthrough", "exclusive"} <= shapes


def _span_sets(sim):
    """Per-vertex span sets of ``state_fingerprint``: auto-id counters and
    per-type filter span ids (reassigned by a rebuild) left out."""
    out = {}
    for name, entry in state_fingerprint(sim)["vertices"].items():
        spans = {
            kind: sorted(
                (s["id"], s["start"], s["end"], s["request"])
                for s in entry[kind]["spans"]
            )
            for kind in ("plans", "xplans")
        }
        if "filter" in entry:
            planners = entry["filter"]["planners"]
            spans["filter"] = {
                bundle: sorted(
                    (rtype,) + next(
                        (s["start"], s["end"], s["request"])
                        for s in planners[rtype]["spans"]
                        if s["id"] == per_type
                    )
                    for rtype, per_type in per.items()
                )
                for bundle, per in entry["filter"]["spans"].items()
            }
        out[name] = spans
    return out


@pytest.mark.parametrize("make_graph", [_tiny, _med])
def test_salvaged_planners_equal_strict_restore(make_graph):
    rng = random.Random(5)
    graph = make_graph()
    sim = ClusterSimulator(graph, match_policy="low", queue="conservative")
    for i in range(14):
        sim.submit(_random_jobspec(rng, graph), at=i * 30)
    sim.run(until=300)
    assert sim.traverser.allocations
    doc = snapshot_state(sim)
    strict = restore_simulator(doc)
    salvaged_doc = {k: v for k, v in doc.items() if k != "planners"}
    salvaged = restore_simulator(salvaged_doc, salvaged=["planners"])
    assert _span_sets(salvaged) == _span_sets(strict) == _span_sets(sim)
    InvariantAuditor(deep=True).check(salvaged)


# ----------------------------------------------------------------------
# a planned outage is expected state, not corruption
# ----------------------------------------------------------------------
def _outage_sim(**kwargs):
    graph = tiny_cluster()
    schedule = CapacitySchedule(graph)
    outage = schedule.add_outage(graph.find(type="node")[-1], start=100,
                                 duration=200)
    sim = ClusterSimulator(graph, match_policy="first", queue="easy", **kwargs)
    for i in range(4):
        sim.submit(nodes_jobspec(1, duration=150), at=i * 20)
    return sim, schedule, outage


def test_outage_is_neither_finding_nor_violation():
    sim, schedule, outage = _outage_sim(
        audit=True, integrity=IntegrityConfig(scrub_window=None)
    )
    held = [(planner, span_id) for planner, span_id in outage._span_records]
    assert sim.integrity.scan() == []
    report = sim.run()  # raises InvariantViolation on any audit finding
    assert len(report.completed) == 4
    assert sim.auditor.checks_run >= 4
    assert sim.auditor.collect(sim) == []
    counters = sim.integrity.counters
    assert counters["detected"] == counters["repair_actions"] == 0
    assert sim.integrity.scan() == []
    assert all(planner.has_span(span_id) for planner, span_id in held)
    schedule.cancel(outage.outage_id)
    assert not any(planner.has_span(span_id) for planner, span_id in held)
    assert sim.integrity.scan() == [] and sim.auditor.collect(sim) == []


def test_rogue_span_beside_an_outage_is_still_reported():
    sim, schedule, outage = _outage_sim(
        audit=True, integrity=IntegrityConfig(scrub_window=None)
    )
    sim.run(until=0)
    node = sim.graph.find(type="node")[0]
    node.plans.add_span(5000, 100, 1)  # booked outside allocation and outage
    findings = sim.integrity.scan()
    assert [(f.vertex, f.kind, f.planner) for f in findings] == [
        (node.name, "span-orphan", "plans")
    ]
    violations = sim.auditor.collect(sim)
    assert [(v.invariant, v.subject) for v in violations] == [
        ("span-accounting", f"{node.name}.plans")
    ]


# ----------------------------------------------------------------------
# IntegrityConfig.from_dict
# ----------------------------------------------------------------------
def test_from_dict_names_an_unknown_field():
    with pytest.raises(IntegrityError, match="scrub_windw"):
        IntegrityConfig.from_dict({"scrub_windw": 4})


def test_from_dict_ignores_the_retired_check_orphans():
    old = dict(IntegrityConfig(scrub_window=3).to_dict(), check_orphans=False)
    assert IntegrityConfig.from_dict(old) == IntegrityConfig(scrub_window=3)
    assert "check_orphans" not in IntegrityConfig().to_dict()
    # the head-of-cycle scrub's cadence and work budget, as a parent wrote them
    old.update(scrub_every=1, scrub_budget=None, checkpoint_interval=32)
    assert IntegrityConfig.from_dict(old) == IntegrityConfig(scrub_window=3)
    assert sorted(IntegrityConfig().to_dict()) == ["auto_repair", "scrub_window"]
