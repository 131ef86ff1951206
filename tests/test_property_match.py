"""Property-based tests for the traverser's core guarantees.

Invariants checked on randomized graphs and workloads:

1. **Pruning is transparent** — with and without pruning filters the
   traverser produces identical allocations (§3.4: filters only cut work).
2. **No overcommit, ever** — after arbitrary allocate/reserve/remove
   sequences every vertex planner's internal state is consistent
   (check_invariants recomputes in_use from active spans).
3. **Removal is exact inverse** — removing everything restores pristine
   planners and filters.
4. **Whole-node agreement with the flat baseline** — on node-only
   workloads the graph model and the node-centric bitmap scheduler assign
   identical start times.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import NodeCentricScheduler
from repro.grug import tiny_cluster
from repro.jobspec import nodes_jobspec, simple_node_jobspec
from repro.match import Traverser


def assert_pristine(graph):
    for v in graph.vertices():
        assert v.plans.span_count == 0
        assert v.xplans.span_count == 0
        v.plans.check_invariants()
        v.xplans.check_invariants()
        if v.prune_filters is not None:
            assert v.prune_filters.span_count == 0
            v.prune_filters.check_invariants()


jobs_strategy = st.lists(
    st.tuples(
        st.sampled_from(["cores", "nodes"]),
        st.integers(1, 6),     # count
        st.integers(1, 200),   # duration
    ),
    min_size=1,
    max_size=25,
)


def make_jobspec(kind, count, duration):
    if kind == "cores":
        return simple_node_jobspec(cores=count, duration=duration)
    return nodes_jobspec(count, duration=duration)


@given(jobs_strategy, st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_property_pruned_equals_unpruned(jobs, seed):
    graphs = [tiny_cluster(racks=2, nodes_per_rack=2, cores=6) for _ in range(2)]
    traversers = [
        Traverser(graphs[0], policy="low", prune=True),
        Traverser(graphs[1], policy="low", prune=False),
    ]
    rng = random.Random(seed)
    live = [[], []]
    for kind, count, duration in jobs:
        action = rng.random()
        if action < 0.25 and live[0]:
            idx = rng.randrange(len(live[0]))
            for side in range(2):
                traversers[side].remove(live[side].pop(idx))
            continue
        jobspec = make_jobspec(kind, count, duration)
        results = [
            t.allocate_orelse_reserve(jobspec, now=0) for t in traversers
        ]
        assert (results[0] is None) == (results[1] is None)
        if results[0] is not None:
            assert results[0].at == results[1].at
            assert sorted(v.name for v in results[0].nodes()) == sorted(
                v.name for v in results[1].nodes()
            )
            for side in range(2):
                live[side].append(results[side].alloc_id)


@given(jobs_strategy, st.sampled_from(["first", "low", "high", "locality"]))
@settings(max_examples=30, deadline=None)
def test_property_no_overcommit_and_clean_removal(jobs, policy):
    graph = tiny_cluster(racks=2, nodes_per_rack=3, cores=4)
    traverser = Traverser(graph, policy=policy)
    for kind, count, duration in jobs:
        traverser.allocate_orelse_reserve(make_jobspec(kind, count, duration), now=0)
    # Internal consistency of every planner while loaded.
    for v in graph.vertices():
        v.plans.check_invariants()
        v.xplans.check_invariants()
        if v.prune_filters is not None:
            v.prune_filters.check_invariants()
    # Core capacity is never exceeded at any probe time.
    for v in graph.vertices("core"):
        for probe in (0, 50, 150):
            assert 0 <= v.plans.avail_resources_at(probe) <= v.size
    traverser.remove_all()
    assert_pristine(graph)


@given(jobs_strategy, st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_property_random_interleaved_removal(jobs, rnd):
    graph = tiny_cluster(racks=2, nodes_per_rack=2, cores=4)
    traverser = Traverser(graph, policy="first")
    live = []
    for kind, count, duration in jobs:
        if live and rnd.random() < 0.4:
            traverser.remove(live.pop(rnd.randrange(len(live))))
        alloc = traverser.allocate_orelse_reserve(
            make_jobspec(kind, count, duration), now=0
        )
        if alloc is not None:
            live.append(alloc.alloc_id)
    rnd.shuffle(live)
    for alloc_id in live:
        traverser.remove(alloc_id)
    assert_pristine(graph)


@given(
    st.lists(
        st.tuples(st.integers(1, 8), st.integers(1, 500)),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=30, deadline=None)
def test_property_whole_node_agreement_with_flat_baseline(trace):
    """On whole-node jobs the graph model reproduces the classic scheduler."""
    graph = tiny_cluster(racks=2, nodes_per_rack=4, cores=1, gpus=0,
                         memory_pools=0, prune_types=("node",))
    tree = Traverser(graph, policy="low")
    flat = NodeCentricScheduler(8)
    for nnodes, duration in trace:
        a = tree.allocate_orelse_reserve(
            nodes_jobspec(nnodes, duration=duration), now=0
        )
        b = flat.allocate_orelse_reserve(nnodes, duration, now=0)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.at == b.at, (nnodes, duration)


@given(st.lists(st.integers(1, 4), min_size=1, max_size=12))
@settings(max_examples=30, deadline=None)
def test_property_reservations_never_overlap_per_node(counts):
    """Any two allocations sharing an exclusively-held node must be disjoint
    in time — the fundamental correctness property of backfilling."""
    graph = tiny_cluster(racks=1, nodes_per_rack=4, cores=2)
    traverser = Traverser(graph, policy="low")
    allocations = []
    for count in counts:
        alloc = traverser.allocate_orelse_reserve(
            nodes_jobspec(count, duration=100), now=0
        )
        if alloc is not None:
            allocations.append(alloc)
    per_node = {}
    for alloc in allocations:
        for node in alloc.nodes():
            per_node.setdefault(node.uniq_id, []).append((alloc.at, alloc.end))
    for intervals in per_node.values():
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2, intervals


@given(
    st.lists(
        st.tuples(
            st.integers(1, 4),      # nnodes
            st.integers(10, 300),   # duration
            st.integers(0, 500),    # submit offset
            st.integers(0, 3),      # priority
        ),
        min_size=1,
        max_size=15,
    ),
    st.sampled_from(["fcfs", "easy", "conservative"]),
)
@settings(max_examples=25, deadline=None)
def test_property_simulation_invariants(trace, queue):
    """End-to-end: every satisfiable job completes exactly once, node holds
    never overlap, and the graph drains clean — under every queue policy."""
    from repro.sched import ClusterSimulator, JobState

    graph = tiny_cluster(racks=1, nodes_per_rack=4, cores=2)
    sim = ClusterSimulator(graph, match_policy="low", queue=queue)
    for nnodes, duration, offset, priority in trace:
        sim.submit(nodes_jobspec(nnodes, duration=duration), at=offset,
                   priority=priority)
    report = sim.run()
    for job in report.jobs:
        assert job.state in (JobState.COMPLETED, JobState.CANCELED)
        if job.state is JobState.COMPLETED:
            assert job.start_time >= job.submit_time
            assert job.end_time - job.start_time == job.jobspec.duration
    per_node = {}
    for job in report.completed:
        for alloc in job.allocations:
            for node in alloc.nodes():
                per_node.setdefault(node.uniq_id, []).append(
                    (alloc.at, alloc.end)
                )
    for intervals in per_node.values():
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2
    assert_pristine(graph)


def _random_jobspec(rng, shape):
    """One request of every shape the root-aggregate gate has to bound."""
    from repro.jobspec import Jobspec, ResourceRequest, pool_jobspec, slot

    nodes = shape["racks"] * shape["nodes_per_rack"]
    duration = rng.randint(1, 300)
    kind = rng.choice(
        ["nodes", "shared", "moldable-nodes", "moldable-cores", "pool",
         "requires", "racks"]
    )
    if kind == "nodes":
        return nodes_jobspec(rng.randint(1, nodes + 1), duration=duration)
    if kind == "shared":  # non-exclusive nodes, exclusive cores inside
        return simple_node_jobspec(
            cores=rng.randint(1, shape["cores"] + 1),
            memory=rng.choice([0, 0, 4, 20]) if shape["memory_pools"] else 0,
            gpus=rng.randint(0, shape["gpus"]),
            nodes=rng.randint(1, 2),
            duration=duration,
            node_exclusive=rng.random() < 0.2,
        )
    if kind == "moldable-nodes":
        low = rng.randint(1, nodes)
        request = ResourceRequest(
            type="node", count=low, count_max=low + rng.randint(1, 3)
        )
        return Jobspec(resources=(slot(1, request),), duration=duration)
    if kind == "moldable-cores":
        low = rng.randint(1, shape["cores"])
        cores = ResourceRequest(
            type="core", count=low, count_max=low + rng.randint(1, 4)
        )
        node = ResourceRequest(type="node", count=1, with_=(slot(1, cores),))
        return Jobspec(resources=(node,), duration=duration)
    if kind == "pool" and shape["memory_pools"]:
        return pool_jobspec(
            "memory", rng.randint(1, 40), within=rng.choice([None, "node"]),
            duration=duration,
        )
    if kind == "racks":
        # Shared racks only: an *exclusive* rack over a node in an outage
        # window double-charges the filters and its booking is refused
        # (ROADMAP 5).
        rack = ResourceRequest(
            type="rack", count=rng.randint(1, shape["racks"]),
            with_=(slot(1, ResourceRequest(type="node", count=1)),),
        )
        return Jobspec(resources=(rack,), duration=duration)
    request = ResourceRequest(
        type="node", count=rng.randint(1, 3),
        requires=f"perf_class<={rng.randint(1, 3)}",
    )
    return Jobspec(resources=(slot(1, request),), duration=duration)


@given(st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_property_gated_allocate_equals_unfiltered(seed):
    """``allocate`` behind the root-aggregate gate (and every other filter)
    selects exactly what ``Traverser(prune=False)`` selects, or fails exactly
    when it fails — on loaded graphs with drained vertices and outage
    windows, at start times inside and outside them."""
    from repro.sched import CapacitySchedule

    rng = random.Random(seed)
    shape = dict(
        racks=rng.randint(1, 3), nodes_per_rack=rng.randint(1, 3),
        cores=rng.randint(2, 5), gpus=rng.randint(0, 1),
        memory_pools=rng.randint(0, 2),
    )
    prune_types = rng.choice(
        [("core", "node", "memory", "gpu"), ("node",), ("core", "memory")]
    )
    policy = rng.choice(["first", "low", "high", "locality"])
    drained = rng.sample(range(20), rng.randint(0, 2))
    outages = [  # disjoint windows: overlapping outages refuse to book
        (rng.randrange(20), start + rng.randint(0, 100), rng.randint(20, 150))
        for start in rng.sample([0, 300], rng.randint(0, 2))
    ]
    sides = []
    for prune in (True, False):
        graph = tiny_cluster(plan_end=1000, prune_types=prune_types, **shape)
        holders = sorted(
            graph.find(type="node") + graph.find(type="rack"),
            key=lambda v: v.name,
        )
        for index, node in enumerate(graph.find(type="node")):
            node.properties["perf_class"] = index % 3 + 1
        for index in drained:
            graph.mark_down(holders[index % len(holders)])
        capacity = CapacitySchedule(graph)
        for index, start, length in outages:
            capacity.add_outage(holders[index % len(holders)], start, length)
        sides.append(Traverser(graph, policy=policy, prune=prune))
    for _ in range(rng.randint(1, 14)):
        jobspec = _random_jobspec(rng, shape)
        at = rng.choice([0, 0, rng.randint(0, 400), rng.randint(600, 1000)])
        gated, plain = (t.allocate(jobspec, at=at) for t in sides)
        assert (gated is None) == (plain is None), (jobspec.summary(), at)
        if gated is not None:
            assert [
                (s.vertex.name, s.amount, s.exclusive, s.passthrough)
                for s in gated.selections
            ] == [
                (s.vertex.name, s.amount, s.exclusive, s.passthrough)
                for s in plain.selections
            ], (jobspec.summary(), at)
