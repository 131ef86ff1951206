"""``satisfiable`` is answered once per jobspec shape until the structure
changes (``ResourceGraph.structure``), and what rides on the same epoch.

* the long-lived traverser answers as a freshly built one after any sequence
  of structure changes, and ``graph.pool_types`` equals a recomputation
  (property test);
* every function that changes what exists or is in service moves
  ``structure``; releasing or booking capacity never does;
* what is never remembered: a no, a shape with a ``requires``, anything
  across a policy swap or a snapshot restore;
* a job longer than the planning horizon is unsatisfiable, under every queue
  policy and for ``resource-query``;
* an interior vertex is asked its pruning filter before its x-plan.
"""

import io
import json

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ClusterSimulator, Traverser, nodes_jobspec, tiny_cluster
from repro.cli import ResourceQuery
from repro.errors import ResourceGraphError
from repro.jobspec import (
    Jobspec,
    ResourceRequest,
    pool_jobspec,
    rack_spread_jobspec,
    simple_node_jobspec,
    slot,
)
from repro.match.policy import make_policy
from repro.obs import Observer
from repro.recovery import IntegrityConfig, apply_corruption
from repro.recovery.snapshot import restore_simulator, snapshot_state
from repro.resource import ResourceGraph, coarsen_pools, refine_pool
from repro.resource.jgf import from_jgf, to_jgf
from repro.sched import CancelReason
from repro.sched.capacity import CapacitySchedule
from repro.sched.elastic import grow, resize_pool, shrink_subtree

NODE = {"type": "node", "with": [{"type": "core", "count": 2}]}


def hits(traverser):
    return traverser.metrics.as_dict()["dfu.satisfiable_hits"]


def visits(traverser):
    return traverser.metrics.as_dict()["dfu.visits"]


def moldable_nodes(low, high):
    node = ResourceRequest(type="node", count=low, count_max=high)
    return Jobspec(resources=(slot(1, node),), duration=60)


#: whole nodes, node-local slots, pools, a moldable range, a rack spread
SHAPES = [
    nodes_jobspec(2, 60),
    nodes_jobspec(4, 60),
    nodes_jobspec(5, 60),
    simple_node_jobspec(cores=2, duration=60),
    simple_node_jobspec(cores=3, duration=60),
    simple_node_jobspec(cores=1, memory=9, nodes=4, duration=60),
    simple_node_jobspec(cores=2, memory=4, nodes=3, duration=60),
    pool_jobspec("memory", 30, duration=60),
    pool_jobspec("memory", 33, duration=60),
    pool_jobspec("memory", 8, within="node", duration=60),
    moldable_nodes(3, 8),
    moldable_nodes(5, 8),
    rack_spread_jobspec(2, 1, 2, cores_per_node=1, duration=60),
]


# ----------------------------------------------------------------------
# (a) the long-lived traverser against a fresh one
# ----------------------------------------------------------------------
def pick(items, index):
    return items[index % len(items)] if items else None


def orphans(graph):
    """Vertices no containment edge touches (made by ``detached``)."""
    attached = {e.src for e in graph.edges()} | {e.dst for e in graph.edges()}
    return [v for v in graph.vertices() if v.uniq_id not in attached]


def apply_op(sim, op, a, b):
    """One structure change, chosen by ``op`` and two indices; an op whose
    target does not exist (any more) does nothing."""
    graph = sim.graph

    def find(rtype):
        return graph.find(type=rtype)

    if op == "detached":  # add_vertex alone: a pool nothing reaches yet
        graph.add_vertex(["gpu", "core"][a % 2], size=1 + b % 3)
    elif op == "detached_node":  # a one-node tree of its own, matched too
        graph.add_edge(graph.add_vertex("node"), graph.add_vertex("core"))
    elif op == "attach":  # add_edge alone
        child, parent = pick(orphans(graph), a), pick(find("node"), b)
        if child is not None and parent is not None and child is not parent:
            graph.add_edge(parent, child)
    elif op == "attach_root":  # add_edge alone: under a rack, maybe a drained one
        node = pick([r for r in graph.roots() if r.type == "node"], a)
        if node is not None:
            graph.add_edge(pick(find("rack"), b), node)
    elif op == "remove_edge":
        leaf = pick([v for v in find("core") if graph.parents(v)], a)
        if leaf is not None:
            graph.remove_edge(graph.parents(leaf)[0], leaf)
    elif op == "remove_vertex":
        leaves = orphans(graph) + find("core") + find("memory")
        leaf = pick([v for v in leaves if not graph.children(v)], a)
        if leaf is not None:
            graph.remove_vertex(leaf)
    elif op == "mark_down":
        graph.mark_down(pick(find("node") + find("rack"), a))
    elif op == "mark_up":
        down = [v for v in graph.vertices() if v.status != "up"]
        if down:
            graph.mark_up(pick(down, a))
    elif op == "grow":
        grow(graph, pick(find("rack"), a), NODE)
    elif op == "shrink":
        victim = pick(find("node"), a)
        if victim is not None and len(find("node")) > 1:
            try:
                shrink_subtree(graph, victim)
            except ResourceGraphError:
                pass  # a corrupted size inside: refused, graph untouched
    elif op == "resize":
        pools = [v for v in find("memory") if graph.parents(v)]
        if pools:
            try:
                resize_pool(graph, pick(pools, a), b % 7)
            except ResourceGraphError:
                pass  # a corrupted size: refused, graph untouched
    elif op == "coarsen":
        node = pick(find("node"), a)
        pools = [
            v for v in graph.children(node) if v.type == "memory"
        ] if node is not None else []
        if len(pools) >= 2:
            coarsen_pools(graph, pools[:2])
    elif op == "refine":
        pools = [
            v for v in find("memory")
            if v.size >= 2 and len(graph.parents(v)) == 1
        ]
        if pools:
            pool = pick(pools, a)
            refine_pool(graph, pool, [1, pool.size - 1])
    elif op == "corrupt":
        apply_corruption(sim, pick(find("memory") + find("core"), a),
                         "structure", salt=b)
    else:  # a repair restore of whatever the baseline knows
        assert op == "restore"
        for vertex in list(graph.vertices()):
            base = sim.integrity.baseline_structure(vertex)
            if base is not None and base["size"] != vertex.size:
                sim.integrity._engine.restore_structure(vertex)


OPS = [
    "detached", "detached_node", "attach", "attach_root", "remove_edge",
    "remove_vertex", "mark_down", "mark_up", "grow", "shrink", "resize",
    "coarsen", "refine", "corrupt", "restore",
]


@given(st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 11), st.integers(0, 11)),
    min_size=1, max_size=14,
))
@example([("mark_down", 4, 0), ("detached_node", 0, 0), ("attach_root", 0, 0)])
@example([("remove_edge", 0, 0)])
@example([("detached", 1, 2), ("remove_vertex", 0, 0)])
@example([("corrupt", 0, 0), ("restore", 0, 0)])
@example([("resize", 0, 6), ("resize", 0, 1)])
@example([("corrupt", 8, 2), ("shrink", 0, 0)])
@example([("resize", 3, 0), ("corrupt", 2, 0), ("resize", 2, 0)])
@settings(max_examples=60, deadline=None)
def test_long_lived_traverser_answers_as_a_fresh_one(ops):
    graph = tiny_cluster(2, 2, cores=2, gpus=0, memory_pools=2, memory_size=4)
    sim = ClusterSimulator(
        graph, "low", integrity=IntegrityConfig(auto_repair=False)
    )
    kept = sim.traverser

    def check():
        fresh = Traverser(graph, "low")
        for spec in SHAPES:
            for assume_up in (False, True):
                assert kept.satisfiable(spec, assume_up) == fresh.satisfiable(
                    spec, assume_up
                ), (spec.summary(), assume_up)
        assert graph.pool_types == frozenset(
            v.type for v in graph.vertices() if v.size != 1
        )

    check()
    for op, a, b in ops:
        apply_op(sim, op, a, b)
        check()


# ----------------------------------------------------------------------
# who moves ``structure`` and who does not
# ----------------------------------------------------------------------
def small():
    return tiny_cluster(1, 3, cores=2, gpus=0, memory_pools=1, memory_size=8)


def first(graph, rtype, index=0):
    return graph.find(type=rtype)[index]


STRUCTURAL = {
    "add_vertex": lambda g: g.add_vertex("gpu"),
    "add_edge": lambda g: g.add_edge(first(g, "node"), g.add_vertex("gpu")),
    "remove_edge": lambda g: g.remove_edge(first(g, "node"), first(g, "core")),
    "remove_vertex": lambda g: g.remove_vertex(g.add_vertex("gpu")),
    "mark_down": lambda g: g.mark_down(first(g, "node")),
    "mark_up": lambda g: g.mark_up(first(g, "node")),
    "resize_pool": lambda g: resize_pool(g, first(g, "memory"), 4),
    "grow": lambda g: grow(g, first(g, "rack"), NODE),
    "shrink_subtree": lambda g: shrink_subtree(g, first(g, "node")),
    "coarsen_pools": lambda g: coarsen_pools(g, g.find(type="core")[:2]),
    "refine_pool": lambda g: refine_pool(g, first(g, "memory"), [3, 5]),
}


@pytest.mark.parametrize("site", sorted(STRUCTURAL))
def test_structure_moves_with_every_change_to_the_machine(site, monkeypatch):
    graph = small()
    calls = []  # a compound action makes several; each must say structural
    real = ResourceGraph.note_change

    def note_change(self, planned=False, structural=False):
        calls.append(structural)
        real(self, planned, structural)

    monkeypatch.setattr(ResourceGraph, "note_change", note_change)
    seen = graph.structure
    STRUCTURAL[site](graph)
    assert calls and all(calls)
    assert graph.structure == seen + len(calls)


def test_corruption_and_its_repair_move_structure():
    sim = ClusterSimulator(small(), integrity=IntegrityConfig(auto_repair=False))
    pool = first(sim.graph, "memory")
    seen = sim.graph.structure
    assert apply_corruption(sim, pool, "structure", salt=1)
    assert sim.graph.structure == seen + 1 and pool.size != 8
    assert sim.integrity._engine.restore_structure(pool)
    assert sim.graph.structure == seen + 2 and pool.size == 8


def test_a_drained_vertex_in_jgf_goes_through_mark_down():
    graph = small()
    graph.mark_down(first(graph, "node", 1))
    loaded = from_jgf(to_jgf(graph))
    assert [v.status for v in loaded.find(type="node")] == ["up", "down", "up"]
    assert not Traverser(loaded).satisfiable(nodes_jobspec(3))
    doc = to_jgf(graph)
    doc["graph"]["nodes"][0]["metadata"]["status"] = "sideways"
    with pytest.raises(ResourceGraphError, match="unknown status 'sideways'"):
        from_jgf(doc)


def test_capacity_changes_alone_never_move_structure():
    """Booking, releasing, truncating and a planned outage change what is
    free, not what exists: the remembered yes keeps being the answer."""
    graph = small()
    traverser = Traverser(graph, "low")
    spec = nodes_jobspec(3, 100)
    assert traverser.satisfiable(spec)
    seen = graph.structure
    asked = 0

    def still_remembered():
        nonlocal asked
        asked += 1
        assert traverser.satisfiable(spec)
        assert hits(traverser) == asked
        assert graph.structure == seen

    alloc = traverser.allocate(spec, at=0)
    still_remembered()
    traverser.update_end(alloc.alloc_id, 50)
    still_remembered()
    traverser.remove(alloc.alloc_id)
    still_remembered()
    reserved = traverser.allocate_orelse_reserve(spec, now=0)
    traverser.remove(reserved.alloc_id, now=200)
    still_remembered()
    capacity = CapacitySchedule(graph)
    outage = capacity.add_outage(first(graph, "node"), 0, 100)
    still_remembered()
    capacity.cancel(outage.outage_id)
    still_remembered()
    # one entry per distinct shape asked, however often and for how long
    assert traverser.satisfiable(nodes_jobspec(3, 7))
    assert len(traverser._satisfiable_yes) == 1


# ----------------------------------------------------------------------
# what is never remembered
# ----------------------------------------------------------------------
def test_a_no_is_walked_every_time():
    traverser = Traverser(small(), "low")
    for _ in range(2):
        seen = visits(traverser)
        assert not traverser.satisfiable(nodes_jobspec(4))
        assert visits(traverser) > seen
    assert hits(traverser) == 0 and not traverser._satisfiable_yes


def test_a_shape_with_requires_follows_an_in_place_properties_edit():
    graph = small()
    for node in graph.find(type="node"):
        node.properties["perf_class"] = 1
    fast = ResourceRequest(
        type="node", count=1, exclusive=True, requires="perf_class<=1"
    )
    spec = Jobspec(resources=(slot(3, fast),), duration=60)
    traverser = Traverser(graph, "low")
    for _ in range(2):
        seen = visits(traverser)
        assert traverser.satisfiable(spec)
        assert visits(traverser) > seen
    assert hits(traverser) == 0
    first(graph, "node").properties["perf_class"] = 3  # tells nobody
    assert not traverser.satisfiable(spec)


def test_policy_swap_starts_from_an_empty_memo():
    traverser, spec = Traverser(small(), "low"), nodes_jobspec(2, 60)
    assert traverser.satisfiable(spec) and traverser.satisfiable(spec)
    assert hits(traverser) == 1
    low = traverser.policy
    traverser.policy = make_policy("first")
    # walked under the swapped policy
    assert traverser.satisfiable(spec) and hits(traverser) == 1
    traverser.policy = low
    assert traverser.satisfiable(spec) and hits(traverser) == 1  # and again
    assert traverser.satisfiable(spec) and hits(traverser) == 2


def test_snapshot_restore_starts_from_an_empty_memo():
    sim = ClusterSimulator(small(), "low", queue="easy")
    sim.submit(nodes_jobspec(2, 60), at=0)
    sim.submit(nodes_jobspec(2, 60), at=1)
    sim.run(until=1)
    assert hits(sim.traverser) == 1
    doc = snapshot_state(sim)
    assert doc["graph_changes"] == [sim.graph.freed, sim.graph.unplanned]
    assert "satisfiable" not in json.dumps(doc)
    restored = restore_simulator(json.loads(json.dumps(doc)))
    assert not restored.traverser._satisfiable_yes
    assert hits(restored.traverser) == 0
    seen = visits(restored.traverser)
    assert restored.traverser.satisfiable(nodes_jobspec(2, 60))
    assert visits(restored.traverser) > seen


# ----------------------------------------------------------------------
# a job longer than the planning horizon
# ----------------------------------------------------------------------
@pytest.mark.parametrize("queue", ["fcfs", "easy", "conservative"])
def test_job_longer_than_the_horizon_is_canceled_at_submit(queue):
    graph = tiny_cluster(1, 4, cores=1, gpus=0, memory_pools=0, plan_end=1000)
    sim = ClusterSimulator(graph, queue=queue, observe=True)
    endless = sim.submit(nodes_jobspec(1, duration=5000), at=0)
    short = sim.submit(nodes_jobspec(1, duration=10), at=1)
    fits = sim.submit(nodes_jobspec(1, duration=1000), at=2)
    report = sim.run()
    assert endless.cancel_reason is CancelReason.UNSATISFIABLE
    assert report.unsatisfiable == [endless]
    assert "planner horizon exceeded: duration=5000" in report.explain(1)
    assert short.start_time == 1
    # the horizon is per duration, the memo per shape: same shape, other answer
    assert fits.cancel_reason is None and hits(sim.traverser) == 1


def test_resource_query_says_no_to_a_job_longer_than_the_horizon(tmp_path):
    out = io.StringIO()
    query = ResourceQuery(tiny_cluster(plan_end=1000), out=out)
    for name, duration in (("fits", 1000), ("endless", 1001)):
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(nodes_jobspec(1, duration).to_dict()))
        query.execute(f"match satisfiability {path}")
    assert out.getvalue().count("satisfiability: yes") == 1
    assert out.getvalue().count("satisfiability: no") == 1


def test_retry_waits_for_a_repair_without_touching_status():
    """``assume_up`` walks past drained status; nothing writes it."""
    graph = small()
    graph.mark_down(first(graph, "node"))
    traverser = Traverser(graph, "low")
    seen = graph.structure
    assert not traverser.satisfiable(nodes_jobspec(3))
    assert traverser.satisfiable(nodes_jobspec(3), assume_up=True)
    assert traverser.satisfiable(nodes_jobspec(3), assume_up=True)
    assert hits(traverser) == 1  # remembered under its own key
    assert not traverser.satisfiable(nodes_jobspec(3))
    assert not traverser.satisfiable(nodes_jobspec(4), assume_up=True)
    assert first(graph, "node").status == "down" and graph.structure == seen


# ----------------------------------------------------------------------
# the filter is asked before the x-plan
# ----------------------------------------------------------------------
def test_interior_vertex_failing_filter_and_xplan_is_a_filter_prune():
    graph = tiny_cluster(2, 2, cores=2, gpus=0, memory_pools=0)
    obs = Observer()
    traverser = Traverser(graph, "low", obs=obs)
    whole_rack = Jobspec(
        resources=(slot(1, ResourceRequest(type="rack", count=1)),),
        duration=100,
    )
    assert traverser.allocate(whole_rack, at=0) is not None
    before = traverser.metrics.as_dict()["sdfu.filter_hits"]
    obs.why.begin_attempt(1, 0.0, "allocate")
    assert traverser.allocate(nodes_jobspec(1, 50), at=0) is not None
    obs.why.end_attempt("matched")
    (attempt,) = obs.why.export()["jobs"]["1"]["attempts"]
    assert attempt["prune"] == {"filter|rack": 1}
    assert traverser.metrics.as_dict()["sdfu.filter_hits"] == before + 1
