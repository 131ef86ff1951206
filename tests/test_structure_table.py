"""The graph's structure-derived table (``ResourceGraph._table``) and the
two things the traverser reads from it.

* after any sequence of structure changes a long-lived graph's SDFU chain,
  ancestor ids, children worth visiting, tracked totals, children, roots
  and the gate's cuts equal a derivation from nothing on a JGF round-trip of the same graph
  (property test, over ``test_satisfiable_once``'s op generator), and
  ``install_pruning_filters`` on a live graph drops the chains;
* the walk that skips childless vertices of another type selects what the
  walk that visits every child selects, in the same order, and never visits
  more — the unskipped walk lives on here, as the reference;
* nesting is graph ancestry, not canonical path: the rabbit DAG (§5.1) is
  scheduled and charged the same in either edge order.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ClusterSimulator, Traverser, tiny_cluster
from repro.grug import LOD_NAMES, build_lod, rabbit_system
from repro.jobspec import (
    Jobspec,
    ResourceRequest,
    simple_node_jobspec,
    slot,
)
from repro.recovery import IntegrityConfig
from repro.resource import CONTAINMENT, ResourceGraph
from repro.resource.jgf import from_jgf, to_jgf
from repro.statcheck.sanitizer import FluxSan
from repro.usecases.rabbit import global_storage_job, node_local_storage_job

from .test_satisfiable_once import OPS, apply_op
from .test_sdfu_reference import EXCLUSIVE_RACK_WITH_STORAGE, rabbit_dag

TYPES = ("cluster", "rack", "node", "core", "memory", "gpu")


# ----------------------------------------------------------------------
# (a) kept == derived from nothing, after every structure change
# ----------------------------------------------------------------------
def names(vertices):
    return [v.name for v in vertices]


def assert_table_as_from_nothing(graph):
    """Everything the table answers for ``graph`` against plain walks of a
    graph rebuilt from its JGF (which has never been asked anything)."""
    fresh = from_jgf(to_jgf(graph))
    twin = {v.name: v for v in fresh.vertices()}
    assert sorted(twin) == sorted(names(graph.vertices()))
    holders = {v.name for v in graph.vertices() if v.prune_filters is not None}
    assert names(graph.roots()) == names(fresh.roots())
    assert graph.pool_types == frozenset(
        v.type for v in fresh.vertices() if v.size != 1
    )
    for vertex in graph.vertices():
        other = twin[vertex.name]
        above = names(fresh.ancestors(other))
        chain, ids = graph.ancestry(vertex)
        assert names(chain) == [n for n in above if n in holders], vertex.name
        assert names(graph.vertex(uid) for uid in ids) == above, vertex.name
        children = fresh.children(other)
        assert names(graph.children_tuple(vertex)) == names(children)
        for rtype in TYPES:
            assert names(graph.children_toward(vertex, rtype)) == [
                c.name for c in children
                if c.type == rtype or fresh.children(c)
            ], (vertex.name, rtype)
        below = fresh.subtree_totals(other)
        below[other.type] -= other.size
        assert graph.tracked_below(vertex) == {
            t: n for t, n in below.items() if n > 0 and t in graph.prune_types
        }, vertex.name
    for rtype in TYPES:
        assert graph.cover(CONTAINMENT, rtype) == cover_from_nothing(
            graph, fresh, rtype), rtype


def cover_from_nothing(graph, fresh, rtype):
    """``graph.cover`` by plain walks of ``fresh``: the ``rtype`` planners
    of the one root's children (or of the roots), None where a member
    holding the type has no filter tracking it."""
    roots = fresh.roots()
    members = roots
    if len(roots) == 1:
        members = [] if roots[0].type == rtype else fresh.children(roots[0])
    if rtype not in graph.prune_types or not members:
        return None
    planners = []
    for member in members:
        if not fresh.subtree_totals(member).get(rtype):
            continue
        filters = graph.vertex_by_name(member.name).prune_filters
        if filters is None or not filters.tracks(rtype):
            return None
        planners.append(filters.planner(rtype))
    return tuple(planners)


@given(st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 11), st.integers(0, 11)),
    min_size=1, max_size=14,
))
@example([("mark_down", 4, 0), ("detached_node", 0, 0), ("attach_root", 0, 0)])
@example([("remove_edge", 0, 0)])
@example([("detached", 1, 2), ("attach", 0, 0), ("remove_vertex", 0, 0)])
@example([("grow", 0, 0), ("shrink", 0, 0)])
@example([("corrupt", 0, 0), ("restore", 0, 0)])
@example([("resize", 0, 6), ("coarsen", 0, 0), ("refine", 0, 0)])
@settings(max_examples=60, deadline=None)
def test_long_lived_table_equals_a_derivation_from_nothing(ops):
    graph = tiny_cluster(2, 2, cores=2, gpus=0, memory_pools=2, memory_size=4)
    sim = ClusterSimulator(
        graph, "low", integrity=IntegrityConfig(auto_repair=False)
    )
    assert_table_as_from_nothing(graph)
    for op, a, b in ops:
        apply_op(sim, op, a, b)
        assert_table_as_from_nothing(graph)


def test_a_drain_keeps_the_table_and_a_structure_change_drops_it():
    graph = tiny_cluster(1, 2, cores=2, gpus=0, memory_pools=0)
    node = graph.find(type="node")[0]
    kept = graph.children_tuple(node)
    graph.mark_down(node)
    graph.mark_up(node)
    assert graph.children_tuple(node) is kept
    graph.add_edge(node, graph.add_vertex("core"))
    assert len(graph.children_tuple(node)) == len(kept) + 1


def test_installing_filters_on_a_live_graph_drops_the_chains():
    graph = tiny_cluster(1, 2, cores=2, gpus=0, memory_pools=0)
    core = graph.find(type="core")[0]
    assert [v.type for v in graph.ancestry(core)[0]] == ["node", "rack", "cluster"]
    assert graph.tracked_below(graph.find(type="node")[0]) == {"core": 2}
    # nothing to track at the nodes and the root: their filters go, the
    # rack (not a target) keeps the one it had
    graph.install_pruning_filters(["gpu"], at_types=["node"])
    assert [v.type for v in graph.ancestry(core)[0]] == ["rack"]
    assert graph.tracked_below(graph.find(type="node")[0]) == {}


def test_nothing_is_derived_before_it_is_asked_for():
    graph = build_lod("med", 2, 2)
    assert all(key[0] in ("roots", "children") for key in graph._table())


# ----------------------------------------------------------------------
# (b) the walk that skips against the walk that visits every child
# ----------------------------------------------------------------------
def unskipped(monkeypatch):
    """Make ``_collect`` visit every child, as it did before the table."""
    monkeypatch.setattr(
        ResourceGraph, "children_toward",
        lambda self, vertex, rtype, subsystem=CONTAINMENT:
            self.children_tuple(vertex, subsystem),
    )


def fill(graph, policy, prune, jobspecs, limit=40):
    """Allocate the jobspecs round-robin until one is refused; what was
    selected, in order, and how many vertices the walk visited."""
    traverser = Traverser(graph, policy, prune=prune)
    picked = []
    for index in range(limit):
        alloc = traverser.allocate(jobspecs[index % len(jobspecs)], at=0)
        if alloc is None:
            break
        picked.append([
            (s.vertex.name, s.amount, s.exclusive, s.passthrough)
            for s in alloc.selections
        ])
    return picked, traverser.metrics.as_dict()["dfu.visits"]


def with_perf_classes(graph):
    for index, node in enumerate(graph.find(type="node")):
        node.properties["perf_class"] = 1 + index % 3
    return graph


REQUIRES = Jobspec(
    resources=(slot(1, ResourceRequest(
        type="node", count=1, requires="perf_class<=2",
        with_=(ResourceRequest(type="core", count=2),
               ResourceRequest(type="memory", count=4)),
    )),),
    duration=100,
)
FIG6A = [simple_node_jobspec(cores=10, memory=8, ssds=1, duration=100)]
SYSTEMS = {
    **{lod: (lambda lod=lod: build_lod(lod, 2, 3), FIG6A) for lod in LOD_NAMES},
    "rabbit": (
        lambda: rabbit_system(chassis=2, nodes_per_chassis=2, cores_per_node=4),
        [node_local_storage_job(1, 2, 2, 300), global_storage_job(400)],
    ),
    "requires": (
        lambda: with_perf_classes(tiny_cluster(2, 3, cores=4)), [REQUIRES],
    ),
}


@pytest.mark.parametrize("prune", [True, False], ids=["prune", "no-prune"])
@pytest.mark.parametrize(
    "policy", ["first", "low", "high", "locality", "variation"]
)
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_skipping_walk_selects_what_the_full_walk_selects(
    system, policy, prune, monkeypatch
):
    build, jobspecs = SYSTEMS[system]
    picked, visits = fill(build(), policy, prune, jobspecs)
    assert picked, "nothing was allocated"
    unskipped(monkeypatch)
    reference, reference_visits = fill(build(), policy, prune, jobspecs)
    assert picked == reference
    assert visits <= reference_visits


def test_skipped_leaves_are_what_the_visit_count_lost():
    """Med LOD, one job: under each node the walk for ``memory`` no longer
    visits 40 cores, 4 gpus and 8 ssds (and likewise for the others), and
    the walk for the 10 cores, a leaf request under ``first``, ends at the
    tenth of the node's 40 cores."""
    _, visits = fill(build_lod("med", 1, 1), "first", True, FIG6A, limit=1)
    # cluster + rack + node, then 10 cores, and the memory and ssd pools
    # (a pool fill walks them all) under the node
    assert visits == 3 + 10 + 8 + 8


# ----------------------------------------------------------------------
# nesting is ancestry: the rabbit DAG in both edge orders
# ----------------------------------------------------------------------
def test_rabbit_dag_is_scheduled_the_same_in_either_edge_order():
    left = {}
    for rack_first in (True, False):
        graph = rabbit_dag(rack_first)
        rabbit = graph.find(type="rabbit")[0]
        assert rabbit.path() == (
            "/cluster0/rack0/rabbit0" if rack_first else "/cluster0/rabbit0"
        )
        with FluxSan() as san:  # its own recompute of the charges agrees
            alloc = Traverser(graph).allocate(EXCLUSIVE_RACK_WITH_STORAGE, at=0)
        assert alloc is not None, f"rack_first={rack_first}"
        assert san.stats["sdfu_checks"] == 1
        left[rack_first] = {
            v.name: v.prune_filters.avail_resources_during(0, 100)
            for v in graph.vertices() if v.prune_filters is not None
        }
    assert left[True] == left[False] == {
        "cluster0": {"core": 0, "ssd": 0},
        "rack0": {"core": 0, "ssd": 0},  # 900 closed by the hold + 100 booked
        "rabbit0": {"ssd": 900},
    }
