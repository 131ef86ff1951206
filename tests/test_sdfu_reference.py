"""``sdfu_charges`` / ``exclusive_top_selections`` against their oracle.

The oracle is FluxSan's SDFU reference (:func:`reference_sdfu_charges`,
:func:`reference_exclusive_tops`), derived by walking
``graph.ancestors()`` / ``graph.subtree_totals()`` rather than the graph's
structure-derived table.  The traverser's linear versions must return the
same charges *in the same key order*, because ``Traverser._book`` books
filter spans in that order and the repair engine and the integrity scrubber
re-derive it.
"""

import random

import pytest

from repro.grug import build_lod, quartz, tiny_cluster
from repro.jobspec import (
    Jobspec,
    ResourceRequest,
    nodes_jobspec,
    simple_node_jobspec,
    slot,
)
from repro.match import Traverser
from repro.match.writer import exclusive_top_selections, sdfu_charges
from repro.match.writer import Selection
from repro.resource import CONTAINMENT, ResourceGraph
from repro.statcheck.sanitizer import (
    reference_exclusive_tops,
    reference_sdfu_charges,
)


def ordered(charges):
    """Charges with their key order made part of the value."""
    return [(uid, list(counts.items())) for uid, counts in charges.items()]


def assert_same(graph, selections):
    tops = exclusive_top_selections(graph, selections, CONTAINMENT)
    reference = reference_exclusive_tops(graph, selections, CONTAINMENT)
    assert [id(s) for s in tops] == [id(s) for s in reference]
    assert ordered(sdfu_charges(graph, CONTAINMENT, selections)) == ordered(
        reference_sdfu_charges(graph, CONTAINMENT, selections)
    )


def nested_exclusive_jobspec():
    """An exclusive rack with an exclusive slot of nodes and cores inside."""
    return Jobspec(
        resources=(
            ResourceRequest(
                type="rack", count=1, exclusive=True,
                with_=(slot(1, ResourceRequest(
                    type="node", count=2,
                    with_=(ResourceRequest(type="core", count=2),),
                )),),
            ),
        ),
        duration=100,
    )


def rabbit_dag(rack_first):
    """``cluster -> rack -> node -> core`` and a rabbit with one ssd that
    both the cluster and the rack reach (§5.1): the first in-edge names the
    rabbit's canonical path, every in-edge makes an ancestor."""
    graph = ResourceGraph(0, 2**40)
    cluster = graph.add_vertex("cluster")
    rack = graph.add_vertex("rack")
    graph.add_edge(cluster, rack)
    node = graph.add_vertex("node")
    graph.add_edge(rack, node)
    graph.add_edge(node, graph.add_vertex("core"))
    rabbit = graph.add_vertex("rabbit")
    for parent in (rack, cluster) if rack_first else (cluster, rack):
        graph.add_edge(parent, rabbit)
    graph.add_edge(rabbit, graph.add_vertex("ssd", size=1000))
    graph.install_pruning_filters(["core", "ssd"], at_types=["rack", "rabbit"])
    return graph


EXCLUSIVE_RACK_WITH_STORAGE = Jobspec(
    resources=(ResourceRequest(
        type="rack", count=1, exclusive=True,
        with_=(ResourceRequest(
            type="rabbit", count=1,
            with_=(ResourceRequest(type="ssd", count=100),),
        ),),
    ),),
    duration=100,
)


def filters_on_every_level():
    graph = tiny_cluster(racks=2, nodes_per_rack=2, cores=3)
    graph.install_pruning_filters(
        ["core", "memory", "gpu"],
        at_types=["rack", "node", "core", "memory", "gpu"],
    )
    return graph


MATCHED = {
    "rabbit-dag-rack-first": (
        lambda: rabbit_dag(True), [EXCLUSIVE_RACK_WITH_STORAGE],
    ),
    "rabbit-dag-cluster-first": (
        lambda: rabbit_dag(False), [EXCLUSIVE_RACK_WITH_STORAGE],
    ),
    "filterless-socket-level": (  # High LOD: filters at rack and node only
        lambda: build_lod("high", 1, 3),
        [
            simple_node_jobspec(cores=10, memory=8, ssds=1),
            simple_node_jobspec(cores=40, node_exclusive=True),
        ],
    ),
    "filters-on-every-level": (
        filters_on_every_level,
        [nested_exclusive_jobspec(), nodes_jobspec(1),
         simple_node_jobspec(cores=2, memory=20, gpus=1)],
    ),
    "node-lod": (
        lambda: quartz(4, 6),
        [nodes_jobspec(1), nodes_jobspec(7), nodes_jobspec(16)],
    ),
    "node-lod-with-cores": (
        lambda: quartz(2, 3, cores_per_node=4, with_cores=True,
                       prune_types=("node", "core")),
        [nodes_jobspec(4), simple_node_jobspec(cores=2)],
    ),
    "med-lod": (
        lambda: build_lod("med", 2, 3),
        [
            simple_node_jobspec(cores=10, memory=8, ssds=1),
            simple_node_jobspec(cores=4, memory=2, nodes=3),
            simple_node_jobspec(cores=36, node_exclusive=True),
        ],
    ),
    "nested-exclusive": (
        lambda: tiny_cluster(racks=2, nodes_per_rack=3, cores=4),
        [nested_exclusive_jobspec(), nodes_jobspec(2),
         simple_node_jobspec(cores=2, memory=20, gpus=1)],
    ),
    # cores and 16+4 GB of memory on each of two nodes: two types, each
    # selected more than once, on two filter chains that share the rack
    "two-types-two-chains": (
        lambda: tiny_cluster(racks=1, nodes_per_rack=2,
                             prune_types=("core", "memory")),
        [simple_node_jobspec(cores=3, memory=20, nodes=2)],
    ),
}


@pytest.mark.parametrize("name", sorted(MATCHED))
def test_matched_selection_sets(name):
    build, jobspecs = MATCHED[name]
    graph = build()
    traverser = Traverser(graph, policy="low")
    for jobspec in jobspecs:
        alloc = traverser.allocate(jobspec, at=0)
        assert alloc is not None, jobspec.summary()
        assert_same(graph, alloc.selections)


def test_charges_summed_per_chain_keep_the_order_of_first_charge():
    """Selections alternating two types across the chains of two nodes:
    the per-chain sums must leave every key and every bucket where the
    first selection to charge it put it."""
    graph = tiny_cluster(racks=2, nodes_per_rack=2,
                         prune_types=("core", "memory"))
    first, second = (graph.by_path(f"/cluster0/rack0/node{i}") for i in (0, 1))

    def picks(node, rtype):
        return [v for v in graph.children(node) if v.type == rtype]

    core_a, core_b = picks(first, "core")[:2], picks(second, "core")[:2]
    memory_a, memory_b = picks(first, "memory"), picks(second, "memory")
    selections = [
        Selection(memory_b[0], 3, False), Selection(core_a[0], 1, False),
        Selection(core_b[0], 1, False), Selection(memory_a[0], 5, False),
        Selection(core_a[1], 1, False), Selection(memory_b[1], 2, False),
        Selection(core_b[1], 1, False),
    ]
    assert_same(graph, selections)
    charges = sdfu_charges(graph, CONTAINMENT, selections)
    assert ordered(charges)[:2] == [
        (second.uniq_id, [("memory", 5), ("core", 2)]),
        (graph.by_path("/cluster0/rack0").uniq_id, [("memory", 10), ("core", 4)]),
    ]


@pytest.mark.parametrize("seed", range(40))
def test_arbitrary_selection_sets(seed):
    """Selection sets no match would produce: exclusive holds nested three
    deep, a vertex selected twice, explicit amounts above and below holds."""
    rng = random.Random(seed)
    graph = tiny_cluster(
        racks=2, nodes_per_rack=2, cores=3, gpus=1, memory_pools=1,
        prune_types=rng.choice(
            [("core", "node", "memory", "gpu"), ("core",), ("node", "rack")]
        ),
    )
    vertices = list(graph.vertices())
    selections = []
    for vertex in rng.choices(vertices, k=rng.randint(1, 14)):
        kind = rng.random()
        if kind < 0.2:
            selections.append(Selection(vertex, 0, False, passthrough=True))
        else:
            exclusive = kind < 0.65
            amount = vertex.size if exclusive else rng.randint(0, vertex.size)
            selections.append(Selection(vertex, amount, exclusive))
    assert_same(graph, selections)
