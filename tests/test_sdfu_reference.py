"""``sdfu_charges`` / ``exclusive_top_selections`` against their oracle.

The functions below are the pairwise (quadratic in the selection count)
implementations the traverser shipped with, kept here as the reference: the
linear versions must return the same charges *in the same key order*,
because ``Traverser._book`` books filter spans in that order and the repair
engine, the integrity scrubber and FluxSan re-derive it.
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
from repro.match.traverser import exclusive_top_selections, sdfu_charges
from repro.match.writer import Selection
from repro.resource import CONTAINMENT


def reference_tops(selections, subsystem):
    exclusive = [s for s in selections if s.exclusive and not s.passthrough]
    paths = [s.vertex.path(subsystem) for s in exclusive]
    tops = []
    for sel, path in zip(exclusive, paths):
        nested = any(
            other is not sel and path.startswith(other_path + "/")
            for other, other_path in zip(exclusive, paths)
        )
        if not nested:
            tops.append(sel)
    return tops


def reference_charges(graph, subsystem, selections):
    prune_types = set(graph.prune_types)
    updates = {}
    if not prune_types:
        return updates

    anc_cache = {}

    def charge(vertex, counts):
        ancs = anc_cache.get(vertex.uniq_id)
        if ancs is None:
            ancs = [
                anc
                for anc in graph.ancestors(vertex, subsystem)
                if anc.prune_filters is not None
            ]
            anc_cache[vertex.uniq_id] = ancs
        for anc in ancs:
            filters = anc.prune_filters
            bucket = updates.setdefault(anc.uniq_id, {})
            for rtype, qty in counts.items():
                if filters.tracks(rtype):
                    bucket[rtype] = bucket.get(rtype, 0) + qty

    explicit = [s for s in selections if not s.passthrough and s.amount]
    for sel in explicit:
        if sel.type in prune_types:
            charge(sel.vertex, {sel.type: sel.amount})
    for sel in reference_tops(selections, subsystem):
        vertex = sel.vertex
        prefix = vertex.path(subsystem) + "/"
        extras = {
            t: n
            for t, n in graph.subtree_totals(vertex, subsystem).items()
            if t in prune_types
        }
        extras[vertex.type] = extras.get(vertex.type, 0) - vertex.size
        for other in explicit:
            if other.vertex is vertex:
                continue
            if other.vertex.path(subsystem).startswith(prefix):
                if other.type in extras:
                    extras[other.type] -= other.amount
        extras = {t: n for t, n in extras.items() if n > 0}
        if not extras:
            continue
        own = vertex.prune_filters
        if own is not None:
            bucket = updates.setdefault(vertex.uniq_id, {})
            for rtype, qty in extras.items():
                if own.tracks(rtype):
                    bucket[rtype] = bucket.get(rtype, 0) + qty
        charge(vertex, extras)
    return updates


def ordered(charges):
    """Charges with their key order made part of the value."""
    return [(uid, list(counts.items())) for uid, counts in charges.items()]


def assert_same(graph, selections):
    assert [id(s) for s in exclusive_top_selections(selections, CONTAINMENT)] \
        == [id(s) for s in reference_tops(selections, CONTAINMENT)]
    assert ordered(sdfu_charges(graph, CONTAINMENT, selections)) == ordered(
        reference_charges(graph, CONTAINMENT, selections)
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


MATCHED = {
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
