"""The booking rule decides nothing: the planners answer what is live.

Each selection books exactly one span, in the planner that carries its
fact (``Selection.booking``): an exclusive hold ``X_LIMIT`` in ``xplans``,
a pool-quantity fill its amount in ``plans``, a shared or pass-through
selection 1 in ``xplans``; a planned outage is an exclusive hold on every
vertex of its subtree.  So ``plans`` holds pool quantities only and
``xplans`` every exclusivity fact.

Over seeded allocate / reserve / remove / ``add_outage`` sequences on tiny,
Med-LOD and rabbit graphs under ``first``, ``low`` and ``high``, every vertex
is asked three questions per probe window, of the planners and of a brute
force count over the live selections and outages:

* exclusive-free — could an exclusive hold start here: no hold of any kind
  (``xplans`` has all ``X_LIMIT`` units and ``plans`` the whole pool);
* shared-free — could a shared hold: no exclusive hold (``xplans`` has one
  unit);
* quantity-free — how much of the pool is free in the effective view
  (``ResourceVertex.avail_resources_during``), where an exclusive hold uses
  the whole pool.

The same effective view is checked at probe instants and through
``utilization_timeline``.  The cases at the end pin the two cross-planner
refusals a single span cannot make by itself: an outage over a pool
quantity, and a walltime extension of a pool quantity into an outage.
"""

import random
from collections import defaultdict

import pytest

from repro.analysis import utilization_timeline
from repro.errors import FluxionError, MatchError, ResourceGraphError
from repro.grug import build_lod, rabbit_system, tiny_cluster
from repro.jobspec import pool_jobspec
from repro.match import Traverser
from repro.resource.vertex import X_LIMIT
from repro.sched import CapacitySchedule
from repro.usecases.rabbit import (
    global_storage_job,
    node_local_storage_job,
    storage_only_job,
)

from .test_expected_state import _random_jobspec

PLAN_END = 100_000

GRAPHS = {
    "tiny": lambda: tiny_cluster(
        racks=2, nodes_per_rack=2, cores=4, gpus=1, memory_pools=2,
        plan_end=PLAN_END,
    ),
    "med": lambda: build_lod(
        "med", 2, 2, prune_types=("core", "memory", "ssd", "node"),
        plan_end=PLAN_END,
    ),
    "rabbit": lambda: rabbit_system(
        chassis=2, nodes_per_chassis=2, cores_per_node=4, ssds_per_rabbit=2,
        ssd_size=100, namespaces_per_ssd=2, plan_end=PLAN_END,
    ),
}

#: probe windows as (start, duration)
WINDOWS = [(0, 1), (0, 250), (90, 30), (180, 400), (499, 2), (700, 900)]


def _jobspec(rng, graph):
    """One of the shapes each booking kind comes from: the expected-state
    mirror's generator, plus the rabbit storage jobs on a rabbit graph."""
    if not graph.find(type="rabbit") or rng.random() < 0.5:
        return _random_jobspec(rng, graph)
    duration = rng.randint(1, 400)
    gb = rng.randint(10, 150)
    kind = rng.choice(["global", "storage", "local"])
    if kind == "global":  # holds the rabbit's one ip exclusively
        return global_storage_job(gb=gb, duration=duration)
    if kind == "storage":
        return storage_only_job(gb=gb, duration=duration)
    return node_local_storage_job(local_gb_per_chassis=gb, duration=duration)


def _holds(traverser, schedule):
    """``{uniq id: [(start, end, exclusive, amount)]}`` of everything live:
    each selection of each allocation and each vertex of each outage."""
    holds = defaultdict(list)
    for alloc in traverser.allocations.values():
        for sel in alloc.selections:
            holds[sel.vertex.uniq_id].append(
                (alloc.at, alloc.end, sel.exclusive, sel.amount)
            )
    graph = traverser.graph
    for outage in schedule.outages.values():
        for vertex in [outage.vertex] + list(graph.descendants(outage.vertex)):
            holds[vertex.uniq_id].append(
                (outage.start, outage.end, True, vertex.size)
            )
    return holds


def _used_at(vertex, holds, t):
    """Brute force: the quantity in use at instant ``t``."""
    live = [h for h in holds if h[0] <= t < h[1]]
    if any(exclusive for _, _, exclusive, _ in live):
        return vertex.size
    return sum(amount for _, _, _, amount in live)


def _brute(vertex, holds, start, duration):
    """(exclusive-free, shared-free, quantity-free) over the window."""
    end = start + duration
    overlapping = [h for h in holds if h[0] < end and start < h[1]]
    instants = {start} | {h[0] for h in overlapping if h[0] > start}
    used = max(_used_at(vertex, overlapping, t) for t in instants)
    return (
        not overlapping,
        not any(exclusive for _, _, exclusive, _ in overlapping),
        vertex.size - used,
    )


def _asked(vertex, start, duration):
    """The same three answers, from the planners."""
    return (
        vertex.xplans.avail_during(start, duration, X_LIMIT)
        and vertex.plans.avail_during(start, duration, vertex.size),
        vertex.xplans.avail_during(start, duration, 1),
        vertex.avail_resources_during(start, duration),
    )


def _check(traverser, schedule):
    graph = traverser.graph
    holds = _holds(traverser, schedule)
    for vertex in graph.vertices():
        mine = holds.get(vertex.uniq_id, [])
        for start, duration in WINDOWS:
            assert _asked(vertex, start, duration) == _brute(
                vertex, mine, start, duration
            ), (vertex.name, start, duration, mine)
        for t, _ in WINDOWS:
            assert vertex.avail_resources_at(t) == (
                vertex.size - _used_at(vertex, mine, t)
            ), (vertex.name, t, mine)
    for rtype in {v.type for v in graph.vertices()}:
        steps = utilization_timeline(graph, rtype)
        for t, _ in WINDOWS:
            in_use = next(
                (used for when, used, _ in reversed(steps) if when <= t), 0
            )
            assert in_use == sum(
                _used_at(v, holds.get(v.uniq_id, []), t)
                for v in graph.vertices(rtype)
            ), (rtype, t)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("policy", ["first", "low", "high"])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_planners_answer_what_is_live(name, policy, seed):
    rng = random.Random(f"{name}-{policy}-{seed}")
    graph = GRAPHS[name]()
    schedule = CapacitySchedule(graph)
    traverser = Traverser(graph, policy=policy)
    holders = [v for v in graph.vertices() if v.type != "cluster"]
    live = []
    booked = {"exclusive": 0, "quantity": 0, "outage": 0}
    for step in range(30):
        roll = rng.random()
        if live and roll < 0.2:
            traverser.remove(live.pop(rng.randrange(len(live))))
        elif roll < 0.3:
            vertex = rng.choice(holders)
            try:
                schedule.add_outage(
                    vertex, rng.randrange(0, 800), rng.randint(10, 200)
                )
                booked["outage"] += 1
            except FluxionError:
                pass  # in use there: refused, nothing half-booked
        else:
            jobspec = _jobspec(rng, graph)
            if rng.random() < 0.5:
                alloc = traverser.allocate(
                    jobspec, at=rng.choice([0, 0, rng.randrange(0, 600)])
                )
            else:
                alloc = traverser.allocate_orelse_reserve(
                    jobspec, now=rng.choice([0, 250])
                )
            if alloc is not None:
                live.append(alloc.alloc_id)
                for sel in alloc.selections:
                    if sel.exclusive:
                        booked["exclusive"] += 1
                    elif sel.amount:
                        booked["quantity"] += 1
        if step % 5 == 4:
            _check(traverser, schedule)
    _check(traverser, schedule)
    assert booked["exclusive"] and booked["quantity"]


# ----------------------------------------------------------------------
# what one span cannot refuse by itself
# ----------------------------------------------------------------------
def _pool_held():
    """A memory pool holding a quantity over [0, 100); no filter tracks
    memory, so only the booking rule stands between it and an outage."""
    graph = tiny_cluster(racks=1, nodes_per_rack=1, gpus=0, memory_pools=1,
                         prune_types=("core",), plan_end=PLAN_END)
    traverser = Traverser(graph)
    alloc = traverser.allocate(
        pool_jobspec("memory", 4, within="node", duration=100), at=0
    )
    (memory,) = graph.find(type="memory")
    assert [s.vertex for s in alloc.selections if s.amount] == [memory]
    return graph, traverser, alloc, memory


def test_outage_over_a_pool_quantity_is_refused():
    graph, traverser, _, memory = _pool_held()
    schedule = CapacitySchedule(graph)
    with pytest.raises(ResourceGraphError, match=memory.name):
        schedule.add_outage(memory, 50, 10)
    assert not schedule.outages and memory.xplans.span_count == 0
    schedule.add_outage(memory, 100, 10)  # after the quantity: books


def test_extension_of_a_pool_quantity_into_an_outage_is_refused():
    graph, traverser, alloc, memory = _pool_held()
    CapacitySchedule(graph).add_outage(memory, 100, 100)
    with pytest.raises(MatchError, match=memory.name):
        traverser.update_end(alloc.alloc_id, 150)
    assert alloc.end == 100
    assert all(
        planner.get_span(span_id).end == 100
        for planner, span_id in alloc._span_records
    )
    traverser.update_end(alloc.alloc_id, 80)  # truncation never asks
