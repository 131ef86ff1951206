"""The gates refuse only what the walk refuses.

``Traverser._gated`` refuses a timed match before any walk when the pruning
filters show the jobspec's totals cannot be free over the window: cut 1 is
the bounding root's filter, cut 2 sums the window minima of
``ResourceGraph.cover`` — the root's children, or the roots when there are
several.  Every scenario here runs twice: as is, and with cut 2 forced off
(``_cover_short`` answering None), so each refusal it made is left to the
walk.  The two runs must make the same decisions — the same ``event_log``,
the same schedule, the same answer from every match verb — and no call of
the gated run may visit more vertices than the same call of the other.
"""

import random

import pytest

from repro import ClusterSimulator, Traverser
from repro.grug import quartz, rabbit_system, tiny_cluster
from repro.jobspec import Jobspec, ResourceRequest, nodes_jobspec
from repro.match import traverser as traverser_module
from repro.resource import ResourceGraph
from repro.sched.capacity import CapacitySchedule
from repro.usecases.rabbit import global_storage_job, node_local_storage_job

from .test_easy_event_driven import random_scenario
from .test_replay_equivalence import schedule
from .test_walk_stops import run as record


def run(monkeypatch, scenario, gate):
    """``test_walk_stops.run`` (the result, every match verb's decision and
    visits) plus how many matches cut 2 refused and how many cut 1 did.

    Every ``allocate`` also checks ``could_fit``: it says no exactly when
    the call is refused without asking cut 2 — at the horizon or by cut 1
    — and then nothing is booked."""
    refused, cut_1, booked = [], [], []
    inner = Traverser._cover_short
    allocate = Traverser.allocate
    book = traverser_module.book

    def counted(self, *args):
        short = inner(self, *args) if gate else None
        refused.append(short is not None)
        return short

    def checked(self, jobspec, at=0):
        fits = self.could_fit(jobspec, at)
        asked, books = len(refused), len(booked)
        alloc = allocate(self, jobspec, at)
        assert fits is (len(refused) > asked)
        if not fits:
            assert alloc is None and len(booked) == books
            cut_1.append(at)
        return alloc

    def counted_book(*args):
        booked.append(args)
        return book(*args)

    with monkeypatch.context() as patch:
        patch.setattr(Traverser, "_cover_short", counted)
        patch.setattr(Traverser, "allocate", checked)
        patch.setattr(traverser_module, "book", counted_book)
        recorded = record(monkeypatch, scenario, stop=True)
    return recorded + (sum(refused), len(cut_1))


def assert_same_decisions(monkeypatch, scenario):
    """Run ``scenario`` gated and with cut 2 off; returns how many matches
    cut 2 refused and how many cut 1 did."""
    sim, decisions, visits, refused, cut_1 = run(monkeypatch, scenario, True)
    full, full_decisions, full_visits, _, _ = run(monkeypatch, scenario, False)
    assert sim.event_log == full.event_log
    assert schedule(sim) == schedule(full)
    assert decisions == full_decisions
    assert len(visits) == len(full_visits)
    assert all(g <= f for g, f in zip(visits, full_visits))
    assert (sum(visits) < sum(full_visits)) is (refused > 0)
    return refused, cut_1


MACHINES = {
    "tiny": None,
    "quartz": lambda: quartz(3, 4, cores_per_node=2, with_cores=True),
    "rabbit": lambda: rabbit_system(chassis=3, nodes_per_chassis=4,
                                    cores_per_node=2),
}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("queue", ["fcfs", "easy", "conservative"])
@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_scenarios_decide_the_same(machine, queue, seed, monkeypatch):
    """``test_easy_event_driven``'s generator — faults, drains, outages,
    cancels, truncations and a grown node — with and without cut 2.  On
    every EASY trace cut 2 refuses something the root filter let through,
    and cut 1 refuses something too."""
    refused, cut_1 = assert_same_decisions(monkeypatch, lambda: random_scenario(
        seed, queue, build=MACHINES[machine]))
    assert (refused and cut_1) or queue != "easy"


def storage_scenario(seed, queue):
    """Seeded node, rack-local storage and global storage jobs on the
    rabbit DAG, where each rabbit is both a child of the cluster and of its
    chassis, so cut 2 counts its ssd twice."""
    rng = random.Random(seed)
    sim = ClusterSimulator(MACHINES["rabbit"](), "first", queue=queue)
    shapes = [
        lambda d: node_local_storage_job(1, 2, 2, 1500, duration=d),
        lambda d: global_storage_job(2500, duration=d),
        lambda d: nodes_jobspec(rng.choice([1, 3, 5]), d),
    ]
    t = 0
    for _ in range(40):
        t += rng.choice([0, 0, 7, 23])
        duration = rng.randrange(40, 900)
        sim.submit(rng.choice(shapes)(duration), at=t,
                   actual_duration=rng.choice([None, duration // 2]))
    sim.run()
    return sim


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("queue", ["fcfs", "easy", "conservative"])
def test_rabbit_storage_decides_the_same(queue, seed, monkeypatch):
    assert_same_decisions(monkeypatch, lambda: storage_scenario(seed, queue))


# ----------------------------------------------------------------------
# hand-built cases
# ----------------------------------------------------------------------
def staircase(graph, racks):
    """Book outages so that each of ``racks`` keeps one node free, the
    first rack's early (``[0, 50)``) and the second's late (``[50, ...)``):
    some node is free at every instant, none throughout ``[0, 100)``."""
    capacity = CapacitySchedule(graph)
    early, late = (
        [v for v in graph.children(rack) if v.type == "node"] for rack in racks
    )
    for node in early[1:] + late[1:]:
        capacity.add_outage(node, 0, 10_000)
    capacity.add_outage(early[0], 50, 10_000)
    capacity.add_outage(late[0], 0, 50)


ONE_NODE = nodes_jobspec(1, duration=100)


def refusal(graph, gate, monkeypatch, jobspec=ONE_NODE, at=0):
    """Ask for ``jobspec`` at ``at``; (allocation, visits, filter hits)."""
    with monkeypatch.context() as patch:
        if not gate:
            patch.setattr(Traverser, "_cover_short", lambda self, *args: None)
        traverser = Traverser(graph, "first")
        alloc = traverser.allocate(jobspec, at=at)
    counts = traverser.metrics.as_dict()
    return alloc, counts["dfu.visits"], counts["sdfu.filter_hits"]


def test_staircase_passes_the_root_and_fails_the_children(monkeypatch):
    graph = tiny_cluster(2, 2, cores=2, gpus=0, memory_pools=0)
    staircase(graph, graph.find(type="rack"))
    root = graph.root
    assert root.prune_filters.avail_during(0, 100, ONE_NODE.total_demand)
    assert refusal(graph, True, monkeypatch) == (None, 0, 1)
    # the walk refuses too: it visits the root and both racks, whose
    # filters each cut their subtree
    assert refusal(graph, False, monkeypatch) == (None, 3, 2)
    # later, when the late node is free throughout, both take it
    late = refusal(graph, True, monkeypatch, at=50)[0]
    assert late is not None and late.at == 50
    rack = [s.vertex.name for s in late.selections if s.vertex.type == "rack"]
    assert rack == ["rack1"]


def test_cover_is_the_root_children_per_type():
    graph = tiny_cluster(2, 2, cores=2, gpus=0, memory_pools=0)
    racks = graph.find(type="rack")
    cover = graph.cover("containment", "node")
    assert cover == tuple(r.prune_filters.planner("node") for r in racks)
    assert graph.cover("containment", "node") is cover  # kept
    # no filter counts a type that is not a pruning type, and the cut does
    # not cover the root itself
    assert graph.cover("containment", "gpu") is not None
    assert graph.cover("containment", "socket") is None
    assert graph.cover("containment", "cluster") is None
    graph.install_pruning_filters(["node"], at_types=["rack"])
    assert graph.cover("containment", "core") is None
    assert graph.cover("containment", "node") is not cover  # dropped


def test_a_child_without_a_filter_abstains(monkeypatch):
    """A node hung straight under the cluster holds the type and no filter
    tracks it there: the sum could miss it, so the gate does not ask."""
    graph = tiny_cluster(2, 2, cores=2, gpus=0, memory_pools=0)
    bare = graph.add_vertex("node")
    graph.add_edge(graph.root, bare)
    graph.install_pruning_filters(["node"], at_types=["rack"])
    assert bare.prune_filters is None
    assert graph.cover("containment", "node") is None
    staircase(graph, graph.find(type="rack"))
    CapacitySchedule(graph).add_outage(bare, 0, 10_000)
    gated = refusal(graph, True, monkeypatch)
    assert gated == refusal(graph, False, monkeypatch)
    assert gated[0] is None and gated[1] > 0  # the walk decided


def test_an_untracked_type_abstains(monkeypatch):
    """Filters that track nodes only say nothing about cores: a core
    shortfall is left to the walk, the node sum still gates."""
    graph = tiny_cluster(2, 2, cores=2, gpus=0, memory_pools=0)
    graph.install_pruning_filters(["node"], at_types=["rack"])
    cores = Jobspec(resources=(ResourceRequest(
        type="node", count=1, with_=(ResourceRequest(type="core", count=3),),
    ),), duration=100)
    assert graph.cover("containment", "core") is None
    gated = refusal(graph, True, monkeypatch, cores)
    assert gated == refusal(graph, False, monkeypatch, cores)
    assert gated[0] is None and gated[1] > 0
    staircase(graph, graph.find(type="rack"))
    assert refusal(graph, True, monkeypatch, cores) == (None, 0, 1)


def test_a_root_of_the_type_abstains():
    """The root's children do not cover the root: a request for the
    cluster itself is left to the walk, which takes it."""
    graph = tiny_cluster(2, 2, cores=2, gpus=0, memory_pools=0)
    graph.install_pruning_filters(["node", "cluster"], at_types=["rack"])
    assert graph.root.prune_filters.tracks("cluster")
    assert graph.cover("containment", "cluster") is None
    whole = Jobspec(resources=(ResourceRequest(type="cluster", count=1),),
                    duration=100)
    alloc = Traverser(graph, "first").allocate(whole, at=0)
    assert [s.vertex.name for s in alloc.selections] == ["cluster0"]


def two_roots():
    """Two racks and no cluster: each rack is a root of its own."""
    graph = ResourceGraph(0, 2**40)
    for _ in range(2):
        rack = graph.add_vertex("rack")
        for _ in range(2):
            node = graph.add_vertex("node")
            graph.add_edge(rack, node)
            graph.add_edge(node, graph.add_vertex("core"))
    graph.install_pruning_filters(["node", "core"])
    return graph


def test_several_roots_sum_as_cut_1(monkeypatch):
    graph = two_roots()
    roots = graph.roots()
    assert len(roots) == 2 and all(r.prune_filters is not None for r in roots)
    assert graph.cover("containment", "node") == tuple(
        r.prune_filters.planner("node") for r in roots)
    staircase(graph, roots)
    assert refusal(graph, True, monkeypatch) == (None, 0, 1)
    assert refusal(graph, False, monkeypatch) == (None, 2, 2)
    # the reservation search reaches the late node either way
    traverser = Traverser(graph, "first")
    alloc = traverser.allocate_orelse_reserve(ONE_NODE, now=0)
    assert alloc is not None and alloc.at == 50


def test_a_refusal_charges_no_budget(monkeypatch):
    from repro.resilience.overload import WorkBudget

    graph = tiny_cluster(2, 2, cores=2, gpus=0, memory_pools=0)
    staircase(graph, graph.find(type="rack"))
    traverser = Traverser(graph, "first")
    traverser.budget = WorkBudget(cycle_limit=10, attempt_limit=10)
    assert traverser.allocate(ONE_NODE, at=0) is None
    assert traverser.budget.cycle_spent == 0
