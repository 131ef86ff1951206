"""The walk that stops decides nothing.

Under a policy that keeps discovery order, a request that is not a pool
quantity fill — and, when it has sub-requests, is matched in a subsystem
that is a tree — takes its candidates straight from the DFU walk, and the
walk ends once the request is filled (``Traverser._walk_stops``, the one
predicate that chooses it).  Every
scenario here runs twice: as is, and with that predicate forced off, so
every walk is drained to its end.  The two runs must make the same
decisions — the same ``event_log``, the same selections for every
allocation, the same ``satisfiable`` answers — and no call of the stopping
run may visit more vertices than the same call of the full one.
"""

import random

import pytest

from repro import ClusterSimulator, Traverser
from repro.grug import build_lod, rabbit_system, tiny_cluster
from repro.jobspec import Jobspec, ResourceRequest, simple_node_jobspec
from repro.match.policy import POLICIES, keeps_discovery_order, make_policy
from repro.usecases.rabbit import global_storage_job, node_local_storage_job

from .test_easy_event_driven import random_scenario
from .test_replay_equivalence import schedule
from .test_structure_table import fill

VERBS = ("allocate", "allocate_orelse_reserve", "satisfiable")


def answer(result):
    """What a match verb decided, in terms that survive a second run."""
    if result is None or isinstance(result, bool):
        return result
    return (result.at, result.reserved, [
        (s.vertex.path(), s.amount, s.exclusive, s.passthrough)
        for s in result.selections
    ])


def run(monkeypatch, scenario, stop):
    """``scenario()`` with every match verb recorded: its result, the
    decisions in call order and the vertices each call visited."""
    decisions, visits = [], []
    with monkeypatch.context() as patch:
        if not stop:
            patch.setattr(Traverser, "_walk_stops", lambda self, request: False)
        for verb in VERBS:
            def recorded(self, *args, _verb=verb, _inner=getattr(Traverser, verb),
                         **kwargs):
                before = self.metrics.counter("dfu.visits").value
                result = _inner(self, *args, **kwargs)
                visits.append(self.metrics.counter("dfu.visits").value - before)
                decisions.append((_verb, answer(result)))
                return result

            patch.setattr(Traverser, verb, recorded)
        result = scenario()
    return result, decisions, visits


def assert_no_more_visits(stopping, full):
    assert len(stopping) == len(full)
    assert all(s <= f for s, f in zip(stopping, full))
    assert sum(stopping) < sum(full), "no walk stopped"


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("queue", ["fcfs", "easy", "conservative"])
def test_scenarios_decide_the_same(queue, seed, monkeypatch):
    """``test_easy_event_driven``'s generator under ``first``: faults,
    drains, outages, cancels, truncations and a grown node, replayed with
    and without the stop."""

    def scenario():
        return random_scenario(seed, queue, match_policy="first")

    sim, decisions, visits = run(monkeypatch, scenario, stop=True)
    full_sim, full_decisions, full_visits = run(monkeypatch, scenario, stop=False)
    assert sim.event_log == full_sim.event_log
    assert schedule(sim) == schedule(full_sim)
    assert decisions == full_decisions
    assert any(verb == "satisfiable" for verb, _ in decisions)
    assert_no_more_visits(visits, full_visits)


def two_nodes_three_cores(duration):
    """``node[2] -> core[3]``: two shared nodes, three cores on each."""
    return Jobspec(
        resources=(ResourceRequest(
            type="node", count=2,
            with_=(ResourceRequest(type="core", count=3),),
        ),),
        duration=duration,
    )


#: graph, then the nested jobspecs drawn from on it (by duration)
NESTED = {
    "tiny": (
        lambda: tiny_cluster(2, 3, cores=4),
        (lambda d: simple_node_jobspec(cores=2, memory=12, duration=d),
         two_nodes_three_cores),
    ),
    "med-lod": (
        lambda: build_lod("med", 2, 3),
        (lambda d: simple_node_jobspec(cores=16, memory=8, ssds=1, duration=d),
         two_nodes_three_cores),
    ),
}


def nested_scenario(graph_name, seed, queue):
    """Seeded nested jobs, enough to queue behind one another, run to the
    end under ``first``; every input drawn before the run."""
    build, shapes = NESTED[graph_name]
    rng = random.Random(seed)
    sim = ClusterSimulator(build(), "first", queue=queue)
    t = 0
    for _ in range(48):
        t += rng.choice([0, 0, 7, 23])
        duration = rng.randrange(40, 900)
        sim.submit(
            rng.choice(shapes)(duration), at=t,
            actual_duration=rng.choice([None, duration // 2]),
        )
    sim.run()
    return sim


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("queue", ["fcfs", "easy", "conservative"])
@pytest.mark.parametrize("graph_name", sorted(NESTED))
def test_nested_requests_decide_the_same(graph_name, queue, seed, monkeypatch):
    """A node request with sub-requests on a tree: its walk stops once the
    nodes are filled, and the run decides what the full walks decided."""
    build, shapes = NESTED[graph_name]
    traverser = Traverser(build(), "first")
    assert all(traverser._walk_stops(shape(10).resources[0]) for shape in shapes)

    def scenario():
        return nested_scenario(graph_name, seed, queue)

    sim, decisions, visits = run(monkeypatch, scenario, stop=True)
    full_sim, full_decisions, full_visits = run(monkeypatch, scenario, stop=False)
    assert sim.event_log == full_sim.event_log
    assert schedule(sim) == schedule(full_sim)
    assert decisions == full_decisions
    # the machine filled up: some match was refused or reserved
    assert any(answer is None or answer[1] for verb, answer in decisions
               if verb != "satisfiable")
    assert_no_more_visits(visits, full_visits)


#: a leaf request walked through the rabbit DAG (rabbits hang under the
#: cluster and under their chassis), beside the two storage jobs, whose
#: leaf ``core`` and ``ip`` requests stop and whose pools do not
RABBITS = Jobspec(
    resources=(ResourceRequest(type="rabbit", count=2, exclusive=True),),
    duration=300,
)


def rabbits():
    return rabbit_system(chassis=3, nodes_per_chassis=2, cores_per_node=4)


def test_rabbit_dag_leaf_requests_decide_the_same(monkeypatch):
    jobspecs = [RABBITS, node_local_storage_job(1, 2, 2, 300),
                global_storage_job(400)]
    (picked, _), decisions, visits = run(
        monkeypatch, lambda: fill(rabbits(), "first", True, jobspecs), True
    )
    (full, _), full_decisions, full_visits = run(
        monkeypatch, lambda: fill(rabbits(), "first", True, jobspecs), False
    )
    assert picked and picked == full
    assert decisions == full_decisions
    assert_no_more_visits(visits, full_visits)


def test_rabbit_dag_nested_requests_take_the_full_walk(monkeypatch):
    """On a DAG a nested match writes below its candidate, where the walk
    may still pass: the predicate stays off and the answers are the
    full walk's."""
    jobspecs = [node_local_storage_job(1, 2, 2, 300),
                two_nodes_three_cores(300)]
    traverser = Traverser(rabbits(), "first")
    assert not traverser._walk_stops(jobspecs[1].resources[0])
    stopping = run(monkeypatch, lambda: fill(rabbits(), "first", True, jobspecs), True)
    full = run(monkeypatch, lambda: fill(rabbits(), "first", True, jobspecs), False)
    (picked, _), decisions, visits = stopping
    assert picked and picked == full[0][0]
    assert decisions == full[1]
    assert all(s <= f for s, f in zip(visits, full[2]))


def test_a_pool_request_takes_the_full_walk(monkeypatch):
    """An ssd quantity fill aggregates units across pools, so it walks them
    all either way."""
    request = ResourceRequest(type="ssd", count=1500)
    assert not Traverser(rabbits())._walk_stops(request)
    jobspecs = [Jobspec(resources=(request,), duration=300)]
    stopping = run(monkeypatch, lambda: fill(rabbits(), "first", True, jobspecs), True)
    full = run(monkeypatch, lambda: fill(rabbits(), "first", True, jobspecs), False)
    assert stopping == full
    assert len(stopping[0][0]) == 8  # 12 000 GB in 1 500 GB bites


def test_the_stop_is_chosen_from_policy_and_request_alone():
    graph = rabbits()
    leaf = ResourceRequest(type="node", count=2)
    nested = ResourceRequest(
        type="node", count=2, with_=(ResourceRequest(type="core", count=1),)
    )
    assert [name for name in POLICIES
            if keeps_discovery_order(make_policy(name))] == ["first"]
    tree = tiny_cluster()
    assert not graph.is_tree() and tree.is_tree()
    for name in POLICIES:
        traverser = Traverser(graph, name)
        assert traverser._walk_stops(leaf) is (name == "first")
        assert not traverser._walk_stops(nested)
        # on a tree, the nested request stops under the same policies
        traverser = Traverser(tree, name)
        assert traverser._walk_stops(leaf) is (name == "first")
        assert traverser._walk_stops(nested) is (name == "first")
