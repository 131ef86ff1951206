"""Event-driven EASY against the loop it replaced, and the two queue oracles.

:class:`ReplanEveryCycle` is ``EasyBackfill.cycle`` as it shipped before the
policy became event-driven, kept here as the reference: cancel the head's
reservation, re-make it, and ask every queued job whether it fits — every
cycle.  :class:`~repro.sched.queue.EasyBackfill` keeps the reservation and
skips refused candidates until one of the change counters on the graph says
the answer could differ; it must produce the same ``event_log`` and the same
schedule (job -> start, end, sorted vertex paths) on every scenario below.

The targeted cases at the end each take one invalidation away (one
``note_change`` call site, or the booked-end test of ``_span_ended``) and
require the schedule to *move*: every bump is there because a test needs it.

One known, untested difference: two END (or two WALLTIME) events at one
instant are dispatched in the order they were pushed, and a standing
reservation's END is pushed when the reservation is made, not at its last
re-plan.  The generator below draws times at one-second granularity so such
ties do not occur by accident.
"""

import random
import sys

import pytest

from repro import (
    ClusterSimulator,
    RetryPolicy,
    Traverser,
    nodes_jobspec,
    simple_node_jobspec,
    tiny_cluster,
)
from repro.errors import RecoveryError
from repro.recovery import RepairEngine
from repro.recovery.diff import state_diff, state_fingerprint
from repro.recovery.snapshot import restore_simulator, snapshot_state
from repro.resilience import InvariantAuditor, OverloadConfig
from repro.resource import ResourceGraph
from repro.sched import CancelReason, JobState
from repro.sched.capacity import CapacitySchedule
from repro.sched.elastic import grow, resize_pool, shrink_subtree
from repro.sched.queue import ConservativeBackfill, EasyBackfill, QueuePolicy

from .test_replay_equivalence import faulty, med_lod, node_lod, schedule


class ReplanEveryCycle(QueuePolicy):
    """The every-cycle EASY loop (reference; see the module docstring)."""

    name = "easy"

    def __init__(self):
        self._head_reservation = {}  # job_id -> (job, alloc_id)

    def cycle(self, pending, traverser, now):
        for job_id, (job, alloc_id) in list(self._head_reservation.items()):
            del self._head_reservation[job_id]
            if job.state is JobState.RESERVED and alloc_id in traverser.allocations:
                with self._attempt(job, now, "replan_cancel"):
                    traverser.remove(alloc_id)
                    job.transition(JobState.PENDING)
                    job.allocations.clear()
        head_blocked = False
        for job in pending:
            if self._out_of_budget(traverser):
                break
            if not head_blocked:
                with self._attempt(job, now, "allocate_orelse_reserve"):
                    alloc = traverser.allocate_orelse_reserve(
                        job.jobspec, now=now
                    )
                    if alloc is not None:
                        self._attach(job, alloc, now)
                if alloc is None:
                    continue
                if alloc.reserved:
                    head_blocked = True
                    self._head_reservation[job.job_id] = (job, alloc.alloc_id)
            else:
                with self._attempt(job, now, "backfill"):
                    alloc = traverser.allocate(job.jobspec, at=now)
                    if alloc is not None:
                        self._attach(job, alloc, now)


class Auditor(InvariantAuditor):
    """Every invariant but one: a test that drains a vertex behind the
    simulator's back leaves jobs on it on purpose."""

    def collect(self, sim):
        return [
            v for v in super().collect(sim) if v.invariant != "down-vertex"
        ]


def outcome(sim):
    """What the two policies must agree on."""
    return sim.event_log, schedule(sim)


def assert_same_outcome(build):
    """Run ``build(policy)`` under both policies and compare; returns the
    two finished simulators (reference first)."""
    reference, changed = build(ReplanEveryCycle()), build(EasyBackfill())
    assert changed.event_log == reference.event_log
    assert schedule(changed) == schedule(reference)
    return reference, changed


# ----------------------------------------------------------------------
# seeded random scenarios
# ----------------------------------------------------------------------
NODE = {"type": "node", "with": [{"type": "core", "count": 2}]}
NEVER_BINDS = dict(max_pending=10**6, cycle_budget=10**9, attempt_budget=10**9)
#: ``random_scenario``'s default overload: limits that never bind on odd
#: seeds, none on even ones
BY_SEED = object()


def random_scenario(
    seed, queue, match_policy="low", calm=False, watch=None, overload=BY_SEED,
    build=None,
):
    """Build, drive and drain one seeded scenario under ``queue``.

    Everything is drawn from ``seed`` before the run or from job *ids*, never
    from what the scheduler decided, so every policy sees the same inputs.
    The mix: early completions, walltime overruns (killed, retried with
    checkpoint credit), priorities and a retry boost, user cancels, node
    faults, a drained rack returned to service, a node drained under
    whatever stands on it, one outage that ends between two submits and one
    cancelled early, a walltime truncation, a grown node, an evacuated
    node, submits that share their instant with another submit or with an
    END, and (odd seeds, unless ``overload`` says otherwise: an
    ``OverloadConfig`` or None) an overload controller whose limits never
    bind.  ``calm`` leaves out what can legitimately push a reserved start
    later — lost capacity and queue jumping — for the start-time oracles.
    ``watch`` is called with the simulator before anything is submitted.
    ``build`` makes the machine instead of the default ``tiny_cluster``: at
    least three racks and twelve nodes, each node with cores.
    """
    if overload is BY_SEED:
        overload = OverloadConfig(**NEVER_BINDS) if seed % 2 else None
    rng = random.Random(seed)
    if build is None:
        graph = tiny_cluster(3, 4, cores=2, gpus=0, memory_pools=0)
    else:
        graph = build()
    racks = graph.find(type="rack")
    nodes = graph.find(type="node")
    graph.mark_down(racks[2])
    sim = ClusterSimulator(
        graph, match_policy, queue=queue, audit=Auditor(),
        retry_policy=RetryPolicy(
            max_retries=3, backoff_base=30, jitter=0.25,
            checkpoint_period=100, seed=seed,
            priority_boost=0 if calm else rng.choice([0, 1]),
        ),
        overload=overload,
    )
    if watch is not None:
        watch(sim)
    capacity = CapacitySchedule(graph)
    submits = []
    t = 0
    for _ in range(32):
        t += rng.choice([0, 7, 23, 61, 149])
        duration = rng.randrange(40, 900)
        work = rng.choice([None, None, duration * 2 // 5, duration * 3 // 2])
        submits.append(t)
        sim.submit(
            nodes_jobspec(rng.choice([1, 1, 2, 2, 3, 4, 6, 8]), duration),
            at=t,
            priority=0 if calm else rng.choice([0, 0, 0, 1, 2]),
            actual_duration=work,
        )
    # Job 1 starts at its submit on an empty machine: a submit at its END.
    first = sim.jobs[1]
    sim.submit(nodes_jobspec(2, 100), at=first.submit_time + min(
        first.work_required, first.walltime))
    horizon = submits[-1]
    # One outage ends between two submits, the other is cancelled early.
    capacity.add_outage(nodes[1], submits[3], submits[9] + 1 - submits[3])
    doomed = capacity.add_outage(nodes[5], submits[12], 5000)
    actions = [
        (rng.randrange(horizon), "cancel", rng.randrange(1, 33)),
        (rng.randrange(horizon), "cancel", rng.randrange(1, 33)),
        (rng.randrange(horizon), "truncate", None),
        (rng.randrange(horizon), "truncate", None),
        (rng.randrange(horizon // 2), "mark_up", racks[2]),
        (rng.randrange(horizon), "grow", racks[0]),
        (submits[12] + rng.randrange(1000), "cancel_outage", doomed),
    ]
    if not calm:
        drained = rng.choice(nodes[:8])
        when = rng.randrange(horizon)
        actions += [
            (when, "mark_down", drained),
            (when + rng.randrange(50, 600), "mark_up", drained),
            (rng.randrange(horizon), "evacuate", rng.choice(nodes[:8])),
        ]
        for _ in range(2):
            victim = rng.choice(nodes[:8])
            when = rng.randrange(horizon)
            sim.schedule_failure(victim, at=when)
            sim.schedule_repair(victim, at=when + rng.randrange(100, 700))
    for when, kind, arg in sorted(actions, key=lambda a: a[:2]):
        # The clock moves with events only; repairing a vertex that is up
        # is an event that does nothing else.
        sim.schedule_repair(graph.root, at=when)
        sim.run(until=when)
        if kind == "cancel":
            if sim.jobs[arg].is_active:
                sim.cancel(sim.jobs[arg])
        elif kind == "truncate":
            # A running job that will finish early anyway gives the tail of
            # its window back now (its END event stays valid).
            for job in sim.jobs.values():
                alloc = job.allocation
                if (
                    job.state is JobState.RUNNING
                    and job.work_required < alloc.duration
                    and alloc.at + job.work_required > sim.now
                ):
                    sim.traverser.update_end(
                        alloc.alloc_id, alloc.at + job.work_required
                    )
                    break
        elif kind == "mark_up":
            graph.mark_up(arg)
        elif kind == "mark_down":
            graph.mark_down(arg)
        elif kind == "grow":
            grow(graph, arg, NODE)
        elif kind == "cancel_outage":
            capacity.cancel(arg.outage_id)
        else:
            RepairEngine(sim).evacuate_vertex(arg)
        sim.reschedule()
    sim.run()
    return sim


@pytest.mark.parametrize("seed", range(36))
def test_random_traces_match_reference(seed):
    reference, changed = assert_same_outcome(
        lambda policy: random_scenario(seed, policy)
    )
    assert sum(1 for e in changed.event_log if e[1] == "start") >= 20
    # The point of the change: fewer bookings, so fewer events pushed.
    assert changed._event_seq < reference._event_seq
    assert (
        changed.traverser.metrics.counter("dfu.failed").value
        < reference.traverser.metrics.counter("dfu.failed").value
    )


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("queue", ["fcfs", "easy", "conservative"])
def test_limits_that_never_bind_decide_nothing(queue, seed):
    """The premise of the ledger's guarded workload: an overload controller
    whose limits never bind changes no decision, only its own accounting."""
    guarded = random_scenario(
        seed, queue, overload=OverloadConfig(**NEVER_BINDS)
    )
    bare = random_scenario(seed, queue, overload=None)
    assert guarded.event_log == bare.event_log
    assert schedule(guarded) == schedule(bare)
    with_controller = state_fingerprint(guarded)
    without = state_fingerprint(bare)
    assert with_controller.pop("overload")["counters"]["rejected"] == 0
    assert without.pop("overload") is None
    assert with_controller == without


@pytest.mark.parametrize("build", [node_lod, med_lod, faulty])
def test_corpus_scenarios_match_reference(build):
    def run(policy):
        sim = build(policy)
        sim.run()
        return sim

    assert_same_outcome(run)


@pytest.mark.parametrize("match_policy", ["first", "low", "high", "variation"])
def test_match_policies_match_reference(match_policy):
    def watch(sim):
        for node in sim.graph.vertices("node"):
            node.properties["perf_class"] = 1 + node.id * 7 % 5

    for seed in (101, 102, 103):
        assert_same_outcome(
            lambda policy: random_scenario(
                seed, policy, match_policy=match_policy, watch=watch
            )
        )


# ----------------------------------------------------------------------
# start-time oracles (paper §3.2; ROADMAP item 5b)
# ----------------------------------------------------------------------
def record_reservations(log):
    """A ``watch`` hook: after every policy cycle append the jobs holding a
    reservation, as ``[(job id, reserved start), ...]``, to ``log``."""

    def watch(sim):
        policy = sim.queue_policy
        cycle = policy.cycle

        def watched(pending, traverser, now):
            cycle(pending, traverser, now)
            log.append([
                (job.job_id, job.start_time) for job in pending
                if job.state is JobState.RESERVED
            ])

        policy.cycle = watched

    return watch


def started_at(sim):
    return {ref: when for when, kind, ref in sim.event_log if kind == "start"}


@pytest.mark.parametrize("seed", range(200, 212))
@pytest.mark.parametrize("policy", [EasyBackfill, ReplanEveryCycle])
def test_easy_never_delays_the_head(seed, policy):
    """While a job stays head its reserved start never moves later, and it
    starts no later than the last start it was promised."""
    log = []
    sim = random_scenario(
        seed, policy(), calm=True, watch=record_reservations(log)
    )
    promised = {}
    stretches = 0
    head = None
    for reserved in log:
        assert len(reserved) <= 1, "EASY holds one reservation"
        for job_id, start in reserved:
            if head == job_id:
                assert start <= promised[job_id]
            else:
                stretches += 1
            promised[job_id] = start
        head = reserved[0][0] if reserved else None
    assert stretches >= 3, "scenario never backlogged: nothing was checked"
    started = started_at(sim)
    for job_id, start in promised.items():
        if job_id in started:
            assert started[job_id] <= start


@pytest.mark.parametrize("seed", range(200, 212))
def test_conservative_never_starts_after_first_reservation(seed):
    """Early completions may only pull a reserved job earlier."""
    log = []
    sim = random_scenario(
        seed, ConservativeBackfill(), calm=True,
        watch=record_reservations(log),
    )
    first = {}
    for reserved in log:
        for job_id, start in reserved:
            first.setdefault(job_id, start)
    assert len(first) >= 5, "scenario never backlogged: nothing was checked"
    started = started_at(sim)
    for job_id, start in first.items():
        if job_id in started:
            assert started[job_id] <= start


# ----------------------------------------------------------------------
# every invalidation is needed: take one away and the schedule moves
# ----------------------------------------------------------------------
def without_bumps(monkeypatch, *callers):
    """Make ``note_change`` calls from the named functions say nothing new:
    dropped, or for ``remove`` reported as a release at the booked end."""
    real = ResourceGraph.note_change

    def note_change(self, planned=False, structural=False):
        caller = sys._getframe(1).f_code.co_name
        if caller not in callers:
            real(self, planned, structural)
        elif caller == "remove":
            real(self, planned=True)

    monkeypatch.setattr(ResourceGraph, "note_change", note_change)


def small(policy, n_nodes=4, racks=1):
    graph = tiny_cluster(racks, n_nodes, cores=1, gpus=0, memory_pools=0)
    return ClusterSimulator(graph, "low", queue=policy, audit=Auditor())


def act(sim, when, action):
    """At time ``when`` apply ``action`` and run a cycle."""
    sim.schedule_repair(sim.graph.root, at=when)  # see random_scenario
    sim.run(until=when)
    action()
    sim.reschedule()


def early_remove(policy):
    sim = small(policy)
    sim.submit(nodes_jobspec(3, 100), at=0, actual_duration=40)
    sim.submit(nodes_jobspec(4, 100), at=0)  # head: reserved at 100
    sim.submit(nodes_jobspec(1, 50), at=0)   # backfilled until 50
    sim.run()
    return sim


def truncation(policy):
    sim = small(policy)
    first = sim.submit(nodes_jobspec(3, 100), at=0, actual_duration=40)
    sim.submit(nodes_jobspec(4, 100), at=0)
    sim.submit(nodes_jobspec(1, 50), at=0)
    act(sim, 10, lambda: sim.traverser.update_end(
        first.allocation.alloc_id, 40))
    sim.run()
    return sim


def mark_up(policy):
    sim = small(policy)
    spare = sim.graph.find(type="node")[3]
    sim.graph.mark_down(spare)
    sim.submit(nodes_jobspec(1, 100), at=0)
    sim.submit(nodes_jobspec(3, 100), at=0)  # two nodes free: reserved at 100
    act(sim, 10, lambda: sim.graph.mark_up(spare))
    sim.run()
    return sim


def mark_down_under_reservation(policy):
    sim = small(policy)
    sim.submit(nodes_jobspec(2, 100), at=0)
    sim.submit(nodes_jobspec(3, 100), at=0)  # reserved on nodes 0-2 at 100
    act(sim, 10, lambda: sim.graph.mark_down(sim.graph.find(type="node")[2]))
    sim.run()
    return sim


def grown(policy):
    sim = small(policy, n_nodes=3)
    sim.submit(nodes_jobspec(1, 100), at=0)
    sim.submit(nodes_jobspec(3, 100), at=0)
    act(sim, 10, lambda: grow(
        sim.graph, sim.graph.find(type="rack")[0],
        {"type": "node", "with": [{"type": "core"}]},
    ))
    sim.run()
    return sim


def outage_cancel(policy):
    sim = small(policy, n_nodes=3)
    capacity = CapacitySchedule(sim.graph)
    outage = capacity.add_outage(sim.graph.find(type="node")[2], 0, 100)
    sim.submit(nodes_jobspec(3, 100), at=0)
    act(sim, 10, lambda: capacity.cancel(outage.outage_id))
    sim.run()
    return sim


def evacuate(policy):
    sim = small(policy)
    sim.submit(nodes_jobspec(3, 100), at=0)
    sim.submit(nodes_jobspec(2, 100), at=0)  # reserved on nodes 0-1 at 100
    act(sim, 10, lambda: RepairEngine(sim).evacuate_vertex(
        sim.graph.find(type="node")[2]))
    sim.run()
    return sim


def submit_at_an_end(policy):
    """SUBMIT sorts before END: at t=100 job 1's span is over, its
    allocation still registered, and nothing has been removed since job 4
    was refused — yet job 4 fits, and the every-cycle loop starts it."""
    sim = small(policy)
    sim.submit(nodes_jobspec(1, 100), at=0)
    sim.submit(nodes_jobspec(1, 300), at=0)
    sim.submit(nodes_jobspec(4, 100), at=0)   # head: reserved at 300
    sim.submit(nodes_jobspec(3, 150), at=10)  # refused: two nodes free
    sim.submit(nodes_jobspec(1, 10), at=100)
    sim.run()
    return sim


def outage_end(policy):
    """An outage ends with no event at all."""
    sim = small(policy)
    CapacitySchedule(sim.graph).add_outage(
        sim.graph.find(type="node")[0], 0, 100)
    sim.submit(nodes_jobspec(1, 300), at=0)
    sim.submit(nodes_jobspec(4, 100), at=0)   # head: reserved at 300
    sim.submit(nodes_jobspec(3, 150), at=10)  # refused: two nodes free
    sim.submit(nodes_jobspec(1, 10), at=100)
    sim.run()
    return sim


def then_too_big(policy, change, memory_pools=0):
    """A four-node job runs and ends; ``change`` takes capacity out of the
    machine for good; the same request comes again.  ``satisfiable`` said
    yes to the shape once, and only the structural bump makes it look
    again: without it job 2 is admitted and waits for ever."""
    graph = tiny_cluster(
        1, 4, cores=1, gpus=0, memory_pools=memory_pools, memory_size=16
    )
    sim = ClusterSimulator(graph, "low", queue=policy, audit=Auditor())
    memory = 16 if memory_pools else 0
    sim.submit(simple_node_jobspec(1, memory, nodes=4, duration=5), at=0)
    act(sim, 10, lambda: change(graph, graph.find(type="node")[3]))
    sim.submit(simple_node_jobspec(1, memory, nodes=4, duration=50), at=20)
    sim.run()
    return sim


def drained(policy):
    return then_too_big(policy, ResourceGraph.mark_down)


def shrunk(policy):
    return then_too_big(policy, shrink_subtree)


def vertex_removed(policy):
    return then_too_big(
        policy,
        lambda graph, node: graph.remove_vertex(graph.children(node)[0]),
    )


def pool_resized(policy):
    return then_too_big(
        policy,
        lambda graph, node: resize_pool(graph, graph.children(node)[1], 8),
        memory_pools=1,
    )


#: case -> (scenario, the functions whose bump is taken away, the job the
#: bump matters to, the start the every-cycle loop gives that job — None
#: where the bump is what gets the job canceled as unsatisfiable)
NEEDED = {
    "early-remove": (early_remove, ("remove",), 2, 50),
    "truncation": (truncation, ("update_end",), 2, 50),
    "mark-up": (mark_up, ("mark_up",), 2, 10),
    "mark-down": (mark_down_under_reservation, ("mark_down",), 2, 100),
    "grow": (grown, ("add_vertex", "add_edge"), 2, 10),
    "outage-cancel": (outage_cancel, ("cancel",), 1, 10),
    "evacuate": (evacuate, ("release_allocation",), 2, 10),
    "stale-yes-drain": (drained, ("mark_down",), 2, None),
    "stale-yes-shrink": (shrunk, ("remove_vertex", "remove_edge"), 2, None),
    "stale-yes-remove-vertex": (
        vertex_removed, ("remove_vertex", "remove_edge"), 2, None,
    ),
    "stale-yes-resize": (pool_resized, ("resize_pool",), 2, None),
}


@pytest.mark.parametrize("case", sorted(NEEDED))
def test_schedule_moves_without_the_bump(case, monkeypatch):
    build, callers, job_id, start = NEEDED[case]
    reference, _ = assert_same_outcome(build)
    assert reference.jobs[job_id].start_time == start
    without_bumps(monkeypatch, *callers)
    changed = build(EasyBackfill())
    if start is None:
        assert reference.jobs[job_id].cancel_reason is CancelReason.UNSATISFIABLE
        # Admitted on the stale yes.  What becomes of it then depends on
        # what else the missing bump left stale: the graph's
        # structure-derived table (children, roots) keys on the same bump,
        # so a walk may still reach a removed vertex and the job may even
        # book it and complete instead of staying PENDING for ever.
        assert (
            changed.jobs[job_id].cancel_reason is not CancelReason.UNSATISFIABLE
        )
    else:
        assert schedule(changed) != schedule(reference)


def test_drained_node_leaves_the_standing_reservation():
    sim = mark_down_under_reservation(EasyBackfill())
    assert [path[-5:] for path in schedule(sim)[2][2]] == [
        "node0", "node1", "node3",
    ]


@pytest.mark.parametrize(
    "build, job_id", [(submit_at_an_end, 4), (outage_end, 3)]
)
def test_schedule_moves_without_the_booked_end_test(
    build, job_id, monkeypatch
):
    reference, _ = assert_same_outcome(build)
    assert reference.jobs[job_id].start_time == 100
    monkeypatch.setattr("repro.sched.queue._span_ended", lambda *args: False)
    assert schedule(build(EasyBackfill())) != schedule(reference)


def freed_for_a_refused_job(policy):
    """Job 4 is refused at t=10 with no node free; node 3's outage ends at
    t=45 and job 2's end at t=50 frees node 2, so job 4 fits before the
    head's reservation.  Asked about the memo's instant, t=0, the root
    filter still sees the outage and only one node free."""
    sim = small(policy)
    CapacitySchedule(sim.graph).add_outage(
        sim.graph.find(type="node")[3], 0, 45)
    sim.submit(nodes_jobspec(2, 100), at=0)
    sim.submit(nodes_jobspec(1, 50), at=0)
    sim.submit(nodes_jobspec(4, 100), at=0)  # head: reserved at 100
    sim.submit(nodes_jobspec(2, 40), at=10)
    sim.run()
    return sim


def kept_without_a_recheck(monkeypatch, policy):
    monkeypatch.setattr(Traverser, "could_fit", lambda self, *args: False)


def rechecked_when_refused(monkeypatch, policy):
    could_fit = Traverser.could_fit
    monkeypatch.setattr(
        Traverser, "could_fit",
        lambda self, jobspec, at: could_fit(self, jobspec, policy._refused_at),
    )


@pytest.mark.parametrize(
    "mutant", [kept_without_a_recheck, rechecked_when_refused]
)
def test_schedule_moves_without_the_recheck(mutant, monkeypatch):
    """A release re-asks the refused jobs cut 1 lets through at ``now``:
    keep them all, or ask cut 1 about the instant of the refusal, and job
    4 misses the gap before the head."""
    reference, _ = assert_same_outcome(freed_for_a_refused_job)
    assert reference.jobs[4].start_time == 50
    policy = EasyBackfill()
    mutant(monkeypatch, policy)
    changed = freed_for_a_refused_job(policy)
    assert changed.event_log != reference.event_log
    assert changed.jobs[4].start_time > 50


def test_a_refusal_cut_1_let_through_is_asked_again():
    """Job 4 wants two cores on one node while nodes 1 and 2 have one free
    each: the root filter counts two cores, so only the walk refuses it.
    Job 1's end re-asks it, and it takes node 0 before the head's start."""
    sim = ClusterSimulator(
        tiny_cluster(1, 3, cores=2, gpus=0, memory_pools=0), "low",
        queue="easy",
    )
    sim.submit(simple_node_jobspec(2, duration=30), at=0)  # node 0
    sim.submit(simple_node_jobspec(1, nodes=2, duration=100), at=0)
    sim.submit(simple_node_jobspec(2, nodes=3, duration=100), at=0)  # head
    waiting = sim.submit(simple_node_jobspec(2, duration=20), at=1)
    sim.run(until=1)
    assert sim.queue_policy.export_state()["refused"]["jobs"] == [4]
    assert sim.traverser.could_fit(waiting.jobspec, 1)
    sim.run()
    assert waiting.start_time == 30
    assert schedule(sim)[4][2][0] == "/cluster0/rack0/node0"


def test_a_refusal_past_the_horizon_stays_refused():
    """Job 3's window passes ``plan_end`` at every instant after t=50: a
    plain filter query would raise, ``could_fit`` says no."""
    sim = ClusterSimulator(tiny_cluster(8, 8, plan_end=1000), queue="easy")
    for nodes, duration, at in (
        (60, 300, 0), (64, 500, 1), (2, 950, 2), (1, 100, 100)
    ):
        sim.submit(nodes_jobspec(nodes, duration=duration), at=at)
    sim.run()
    assert sim.event_log == [
        (0, "submit", 1), (1, "submit", 2), (2, "submit", 3),
        (100, "submit", 4), (0, "start", 1), (100, "start", 4),
        (200, "end", 4), (300, "start", 2), (300, "end", 1), (800, "end", 2),
    ]
    assert sim.jobs[3].state is JobState.PENDING


def test_cut_short_refusal_is_not_remembered():
    """An attempt deadline ends a match without a verdict: the job must be
    asked again next cycle, with nothing released in between."""
    sim = ClusterSimulator(
        tiny_cluster(1, 4, cores=1, gpus=0, memory_pools=0), "low",
        queue="easy",
        overload=OverloadConfig(
            max_pending=10**6, attempt_budget=2, checkpoint_interval=1,
        ),
    )
    sim.submit(nodes_jobspec(4, 100), at=0)
    sim.submit(nodes_jobspec(4, 100), at=0)
    sim.submit(nodes_jobspec(1, 10), at=0)
    sim.run(until=0)
    assert sim.overload.counters["deadline_attempts"] > 0
    assert sim.queue_policy.export_state()["refused"]["jobs"] == []


# ----------------------------------------------------------------------
# the new state is crash-consistent state
# ----------------------------------------------------------------------
def backlog():
    sim = small(EasyBackfill(), n_nodes=4)
    sim.submit(nodes_jobspec(3, 100), at=0)
    sim.submit(nodes_jobspec(4, 100), at=0)
    sim.submit(nodes_jobspec(2, 100), at=5)
    sim.submit(nodes_jobspec(1, 20), at=30)
    sim.submit(nodes_jobspec(2, 100), at=60)
    return sim


def test_snapshot_carries_reservation_and_refusals():
    control = backlog()
    control.run(until=40)
    state = control.queue_policy.export_state()
    assert state["head"][0] == 2 and state["refused"]["jobs"] == [3]
    restored = restore_simulator(snapshot_state(control))
    assert restored.queue_policy.export_state() == state
    assert state_diff(control, restored) == []
    control.run()
    restored.run()
    # Neither re-planned nor re-tried where the control did not: alloc ids
    # and event sequence numbers are part of the fingerprint.
    assert state_diff(control, restored) == []


def test_snapshot_from_before_the_counters_replans_once():
    control = backlog()
    control.run(until=40)
    doc = snapshot_state(control)
    head = doc["config"]["queue_state"]["head"]
    doc["config"]["queue_state"] = {"head_reservation": {str(head[0]): head[1]}}
    del doc["graph_changes"]
    restored = restore_simulator(doc)
    assert restored.queue_policy.export_state()["head"] == [2, head[1], None]
    control.run()
    restored.run()
    assert outcome(restored) == outcome(control)
    assert restored.traverser._next_alloc_id == control.traverser._next_alloc_id + 1


def test_import_state_names_a_missing_job():
    with pytest.raises(RecoveryError, match="job 7"):
        EasyBackfill().import_state({"head": [7, 3, 0]}, {})
    with pytest.raises(RecoveryError, match="job 7"):
        EasyBackfill().import_state({"head_reservation": {"7": 3}}, {})
