"""The kept expected-state table and the per-cycle audit built on it.

``InvariantAuditor.check`` verifies what changed since its previous check and
``IntegrityMonitor.scrub_cycle`` reads the same kept table; ``collect`` and
``scan`` stay the full audit against a table derived from nothing.  The
contract pinned here:

(a) after every cycle of every scenario the kept table *is* the table built
    from nothing, and the per-cycle check finds what the full audit finds;
(b) a write through the scheduler's own booking paths is verified in the cycle
    it happens, anything else within ceil(vertices / window) cycles;
(c) a restored snapshot, a fresh auditor and a moved ``structure`` each start
    with a full audit — but for a status flip, which books nothing: the table
    stands and ``down-vertex`` is asked of every active allocation;
(d) every comparison ``ExpectedState.refresh`` makes is needed: the targeted
    cases at the end each fail with one of them taken away (moved window,
    reset ``_bookings``, departed allocation, cancelled outage, moved
    ``structure``).
"""

import math

import pytest

from repro import ClusterSimulator, nodes_jobspec, tiny_cluster
from repro.jobspec import simple_node_jobspec
from repro.match import Traverser
from repro.recovery import (
    CORRUPTION_KINDS,
    IntegrityConfig,
    RepairEngine,
    apply_corruption,
    corruption_targets,
    expected_span_table,
)
from repro.recovery.integrity import ExpectedState, expected_state
from repro.recovery.snapshot import restore_simulator, snapshot_state
from repro.resilience import InvariantAuditor, InvariantViolation
from repro.resilience.auditor import SLICE
from repro.sched.capacity import CapacitySchedule
from repro.sched.elastic import grow, resize_pool, shrink_subtree

from .test_easy_event_driven import Auditor, random_scenario


def names(vertices):
    return [v.name for v in vertices]


class Watching(Auditor):
    """An auditor that, after each of its per-cycle checks, compares what
    was kept with what a derivation from nothing gives."""

    def check(self, sim):
        super().check(sim)
        kept = expected_state(sim)
        assert kept.table == expected_span_table(sim)
        assert names(kept.order) == sorted(names(sim.graph.vertices()))
        assert not kept.changed and not kept.entered
        assert self.collect(sim) == []


def watched(sim):
    sim.auditor = Watching(deep=sim.auditor.deep)


# ----------------------------------------------------------------------
# (a) kept == from nothing, check == collect, over everything that moves
# ----------------------------------------------------------------------
@pytest.mark.parametrize("queue", ["easy", "conservative"])
@pytest.mark.parametrize("seed", range(8))
def test_kept_table_is_the_table_built_from_nothing(seed, queue):
    """Cancel, truncate, grow, drain / return, evacuate, outage add /
    cancel, fail / repair, walltime kills and retries."""
    sim = random_scenario(seed, queue, watch=watched)
    assert sim.auditor.checks_run > 60
    # derived twice, at first and for the grown node: the drains, returns,
    # faults and repairs in between flipped statuses and left it standing
    assert sim.graph.drains >= 4
    assert expected_state(sim).rebuilds == 2


def test_kept_table_survives_resize_corruption_and_repair():
    """The same with the scrubber attached: elastic resize / grow / shrink
    and a corruption of each kind, repaired between two audits."""
    graph = tiny_cluster(2, 4, cores=2, gpus=0, memory_pools=1)
    sim = ClusterSimulator(
        graph, "low", queue="easy", audit=Watching(deep=True),
        integrity=IntegrityConfig(scrub_window=None),
    )
    for i in range(24):
        sim.submit(
            simple_node_jobspec(cores=2, memory=4, duration=60 + 7 * i),
            at=13 * i,
        )
    memory = graph.find(type="memory")
    racks = graph.find(type="rack")
    steps = [
        (40, lambda: resize_pool(graph, memory[0], memory[0].size * 2)),
        (90, lambda: grow(graph, racks[1], {
            "type": "node", "with": [{"type": "core", "count": 2}]})),
        (200, lambda: resize_pool(graph, memory[1], memory[1].size + 8)),
    ] + [
        (120 + 30 * i, lambda kind=kind: corrupt(kind))
        for i, kind in enumerate(CORRUPTION_KINDS)
    ]

    def corrupt(kind):
        target = corruption_targets(sim, kind)[0]
        assert sim.inject_corruption(kind, graph.vertex_by_name(target), salt=5)

    for when, action in sorted(steps, key=lambda s: s[0]):
        sim.run(until=when)
        action()
        sim.reschedule()
    sim.run()
    spare = [v for v in graph.find(type="node") if not v.plans.span_count][-1]
    shrink_subtree(graph, spare)
    sim.reschedule()
    counters = sim.integrity.counters
    assert counters["detected"] >= 4 and counters["unrepaired"] == 0
    assert counters["repaired"] == counters["quarantined"] == 4
    assert sim.integrity.scan() == []


def test_check_and_collect_agree_on_damage():
    """Damage on a vertex the cycle wrote to: the per-cycle check reports
    exactly what the full audit reports."""
    sim = ClusterSimulator(
        tiny_cluster(2, 4, cores=2, gpus=0, memory_pools=0), "low",
        queue="easy", audit=True,
    )
    first = sim.submit(nodes_jobspec(2, duration=100), at=0)
    sim.submit(nodes_jobspec(1, duration=100), at=10)
    sim.run(until=0)
    node = first.allocation.nodes()[0]
    node.plans.add_span(500, 10, 1)  # a rogue span where job 1 stands
    sim.run(until=5)
    sim.cancel(first)  # touches the vertex: the next check re-reads it
    with pytest.raises(InvariantViolation) as err:
        sim.run(until=10)
    assert err.value.violations == InvariantAuditor().collect(sim)
    assert [v.subject for v in err.value.violations] == [f"{node.name}.plans"]


# ----------------------------------------------------------------------
# (b) detection latency
# ----------------------------------------------------------------------
def small(**kwargs):
    graph = tiny_cluster(2, 4, cores=2, gpus=0, memory_pools=0)
    return ClusterSimulator(graph, "low", queue="easy", **kwargs)


def test_release_that_forgets_a_rem_span_is_caught_at_the_release():
    sim = small(audit=True)
    job = sim.submit(nodes_jobspec(2, duration=100), at=0)
    sim.submit(nodes_jobspec(1, duration=400), at=0)
    sim.run(until=50)
    planner, span_id = job.allocation._span_records.pop(0)  # never released
    with pytest.raises(InvariantViolation) as err:
        sim.run()
    assert err.value.now == 100  # the END that released the rest
    assert [(v.invariant, v.actual) for v in err.value.violations] == [
        ("span-accounting", f"unreferenced spans [{span_id}]")
    ]
    assert planner.has_span(span_id)


def test_booking_that_loses_a_span_record_is_caught_in_its_cycle(monkeypatch):
    sim = small(audit=True)
    sim.submit(nodes_jobspec(1, duration=100), at=0)
    sim.run(until=0)
    book = Traverser._book

    def forgetful(self, *args, **kwargs):
        alloc = book(self, *args, **kwargs)
        if alloc is not None:
            alloc._span_records.pop()  # the last filter bundle, unrecorded
        return alloc

    monkeypatch.setattr(Traverser, "_book", forgetful)
    sim.submit(nodes_jobspec(2, duration=100), at=20)
    with pytest.raises(InvariantViolation) as err:
        sim.run()
    assert err.value.now == 20
    assert {v.invariant for v in err.value.violations} == {"span-accounting"}
    assert any("unreferenced" in v.actual for v in err.value.violations)


def test_update_end_that_skips_a_planner_is_caught_in_its_cycle():
    sim = small(audit=True)
    job = sim.submit(nodes_jobspec(2, duration=100), at=0, actual_duration=60)
    sim.run(until=10)
    alloc = job.allocation
    skipped, span_id = alloc._span_records[0]
    for planner, sid in alloc._span_records[1:]:
        planner.update_span_end(sid, 60)
    alloc.duration = 60 - alloc.at
    with pytest.raises(InvariantViolation) as err:
        sim.reschedule()
    assert [v.invariant for v in err.value.violations] == ["span-accounting"]
    assert f"span {span_id}: have" in err.value.violations[0].actual
    assert skipped.get_span(span_id).end == 100


def test_job_that_left_the_active_set_is_looked_at_once_more():
    sim = small(audit=True)
    job = sim.submit(nodes_jobspec(1, duration=100), at=0)
    sim.submit(nodes_jobspec(1, duration=300), at=0)
    sim.run(until=10)
    sim.cancel(job)
    job.cancel_reason = None  # sabotage, after the job went inactive
    with pytest.raises(InvariantViolation, match="CANCELED with a cancel reason"):
        sim.reschedule()


def test_allocation_of_a_long_gone_job_reads_as_orphaned():
    """The per-cycle check walks the active jobs, not every job ever
    submitted: a finished job's allocation back in the traverser is found
    from the live side."""
    sim = small(audit=True)
    done = sim.submit(nodes_jobspec(1, duration=50), at=0)
    sim.submit(nodes_jobspec(1, duration=1000), at=0)
    sim.run(until=200)
    sim.reschedule()
    assert done not in sim.auditor._active
    sim.traverser.install_allocation(done.allocation)  # sabotage
    with pytest.raises(InvariantViolation) as err:
        sim.reschedule()
    assert [(v.subject, v.actual) for v in err.value.violations] == [
        (f"allocation {done.allocation.alloc_id}", "orphaned in the traverser")
    ]
    messages = [str(v) for v in InvariantAuditor().collect(sim)]
    assert any("no live allocations after release" in m for m in messages)


def cold_sim(**kwargs):
    """Rack 0 held by one long job nothing else touches; cycles come from
    ``reschedule``.  Returns the simulator and the cycles within which a
    rotation of ``SLICE`` vertices per cycle covers the graph."""
    graph = tiny_cluster(2, 4, cores=2, gpus=0, memory_pools=0)
    sim = ClusterSimulator(graph, "low", queue="easy", **kwargs)
    sim.submit(nodes_jobspec(4, duration=10**6), at=0)
    sim.run(until=0)
    sim.reschedule()  # the booking itself has been verified by now
    return sim, math.ceil(sum(1 for _ in graph.vertices()) / SLICE)


def cold_vertex(sim, kind):
    return sim.graph.find(type="rack" if kind == "aggregate" else "node")[0]


@pytest.mark.parametrize("kind", [k for k in CORRUPTION_KINDS if k != "structure"])
def test_cold_corruption_reaches_the_auditor_within_the_bound(kind):
    """No monitor: the auditor's own slice of the rotation gets there.
    (Nothing but the structure comparison notices a changed ``size``, so that
    kind needs the monitor; point damage needs ``deep``.)"""
    sim, bound = cold_sim(audit=InvariantAuditor(deep=True))
    vertex = cold_vertex(sim, kind)
    assert apply_corruption(sim, vertex, kind, salt=3)
    for cycle in range(1, bound + 1):
        try:
            sim.reschedule()
        except InvariantViolation as err:
            assert {v.subject.split(".")[0] for v in err.violations} == {
                vertex.name}
            break
    else:
        pytest.fail(f"{kind} damage on {vertex.name} not reported in {bound} cycles")
    assert InvariantAuditor(deep=True).collect(sim)  # and it was real


@pytest.mark.parametrize("kind", CORRUPTION_KINDS)
def test_cold_corruption_is_repaired_by_the_scrubber_within_the_bound(kind):
    """Auditor and monitor: the scrubber's window is the rotation, and it
    repairs what it finds before the auditor could raise it."""
    sim, bound = cold_sim(
        audit=InvariantAuditor(deep=True), integrity=IntegrityConfig()
    )
    assert sim.integrity.config.scrub_window == SLICE
    vertex = cold_vertex(sim, kind)
    assert apply_corruption(sim, vertex, kind, salt=3)
    for cycle in range(bound):
        sim.reschedule()  # never raises
    counters = sim.integrity.counters
    assert counters["detected"] >= 1 and counters["repaired"] == 1
    assert InvariantAuditor(deep=True).collect(sim) == []
    assert sim.integrity.scan() == []


# ----------------------------------------------------------------------
# (c) what starts with a full audit
# ----------------------------------------------------------------------
def rogue_sim():
    """A rogue span on the vertex the auditor's rotation reaches last."""
    sim, _ = cold_sim(audit=True)
    last = expected_state(sim).order[-1]
    last.plans.add_span(5000, 10, 1)
    return sim, last


def test_per_cycle_check_leaves_cold_state_to_the_rotation():
    sim, last = rogue_sim()
    sim.reschedule()  # not a full audit: the rogue span is not read yet
    assert [v.subject for v in sim.auditor.collect(sim)] == [f"{last.name}.plans"]


def test_fresh_auditor_starts_with_a_full_audit():
    sim, last = rogue_sim()
    with pytest.raises(InvariantViolation, match=f"{last.name}.plans"):
        InvariantAuditor().check(sim)


def test_moved_structure_starts_a_full_audit():
    sim, last = rogue_sim()
    grow(sim.graph, sim.graph.find(type="rack")[1], {"type": "node"})
    with pytest.raises(InvariantViolation, match=f"{last.name}.plans"):
        sim.reschedule()


def test_status_flip_keeps_the_table_and_asks_every_allocation():
    """A drain moves ``structure`` and books nothing: the kept table stands,
    the check stays incremental, and ``down-vertex`` is asked of what was
    already standing there."""
    sim, last = rogue_sim()
    rebuilds = expected_state(sim).rebuilds
    spare = sim.graph.find(type="node")[-1]
    sim.graph.mark_down(spare)
    sim.reschedule()  # nobody stands on it; the rogue span is not read yet
    sim.graph.mark_up(spare)
    held = sim.jobs[1].allocation.nodes()[0]
    sim.graph.mark_down(held)  # under a running job, nothing evicted
    with pytest.raises(InvariantViolation) as err:
        sim.reschedule()
    assert {v.invariant for v in err.value.violations} == {"down-vertex"}
    assert err.value.violations == [
        v for v in sim.auditor.collect(sim) if v.invariant == "down-vertex"
    ]
    assert expected_state(sim).rebuilds == rebuilds


def test_restored_snapshot_starts_with_a_full_audit():
    sim, last = rogue_sim()
    restored = restore_simulator(snapshot_state(sim))
    assert restored._expected_state is None  # nothing kept comes along
    with pytest.raises(InvariantViolation, match=f"{last.name}.plans"):
        restored.reschedule()


def test_observed_run_counts_the_work_beside_the_time():
    sim = small(audit=True, integrity=IntegrityConfig(), observe=True)
    for i in range(6):
        sim.submit(nodes_jobspec(2, duration=100), at=10 * i)
    sim.run()
    metrics = sim.metrics_snapshot()
    cycles = metrics["sim.cycles"]
    vertices = sum(1 for _ in sim.graph.vertices())
    assert metrics["audit.full_checks"] == 1  # the first; nothing moved since
    assert vertices < metrics["audit.vertices_checked"] < vertices * cycles / 2
    assert metrics["integrity.table_rebuilds"] == 1  # one kept table, one shape
    spans = [e["name"] for e in sim.obs.tracer.events if e["ph"] == "X"]
    assert spans.count("audit.check") == spans.count("integrity.scrub") == cycles


def test_one_refresh_per_cycle(monkeypatch):
    """Auditor and monitor read the planners in one pass: the kept table is
    refreshed once per cycle (the head-of-cycle scrub took a second)."""
    calls = []
    refresh = ExpectedState.refresh

    def counted(self):
        calls.append(self)
        return refresh(self)

    monkeypatch.setattr(ExpectedState, "refresh", counted)
    sim = small(audit=True, integrity=IntegrityConfig(), observe=True)
    for i in range(6):
        sim.submit(nodes_jobspec(2, duration=100), at=10 * i)
    sim.run()
    cycles = sim.metrics_snapshot()["sim.cycles"]
    assert cycles > 6
    assert len(calls) <= cycles + 1


@pytest.mark.parametrize("kind", ["span", "point", "aggregate"])
def test_damage_a_cycle_writes_to_is_repaired_not_raised(kind):
    """Auditor and monitor: damage outside the window, on the cluster
    vertex the next booking writes to, is read as written, handed to the
    monitor and repaired in that cycle; the deep auditor raises nothing."""
    sim, _ = cold_sim(
        audit=InvariantAuditor(deep=True), integrity=IntegrityConfig()
    )
    order = expected_state(sim).order
    while any(
        order[(sim.integrity.cursor + i) % len(order)].name == "cluster0"
        for i in range(SLICE)
    ):
        sim.reschedule()
    vertex = sim.graph.vertex_by_name("cluster0")
    assert apply_corruption(sim, vertex, kind, salt=3)
    sim.submit(nodes_jobspec(1, duration=50), at=sim.now + 10)
    sim.run(until=sim.now + 10)  # one cycle: the booking under cluster0
    counters = sim.integrity.counters
    assert counters["detected"] >= 1 and counters["repaired"] == 1
    assert counters["unrepaired"] == 0
    assert InvariantAuditor(deep=True).collect(sim) == []


def test_without_auto_repair_drift_is_drained_not_raised():
    """``auto_repair=False``: the pass quarantines (drains) the damaged
    vertex and leaves it for operator tooling; the auditor raises none of
    the findings on it, and the damage is still there to repair."""
    sim, bound = cold_sim(
        audit=InvariantAuditor(deep=True),
        integrity=IntegrityConfig(auto_repair=False),
    )
    vertex = sim.graph.find(type="node")[-1]  # on rack 1, holds nothing
    assert apply_corruption(sim, vertex, "structure", salt=3)
    for _ in range(bound + 1):
        sim.reschedule()
    counters = sim.integrity.counters
    assert counters["detected"] >= 1 and counters["repaired"] == 0
    assert sim.integrity.quarantined == {vertex.name: "structure"}
    assert vertex.status == "down"
    assert [f.vertex for f in sim.integrity.scan()] == [vertex.name]


# ----------------------------------------------------------------------
# (d) every comparison of the refresh is needed
# ----------------------------------------------------------------------
def kept_equals_fresh(sim):
    kept = expected_state(sim)
    kept.refresh()
    return kept.table == expected_span_table(sim)


def busy(**kwargs):
    sim = small(**kwargs)
    for i in range(3):
        sim.submit(nodes_jobspec(2, duration=100 + 50 * i), at=0)
    sim.run(until=0)
    assert kept_equals_fresh(sim) and expected_state(sim).table
    return sim


def test_refresh_sees_a_moved_window():
    sim = busy()
    alloc = sim.jobs[1].allocation
    expected_state(sim).entered.clear()
    sim.traverser.update_end(alloc.alloc_id, alloc.at + 40)
    assert kept_equals_fresh(sim)
    assert set(expected_state(sim).entered) == {alloc.alloc_id}


def test_refresh_sees_a_reset_bookings_memo():
    """The repair engine's tolerant release empties an allocation in place;
    put back under its id, it is the same object over the same window."""
    sim = busy()
    alloc = sim.jobs[1].allocation
    RepairEngine(sim).release_allocation(alloc)
    sim.traverser.install_allocation(alloc)
    assert alloc._span_records == []
    assert kept_equals_fresh(sim)


def test_refresh_sees_a_departed_allocation():
    sim = busy()
    alloc = sim.jobs[2].allocation
    touched = {v.uniq_id for v, _, _ in alloc._bookings}
    expected_state(sim).changed.clear()
    sim.cancel(sim.jobs[2])
    assert kept_equals_fresh(sim)
    assert set(expected_state(sim).changed) == touched


def test_refresh_sees_an_allocation_dropped_without_a_release():
    """Gone from the allocation table with its spans still booked and its
    memo still set: only the table lookup says so."""
    sim = busy(audit=True)
    alloc = sim.traverser.allocations.pop(sim.jobs[3].allocation.alloc_id)
    assert alloc._bookings is not None
    assert kept_equals_fresh(sim)
    orphaned = {
        v.subject for v in sim.auditor.collect(sim)
        if v.invariant == "span-accounting"
    }
    assert orphaned
    with pytest.raises(InvariantViolation) as err:
        sim.reschedule()
    assert orphaned == {
        v.subject for v in err.value.violations
        if v.invariant == "span-accounting"
    }


def test_refresh_sees_a_cancelled_outage():
    sim = busy()
    schedule = CapacitySchedule(sim.graph)
    outage = schedule.add_outage(sim.graph.find(type="node")[-1], 5000, 100)
    assert kept_equals_fresh(sim)
    assert (outage.vertex.name, "xplans") in expected_state(sim).table
    schedule.cancel(outage.outage_id)
    assert kept_equals_fresh(sim)
    assert (outage.vertex.name, "xplans") not in expected_state(sim).table


def test_refresh_sees_a_moved_structure():
    sim = busy()
    kept = expected_state(sim)
    rebuilds = kept.rebuilds
    created = grow(sim.graph, sim.graph.find(type="rack")[0],
                   {"type": "node", "with": [{"type": "core", "count": 2}]})
    kept.refresh()
    assert kept.rebuilds == rebuilds + 1
    assert set(names(created)) <= set(names(kept.order))
    assert len(kept.changed) == len(kept.order)  # everything is to re-read
    assert kept_equals_fresh(sim)
