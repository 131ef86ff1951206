"""Crash-consistent scheduler state: snapshot, journal, recovery, equivalence.

The acceptance bar is TestCrashEquivalence: for every named crash point, a
simulator killed there (via :class:`CrashInjector`) and rebuilt from
snapshot + journal must produce an event log identical to an uninterrupted
control run, with an empty state diff and the invariant auditor (deep mode)
running throughout.  TestJournal covers the torn-tail guarantees: a
truncated or corrupt trailing record is dropped — never half-applied — and
corruption *inside* the journal body refuses recovery.
"""

import hashlib
import json
import os

import pytest

from repro.errors import (
    JournalCorruptError,
    PlannerError,
    RecoveryError,
    SnapshotError,
)
from repro.grug import (
    disaggregated_system,
    fat_tree_cluster,
    rabbit_system,
    tiny_cluster,
)
from repro.jobspec import simple_node_jobspec
from repro.match.writer import planner_owner_index
from repro.planner import Planner, PlannerMulti
from repro.recovery import (
    CRASH_POINTS,
    SNAPSHOT_VERSION,
    CrashInjector,
    IntegrityConfig,
    RecoveryManager,
    SimulatedCrash,
    corruption_targets,
    load_snapshot,
    load_snapshot_salvage,
    read_journal,
    read_journal_salvage,
    recover,
    restore_simulator,
    snapshot_state,
    state_diff,
    write_snapshot,
)
from repro.recovery.journal import Journal, frame_record
from repro.resilience import (
    CampaignSpec,
    InvariantAuditor,
    OverloadConfig,
    RetryPolicy,
)
from repro.resilience.chaos import _build_simulator, _submission_plan
from repro.resource import ResourceGraph
from repro.resource.jgf import from_jgf, to_jgf
from repro.sched import ClusterSimulator
from repro.sched.simulator import COMMANDS


# ----------------------------------------------------------------------
# journal framing and torn-tail handling
# ----------------------------------------------------------------------
class TestJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "j.wal")
        with Journal(path) as journal:
            for i in range(5):
                assert journal.append({"type": "submit", "i": i}) == i + 1
        records, torn, _ = read_journal(path)
        assert torn == 0
        assert [r["i"] for r in records] == list(range(5))
        assert [r["seq"] for r in records] == [1, 2, 3, 4, 5]

    def test_missing_file_reads_empty(self, tmp_path):
        records, torn, valid = read_journal(str(tmp_path / "absent.wal"))
        assert (records, torn, valid) == ([], 0, 0)

    @pytest.mark.parametrize("cut", [1, 5, 10])
    def test_truncated_tail_dropped(self, tmp_path, cut):
        path = str(tmp_path / "j.wal")
        with Journal(path) as journal:
            for i in range(3):
                journal.append({"i": i})
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - cut)
        records, torn, valid = read_journal(path)
        assert torn == 1
        assert [r["i"] for r in records] == [0, 1]
        # the valid prefix is exactly the first two framed records
        assert valid == len(frame_record(1, {"i": 0})) + len(
            frame_record(2, {"i": 1})
        )

    def test_corrupt_tail_crc_dropped(self, tmp_path):
        path = str(tmp_path / "j.wal")
        with Journal(path) as journal:
            journal.append({"i": 0})
            journal.append({"i": 1})
        with open(path, "r+b") as handle:
            handle.seek(-3, os.SEEK_END)
            handle.write(b"X")  # flip a payload byte of the last record
        records, torn, _ = read_journal(path)
        assert torn == 1
        assert [r["i"] for r in records] == [0]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "j.wal")
        with Journal(path) as journal:
            journal.append({"i": 0})
            journal.append({"i": 1})
            journal.append({"i": 2})
        with open(path, "r+b") as handle:
            handle.seek(5)
            handle.write(b"XX")  # damage the first record's body
        with pytest.raises(JournalCorruptError):
            read_journal(path)

    def test_sequence_gap_raises(self, tmp_path):
        path = str(tmp_path / "j.wal")
        with open(path, "wb") as handle:
            handle.write(frame_record(1, {"i": 0}))
            handle.write(frame_record(3, {"i": 2}))  # gap: 1 -> 3
        with pytest.raises(JournalCorruptError):
            read_journal(path)

    def test_the_journal_holds_commands_only(self, tmp_path):
        # Admission rejections, bookings, retries, quarantines and repairs
        # all happen here; none of them is written.
        sim = overload_chaos_sim(0, recovery_dir=tmp_path,
                                 integrity=IntegrityConfig(scrub_window=None))
        sim.run(until=_CORRUPT_AT)
        corrupt_a_span(sim, salt=1)
        report = sim.run()
        sim.recovery.close()
        assert report.overload_rejected > 0
        assert report.corruption_repaired >= 1
        records, torn, _ = read_journal(str(tmp_path / "journal.wal"))
        assert torn == 0
        assert {r["type"] for r in records} <= set(COMMANDS)
        assert not [r for r in records if "internal" in r]
        assert report.journal_records == len(records)

    def test_a_record_that_is_not_a_command_is_refused(self, tmp_path):
        from repro.recovery.manager import _replay

        sim = saturated_sim()
        RecoveryManager(str(tmp_path)).attach(sim)
        sim.step()
        sim.recovery.close()
        fresh = recover(str(tmp_path))
        alloc = {"type": "alloc", "seq": 42, "alloc_id": 0, "at": 0,
                 "duration": 100, "reserved": False}
        with pytest.raises(RecoveryError,
                           match="journal record 42: unknown type 'alloc'"):
            _replay(fresh, [alloc])


# ----------------------------------------------------------------------
# JGF round-trip over GRUG presets (satellite: round-trip gaps)
# ----------------------------------------------------------------------
def _graph_facts(graph: ResourceGraph):
    """Everything JGF must preserve, keyed by globally unique names."""
    vertices = {
        v.name: (
            v.type,
            v.basename,
            v.id,
            v.size,
            v.unit,
            v.status,
            dict(v.properties),
            dict(v.paths),
        )
        for v in graph.vertices()
    }
    edges = sorted(
        (
            graph.vertex(e.src).name,
            graph.vertex(e.dst).name,
            e.subsystem,
            e.type,
            tuple(sorted(e.properties.items())),
        )
        for e in graph.edges()
    )
    filters = {
        v.name: dict(
            (t, v.prune_filters.total(t)) for t in v.prune_filters.types
        )
        for v in graph.vertices()
        if v.prune_filters is not None
    }
    return vertices, edges, filters


PRESETS = {
    "tiny": lambda: tiny_cluster(),
    "rabbit": lambda: rabbit_system(chassis=2, nodes_per_chassis=2),
    "fat_tree": lambda: fat_tree_cluster(),
    "disaggregated": lambda: disaggregated_system(),
}


class TestJGFRoundTrip:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_presets_round_trip(self, preset, seed):
        import random

        graph = PRESETS[preset]()
        rng = random.Random(seed)
        # seeded mutations: drain some vertices, decorate some properties
        everything = list(graph.vertices())
        for vertex in rng.sample(everything, k=max(1, len(everything) // 5)):
            vertex.status = "down"
        for vertex in rng.sample(everything, k=max(1, len(everything) // 4)):
            vertex.properties["badge"] = f"b{rng.randrange(100)}"
        rebuilt = from_jgf(to_jgf(graph))
        assert _graph_facts(rebuilt) == _graph_facts(graph)
        # round-tripping again is a fixed point
        assert to_jgf(rebuilt) == to_jgf(from_jgf(to_jgf(rebuilt)))

    def test_edge_properties_survive(self):
        graph = ResourceGraph()
        cluster = graph.add_vertex("cluster")
        nodes = [graph.add_vertex("node") for _ in range(2)]
        for node in nodes:
            graph.add_edge(cluster, node)
        # a network subsystem whose edges carry bandwidth annotations
        switch = graph.add_vertex("switch")
        graph.add_edge(cluster, switch, subsystem="network",
                       edge_type="connects")
        for i, node in enumerate(nodes):
            graph.add_edge(
                switch, node, subsystem="network", edge_type="connects",
                properties={"bandwidth": 100 + i, "link": f"eth{i}"},
            )
        rebuilt = from_jgf(json.dumps(to_jgf(graph)))
        original = sorted(
            tuple(sorted(e.properties.items()))
            for e in graph.edges()
            if e.properties
        )
        assert original, "test graph should carry edge properties"
        restored = sorted(
            tuple(sorted(e.properties.items()))
            for e in rebuilt.edges()
            if e.properties
        )
        assert restored == original

    def test_filter_placement_survives_non_default_levels(self):
        # rabbit systems install pruning filters at rack AND rabbit levels —
        # not the rack/node default the old loader hard-coded.
        graph = rabbit_system(chassis=2, nodes_per_chassis=2)
        placed = {
            v.type for v in graph.vertices() if v.prune_filters is not None
        }
        assert "rabbit" in placed
        rebuilt = from_jgf(to_jgf(graph))
        placed_rebuilt = {
            v.type for v in rebuilt.vertices() if v.prune_filters is not None
        }
        assert placed_rebuilt == placed


# ----------------------------------------------------------------------
# planner restore hardening (satellite: exact restore paths)
# ----------------------------------------------------------------------
class TestPlannerRestore:
    def test_add_span_with_explicit_id(self):
        planner = Planner(10)
        assert planner.add_span(0, 5, 4, span_id=7) == 7
        assert planner.has_span(7)
        # the auto counter jumps past the explicit id
        assert planner.add_span(10, 5, 4) == 8

    def test_explicit_id_collision_and_validation(self):
        planner = Planner(10)
        planner.add_span(0, 5, 4, span_id=3)
        with pytest.raises(PlannerError):
            planner.add_span(10, 5, 4, span_id=3)
        with pytest.raises(PlannerError):
            planner.add_span(10, 5, 4, span_id=0)

    def test_low_explicit_id_does_not_skip_auto_ids(self):
        a, b = Planner(10), Planner(10)
        first = a.add_span(0, 5, 1)  # auto id 1
        b.add_span(0, 5, 1, span_id=first)  # same id, explicit
        # both planners hand out identical ids forever after
        assert a.add_span(10, 5, 1) == b.add_span(10, 5, 1)

    def test_export_import_exact(self):
        planner = Planner(10, resource_type="core")
        ids = [planner.add_span(i * 10, 8, 2 + i) for i in range(4)]
        planner.rem_span(ids[1])
        restored = Planner(10, resource_type="core")
        restored.import_state(planner.export_state())
        restored.check_invariants()
        assert {s.span_id for s in restored.spans()} == {
            s.span_id for s in planner.spans()
        }
        for t in (0, 5, 15, 25, 35):
            assert restored.avail_at(t, 1) == planner.avail_at(t, 1)
        # future ids continue identically
        assert restored.add_span(100, 5, 1) == planner.add_span(100, 5, 1)

    def test_update_span_end_on_restored_span(self):
        planner = Planner(10)
        sid = planner.add_span(0, 10, 6)
        restored = Planner(10)
        restored.import_state(planner.export_state())
        restored.update_span_end(sid, 20)
        restored.check_invariants()
        assert restored.get_span(sid).end == 20
        assert not restored.avail_during(15, 5, 5)

    def test_import_requires_matching_pool(self):
        planner = Planner(10)
        planner.add_span(0, 5, 4)
        other = Planner(8)
        with pytest.raises(PlannerError):
            other.import_state(planner.export_state())

    def test_import_requires_empty(self):
        planner = Planner(10)
        planner.add_span(0, 5, 4)
        target = Planner(10)
        target.add_span(0, 5, 1)
        with pytest.raises(PlannerError):
            target.import_state(planner.export_state())

    def test_multi_export_import_exact(self):
        multi = PlannerMulti({"core": 8, "memory": 16})
        sid = multi.add_span(0, 10, {"core": 4, "memory": 8})
        multi.add_span(5, 10, {"core": 2})
        restored = PlannerMulti({"core": 8, "memory": 16})
        restored.import_state(multi.export_state())
        restored.check_invariants()
        assert restored.span_count == multi.span_count
        assert restored.avail_at(5, {"core": 3}) == multi.avail_at(
            5, {"core": 3}
        )
        restored.update_span_end(sid, 30)
        assert not restored.avail_during(20, 5, {"core": 5})
        # bundle ids continue identically
        assert restored.add_span(50, 5, {"core": 1}) == multi.add_span(
            50, 5, {"core": 1}
        )

    def test_multi_explicit_id(self):
        multi = PlannerMulti({"core": 8})
        assert multi.add_span(0, 5, {"core": 2}, span_id=9) == 9
        with pytest.raises(PlannerError):
            multi.add_span(5, 5, {"core": 2}, span_id=9)
        assert multi.add_span(5, 5, {"core": 2}) == 10


# ----------------------------------------------------------------------
# snapshot round-trip
# ----------------------------------------------------------------------
def saturated_sim(**kwargs):
    graph = tiny_cluster()
    sim = ClusterSimulator(graph, match_policy="first", queue="easy", **kwargs)
    for i in range(8):
        sim.submit(simple_node_jobspec(cores=4, duration=500), at=i * 50)
    return sim


class TestSnapshot:
    def test_mid_run_round_trip(self):
        sim = saturated_sim(audit=True)
        for _ in range(6):
            sim.step()
        doc = snapshot_state(sim, seq=0)
        restored = restore_simulator(json.loads(json.dumps(doc)))
        assert state_diff(sim, restored) == []
        # both continue to identical completion
        report_a = sim.run()
        report_b = restored.run()
        assert sim.event_log == restored.event_log
        assert report_a.makespan == report_b.makespan
        InvariantAuditor(deep=True).check(restored)

    def test_restored_root_filter_reserves_as_the_uninterrupted_run(self):
        """Restore re-books spans only, so the root filter's index is
        rebuilt by the first earliest-time question — with the same answer."""
        sim = saturated_sim()
        for _ in range(6):
            sim.step()
        restored = restore_simulator(json.loads(json.dumps(snapshot_state(sim))))
        for root in restored.graph.roots():
            filters = root.prune_filters
            assert not any(filters.planner(t).indexed for t in filters.types)
        jobspec = simple_node_jobspec(cores=4, duration=300)
        a = sim.traverser.allocate_orelse_reserve(jobspec, now=sim.now)
        b = restored.traverser.allocate_orelse_reserve(jobspec, now=restored.now)
        assert a.reserved and (a.at, a.alloc_id) == (b.at, b.alloc_id)
        assert any(filters.planner(t).indexed for t in filters.types)
        assert [s.vertex.name for s in a.selections] == [
            s.vertex.name for s in b.selections
        ]
        assert state_diff(sim, restored) == []

    def test_checksum_detects_flip(self, tmp_path):
        sim = saturated_sim()
        path = str(tmp_path / "snap.json")
        write_snapshot(snapshot_state(sim), path)
        assert load_snapshot(path)["version"] == SNAPSHOT_VERSION
        blob = open(path, "rb").read()
        flipped = blob.replace(b'"now":', b'"noW":', 1)
        assert flipped != blob
        with open(path, "wb") as handle:
            handle.write(flipped)
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_retry_rng_state_round_trips(self):
        policy = RetryPolicy(jitter=0.5, seed=3)
        sim = saturated_sim(retry_policy=policy)
        policy.delay(0)  # consume some RNG
        restored = restore_simulator(snapshot_state(sim))
        assert restored.retry_policy.delay(1) == policy.delay(1)


# ----------------------------------------------------------------------
# crash equivalence (the tentpole acceptance property)
# ----------------------------------------------------------------------
def chaos_sim(seed, recovery_dir=None, integrity=None):
    """A workload exercising reservations, walltime kills and failures."""
    graph = tiny_cluster()
    sim = ClusterSimulator(
        graph,
        match_policy="first",
        queue="easy",
        retry_policy=RetryPolicy(
            max_retries=2, backoff_base=30, jitter=0.2,
            checkpoint_period=100, seed=seed,
        ),
        audit=InvariantAuditor(deep=True),
        integrity=integrity,
    )
    if recovery_dir is not None:
        RecoveryManager(str(recovery_dir), snapshot_every=7).attach(sim)
    for i in range(8):
        sim.submit(
            simple_node_jobspec(cores=4, duration=500), at=i * 50 + seed
        )
    sim.submit(
        simple_node_jobspec(cores=4, duration=300),
        at=60,
        actual_duration=700,  # overruns its walltime -> kill + retry
    )
    node = next(iter(sim.graph.vertices("node")))
    sim.schedule_failure(node, at=400)
    sim.schedule_repair(node, at=900)
    return sim


# admit.* points only fire under admission pressure (overload protection
# enabled); the overload workload below covers them.
_BASE_POINTS = tuple(p for p in CRASH_POINTS if not p.startswith("admit."))
_ADMIT_POINTS = tuple(p for p in CRASH_POINTS if p.startswith("admit."))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("point", _BASE_POINTS)
def test_crash_equivalence(tmp_path, point, seed):
    control = chaos_sim(seed)
    control.run()

    sim = chaos_sim(seed, recovery_dir=tmp_path)
    CrashInjector(point, nth=2).attach(sim)
    try:
        sim.run()
        crashed = False
    except SimulatedCrash:
        crashed = True
    if not crashed:  # workload never reached this cut point twice: retry 1st
        sim2 = chaos_sim(seed, recovery_dir=tmp_path / "retry")
        CrashInjector(point, nth=1).attach(sim2)
        with pytest.raises(SimulatedCrash):
            sim2.run()
        recovered = recover(str(tmp_path / "retry"))
    else:
        recovered = recover(str(tmp_path))

    recovered.run()
    assert recovered.event_log == control.event_log
    assert state_diff(control, recovered) == []
    InvariantAuditor(deep=True).check(recovered)
    report = recovered.report()
    assert report.recoveries == 1
    assert report.journal_replayed > 0
    assert "recovery:" in report.summary()


def overload_chaos_sim(seed, recovery_dir=None, integrity=None):
    """chaos_sim plus admission pressure: a queue bound of one.

    The same-tick burst takes the queue over its bound again and again, so
    both ``admit.*`` crash points — before the rejection is counted and
    after the job is canceled — are actually reached.
    """
    graph = tiny_cluster()
    sim = ClusterSimulator(
        graph,
        match_policy="first",
        queue="easy",
        retry_policy=RetryPolicy(
            max_retries=2, backoff_base=30, jitter=0.2, seed=seed
        ),
        audit=InvariantAuditor(deep=True),
        overload=OverloadConfig(
            max_pending=1,
            cycle_budget=400,
            attempt_budget=200,
            checkpoint_interval=16,
        ),
        integrity=integrity,
    )
    if recovery_dir is not None:
        RecoveryManager(str(recovery_dir), snapshot_every=7).attach(sim)
    for i in range(10):
        sim.submit(
            simple_node_jobspec(cores=4, duration=500),
            at=40 + seed,
            priority=i,
        )
    for i in range(6):
        sim.submit(
            simple_node_jobspec(cores=2, duration=400),
            at=300 + i * 37,
            priority=i % 3,
        )
    node = next(iter(sim.graph.vertices("node")))
    sim.schedule_failure(node, at=400)
    sim.schedule_repair(node, at=900)
    return sim


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("point", _ADMIT_POINTS)
def test_overload_crash_equivalence(tmp_path, point, seed):
    control = overload_chaos_sim(seed)
    control.run()

    sim = overload_chaos_sim(seed, recovery_dir=tmp_path)
    CrashInjector(point, nth=2).attach(sim)
    try:
        sim.run()
        crashed = False
    except SimulatedCrash:
        crashed = True
    if not crashed:  # workload never reached this cut point twice: retry 1st
        sim2 = overload_chaos_sim(seed, recovery_dir=tmp_path / "retry")
        CrashInjector(point, nth=1).attach(sim2)
        with pytest.raises(SimulatedCrash):
            sim2.run()
        recovered = recover(str(tmp_path / "retry"))
    else:
        recovered = recover(str(tmp_path))

    recovered.run()
    assert recovered.event_log == control.event_log
    assert state_diff(control, recovered) == []
    InvariantAuditor(deep=True).check(recovered)
    report = recovered.report()
    assert report.overload_enabled
    assert report.overload_rejected > 0
    assert report.overload_rejected == len(report.admission_rejected)


_CORRUPT_AT = 250


def corrupt_a_span(sim, salt):
    """Issue the journaled ``corrupt`` command on the first span target.

    The command counts as a write to the vertex, so its own cycle's
    end-of-cycle pass detects, quarantines and repairs the damage.
    """
    target = corruption_targets(sim, "span")[0]
    assert sim.inject_corruption("span", sim.graph.vertex_by_name(target),
                                 salt=salt)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_drift_a_cycle_writes_to_is_repaired_not_raised(seed):
    """The default window and a deep auditor: the ``corrupt`` command's
    damage is repaired by the monitor, never raised (seed 0 raised at t=360
    while a head-of-cycle scrub read only its window and the auditor the
    vertices a later cycle wrote)."""
    sim = chaos_sim(seed, integrity=IntegrityConfig())
    assert sim.auditor.deep
    sim.run(until=350)
    corrupt_a_span(sim, salt=1)
    sim.run()
    counters = sim.integrity.counters
    assert counters["detected"] >= 1 and counters["repaired"] >= 1
    assert counters["unrepaired"] == 0
    assert sim.integrity.scan() == []


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("point", ["cycle.booked", "cycle.post",
                                   "end.released"])
def test_crash_equivalence_across_an_auto_repair(tmp_path, point, seed):
    """A crash around the monitor's repair recovers to the uninterrupted
    run: the cycle points die inside the ``corrupt`` command, whose replay
    must repair again (``cycle.booked`` before its end-of-cycle pass,
    ``cycle.post`` after it); ``end.released`` dies at the next job end,
    after the repair is on disk or in the replayed suffix."""
    scrub = IntegrityConfig()
    assert scrub.auto_repair
    control = chaos_sim(seed, integrity=scrub)
    control.run(until=_CORRUPT_AT)
    corrupt_a_span(control, salt=seed + 1)
    assert control.integrity.counters["repaired"] >= 1
    control.run()

    sim = chaos_sim(seed, recovery_dir=tmp_path, integrity=scrub)
    sim.run(until=_CORRUPT_AT)
    CrashInjector(point).attach(sim)
    with pytest.raises(SimulatedCrash):
        corrupt_a_span(sim, salt=seed + 1)
        sim.run()
    repaired = sim.integrity.counters["repaired"]
    assert repaired == 0 if point == "cycle.booked" else repaired >= 1
    recovered = recover(str(tmp_path))
    recovered.run()
    assert recovered.event_log == control.event_log
    assert state_diff(control, recovered) == []
    assert recovered.integrity.counters == control.integrity.counters


def _every_command_run(seed, directory):
    """overload_chaos_sim plus a corrupt, a direct fail and repair, a
    reschedule and a cancel: one journal with every record type.  Returns
    the run's first snapshot, the one taken before its first command."""
    sim = overload_chaos_sim(seed, recovery_dir=directory,
                             integrity=IntegrityConfig())
    (path,) = directory.glob("snapshot-*.json")  # pruned as the run goes
    first = load_snapshot(str(path))
    sim.run(until=_CORRUPT_AT)
    corrupt_a_span(sim, salt=1)
    node = list(sim.graph.vertices("node"))[-1]
    sim.fail(node)
    sim.run(until=_CORRUPT_AT + 100)
    sim.repair(node)
    sim.reschedule()
    sim.cancel(next(j for j in sim.jobs.values() if j.is_active))
    sim.run()
    sim.recovery.close()
    return first


@pytest.mark.parametrize("seed", [0, 1])
def test_the_journal_round_trips_through_the_command_table(tmp_path, seed):
    """Each record, decoded and sent through its table entry with the
    journal on, is written again byte for byte: the table alone knows the
    record format, both ways."""
    first = _every_command_run(seed, tmp_path / "run")
    journal = (tmp_path / "run" / "journal.wal").read_bytes()
    records, torn, _ = read_journal(str(tmp_path / "run" / "journal.wal"))
    assert torn == 0 and first["seq"] == 0
    assert {r["type"] for r in records} == set(COMMANDS)
    sim = restore_simulator(first)
    manager = RecoveryManager(str(tmp_path / "again")).attach(sim)
    vertices = {v.name: v for v in sim.graph.vertices()}
    for record in records:
        command = COMMANDS[record["type"]]
        sim._command(record["type"], *command.decode(sim, record, vertices))
    manager.close()
    assert (tmp_path / "again" / "journal.wal").read_bytes() == journal


class TestRecoveryPath:
    def test_recover_without_snapshot_raises(self, tmp_path):
        with pytest.raises(SnapshotError):
            recover(str(tmp_path))

    def test_a_deep_auditor_recovers_deep(self, tmp_path):
        """The snapshot keeps the auditor's depth, so a recovered run still
        checks ``planner-invariants``."""
        sim = chaos_sim(0, recovery_dir=tmp_path)
        sim.run(until=100)
        sim.recovery.close()
        assert recover(str(tmp_path)).auditor.deep is True

    def test_a_bare_audit_flag_still_restores(self):
        """A version-2 snapshot written before the depth was kept."""
        doc = json.loads(json.dumps(snapshot_state(saturated_sim(audit=True))))
        doc["config"]["audit"] = True
        assert restore_simulator(doc).auditor.deep is False
        doc["config"]["audit"] = False
        assert restore_simulator(doc).auditor is None

    def test_torn_tail_recovers_by_dropping_suffix(self, tmp_path):
        sim = chaos_sim(0, recovery_dir=tmp_path)
        for _ in range(5):
            sim.step()
        journal = tmp_path / "journal.wal"
        size = os.path.getsize(journal)
        with open(journal, "r+b") as handle:
            handle.truncate(size - 9)  # tear the final record
        recovered = recover(str(tmp_path))
        assert recovered.recovery_stats["torn_records_dropped"] == 1
        # the truncated journal was repaired: future appends parse cleanly
        recovered.run()
        records, torn, _ = read_journal(str(journal))
        assert torn == 0
        assert records, "journal keeps accumulating after recovery"
        InvariantAuditor(deep=True).check(recovered)

    def test_falls_back_to_older_snapshot(self, tmp_path):
        sim = chaos_sim(0, recovery_dir=tmp_path)
        manager = sim.recovery
        for _ in range(4):
            sim.step()
        manager.snapshot()
        snapshots = sorted(
            p for p in os.listdir(tmp_path) if p.startswith("snapshot-")
        )
        assert len(snapshots) == 2
        # corrupt the newest snapshot; recovery must use the older one
        with open(tmp_path / snapshots[-1], "r+b") as handle:
            handle.seek(40)
            handle.write(b"XXXX")
        recovered = recover(str(tmp_path))
        recovered.run()
        control = chaos_sim(0)
        control.run()
        assert recovered.event_log == control.event_log

    def test_periodic_snapshots_and_pruning(self, tmp_path):
        sim = chaos_sim(0, recovery_dir=tmp_path)
        sim.run()
        report = sim.report()
        assert report.snapshots_taken > 1
        assert report.journal_records > 10
        kept = [p for p in os.listdir(tmp_path) if p.startswith("snapshot-")]
        assert len(kept) <= 2  # keep_snapshots default

    def test_double_attach_rejected(self, tmp_path):
        sim = chaos_sim(0, recovery_dir=tmp_path)
        with pytest.raises(RecoveryError):
            RecoveryManager(str(tmp_path / "other")).attach(sim)

    def test_recovered_sim_survives_second_crash(self, tmp_path):
        control = chaos_sim(1)
        control.run()
        sim = chaos_sim(1, recovery_dir=tmp_path)
        CrashInjector("cycle.booked", nth=2).attach(sim)
        with pytest.raises(SimulatedCrash):
            sim.run()
        middle = recover(str(tmp_path))
        CrashInjector("end.pre", nth=1).attach(middle)
        try:
            middle.run()
            crashed = False
        except SimulatedCrash:
            crashed = True
        assert crashed
        final = recover(str(tmp_path))
        final.run()
        assert final.event_log == control.event_log
        assert state_diff(control, final) == []
        assert final.report().recoveries == 2


class TestAllocationRecords:
    def test_to_record_from_record_round_trip(self):
        sim = saturated_sim()
        for _ in range(4):
            sim.step()
        owner = planner_owner_index(sim.graph)
        by_name = {v.name: v for v in sim.graph.vertices()}
        for alloc in sim.traverser.allocations.values():
            record = json.loads(json.dumps(alloc.to_record(owner)))
            rebuilt = type(alloc).from_record(record, by_name)
            assert rebuilt.alloc_id == alloc.alloc_id
            assert rebuilt.at == alloc.at
            assert rebuilt.duration == alloc.duration
            assert rebuilt.reserved == alloc.reserved
            assert [s.vertex.name for s in rebuilt.selections] == [
                s.vertex.name for s in alloc.selections
            ]
            assert rebuilt._span_records == alloc._span_records


# ----------------------------------------------------------------------
# journal tail hardening (satellite: torn-tail regression matrix)
# ----------------------------------------------------------------------
class TestJournalTailHardening:
    def test_zero_length_file(self, tmp_path):
        path = str(tmp_path / "j.wal")
        open(path, "wb").close()
        assert read_journal(path) == ([], 0, 0)

    def test_header_only_record(self, tmp_path):
        # only "<seq>:<crc>:" hit the disk before the crash: a torn first
        # write, not corruption — the file reads as empty
        path = str(tmp_path / "j.wal")
        with open(path, "wb") as handle:
            handle.write(b"1:deadbeef:")
        assert read_journal(path) == ([], 1, 0)

    def test_final_record_longer_than_file(self, tmp_path):
        # the final frame's declared content extends past end-of-file
        # (write cut mid-payload): dropped as torn, prefix intact
        path = str(tmp_path / "j.wal")
        full = frame_record(1, {"i": 0})
        partial = frame_record(2, {"i": 1, "pad": "x" * 64})
        with open(path, "wb") as handle:
            handle.write(full)
            handle.write(partial[: len(partial) // 2])
        records, torn, valid = read_journal(path)
        assert torn == 1
        assert [r["seq"] for r in records] == [1]
        assert valid == len(full)

    def test_tail_truncation_idempotent(self, tmp_path):
        path = str(tmp_path / "j.wal")
        with Journal(path) as journal:
            for i in range(3):
                journal.append({"i": i})
        with open(path, "r+b") as handle:
            handle.seek(-3, os.SEEK_END)
            handle.write(b"X")
        records, torn, valid = read_journal(path)
        assert torn == 1
        # truncating to the valid prefix converges: re-reading reports no
        # tear, and truncating again changes nothing
        with open(path, "r+b") as handle:
            handle.truncate(valid)
        again, torn2, valid2 = read_journal(path)
        assert (torn2, valid2) == (0, valid)
        assert [r["seq"] for r in again] == [r["seq"] for r in records]
        with open(path, "r+b") as handle:
            handle.truncate(valid2)
        assert read_journal(path) == (again, 0, valid2)


# ----------------------------------------------------------------------
# bounded-loss salvage readers (tentpole: mid-stream damage accounted)
# ----------------------------------------------------------------------
class TestJournalSalvage:
    def test_clean_file_matches_strict(self, tmp_path):
        path = str(tmp_path / "j.wal")
        with Journal(path) as journal:
            for i in range(4):
                journal.append({"i": i})
        strict, _, valid = read_journal(path)
        records, report = read_journal_salvage(path)
        assert records == strict
        assert report["crc_skipped"] == 0
        assert report["torn"] == 0
        assert report["valid_bytes"] == valid
        assert report["records"] == 4

    def test_midstream_damage_skipped_and_accounted(self, tmp_path):
        path = str(tmp_path / "j.wal")
        with Journal(path) as journal:
            for i in range(5):
                journal.append({"i": i})
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
        for index in (1, 3):  # damage records 2 and 4
            lines[index] = lines[index][:-2] + b"zz"
        with open(path, "wb") as handle:
            handle.write(b"\n".join(lines))
        with pytest.raises(JournalCorruptError):
            read_journal(path)
        records, report = read_journal_salvage(path)
        assert [r["i"] for r in records] == [0, 2, 4]
        assert [r["seq"] for r in records] == [1, 3, 5]
        assert report["crc_skipped"] == 2
        assert len(report["skipped"]) == 2
        assert all("offset" in s and "reason" in s for s in report["skipped"])
        assert report["torn"] == 0
        assert report["records"] == 3

    def test_non_increasing_sequence_is_damage(self, tmp_path):
        path = str(tmp_path / "j.wal")
        with open(path, "wb") as handle:
            handle.write(frame_record(1, {"i": 0}))
            handle.write(frame_record(1, {"i": 9}))  # replayed frame
            handle.write(frame_record(3, {"i": 2}))  # gap: fine in salvage
        records, report = read_journal_salvage(path)
        assert [r["seq"] for r in records] == [1, 3]
        assert report["crc_skipped"] == 1

    def test_torn_tail_reported_not_counted_as_crc(self, tmp_path):
        path = str(tmp_path / "j.wal")
        with Journal(path) as journal:
            journal.append({"i": 0})
            journal.append({"i": 1})
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 3)
        records, report = read_journal_salvage(path)
        assert [r["i"] for r in records] == [0]
        assert report["torn"] == 1
        assert report["crc_skipped"] == 0


class TestSnapshotSalvage:
    def _snapshot(self, tmp_path):
        sim = saturated_sim()
        for _ in range(4):
            sim.step()
        path = str(tmp_path / "s.json")
        write_snapshot(snapshot_state(sim), path)
        return sim, path

    def test_clean_file_salvages_strict(self, tmp_path):
        _, path = self._snapshot(tmp_path)
        doc, dropped = load_snapshot_salvage(path)
        assert dropped == []
        assert doc == load_snapshot(path)

    def test_rebuildable_section_dropped_and_rebuilt(self, tmp_path):
        sim, path = self._snapshot(tmp_path)
        wrapper = json.load(open(path))
        # stale section digest: the planners doc no longer matches it
        wrapper["snapshot"]["planners"]["__tamper__"] = 1
        with open(path, "w") as handle:
            json.dump(wrapper, handle)
        with pytest.raises(SnapshotError):
            load_snapshot(path)
        loaded = load_snapshot_salvage(path)
        assert loaded is not None
        doc, dropped = loaded
        assert dropped == ["planners"]
        assert "planners" not in doc
        restored = restore_simulator(doc, salvaged=dropped)
        assert restored.recovery_stats["snapshot_sections_rebuilt"] == 1
        # the rebuilt planner state carries the same live allocations
        assert state_diff(sim, restored) == []
        report_a, report_b = sim.run(), restored.run()
        assert report_a.makespan == report_b.makespan

    def test_critical_section_damage_refuses(self, tmp_path):
        _, path = self._snapshot(tmp_path)
        wrapper = json.load(open(path))
        wrapper["snapshot"]["allocations"].append({"bogus": True})
        with open(path, "w") as handle:
            json.dump(wrapper, handle)
        assert load_snapshot_salvage(path) is None

    def test_wrapper_only_damage_refuses(self, tmp_path):
        # sections all verify but the global sha is wrong: nothing to
        # localise, the file is untrustworthy as a whole
        _, path = self._snapshot(tmp_path)
        wrapper = json.load(open(path))
        wrapper["sha256"] = "0" * 64
        with open(path, "w") as handle:
            json.dump(wrapper, handle)
        assert load_snapshot_salvage(path) is None

    def test_salvaged_must_be_rebuildable(self):
        sim = saturated_sim()
        doc = snapshot_state(sim)
        with pytest.raises(SnapshotError):
            restore_simulator(doc, salvaged=["allocations"])


# ----------------------------------------------------------------------
# snapshot idempotence property (satellite: snapshot -> restore -> snapshot)
# ----------------------------------------------------------------------
def enriched_sim(seed):
    """Randomized workload carrying overload and quarantine state."""
    import random as _random

    rng = _random.Random(seed)
    sim = ClusterSimulator(
        tiny_cluster(),
        match_policy="first",
        queue="easy",
        retry_policy=RetryPolicy(max_retries=2, jitter=0.3, seed=seed),
        overload=OverloadConfig(
            max_pending=3,
            cycle_budget=300,
            attempt_budget=120,
            checkpoint_interval=16,
        ),
        integrity=IntegrityConfig(scrub_window=None, auto_repair=False),
    )
    for _ in range(rng.randrange(6, 12)):
        sim.submit(
            simple_node_jobspec(
                cores=rng.choice([2, 4]), duration=rng.randrange(200, 600)
            ),
            at=rng.randrange(0, 400),
            priority=rng.randrange(0, 3),
        )
    sim.run(until=250)
    targets = corruption_targets(sim, "span")
    if targets:  # leave a vertex quarantined (auto_repair is off)
        sim.inject_corruption(
            "span", sim.graph.vertex_by_name(targets[0]), salt=seed + 1
        )
    return sim


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_snapshot_restore_snapshot_byte_identical(seed):
    sim = enriched_sim(seed)
    doc_a = snapshot_state(sim, seq=17)
    restored = restore_simulator(json.loads(json.dumps(doc_a)))
    doc_b = snapshot_state(restored, seq=17)
    blob_a = json.dumps(doc_a, sort_keys=True, separators=(",", ":"))
    blob_b = json.dumps(doc_b, sort_keys=True, separators=(",", ":"))
    assert blob_a == blob_b


# ----------------------------------------------------------------------
# the optional layers' sections: one format, one refusal contract
# ----------------------------------------------------------------------
def _sha256(value):
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")
    ).hexdigest()


#: (section, damage, a name the refusal must carry besides the section's)
MALFORMED_SECTIONS = [
    pytest.param(
        "retry_policy", lambda s: s["config"].update(jiter=0.2), "jiter",
        id="retry_policy-unknown-setting",
    ),
    pytest.param(
        "retry_policy", lambda s: s["config"].update(max_retries="2"), None,
        id="retry_policy-wrong-typed-setting",
    ),
    pytest.param(
        "retry_policy", lambda s: s.pop("rng_state"), "rng_state",
        id="retry_policy-missing-state",
    ),
    pytest.param(
        "retry_policy", lambda s: s.update(rng_seed=7), "rng_seed",
        id="retry_policy-unknown-state-key",
    ),
    pytest.param(
        "overload", lambda s: s["config"].update(degrade_after=2),
        "degrade_after", id="overload-unknown-setting",
    ),
    pytest.param(
        "overload", lambda s: s["config"].update(max_pending="3"),
        "max_pending", id="overload-wrong-typed-setting",
    ),
    pytest.param(
        "overload", lambda s: s["state"].pop("max_cycle_overrun"),
        "max_cycle_overrun", id="overload-missing-state",
    ),
    pytest.param(
        "overload", lambda s: s["state"]["counters"].update(shed=1), "shed",
        id="overload-unknown-counter",
    ),
    pytest.param(
        "integrity", lambda s: s["config"].update(scrub_windw=4),
        "scrub_windw", id="integrity-unknown-setting",
    ),
    pytest.param(
        "integrity", lambda s: s["config"].update(scrub_window="x"),
        "scrub_window", id="integrity-wrong-typed-setting",
    ),
    pytest.param(
        "integrity", lambda s: s["state"].pop("cursor"), "cursor",
        id="integrity-missing-state",
    ),
    pytest.param(
        "integrity", lambda s: s["state"]["counters"].update(shed=1), "shed",
        id="integrity-unknown-counter",
    ),
]

#: SHA-256 of the snapshot a seeded corruption campaign takes at t=1500
#: with retry, overload, integrity and audit attached (wall-clock
#: ``sched_time`` dropped), and of that campaign's reproducer spec.  Version
#: 2 (one span per selection) moved ``version``, the ``planners`` section,
#: ``allocations.*.spans`` and the planners' ``next_span_id``.  The
#: head-of-cycle scrub's retirement took ``scrub_every``, ``scrub_budget``
#: and ``checkpoint_interval`` out of ``integrity.config`` and
#: ``cycles_seen`` out of ``integrity.state``; nothing else moved.  Keeping
#: the auditor's depth turned ``config.audit`` from ``true`` into
#: ``{"deep": false}``; with that one value put back the document hashes to
#: the previous pin, 376a21e6...8480b.
SNAPSHOT_SHA256 = (
    "c4fa51812db7f9e47eb30712d6bbc26861cf87d7456b4f6434ed2c30fef7c4e0"
)
SPEC_SHA256 = (
    "011d92b25759baaf2e4310aa90216a0270ad2e1c9e43e95d5d345c0747786b3b"
)


class TestSectionContract:
    @pytest.fixture(scope="class")
    def layered_doc(self):
        """A snapshot with every optional layer's section, as JSON."""
        return json.dumps(snapshot_state(enriched_sim(0)))

    @pytest.mark.parametrize("section, damage, names", MALFORMED_SECTIONS)
    def test_a_malformed_section_is_a_snapshot_error_naming_it(
        self, layered_doc, section, damage, names
    ):
        doc = json.loads(layered_doc)
        damage(doc[section])
        with pytest.raises(SnapshotError, match=f"'{section}'") as info:
            restore_simulator(doc)
        if names is not None:
            assert names in str(info.value)

    def test_a_version_1_document_is_refused_naming_the_booking_rule(
        self, layered_doc
    ):
        """Its extra ``plans`` span per exclusive hold would restore as
        spans no allocation accounts for."""
        doc = json.loads(layered_doc)
        doc["version"] = 1
        with pytest.raises(SnapshotError, match="version 1") as info:
            restore_simulator(doc)
        assert "booking rule" in str(info.value)

    def test_the_snapshot_format_is_pinned(self):
        spec = CampaignSpec.corruption_from_seed(3)
        sim = _build_simulator(spec)
        for at, jobspec, priority, actual in _submission_plan(spec):
            sim.submit(jobspec, at=at, priority=priority, actual_duration=actual)
        sim.run(until=1500)
        doc = snapshot_state(sim)
        assert doc["config"]["audit"]
        for name in ("retry_policy", "overload", "integrity"):
            assert doc[name] is not None
        for job in doc["jobs"]:
            job.pop("sched_time", None)
        assert _sha256(doc) == SNAPSHOT_SHA256
        assert _sha256(spec.to_dict()) == SPEC_SHA256


# ----------------------------------------------------------------------
# replay-divergence diagnostics (satellite: actionable divergence errors)
# ----------------------------------------------------------------------
def test_replay_divergence_diagnostics(tmp_path):
    from repro.recovery.manager import _replay

    sim = saturated_sim()
    RecoveryManager(str(tmp_path)).attach(sim)
    for _ in range(4):
        sim.step()
    sim.recovery.close()
    fresh = recover(str(tmp_path))
    # replay a dispatch the fresh simulator's event heap cannot match
    bogus = {
        "type": "dispatch", "seq": 999,
        "when": 10**9, "kind": "no-such", "ref": -1, "data": None,
    }
    with pytest.raises(RecoveryError) as excinfo:
        _replay(fresh, [bogus])
    message = str(excinfo.value)
    assert "expected (journaled)" in message
    assert "sha256:" in message
    assert fresh.recovery_stats["replay_divergences"] == 1
    assert "replay.divergences" not in message  # counter, not prose
    fresh.run()
    assert "1 replay divergences" in fresh.report().summary()
