"""Self-healing state integrity: scrub, quarantine, repair, fsck, salvage.

The acceptance bar is the corruption matrix at the bottom: for every
injection site (live planner span, live DFU aggregate, mid-stream journal
frame, snapshot section) and several seeds, damage must be detected,
quarantined without crashing, repaired, survive a deep audit plus the
``fluxfsck --check`` gate, and the loss accounting must match the injected
damage exactly.  Everything above it unit-tests the pieces the matrix
composes.
"""

import json
import os
import random

import pytest

from repro.grug import tiny_cluster
from repro.jobspec import nodes_jobspec, simple_node_jobspec
from repro.recovery import (
    CORRUPTION_KINDS,
    IntegrityConfig,
    IntegrityMonitor,
    RecoveryManager,
    RepairEngine,
    apply_corruption,
    corruption_targets,
    expected_span_table,
    structure_drift,
)
from repro.recovery.integrity import ExpectedState, _held_planner, vertex_structure
from repro.recovery.__main__ import main as fsck_main
from repro.resilience import InvariantAuditor
from repro.resilience.chaos import (
    CORRUPTION_SITES,
    CampaignSpec,
    run_corruption_campaign,
)
from repro.sched import ClusterSimulator
from repro.sched.elastic import grow, resize_pool, shrink_subtree


def busy_sim(**kwargs):
    """A mid-flight simulator with live allocations on every level."""
    sim = ClusterSimulator(
        tiny_cluster(), match_policy="first", queue="easy", **kwargs
    )
    for i in range(8):
        sim.submit(simple_node_jobspec(cores=4, duration=500), at=i * 50)
    sim.run(until=300)
    return sim


# ----------------------------------------------------------------------
# checksums and targeting
# ----------------------------------------------------------------------
class TestChecksums:
    def test_structure_of_identical_runs_compares_equal(self):
        a, b = busy_sim(), busy_sim()
        for va, vb in zip(a.graph.vertices(), b.graph.vertices()):
            assert structure_drift(va, vertex_structure(vb)) == []

    def test_structure_drift_names_the_damaged_field(self):
        sim = busy_sim()
        vertex = sim.graph.vertex_by_name("node0")
        before = vertex_structure(vertex)
        apply_corruption(sim, vertex, "structure", salt=5)
        assert structure_drift(vertex, before) == ["size"]
        vertex.properties["rogue"] = 1
        assert structure_drift(vertex, before) == ["size", "properties"]
        state = ExpectedState(sim)
        state.refresh()
        [finding] = [
            f for f in state.scan(vertex, baseline=before)
            if f.kind == "structure"
        ]
        assert finding.detail == (
            "size, properties differ from the attach-time baseline"
        )

    def test_corruption_targets_are_applicable(self):
        sim = busy_sim()
        for kind in CORRUPTION_KINDS:
            for name in corruption_targets(sim, kind):
                probe = busy_sim()
                assert apply_corruption(
                    probe, probe.graph.vertex_by_name(name), kind, salt=9
                ), f"{kind} listed {name} but did not apply"

    def test_expected_span_table_covers_allocations(self):
        sim = busy_sim()
        table = expected_span_table(sim)
        assert table  # live allocations -> expected spans
        for (name, _kind), spans in table.items():
            assert sim.graph.vertex_by_name(name) is not None
            assert spans


# ----------------------------------------------------------------------
# detect -> quarantine -> repair -> converge, per corruption kind
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", CORRUPTION_KINDS)
def test_detect_quarantine_repair(kind):
    sim = busy_sim(
        integrity=IntegrityConfig(scrub_window=None), audit=True
    )
    targets = corruption_targets(sim, kind)
    assert targets, f"no {kind} targets on a saturated tiny cluster"
    vertex = sim.graph.vertex_by_name(targets[0])
    assert sim.inject_corruption(kind, vertex, salt=11)
    counters = sim.integrity.counters
    assert counters["detected"] >= 1
    assert counters["repaired"] >= 1
    assert counters["unrepaired"] == 0
    assert not sim.integrity.quarantined
    assert sim.integrity.scan() == []
    report = sim.run()
    assert sim.integrity.scan() == []
    InvariantAuditor(deep=True).check(sim)
    assert len(report.completed) == 8
    assert "integrity:" in report.summary()


def test_a_broken_time_link_is_tree_drift_until_rebuilt():
    """A scheduled point linked past its neighbour: the planner's own
    invariants trip, the deep scrub reports ``tree-drift`` for that planner,
    and ``rebuild()``, which throws the tree away, mends it.  node0's spans
    do not overlap, so its planner holds runs until the tree is forced."""
    sim = busy_sim()
    vertex = sim.graph.vertex_by_name("node0")
    planner = vertex.xplans
    planner._ensure_tree()
    points = list(planner._sp)
    assert len(points) >= 3
    points[0].next = points[2]
    state = ExpectedState(sim)
    state.refresh()
    findings = state.scan(vertex)
    assert [(f.kind, f.planner) for f in findings] == [("tree-drift", "xplans")]
    assert "next link broken" in findings[0].detail
    planner.rebuild()
    assert state.scan(vertex) == []
    planner.check_invariants()


def _list_held(sim, kind):
    """Targets of ``kind`` whose planner holds runs rather than a tree."""
    names = []
    for name in corruption_targets(sim, kind):
        vertex = sim.graph.vertex_by_name(name)
        if kind == "aggregate":
            filters = vertex.prune_filters
            held = [filters.planner(t) for t in filters.types
                    if filters.planner(t)._sp is not None
                    or filters.planner(t).span_count]
        else:
            held = [_held_planner(vertex)]
        if all(planner._sp is None for planner in held):
            names.append((name, held))
    return names


def test_a_span_corruption_of_runs_is_found_by_the_deep_scrub():
    """A tampered registry window of a planner holding runs: the deep scrub
    reports it in the same pass, as the runs differ from the registry
    (``tree-drift``) or the window from the expected one (``span-drift``)."""
    sim = busy_sim()
    targets = _list_held(sim, "span")
    assert targets
    for name, _ in targets:
        vertex = sim.graph.vertex_by_name(name)
        state = ExpectedState(sim)
        state.refresh()
        assert state.scan(vertex) == []
        assert apply_corruption(sim, vertex, "span", salt=4)
        kinds = {f.kind for f in state.scan(vertex)}
        assert "tree-drift" in kinds and kinds <= {"tree-drift", "span-drift"}, kinds


@pytest.mark.parametrize("kind", ["point", "aggregate"])
def test_a_point_corruption_of_runs_builds_the_tree_and_charges_one_point(kind):
    """``point`` and ``aggregate`` damage a planner holding runs through its
    tree, built for the purpose: exactly one point then disagrees with the
    registry."""
    sim = busy_sim()
    targets = _list_held(sim, kind)
    assert targets, f"no list-held {kind} target"
    for name, held in targets:
        assert apply_corruption(sim, sim.graph.vertex_by_name(name), kind, salt=7)
        damaged = []
        for planner in held:
            assert planner._sp is not None and planner._runs is None
            windows = planner.span_windows().values()
            damaged += [
                point.key for point in planner._sp
                if point.in_use != sum(
                    request for start, end, request in windows
                    if start <= point.key < end
                )
            ]
        assert len(damaged) == 1, (name, damaged)


def test_detect_only_when_auto_repair_off():
    sim = busy_sim(
        integrity=IntegrityConfig(scrub_window=None, auto_repair=False)
    )
    vertex = sim.graph.vertex_by_name(corruption_targets(sim, "span")[0])
    assert sim.inject_corruption("span", vertex, salt=3)
    assert sim.integrity.counters["detected"] >= 1
    assert sim.integrity.counters["repaired"] == 0
    assert vertex.name in sim.integrity.quarantined
    assert vertex.status == "down"  # drained, not crashed


def test_import_state_drops_the_retired_cycle_count():
    """A snapshot written while a head-of-cycle scrub counted cycles."""
    sim = busy_sim(integrity=IntegrityConfig())
    monitor = IntegrityMonitor()
    monitor.attach(sim)
    monitor.import_state(dict(sim.integrity.export_state(), cycles_seen=19))
    assert monitor.export_state() == sim.integrity.export_state()


def test_scrub_window_rotates_whole_graph():
    sim = busy_sim(integrity=IntegrityConfig(scrub_window=4))
    total = sum(1 for _ in sim.graph.vertices())
    start = sim.integrity.cursor
    for _ in range((total // 4) + 1):
        sim.integrity.scrub_cycle()
    assert sim.integrity.cursor != start or total <= 4
    assert sim.integrity.counters["scrubbed_vertices"] >= total


def test_evacuation_requeues_jobs():
    from repro.sched.failures import affected_jobs

    sim = busy_sim()
    engine = RepairEngine(sim)
    vertex = next(
        v for v in sim.graph.vertices("node") if affected_jobs(sim, v)
    )
    requeued = engine.evacuate_vertex(vertex)
    assert requeued >= 1
    report = sim.run()
    assert len(report.completed) == 8  # evacuated jobs rescheduled
    InvariantAuditor(deep=True).check(sim)


# ----------------------------------------------------------------------
# an operator's elastic change is not corruption
# ----------------------------------------------------------------------
def elastic_sim():
    graph = tiny_cluster(2, 4, cores=4, gpus=0, memory_pools=1)
    sim = ClusterSimulator(
        graph, match_policy="first", queue="easy", audit=True,
        integrity=IntegrityConfig(scrub_window=None),
    )
    for i in range(4):
        sim.submit(simple_node_jobspec(cores=2, memory=4, duration=300), at=i * 10)
    sim.run(until=20)
    return sim


def untouched(sim):
    counters = sim.integrity.counters
    return counters["detected"] == counters["repair_actions"] == 0


class TestElasticChangeReachesTheBaseline:
    def test_resize_survives_a_whole_graph_scrub(self):
        sim = elastic_sim()
        memory = sim.graph.vertex_by_name("memory0")
        resize_pool(sim.graph, memory, 32)
        sim.reschedule()
        assert memory.size == 32 and untouched(sim)
        assert sim.integrity.baseline_structure(memory)["size"] == 32
        assert sim.integrity.scan() == []

    def test_corruption_after_a_resize_is_still_repaired(self):
        sim = elastic_sim()
        memory = sim.graph.vertex_by_name("memory0")
        resize_pool(sim.graph, memory, 32)
        sim.reschedule()
        assert apply_corruption(sim, memory, "structure", salt=2)
        assert memory.size != 32
        sim.reschedule()
        counters = sim.integrity.counters
        assert counters["detected"] == counters["repaired"] == 1
        assert memory.size == 32  # back to what the operator set, not to 16

    def test_damage_between_the_change_and_the_next_scrub_is_not_adopted(self):
        """The baseline takes what the call set, not what the vertex reads
        when the scrubber gets to it."""
        sim = elastic_sim()
        memory = sim.graph.vertex_by_name("memory0")
        resize_pool(sim.graph, memory, 32)
        created = grow(sim.graph, sim.graph.find(type="rack")[0], {"type": "node"})
        for vertex in (memory, created[0]):
            assert apply_corruption(sim, vertex, "structure", salt=2)
        assert memory.size != 32 and created[0].size != 1
        sim.reschedule()
        counters = sim.integrity.counters
        assert counters["detected"] == counters["repaired"] == 2
        assert memory.size == 32 and created[0].size == 1
        assert sim.integrity.scan() == []

    def test_a_graph_nobody_scrubs_keeps_no_record(self):
        graph = tiny_cluster(2, 4, cores=4, gpus=0, memory_pools=1)
        resize_pool(graph, graph.vertex_by_name("memory0"), 32)
        assert graph.reshaped is None

    def test_grown_vertices_enter_the_baseline(self):
        sim = elastic_sim()
        created = grow(
            sim.graph, sim.graph.find(type="rack")[0],
            {"type": "node", "with": [{"type": "core", "count": 4}]},
        )
        sim.reschedule()
        assert untouched(sim) and sim.integrity.scan() == []
        for vertex in created:
            assert sim.integrity.baseline_structure(vertex) == vertex_structure(
                vertex)
        core = created[-1]
        assert apply_corruption(sim, core, "structure", salt=1)
        sim.reschedule()
        counters = sim.integrity.counters
        assert counters["detected"] == counters["repaired"] == 1
        assert core.size == 1

    def test_shrink_survives_a_whole_graph_scrub(self):
        sim = elastic_sim()
        spare = sim.graph.find(type="node")[-1]
        gone = [spare.name] + [v.name for v in sim.graph.descendants(spare)]
        shrink_subtree(sim.graph, spare)
        sim.reschedule()
        assert untouched(sim) and sim.integrity.scan() == []
        assert not set(gone) & set(sim.integrity._baseline)
        sim.run()


# ----------------------------------------------------------------------
# fluxfsck CLI
# ----------------------------------------------------------------------
def _recovery_dir(tmp_path, *, integrity=None):
    sim = ClusterSimulator(
        tiny_cluster(), match_policy="first", queue="easy",
        integrity=integrity,
    )
    RecoveryManager(str(tmp_path), snapshot_every=5).attach(sim)
    for i in range(6):
        sim.submit(simple_node_jobspec(cores=4, duration=400), at=i * 40)
    sim.run(until=500)
    sim.recovery.close()
    return sim


class TestFsckCLI:
    def test_clean_directory_exits_zero(self, tmp_path, capsys):
        _recovery_dir(tmp_path)
        report_path = str(tmp_path / "report.json")
        assert fsck_main(
            ["fsck", str(tmp_path), "--check", "--json", report_path]
        ) == 0
        report = json.load(open(report_path))
        assert report["findings"] == []
        assert report["exit"] == 0
        assert "clean" in capsys.readouterr().out

    def test_unloadable_directory_exits_two(self, tmp_path):
        assert fsck_main(["fsck", str(tmp_path / "void"), "--check"]) == 2

    def test_check_repair_check_cycle(self, tmp_path):
        from repro.recovery.snapshot import _section_digest
        import hashlib

        _recovery_dir(tmp_path)
        # Damage the planners section of every snapshot, then re-seal the
        # wrapper digests: the file verifies, but the *state* is corrupt —
        # exactly what fsck exists to catch.
        for name in sorted(os.listdir(tmp_path)):
            if not name.startswith("snapshot-"):
                continue
            path = tmp_path / name
            wrapper = json.load(open(path))
            doc = wrapper["snapshot"]
            for planners in doc["planners"].values():
                # whole-node holds book only xplans spans
                for kind in ("plans", "xplans"):
                    held = planners.get(kind)
                    if held and held.get("spans"):
                        held["spans"][0]["end"] += 5000
            payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
            wrapper["sha256"] = hashlib.sha256(
                payload.encode("utf-8")
            ).hexdigest()
            wrapper["sections"] = {
                key: _section_digest(value) for key, value in doc.items()
            }
            with open(path, "w") as handle:
                json.dump(wrapper, handle, sort_keys=True,
                          separators=(",", ":"))
        assert fsck_main(["fsck", str(tmp_path), "--check"]) == 1
        assert fsck_main(["fsck", str(tmp_path), "--repair"]) == 0
        assert fsck_main(["fsck", str(tmp_path), "--check"]) == 0


# ----------------------------------------------------------------------
# the corruption acceptance matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("site", CORRUPTION_SITES)
def test_corruption_matrix(site, seed):
    spec = CampaignSpec.corruption_from_seed(seed, site)
    result = run_corruption_campaign(spec)
    assert result.ok, result.violations
    loss = result.loss
    assert loss["fsck_exit"] == 0
    if site in ("live-span", "live-aggregate"):
        # the site's own kind, not the structure fallback
        assert loss["kind"] == site.split("-")[1]
        assert loss["applied"]
        assert loss["detected"] >= 1
        assert loss["unrepaired"] == 0
    elif site == "journal":
        # every skipped record accounted: count matches injected damage
        assert loss["strict_refused"]
        assert loss["crc_skipped"] == loss["injected"] > 0
    else:
        assert loss["strict_refused"]
        assert loss["sections_rebuilt"] == ["planners"]


def test_every_kind_finds_a_target_on_whole_nodes():
    """Whole-node holds book ``xplans`` spans only; the matrix still has
    something of every kind to damage, so it cannot pass by finding
    nothing."""
    sim = ClusterSimulator(
        tiny_cluster(), match_policy="first", queue="easy",
        integrity=IntegrityConfig(scrub_window=None), audit=True,
    )
    for i in range(4):
        sim.submit(nodes_jobspec(2, duration=500), at=i * 50)
    sim.run(until=300)
    assert sim.traverser.allocations
    assert not any(v.plans.span_count for v in sim.graph.vertices())
    for kind in CORRUPTION_KINDS:
        targets = corruption_targets(sim, kind)
        assert targets, f"no {kind} targets on whole nodes"
        assert sim.inject_corruption(
            kind, sim.graph.vertex_by_name(targets[0]), salt=7
        )
    counters = sim.integrity.counters
    assert counters["detected"] >= len(CORRUPTION_KINDS)
    assert counters["unrepaired"] == 0 and not sim.integrity.quarantined
    assert sim.integrity.scan() == []
    sim.run()
    InvariantAuditor(deep=True).check(sim)


def test_corruption_campaign_deterministic():
    spec = CampaignSpec.corruption_from_seed(5, "live-span")
    a = run_corruption_campaign(spec)
    b = run_corruption_campaign(spec)
    assert a.ok and b.ok
    assert a.fingerprint == b.fingerprint
    assert a.loss == b.loss


def test_corruption_spec_round_trips():
    spec = CampaignSpec.corruption_from_seed(9)
    assert spec.corruption["site"] in CORRUPTION_SITES
    assert spec.faults is False and spec.crash_point is None
    again = CampaignSpec.corruption_from_seed(9)
    assert spec == again
    assert spec.to_dict()["corruption"] == spec.corruption


def test_repairs_replay_identically(tmp_path):
    """Journaled corruption + repairs regenerate on recovery replay."""
    from repro.recovery import recover, state_diff

    sim = ClusterSimulator(
        tiny_cluster(), match_policy="first", queue="easy",
        integrity=IntegrityConfig(scrub_window=None),
    )
    RecoveryManager(str(tmp_path)).attach(sim)
    for i in range(6):
        sim.submit(simple_node_jobspec(cores=4, duration=400), at=i * 40)
    sim.run(until=250)
    targets = corruption_targets(sim, "span")
    assert sim.inject_corruption(
        "span", sim.graph.vertex_by_name(targets[0]), salt=21
    )
    sim.run(until=400)
    sim.recovery.close()
    recovered = recover(str(tmp_path))
    assert state_diff(sim, recovered) == []
    assert recovered.integrity.counters == sim.integrity.counters
    sim.run()
    recovered.run()
    assert recovered.event_log == sim.event_log
