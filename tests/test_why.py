"""Tests for repro.obs.why: the per-job decision-provenance recorder, the
six acceptance explain scenarios from ISSUE 10 on the 64-node cluster,
dual-run determinism, histogram quantile edge cases, and the ``obs why`` /
empty-trace ``obs report`` CLI paths."""

import json
import re

import pytest

from repro.grug import tiny_cluster
from repro.jobspec import (
    Jobspec,
    ResourceRequest,
    nodes_jobspec,
    simple_node_jobspec,
)
from repro.jobspec.build import slot
from repro.match import Traverser
from repro.obs import (
    NULL_WHY,
    DecisionRecorder,
    MetricsRegistry,
    NullDecisionRecorder,
    Observer,
    render_cycle_summary,
    render_explain,
)
from repro.obs.__main__ import main
from repro.resilience import OverloadConfig
from repro.sched import ClusterSimulator
from repro.sched.capacity import CapacitySchedule

from .test_gate import staircase


def cluster64(**kw):
    """The ISSUE 10 acceptance cluster: 8 racks x 8 nodes = 64 nodes."""
    return tiny_cluster(racks=8, nodes_per_rack=8, **kw)


# ----------------------------------------------------------------------
# recorder unit behaviour
# ----------------------------------------------------------------------
class TestDecisionRecorder:
    def test_attempt_lifecycle_and_export_schema(self):
        why = DecisionRecorder()
        why.begin_cycle(0.0)
        why.begin_attempt(1, 0.0, "allocate", name="job1")
        why.prune("filter", "node", "node3")
        why.fail("count", type="node", needed=5, got=3)
        why.end_attempt("failed")
        doc = why.export()
        assert doc["schema"] == "fluxwhy-v1"
        assert sorted(doc) == [
            "cycles", "cycles_dropped", "jobs", "schema", "top_k", "totals",
        ]
        (attempt,) = doc["jobs"]["1"]["attempts"]
        assert attempt["verb"] == "allocate"
        assert attempt["outcome"] == "failed"
        assert attempt["prune"] == {"filter|node": 1}
        assert attempt["examples"] == {"filter|node": ["node3"]}
        assert attempt["fails"][0]["kind"] == "count"

    def test_export_is_non_destructive(self):
        why = DecisionRecorder()
        why.begin_attempt(1, 0.0, "allocate")
        why.end_attempt("matched")
        assert why.export() == why.export()

    def test_prune_outside_attempt_is_noop(self):
        why = DecisionRecorder()
        why.prune("down", "node", "node0")
        why.fail("count", needed=1, got=0)
        assert why.export()["jobs"] == {}

    def test_example_vertices_capped_at_top_k(self):
        why = DecisionRecorder(top_k=2)
        why.begin_attempt(1, 0.0, "allocate")
        for i in range(5):
            why.prune("filter", "node", f"node{i}")
        why.end_attempt("failed")
        (attempt,) = why.export()["jobs"]["1"]["attempts"]
        assert attempt["prune"] == {"filter|node": 5}
        assert attempt["examples"]["filter|node"] == ["node0", "node1"]

    def test_attempts_per_job_capped(self):
        why = DecisionRecorder(max_attempts_per_job=3)
        for i in range(6):
            why.begin_attempt(1, float(i), "allocate")
            why.end_attempt("failed")
        entry = why.export()["jobs"]["1"]
        assert len(entry["attempts"]) == 3
        assert entry["dropped"] == 3

    def test_fails_capped(self):
        why = DecisionRecorder(max_fails=2)
        why.begin_attempt(1, 0.0, "allocate")
        for i in range(5):
            why.fail("count", needed=i, got=0)
        why.end_attempt("failed")
        (attempt,) = why.export()["jobs"]["1"]["attempts"]
        assert len(attempt["fails"]) == 2
        assert attempt["fails_dropped"] == 3

    def test_skipped_stretch_is_one_record(self):
        why = DecisionRecorder(max_attempts_per_job=3)
        why.begin_attempt(1, 0.0, "backfill")
        why.end_attempt("failed")
        for vt in (1.0, 2.0, 3.0):
            why.skipped(1, vt, "backfill")
        why.skipped(1, 4.0, "reservation")
        why.skipped(1, 5.0, "reservation")
        exported = why.export()
        attempts = exported["jobs"]["1"]["attempts"]
        assert [(a["verb"], a["outcome"], a.get("repeat")) for a in attempts] == [
            ("backfill", "failed", None),
            ("backfill", "skipped", 3),
            ("reservation", "skipped", 2),
        ]
        assert attempts[1]["vt"] == 1.0  # where the stretch began
        assert exported["totals"]["attempts"] == 1  # a skip is no attempt
        # The per-job cap bounds stretches too; the last one still counts.
        why.skipped(1, 6.0, "backfill")
        why.skipped(1, 7.0, "reservation")
        assert len(why.export()["jobs"]["1"]["attempts"]) == 3
        text = why.explain(1)
        assert (
            "├─ not re-tried ×3 since t=1: nothing it could use came free"
            in text
        )
        assert "└─ reservation kept ×3 since t=4: nothing came back early" in text

    def test_mark_counts_prunes_and_fails(self):
        why = DecisionRecorder()
        why.begin_attempt(1, 0.0, "allocate")
        assert why.mark() == 0
        why.prune("down", "node", "node0")
        why.fail("count", needed=1, got=0)
        assert why.mark() == 2

    def test_null_recorder_is_inert(self):
        assert NULL_WHY.enabled is False
        NULL_WHY.begin_cycle(0.0)
        NULL_WHY.begin_attempt(1, 0.0, "allocate")
        NULL_WHY.prune("down", "node", "n")
        NULL_WHY.fail("count")
        NULL_WHY.end_attempt("failed")
        NULL_WHY.skipped(1, 0.0, "backfill")
        NULL_WHY.event(1, 0.0, "admission-reject")
        assert NULL_WHY.mark() == 0
        assert NULL_WHY.export() == {}

    def test_observer_why_wiring(self):
        assert Observer().why.enabled is True
        assert Observer(why=False).why is NULL_WHY
        custom = DecisionRecorder(top_k=7)
        assert Observer(why=custom).why is custom
        assert isinstance(Observer(enabled=False).why, NullDecisionRecorder)


# ----------------------------------------------------------------------
# the six acceptance scenarios (ISSUE 10) on the 64-node cluster
# ----------------------------------------------------------------------
class TestExplainScenarios:
    def test_count_shortfall(self):
        sim = ClusterSimulator(cluster64(), queue="fcfs", observe=True)
        job = sim.submit(nodes_jobspec(65, duration=100), at=0)
        report = sim.run()
        text = report.explain(job.job_id)
        assert "count shortfall: got=64, needed=65, type=node" in text
        assert "canceled (unsatisfiable)" in text

    def test_type_mismatch(self):
        sim = ClusterSimulator(cluster64(), queue="fcfs", observe=True)
        spec = Jobspec(
            resources=(slot(1, ResourceRequest(type="fpga", count=1)),),
            duration=100,
        )
        job = sim.submit(spec, at=0)
        report = sim.run()
        assert "type mismatch: type=fpga" in report.explain(job.job_id)

    def test_aggregate_filter_miss(self):
        sim = ClusterSimulator(cluster64(), queue="fcfs", observe=True)
        sim.submit(nodes_jobspec(64, duration=1000), at=0)
        job = sim.submit(simple_node_jobspec(cores=2, duration=50), at=10)
        report = sim.run()
        text = report.explain(job.job_id)
        assert "all candidates pruned: type=node" in text
        assert "aggregate-filter miss: cluster x1 subtree(s) pruned" in text
        assert "(e.g. cluster0)" in text
        assert "allocate -> matched" in text  # eventually runs

    def test_child_filter_sum_short(self):
        """A staircase: rack0 keeps a node free early, rack1 one free
        late, every other node is out.  Some node is free at every instant,
        so the root filter passes; the racks' filters, summed over the
        window, hold none, so the gate refuses without a walk.  The
        reservation search then finds rack1's node free from t=50."""
        graph = cluster64()
        racks = graph.find(type="rack")
        for rack in racks[2:]:
            CapacitySchedule(graph).add_outage(rack, 0, 10_000)
        staircase(graph, racks[:2])
        sim = ClusterSimulator(graph, queue="conservative", observe=True)
        job = sim.submit(nodes_jobspec(1, duration=100), at=0)
        report = sim.run()
        text = report.explain(job.job_id)
        assert "1. child-filter sum short: have=0, need=1, type=node" in text
        assert "allocate_orelse_reserve -> reserved" in text
        assert job.start_time == 50

    def test_planner_time_conflict(self):
        sim = ClusterSimulator(
            cluster64(plan_end=1000), queue="easy", observe=True
        )
        sim.submit(nodes_jobspec(64, duration=900), at=0)
        job = sim.submit(nodes_jobspec(64, duration=500), at=5)
        report = sim.run()
        text = report.explain(job.job_id)
        assert "planner time conflict: after=5, types=node" in text
        assert "planner horizon exceeded: horizon=500, now=900" in text

    def test_easy_says_what_it_did_not_ask_again(self):
        sim = ClusterSimulator(cluster64(), queue="easy", observe=True)
        sim.submit(nodes_jobspec(60, duration=1000), at=0)
        head = sim.submit(nodes_jobspec(64, duration=100), at=1)
        waiting = sim.submit(nodes_jobspec(8, duration=2000), at=2)
        for at in (30, 40, 50, 60):  # each fits beside the first job
            sim.submit(nodes_jobspec(1, duration=500), at=at)
        report = sim.run()
        # Kept through the submit at t=2, the four after it and the four
        # ENDs: a release at its booked end is what the plan counted on.
        assert (
            "└─ reservation kept ×9 since t=2: nothing came back early"
            in report.explain(head.job_id)
        )
        text = report.explain(waiting.job_id)
        assert "t=2 [cycle 2] backfill -> failed" in text
        # Each 1-node job's end at t=530-560 frees one node: the root
        # filter still shows fewer than 8, so the job is not asked again.
        assert (
            "├─ not re-tried ×8 since t=30: nothing it could use came free"
            in text
        )
        assert "backfill -> failed" not in text.split("since t=30")[1]
        assert report.metrics["sched.replans_kept"] == 9
        assert report.metrics["sched.backfill_skipped"] == 8
        # Unobserved, the same run decides the same and counts nothing.
        bare = ClusterSimulator(cluster64(), queue="easy")
        for job in report.jobs:
            bare.submit(job.jobspec, at=job.submit_time)
        assert bare.run().metrics is None
        assert bare.event_log == sim.event_log

    def test_admission_rejection(self):
        sim = ClusterSimulator(
            cluster64(),
            queue="fcfs",
            observe=True,
            overload=OverloadConfig(max_pending=1),
        )
        jobs = [
            sim.submit(nodes_jobspec(64, duration=1000), at=i)
            for i in range(4)
        ]
        report = sim.run()
        text = report.explain(jobs[-1].job_id)
        assert "admission-reject (bound=1, depth=2" in text
        assert "canceled (admission-reject)" in text

    def test_summary_mentions_provenance(self):
        sim = ClusterSimulator(cluster64(), queue="fcfs", observe=True)
        sim.submit(nodes_jobspec(2, duration=50), at=0)
        report = sim.run()
        assert re.search(r"why: \d+ attempts recorded", report.summary())
        assert "report.explain(job_id)" in report.summary()

    def test_unobserved_report_has_no_provenance(self):
        sim = ClusterSimulator(cluster64(), queue="fcfs")
        sim.submit(nodes_jobspec(2, duration=50), at=0)
        report = sim.run()
        assert report.provenance is None
        assert "no decisions recorded" in report.explain(1)

    def test_explain_unknown_job(self):
        sim = ClusterSimulator(cluster64(), queue="fcfs", observe=True)
        sim.submit(nodes_jobspec(2, duration=50), at=0)
        report = sim.run()
        assert "no decisions recorded" in report.explain(999)

    def test_cycle_summary_renders(self):
        sim = ClusterSimulator(cluster64(), queue="fcfs", observe=True)
        sim.submit(nodes_jobspec(64, duration=1000), at=0)
        sim.submit(simple_node_jobspec(cores=2, duration=50), at=10)
        report = sim.run()
        table = render_cycle_summary(report.provenance)
        assert "cycle" in table and "matched" in table

    @pytest.mark.parametrize("drain, kind", [
        ("rack", "no_candidates"),  # the walk finds no node at all
        ("nodes", "count"),  # it finds two of the three asked for
    ])
    def test_refusal_reads_the_same_whether_the_walk_stops(
        self, drain, kind, monkeypatch
    ):
        """A ``first`` node walk ends once the request is filled; one that
        is refused was never filled, so it reports what the full walk does."""

        def refused():
            graph = cluster64()
            traverser = Traverser(graph, "first", obs=Observer())
            assert traverser.allocate(nodes_jobspec(56, duration=1000), at=0)
            rack = graph.find(type="rack")[7]
            if drain == "rack":
                graph.mark_down(rack)
            else:
                assert traverser.allocate(nodes_jobspec(4, duration=1000), at=0)
                free = [v for v in graph.children(rack)
                        if v.type == "node"][4:6]
                for node in free:
                    graph.mark_down(node)
            why = traverser.obs.why
            why.begin_attempt(1, 0.0, "allocate")
            assert traverser.allocate(nodes_jobspec(3, duration=10), at=0) is None
            why.end_attempt("failed")
            (attempt,) = why.export()["jobs"]["1"]["attempts"]
            return attempt

        stopping = refused()
        monkeypatch.setattr(Traverser, "_walk_stops", lambda self, request: False)
        assert refused() == stopping
        assert stopping["fails"][-1]["kind"] == kind
        assert stopping["prune"]["filter|rack"] == 7

    def test_nested_refusal_reads_the_same_whether_the_walk_stops(
        self, monkeypatch
    ):
        """Filters off, ``node[2] -> core[3]``: the second node's cores fall
        short inside it, a drained node is pruned after that, and only the
        last node fits, so the request is refused.  The nested walk stops
        on this tree, yet reports what the full walk does."""

        def refused():
            graph = tiny_cluster(racks=2, nodes_per_rack=2, cores=4)
            traverser = Traverser(graph, "first", prune=False, obs=Observer())
            assert traverser.allocate(nodes_jobspec(1, duration=1000), at=0)
            assert traverser.allocate(simple_node_jobspec(cores=1), at=0)
            nodes = graph.find(type="node")
            graph.mark_down(graph.find(type="core")[5])  # one on nodes[1]
            graph.mark_down(nodes[2])
            request = ResourceRequest(
                type="node", count=2,
                with_=(ResourceRequest(type="core", count=3),),
            )
            assert traverser._walk_stops(request) is stopped
            why = traverser.obs.why
            why.begin_attempt(1, 0.0, "allocate")
            jobspec = Jobspec(resources=(request,), duration=10)
            assert traverser.allocate(jobspec, at=0) is None
            why.end_attempt("failed")
            (attempt,) = why.export()["jobs"]["1"]["attempts"]
            return attempt

        stopped = True
        stopping = refused()
        monkeypatch.setattr(Traverser, "_walk_stops", lambda self, request: False)
        stopped = False
        assert refused() == stopping
        assert [(f["kind"], f["type"]) for f in stopping["fails"]] == [
            ("count", "core"), ("count", "node"),
        ]
        assert stopping["prune"] == {"down|core": 1, "down|node": 1}


# ----------------------------------------------------------------------
# determinism: dual runs must be byte-identical (FluxSan requirement)
# ----------------------------------------------------------------------
class TestDeterminism:
    def run_once(self):
        sim = ClusterSimulator(
            cluster64(plan_end=5000), queue="conservative", observe=True
        )
        for i in range(12):
            sim.submit(
                nodes_jobspec(1 + i % 5, duration=60 + 13 * (i % 7)),
                at=4 * i,
            )
        report = sim.run()
        explains = "\n".join(
            report.explain(job.job_id) for job in report.jobs
        )
        return (
            json.dumps(report.provenance, sort_keys=True) + "\n" + explains
        )

    def test_dual_runs_byte_identical(self):
        assert self.run_once() == self.run_once()


# ----------------------------------------------------------------------
# satellite: histogram quantile edge cases
# ----------------------------------------------------------------------
class TestQuantileEdges:
    def histogram(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", boundaries=(1.0, 10.0, 100.0))
        return h

    def test_empty_histogram_quantile_is_zero(self):
        h = self.histogram()
        for q in (0.0, 0.5, 1.0):
            assert h.quantile(q) == 0.0

    def test_q0_is_first_nonempty_bucket_bound(self):
        h = self.histogram()
        h.observe(50.0)  # lands in le_100
        assert h.quantile(0.0) == 100.0

    def test_q1_clamps_to_last_finite_boundary(self):
        h = self.histogram()
        h.observe(0.5)
        h.observe(500.0)  # +Inf tail
        assert h.quantile(1.0) == 100.0

    def test_q1_without_inf_tail(self):
        h = self.histogram()
        h.observe(0.5)
        h.observe(5.0)
        assert h.quantile(1.0) == 10.0

    def test_negative_observations_land_in_first_bucket(self):
        h = self.histogram()
        h.observe(-3.0)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 1.0

    def test_out_of_range_q_rejected(self):
        h = self.histogram()
        h.observe(1.0)
        for q in (-0.1, 1.1):
            with pytest.raises(ValueError):
                h.quantile(q)

    def test_results_never_nan(self):
        import math

        h = self.histogram()
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert not math.isnan(h.quantile(q))
        h.observe(-1.0)
        h.observe(1e12)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert not math.isnan(h.quantile(q))


# ----------------------------------------------------------------------
# CLI: obs why / empty-trace report
# ----------------------------------------------------------------------
class TestCli:
    def export(self, tmp_path):
        sim = ClusterSimulator(cluster64(), queue="fcfs", observe=True)
        sim.submit(nodes_jobspec(65, duration=100), at=0)
        sim.submit(nodes_jobspec(2, duration=50), at=1)
        sim.run()
        path = tmp_path / "trace.json"
        sim.export_trace(str(path))
        return path

    def test_why_renders_all_jobs(self, tmp_path, capsys):
        path = self.export(tmp_path)
        assert main(["why", str(path)]) == 0
        out = capsys.readouterr().out
        assert "count shortfall" in out
        assert "per-cycle summary" in out

    def test_why_single_job(self, tmp_path, capsys):
        path = self.export(tmp_path)
        assert main(["why", str(path), "--job", "1"]) == 0
        out = capsys.readouterr().out
        assert "job 1" in out and "job 2" not in out

    def test_why_without_provenance_fails(self, tmp_path, capsys):
        bad = tmp_path / "plain.json"
        bad.write_text(json.dumps({"traceEvents": []}))
        assert main(["why", str(bad)]) == 1
        assert "provenance" in capsys.readouterr().err

    def test_why_on_raw_provenance_json(self, tmp_path, capsys):
        sim = ClusterSimulator(cluster64(), queue="fcfs", observe=True)
        sim.submit(nodes_jobspec(65, duration=100), at=0)
        report = sim.run()
        raw = tmp_path / "why.json"
        raw.write_text(json.dumps(report.provenance))
        assert main(["why", str(raw)]) == 0
        assert "count shortfall" in capsys.readouterr().out

    def test_report_empty_trace_exits_zero(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"traceEvents": []}))
        assert main(["report", str(empty)]) == 0
        out = capsys.readouterr().out
        assert "empty trace" in out

    def test_render_explain_standalone(self):
        sim = ClusterSimulator(cluster64(), queue="fcfs", observe=True)
        job = sim.submit(nodes_jobspec(65, duration=100), at=0)
        report = sim.run()
        # render_explain works from the exported provenance alone (no
        # live Job): state header degrades gracefully
        text = render_explain(report.provenance, job.job_id)
        assert "count shortfall" in text
