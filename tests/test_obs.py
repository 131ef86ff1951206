"""Tests for repro.obs: metrics registry, structured tracer, profiler,
the report/validate CLI, and the simulator integration (spans, counters,
trace export, determinism of the virtual-time event sequence)."""

import io
import json
import re
import threading

import pytest

from repro.errors import SchedulerError
from repro.grug import tiny_cluster
from repro.jobspec import nodes_jobspec
from repro.obs import (
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    NULL_OBSERVER,
    NULL_REGISTRY,
    NULL_TRACER,
    Observer,
    ObserverStateError,
    Profile,
    Tracer,
    WallTimer,
    activate,
    active,
    aggregate,
    deactivate,
    read_jsonl,
    resolve,
    span_tree,
    wall_now,
)
from repro.obs.__main__ import chrome_to_events, main, validate_chrome
from repro.sched import ClusterSimulator


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_idempotent_and_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("dfu.visits", "vertices visited")
        c.inc()
        c.inc(4)
        assert reg.counter("dfu.visits").value == 5
        assert reg.counter("dfu.visits") is c
        assert "dfu.visits" in reg and len(reg) == 1

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("queue.depth")
        g.set(7)
        g.inc(2)
        g.dec()
        assert g.value == 8

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_histogram_buckets_mean_quantile(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", boundaries=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        doc = h.as_dict()
        assert doc["count"] == 4
        assert doc["sum"] == pytest.approx(555.5)
        assert doc["buckets"] == {"le_1": 1, "le_10": 1, "le_100": 1, "inf": 1}
        assert h.mean() == pytest.approx(138.875)
        assert h.quantile(0.25) == 1.0
        assert h.quantile(1.0) == 100.0  # tail clamps to last finite bound

    def test_histogram_empty_and_bad_boundaries(self):
        reg = MetricsRegistry()
        h = reg.histogram("empty")
        assert h.mean() == 0.0 and h.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            reg.histogram("bad", boundaries=(2.0, 1.0))
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_labelled_family(self):
        reg = MetricsRegistry()
        fam = reg.counter("sched.attempts", "per verb", labels=["verb"])
        fam.labels(verb="allocate").inc(3)
        fam.labels(verb="backfill").inc()
        assert fam.labels(verb="allocate").value == 3
        names = [m.name for m in reg.instruments()]
        assert names == [
            "sched.attempts{verb=allocate}",
            "sched.attempts{verb=backfill}",
        ]
        with pytest.raises(ValueError, match="takes labels"):
            fam.labels(policy="fcfs")

    def test_as_dict_render_merge(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.histogram("h", boundaries=(1.0,)).observe(0.5)
        doc = reg.as_dict()
        assert doc["a"] == 2 and doc["h"]["count"] == 1
        text = reg.render()
        assert "a 2" in text and "h count=1" in text
        other = MetricsRegistry()
        other.counter("a").inc(5)
        reg.merge_counts(other)
        assert reg.counter("a").value == 7

    def test_null_registry_is_inert(self):
        NULL_REGISTRY.counter("x", labels=["l"]).labels(l="1").inc()
        NULL_REGISTRY.gauge("g").set(3)
        NULL_REGISTRY.histogram("h").observe(1.0)
        assert len(NULL_REGISTRY) == 0
        assert NULL_REGISTRY.as_dict() == {}
        assert list(NULL_REGISTRY.instruments()) == []

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_TIME_BUCKETS) == sorted(DEFAULT_TIME_BUCKETS)


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def build(self):
        t = Tracer()
        with t.span("cycle", "sim", vt=0.0):
            with t.span("match", "match", vt=0.0, job="j1"):
                t.instant("hit", vt=0.0)
            with t.span("match", "match", vt=0.0, job="j2"):
                pass
        t.sample("queue.depth", {"pending": 3}, vt=0.0)
        with t.span("cycle", "sim", vt=10.0):
            pass
        return t

    def test_nesting_and_balance(self):
        t = self.build()
        assert t.open_spans() == 0
        cycle, match1, hit = t.events[0], t.events[1], t.events[2]
        assert match1["parent"] == cycle["id"] and match1["depth"] == 1
        assert hit["parent"] == match1["id"] and hit["ph"] == "i"
        assert t.events[-1]["parent"] is None

    def test_end_without_begin_raises(self):
        with pytest.raises(RuntimeError):
            Tracer().end()

    def test_jsonl_round_trip_same_span_tree(self):
        t = self.build()
        buffer = io.StringIO()
        t.write_jsonl(buffer)
        buffer.seek(0)
        parsed = read_jsonl(buffer)
        assert span_tree(parsed) == span_tree(t.events)
        # three roots: two cycles plus nothing else (sample is not a span)
        roots = span_tree(parsed)
        assert [r["name"] for r in roots] == ["cycle", "cycle"]
        assert [c["name"] for c in roots[0]["children"]] == ["match", "match"]

    def test_chrome_export_is_valid(self):
        t = self.build()
        doc = t.to_chrome({"metrics": {"a": 1}})
        assert validate_chrome(doc) == []
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert phases.count("X") == 4 and "i" in phases and "C" in phases
        # vt folded into args for chrome viewers
        assert doc["traceEvents"][0]["args"]["vt"] == 0.0
        assert doc["otherData"]["metrics"] == {"a": 1}

    def test_chrome_reconstruction_matches(self):
        t = self.build()
        events = chrome_to_events(t.to_chrome())
        names = lambda forest: [  # noqa: E731 - local shorthand
            (n["name"], [c["name"] for c in n["children"]]) for n in forest
        ]
        assert names(span_tree(events)) == names(span_tree(t.events))

    def test_virtual_sequence_excludes_wall_clock(self):
        t = self.build()
        seq = t.virtual_sequence()
        assert seq == [
            ("cycle", 0.0), ("match", 0.0), ("hit", 0.0),
            ("match", 0.0), ("cycle", 10.0),
        ]

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("x"):
            NULL_TRACER.instant("y")
        NULL_TRACER.sample("c", {"v": 1})
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.open_spans() == 0
        assert NULL_TRACER.to_chrome()["traceEvents"] == []


# ----------------------------------------------------------------------
# profiler
# ----------------------------------------------------------------------
class TestProfile:
    def test_aggregate_self_time_and_callers(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
            with t.span("inner"):
                pass
        profile = aggregate(t.events)
        assert isinstance(profile, Profile)
        outer, inner = profile.rows["outer"], profile.rows["inner"]
        assert outer.count == 1 and inner.count == 2
        assert outer.self_time <= outer.total
        assert profile.edges[("outer", "inner")][0] == 2
        table = profile.table()
        assert "outer" in table and "-> inner" in table
        flame = profile.flame(width=20)
        assert "outer" in flame and "#" in flame


# ----------------------------------------------------------------------
# runtime: observer resolution and activation
# ----------------------------------------------------------------------
class TestRuntime:
    def test_resolve_modes(self, monkeypatch):
        assert resolve(False) is NULL_OBSERVER
        assert resolve(True).enabled
        obs = Observer(enabled=True)
        assert resolve(obs) is obs
        monkeypatch.delenv("FLUXOBS", raising=False)
        assert resolve(None) is NULL_OBSERVER
        monkeypatch.setenv("FLUXOBS", "1")
        assert resolve(None).enabled
        monkeypatch.setenv("FLUXOBS", "0")
        assert resolve(None) is NULL_OBSERVER

    def test_activate_nests(self):
        first, second = Observer(enabled=True), Observer(enabled=True)
        assert active() is NULL_OBSERVER
        activate(first)
        activate(second)
        assert active() is second
        deactivate()
        assert active() is first
        deactivate()
        assert active() is NULL_OBSERVER

    def test_wall_timer(self):
        with WallTimer() as timer:
            wall_now()
        assert timer.elapsed >= 0.0

    def test_activate_returns_token_for_strict_unwind(self):
        obs = Observer(enabled=True)
        token = activate(obs)
        assert active() is obs
        deactivate(token)
        assert active() is NULL_OBSERVER

    def test_deactivate_without_activation_raises(self):
        with pytest.raises(ObserverStateError, match="without a matching"):
            deactivate()

    def test_misnested_deactivate_raises(self):
        outer = activate(Observer(enabled=True))
        inner = activate(Observer(enabled=True))
        with pytest.raises(ObserverStateError, match="misnested"):
            deactivate(outer)
        # the stack is intact: unwinding in LIFO order still works
        deactivate(inner)
        deactivate(outer)
        assert active() is NULL_OBSERVER

    def test_activation_is_thread_local(self):
        """One thread's activation must never leak into another."""
        seen = {}
        ready = threading.Barrier(2)

        def worker(name):
            ready.wait()
            token = activate(Observer(enabled=True))
            seen[name] = active()
            deactivate(token)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen["a"] is not seen["b"]
        assert active() is NULL_OBSERVER


# ----------------------------------------------------------------------
# simulator integration
# ----------------------------------------------------------------------
def run_observed(observe=True):
    sim = ClusterSimulator(
        tiny_cluster(racks=2, nodes_per_rack=4, cores=4),
        queue="easy",
        observe=observe,
    )
    for i in range(6):
        sim.submit(nodes_jobspec(2 + i % 3, duration=50 + 10 * i), at=5 * i)
    report = sim.run()
    return sim, report


class TestSimulatorIntegration:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("FLUXOBS", raising=False)
        sim, report = run_observed(observe=None)
        assert sim.obs is NULL_OBSERVER
        assert report.metrics is None
        assert "obs:" not in report.summary()
        with pytest.raises(SchedulerError):
            sim.export_trace("/tmp/never-written.json")

    def test_observed_run_collects_metrics(self):
        sim, report = run_observed()
        metrics = report.metrics
        assert metrics["sim.cycles"] > 0
        assert metrics["dfu.visits"] > 0
        # every job matched at least once; backfill/reservation re-matches
        # push the count higher
        assert metrics["dfu.matched"] >= 6
        assert metrics["sched.attempt_seconds"]["count"] > 0
        assert "obs:" in report.summary()
        assert sim.obs.tracer.open_spans() == 0

    def test_trace_export_nests_cycle_match(self, tmp_path):
        sim, _ = run_observed()
        path = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        sim.export_trace(str(path), jsonl_path=str(jsonl))
        doc = json.loads(path.read_text())
        assert validate_chrome(doc) == []
        assert doc["otherData"]["metrics"]["sim.cycles"] > 0
        events = read_jsonl(str(jsonl))
        forest = span_tree(events)

        def walk(nodes):
            for node in nodes:
                yield node
                yield from walk(node["children"])

        # dispatch roots contain the scheduling cycles
        assert any(n["name"] == "sim.dispatch" for n in forest)
        cycles = [n for n in walk(forest) if n["name"] == "sim.cycle"]
        assert cycles, [n["name"] for n in forest]
        nested = {
            c["name"] for cycle in cycles for c in cycle["children"]
        }
        assert "sched.attempt" in nested
        attempt_children = {
            g["name"]
            for cycle in cycles
            for c in cycle["children"]
            if c["name"] == "sched.attempt"
            for g in c["children"]
        }
        assert attempt_children & {"dfu.match", "dfu.reserve_search"}

    def test_two_runs_identical_virtual_sequence(self):
        sim_a, _ = run_observed()
        sim_b, _ = run_observed()
        seq_a = sim_a.obs.tracer.virtual_sequence()
        seq_b = sim_b.obs.tracer.virtual_sequence()
        assert seq_a == seq_b and len(seq_a) > 10
        # counters are virtual-time deterministic; histogram sums are
        # wall-clock and legitimately differ between runs
        snap_a, snap_b = sim_a.metrics_snapshot(), sim_b.metrics_snapshot()
        counters_a = {k: v for k, v in snap_a.items() if isinstance(v, int)}
        counters_b = {k: v for k, v in snap_b.items() if isinstance(v, int)}
        assert counters_a == counters_b and counters_a

    def test_fluxobs_env_enables(self, monkeypatch):
        monkeypatch.setenv("FLUXOBS", "1")
        sim, report = run_observed(observe=None)
        assert sim.obs.enabled and report.metrics is not None


# ----------------------------------------------------------------------
# report / validate CLI
# ----------------------------------------------------------------------
class TestCli:
    def export(self, tmp_path):
        sim, _ = run_observed()
        path = tmp_path / "trace.json"
        sim.export_trace(str(path))
        return path

    def test_report_on_chrome_trace(self, tmp_path, capsys):
        path = self.export(tmp_path)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sim.cycle" in out and "dfu.match" in out
        assert "sim.cycles" in out  # metrics snapshot section

    def test_report_on_jsonl(self, tmp_path, capsys):
        sim, _ = run_observed()
        jsonl = tmp_path / "trace.jsonl"
        sim.obs.tracer.write_jsonl(str(jsonl))
        assert main(["report", str(jsonl), "--limit", "5"]) == 0
        assert "sim.cycle" in capsys.readouterr().out

    def test_validate_accepts_good_trace(self, tmp_path):
        assert main(["validate", str(self.export(tmp_path))]) == 0

    def test_validate_rejects_bad_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"name": "x"}]}))
        assert main(["validate", str(bad)]) == 1
        assert "missing" in capsys.readouterr().err

    def test_validate_chrome_problem_list(self):
        assert validate_chrome([]) != []
        assert validate_chrome({"traceEvents": []}) != []
        good = Tracer()
        with good.span("a"):
            pass
        assert validate_chrome(good.to_chrome()) == []


# ----------------------------------------------------------------------
# concurrency: independent simulators on separate threads
# ----------------------------------------------------------------------
def run_workload(variant):
    """One observed simulation; the two variants differ in job mix so any
    cross-thread contamination of metrics or spans changes the output."""
    sim = ClusterSimulator(
        tiny_cluster(racks=2, nodes_per_rack=4, cores=4),
        queue="easy",
        observe=True,
    )
    jobs, stride = (6, 5) if variant == "a" else (9, 3)
    for i in range(jobs):
        sim.submit(
            nodes_jobspec(2 + i % 3, duration=40 + 15 * i), at=stride * i
        )
    report = sim.run()
    fingerprint = json.dumps(
        sim.obs.tracer.virtual_sequence(), sort_keys=True
    )
    # the summary's wall-clock "sched time" differs between any two runs,
    # serial or not; everything else (job stats, metric counts, the full
    # virtual-time span sequence) must be byte-identical
    summary = re.sub(r"sched time=[0-9.]+s", "sched time=X", report.summary())
    return summary + "\n" + fingerprint


class TestConcurrentSimulators:
    def test_threaded_runs_match_serial_runs_byte_for_byte(self):
        """Two independent simulators on two threads produce exactly the
        reports their serial runs produce: the context-local observer
        means neither thread sees the other's metrics or spans."""
        serial = {v: run_workload(v) for v in ("a", "b")}
        threaded = {}
        ready = threading.Barrier(2)

        def run(variant):
            ready.wait()  # maximize interleaving of the two cycles
            threaded[variant] = run_workload(variant)

        threads = [
            threading.Thread(target=run, args=(v,)) for v in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert threaded == serial
        assert active() is NULL_OBSERVER
