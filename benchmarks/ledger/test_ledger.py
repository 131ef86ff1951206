"""Checks of the ledger itself, at ``--quick`` scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q``; this
directory is outside the tier-1 ``testpaths`` on purpose (it times things).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

import inputs  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = ledger.load_benchmark()
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def quick_document():
    out = os.path.join(run.SCRATCH, "test-out")  # inside the checkout
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--trace",
         "--reps", "2", "--out", out],
        stdout=subprocess.PIPE, timeout=300,
    )
    assert done.returncode == 0
    with open(os.path.join(out, "ledger.json")) as handle:
        document = json.load(handle)
    # the one JSON document is also the last line of standard output
    assert json.loads(done.stdout.splitlines()[-1]) == document
    return document, out


def test_quick_output_matches_benchmark_json(quick_document):
    document, _ = quick_document
    assert document["quick"] is True
    assert WORKLOADS == list(workloads.NAMES)
    assert sorted(document["workloads"]) == sorted(WORKLOADS)
    for entry in document["workloads"].values():
        assert set(entry["end_to_end"]) == {
            m["name"] for m in BENCHMARK["end_to_end"]
        }
        assert set(entry["per_layer"]) == {
            m["name"] for m in BENCHMARK["per_layer"]
        }
        assert all(m["value"] > 0 for m in entry["end_to_end"].values())
        assert entry["failed_ops_share"] == 0 and not entry["failures"]
    for metric in BENCHMARK["per_layer"]:
        assert metric["name"].split(".")[0] in ledger.LAYERS


def test_layers_account_for_the_traced_wall(quick_document):
    document, out = quick_document
    for name, entry in document["workloads"].items():
        with open(os.path.join(out, f"spans-{name}.json")) as handle:
            trace = json.load(handle)
        timed = [s for s in trace["spans"] if s[4] >= 0]
        roots = sum(s[2] - s[1] for s in timed if s[3] < 0)
        planner = sum(
            seconds for s in timed for _, seconds in (s[6] or {}).values()
        )
        planner += sum(sec for _, sec in trace["root_planner"].values())
        planner -= sum(sec for _, sec in trace["setup_root_planner"].values())
        own = sum(s[2] - s[1] - s[5] for s in timed)
        layers = entry["per_layer"]
        wall = layers["trace.wall_s"]
        driver = wall - roots  # the driver's own loop between its calls
        assert driver >= 0
        # self times (planner calls included) plus driver time are the wall
        assert own + planner + driver == pytest.approx(wall, rel=0.02)
        assert layers["trace.coverage_ratio"] >= 0.95


def test_every_wrapped_attribute_is_restored():
    before = {
        (module, cls, attr): vars(spans._owner(module, cls))[attr]
        for module, cls, attr, _ in spans._SPAN_TARGETS + spans._PLANNER_TARGETS
    }
    tracer = spans.Tracer().install()
    patched = tracer.patched()
    assert len(patched) == len(before)
    assert all(vars(owner)[attr] is not original
               for owner, attr, original in patched)
    tracer.restore()
    assert not tracer.patched()
    for (module, cls, attr), original in before.items():
        assert vars(spans._owner(module, cls))[attr] is original


def test_planted_oversize_job_counts_as_failed(monkeypatch):
    real_trace = inputs.trace

    def planted(n_jobs, seed, origin, max_nodes, **kwargs):
        jobs = real_trace(n_jobs, seed, origin, max_nodes, **kwargs)
        jobs[3] = (10**6,) + jobs[3][1:]  # larger than any machine here
        return jobs

    monkeypatch.setattr(inputs, "trace", planted)
    ctx = workloads.Context(seed=7, quick=True, tmpdir=run.SCRATCH)
    record = workloads.run("backlog_easy_1008", ctx)
    assert record["failures"]
    assert record["ops"] == record["attempted"] - 1
    record.update(peak_rss_mb=1.0, host_probe_ms=[1.0, 1.0], gate_wait_s=0.0)
    entry = run.measure([record], None, {})
    assert entry["failed_ops_share"] > 0


def _inputs_sha(workload: str, seed: int) -> str:
    runner = run.Runner(seed, quick=True)
    return runner.rep(workload)["inputs_sha256"]


@pytest.mark.parametrize("workload", ["backlog_conservative_2418",
                                      "planner_steady_1000"])
def test_inputs_follow_the_seed(workload):
    # each call is its own process
    assert _inputs_sha(workload, 7) == _inputs_sha(workload, 7)
    assert _inputs_sha(workload, 7) != _inputs_sha(workload, 8)


def test_seed_draws_more_than_the_time_origin():
    block = inputs.SHUFFLE_BLOCK
    for a, b in (
        ([job[:2] for job in inputs.trace(40, 7, 0, 126)],
         [job[:2] for job in inputs.trace(40, 8, 0, 126)]),
        (inputs.planner_requests(40, 7), inputs.planner_requests(40, 8)),
    ):
        assert a != b  # another order ...
        assert all(  # ... of the same items, block by block
            sorted(a[i:i + block]) == sorted(b[i:i + block])
            for i in range(0, 40, block)
        )
    assert inputs.churn_picks(10, 7) != inputs.churn_picks(10, 8)


def test_compare_verdicts():
    def document(ops_per_s, spread=0.01, visits=10):
        metrics = {
            m["name"]: {"value": 1.0, "spread": spread, "samples": 5}
            for m in BENCHMARK["end_to_end"]
        }
        metrics["ops_per_s"]["value"] = ops_per_s
        return {"quick": False, "workloads": {"w": {
            "end_to_end": metrics, "failed": 0, "attempted": 5, "ops": 5,
            "sim": None, "counters": {"match.visits": visits},
        }}}

    def verdict(old, new, metric="ops_per_s"):
        rows, worse = ledger.compare(old, new, BENCHMARK)
        return next(r[5] for r in rows if r[1] == metric), worse

    assert verdict(document(100.0), document(101.0)) == ("within-bound", False)
    assert verdict(document(100.0), document(150.0)) == ("better", False)
    assert verdict(document(100.0), document(50.0)) == ("worse", True)
    assert verdict(document(100.0), document(50.0, spread=0.9)) == (
        "unresolved", False)
    assert verdict(document(100.0), document(100.0, visits=11), "counters") == (
        "worse (not equal)", True)


def test_simulator_percentiles_are_over_virtual_instants():
    calls = [1.0, 2.0, 4.0, 8.0]
    assert ledger._stalls(calls, {"instants": [1, 2, 1]}) == [1.0, 6.0, 8.0]
    assert ledger._stalls(calls, {}) == calls
