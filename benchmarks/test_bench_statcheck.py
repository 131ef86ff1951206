"""Benchmarks for the fluxlint pipeline: cold lint, cached lint, parallel
fan-out, and the interprocedural (fluxflow) whole-tree sweep.

These track the costs a developer pays on every pre-commit run and the cost
CI pays per push; the cached/cold ratio is the headline number for the
content-hash cache (ISSUE 4 satellite 1).
"""

import os
import shutil

from repro.statcheck import LintCache, lint_paths
from repro.statcheck.flow import FlowEngine

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_REPRO = os.path.join(REPO, "src", "repro")


def test_bench_lint_cold(benchmark):
    violations, files = benchmark(lint_paths, [SRC_REPRO])
    assert files > 60
    assert violations == []


def test_bench_lint_cached(benchmark, tmp_path):
    cache = LintCache(root=str(tmp_path / "cache"))
    lint_paths([SRC_REPRO], cache=cache)  # warm the cache once

    violations, files = benchmark(lint_paths, [SRC_REPRO], cache=cache)
    assert files > 60
    assert violations == []
    assert cache.hits > 0


def test_bench_lint_parallel(benchmark):
    def run():
        return lint_paths([SRC_REPRO], jobs=4)

    violations, files = benchmark.pedantic(run, rounds=3, iterations=1)
    assert files > 60
    assert violations == []


def test_bench_flow_sweep(benchmark):
    """The full interprocedural sweep: parse, call graph, summaries, four
    analyses.  Acceptance bound is 30s; typical is ~2s."""

    def sweep():
        return FlowEngine().analyze_paths([SRC_REPRO])

    violations, modules = benchmark.pedantic(sweep, rounds=2, iterations=1)
    assert modules > 60
    assert violations == []


def test_bench_perf_sweep(benchmark):
    """The fluxhot pass CI pays per push: parse, call graph, hotness join
    against the checked-in manifest, four PRF rules over the hot set."""
    from repro.statcheck.hot import DEFAULT_MANIFEST, PerfEngine

    manifest_path = os.path.join(REPO, DEFAULT_MANIFEST)

    def sweep():
        return PerfEngine().analyze_paths([SRC_REPRO], manifest_path)

    violations, model = benchmark.pedantic(sweep, rounds=2, iterations=1)
    assert model.hot_functions()  # the manifest ranks a non-empty hot set
    assert all(v.rule.startswith("PRF") for v in violations)


def test_bench_hotprofile(benchmark, tmp_path):
    """Regenerating the hotspot manifest: the scale workload under
    cProfile plus the qualname join.  Acceptance bound is loose; this
    exists to catch the profiler overhead exploding."""
    from repro.statcheck.hot import run_hotprofile

    def profile():
        return run_hotprofile(output_path=str(tmp_path / "hotspots.json"))

    document = benchmark.pedantic(profile, rounds=1, iterations=1)
    assert document["functions"]


def test_bench_cache_cold_vs_warm_ratio(tmp_path):
    """Not a timed benchmark: assert the cache actually short-circuits."""
    root = str(tmp_path / "cache")
    cache = LintCache(root=root)
    lint_paths([SRC_REPRO], cache=cache)
    first_misses = cache.misses

    cache2 = LintCache(root=root)
    lint_paths([SRC_REPRO], cache=cache2)
    assert cache2.hits == first_misses
    assert cache2.misses == 0
    shutil.rmtree(root, ignore_errors=True)
