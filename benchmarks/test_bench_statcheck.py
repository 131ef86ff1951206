"""Benchmark for the fluxlint pipeline: one cold, single-process lint of the
whole tree, the cost CI and a developer pay per run.
"""

import os

from repro.statcheck import lint_paths

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_REPRO = os.path.join(REPO, "src", "repro")


def test_bench_lint_cold(benchmark):
    violations, files = benchmark(lint_paths, [SRC_REPRO])
    assert files > 60
    assert violations == []
