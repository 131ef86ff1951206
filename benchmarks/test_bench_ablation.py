"""E6/E7 — ablations of the design choices DESIGN.md calls out.

* Pruning filters + SDFU (§3.4): visits and match time with filters on/off.
* The planner's tree (§4.1): EarliestAt against the naive list planner, and
  on a dense plan against the paper's Algorithm 1 (ET tree + stash loop).
* SDFU overhead: how much filter bookkeeping costs per allocation.
"""

import time

import pytest

import harness
from repro.baselines import Algorithm1
from repro.grug import tiny_cluster
from repro.jobspec import simple_node_jobspec
from repro.match import Traverser


class TestPruningAblation:
    def test_pruning_speedup(self):
        rows = harness.ablation_pruning(out=open("/dev/null", "w"))
        assert rows["prune"]["visits"] < rows["no-prune"]["visits"] / 2
        assert rows["prune"]["mean_ms"] < rows["no-prune"]["mean_ms"]

    @pytest.mark.parametrize("prune", [False, True], ids=["noprune", "prune"])
    def test_bench_fill_medium(self, benchmark, prune):
        benchmark.pedantic(
            harness.fig6a_run_one,
            args=("med", prune, 4, 6),
            rounds=1,
            iterations=1,
        )


class TestSdfuOverhead:
    """SDFU's cost: the same fill with 0, 1 and 3 tracked filter types."""

    @pytest.mark.parametrize("n_types", [0, 1, 3])
    def test_bench_sdfu_cost(self, benchmark, n_types):
        types = ["core", "memory", "gpu"][:n_types]

        def fill():
            graph = tiny_cluster(
                racks=4, nodes_per_rack=4, cores=8,
                prune_types=types or None,
            )
            traverser = Traverser(graph, policy="first", prune=bool(types))
            jobspec = simple_node_jobspec(cores=4, memory=8, duration=1000)
            count = 0
            while traverser.allocate(jobspec, at=0):
                count += 1
            return count

        jobs = benchmark.pedantic(fill, rounds=1, iterations=1)
        assert jobs == 32  # 16 nodes x (8 cores / 4 per job)


class TestPlannerBaseline:
    """E7: tree planner vs naive list planner (ablation-planner)."""

    def test_tree_beats_list_and_gap_grows(self):
        rows = harness.ablation_planner_baseline(out=open("/dev/null", "w"))
        for row in rows:
            assert row["tree_us"] < row["naive_us"]
        # The naive planner degrades ~linearly in span count (16x spans ->
        # well over 4x time) while the tree stays within noise of flat.
        assert rows[-1]["naive_us"] > rows[0]["naive_us"] * 4
        assert rows[-1]["tree_us"] < rows[0]["tree_us"] * 5

    @pytest.mark.parametrize("impl", ["tree", "list"])
    def test_bench_earliest_at_4k_spans(self, benchmark, impl, loaded_planners):
        tree = harness.build_loaded_planner(4_000)
        planner = tree if impl == "tree" else harness.as_list_planner(tree)
        benchmark(planner.avail_time_first, 64, 1, 0)


class TestDensePlan:
    """E7/E13: EarliestAt where free runs too short for the request are many
    — the list planner, Algorithm 1 as published, the indexed SP tree."""

    def test_index_beats_algorithm1_with_equal_answers(self):
        # ablation_dense_plan asserts the answers equal before it times them
        rows = harness.ablation_dense_plan(
            out=open("/dev/null", "w"), loads=(1_000,)
        )
        for row in rows:
            # measured about 20x from t=0 and over 100x from the last tenth, where
            # Algorithm 1 still stashes every point before on_or_after
            assert row["index_ms"] * 3 < row["algorithm1_ms"], row
            if "list_ms" in row:
                assert row["algorithm1_ms"] < row["list_ms"], row

    @pytest.fixture(scope="class")
    def dense_4k(self):
        return harness.build_dense_planner(4_000)

    @pytest.mark.parametrize("impl", ["list", "algorithm1", "index"])
    def test_bench_earliest_at_dense_4k_spans(self, benchmark, impl, dense_4k):
        make = {
            "index": lambda planner: planner,
            "algorithm1": Algorithm1,
            "list": harness.as_list_planner,
        }
        planner = make[impl](dense_4k)
        probes = harness.dense_plan_queries(dense_4k, late=True)

        def run():
            return [planner.avail_time_first(*probe) for probe in probes]

        benchmark.pedantic(run, rounds=1 if impl == "list" else 5, iterations=1)
