"""Chaos campaigns: seed determinism, crash equivalence, shrinking, CLI."""

import json
from dataclasses import replace

import pytest

from repro.errors import SchedulerError
from repro.resilience import chaos
from repro.resilience.chaos import (
    CampaignResult,
    CampaignSpec,
    run_campaign,
    shrink_campaign,
)


# ----------------------------------------------------------------------
# specs are pure functions of their seed
# ----------------------------------------------------------------------
class TestCampaignSpec:
    def test_from_seed_is_deterministic(self):
        assert CampaignSpec.from_seed(5) == CampaignSpec.from_seed(5)
        assert CampaignSpec.from_seed(5) != CampaignSpec.from_seed(6)

    def test_dict_round_trip(self):
        spec = CampaignSpec.from_seed(3)
        clone = CampaignSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert clone == spec

    def test_seeds_cover_the_scenario_space(self):
        specs = [CampaignSpec.from_seed(seed) for seed in range(30)]
        assert any(s.crash_point is not None for s in specs)
        assert any(s.crash_point is None for s in specs)
        assert any(s.faults for s in specs)
        # the queue bound and both budgets, drawn; nothing else
        assert {tuple(sorted(s.overload)) for s in specs} == {
            ("attempt_budget", "checkpoint_interval", "cycle_budget",
             "max_pending")
        }
        assert len({s.overload["max_pending"] for s in specs}) > 1
        assert {s.queue for s in specs} == {"fcfs", "easy", "conservative"}


# ----------------------------------------------------------------------
# campaign execution
# ----------------------------------------------------------------------
class TestRunCampaign:
    def test_same_seed_same_outcome(self):
        spec = CampaignSpec.from_seed(1)
        first = run_campaign(spec)
        second = run_campaign(spec)
        assert first.ok and second.ok
        # logical state is identical (summary text differs in wall-clock
        # sched time, which fingerprints deliberately exclude)
        assert first.fingerprint == second.fingerprint

    def test_crash_recovery_equivalent_to_uninterrupted(self):
        spec = CampaignSpec.from_seed(2)
        assert spec.crash_point is not None
        crashed = run_campaign(spec)
        control = run_campaign(replace(spec, crash_point=None))
        assert crashed.ok and crashed.crashed and crashed.recovered
        assert not control.crashed
        # journal replay lands the crashed run in the identical final state
        assert crashed.fingerprint == control.fingerprint

    def test_campaigns_are_clean_under_audit(self):
        for seed in range(4):
            result = run_campaign(CampaignSpec.from_seed(seed))
            assert result.ok, result.violations
            assert result.report is not None
            assert result.report.overload_enabled


# ----------------------------------------------------------------------
# shrinking failing campaigns to minimal reproducers
# ----------------------------------------------------------------------
class TestShrinkCampaign:
    def test_requires_a_failing_campaign(self):
        with pytest.raises(SchedulerError, match="failing campaign"):
            shrink_campaign(
                CampaignSpec.from_seed(1), failing=lambda result: False
            )

    def test_greedy_shrink_reaches_fixpoint(self):
        spec = CampaignSpec.from_seed(0)
        assert spec.faults and spec.bursts  # the scenario has fat to trim

        # Synthetic failure: "any campaign with fault storms fails".  The
        # shrinker must strip everything else and keep exactly the faults.
        def failing(result):
            return result.spec.faults

        minimal, steps = shrink_campaign(spec, failing=failing, max_runs=40)
        assert minimal.faults  # the failure-carrying feature survives
        assert minimal.crash_point is None
        assert minimal.steady_jobs == 1
        assert len(minimal.bursts) <= 1
        assert all(size == 1 for _, size in minimal.bursts)
        assert "halve-steady" in steps
        assert "drop-faults" not in steps

    def test_shrink_is_deterministic(self):
        spec = CampaignSpec.from_seed(0)

        def failing(result):
            return result.spec.steady_jobs >= 1  # everything "fails"

        first = shrink_campaign(spec, failing=failing, max_runs=20)
        second = shrink_campaign(spec, failing=failing, max_runs=20)
        assert first == second


# ----------------------------------------------------------------------
# the nightly CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        rc = chaos.main(
            ["--campaigns", "1", "--seed-base", "1", "--out", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign seed=1: ok" in out
        assert "1/1 campaigns clean" in out
        assert not list(tmp_path.iterdir())  # no artifacts when clean

    def test_failure_writes_shrunken_reproducer(
        self, tmp_path, capsys, monkeypatch
    ):
        spec = CampaignSpec.from_seed(9)

        def fake_run(run_spec, workdir=None, observe=False, trace_path=None):
            return CampaignResult(
                spec=run_spec, ok=False, violations=["synthetic violation"]
            )

        monkeypatch.setattr(chaos, "run_campaign", fake_run)
        monkeypatch.setattr(
            chaos,
            "shrink_campaign",
            lambda s, max_runs=40: (replace(s, crash_point=None), ["drop-crash"]),
        )
        rc = chaos.main(
            ["--campaigns", "1", "--seed-base", "9", "--out", str(tmp_path)]
        )
        assert rc == 1
        artifact = json.loads(
            (tmp_path / "reproducer-seed9.json").read_text()
        )
        assert artifact["seed"] == 9
        assert artifact["violations"] == ["synthetic violation"]
        assert artifact["shrink_steps"] == ["drop-crash"]
        assert CampaignSpec.from_dict(artifact["spec"]) == spec
        out = capsys.readouterr().out
        assert "FAIL" in out and "reproducer written" in out
