"""Overload protection: the bounded queue and the work budget.

The acceptance bar is TestAcceptance: a 10x submission burst on top of a
steady stream, under a fault storm, with the invariant auditor and FluxSan
active throughout, must finish with zero violations, every rejected job
accounted for in the report, the cycle deadline never overrun by more than
one checkpoint interval — and the whole run must be bit-identical when
repeated (state fingerprints equal).
"""

import json
import os

import pytest

from repro.errors import (
    SchedulerError,
    SchedulingDeadlineExceeded,
    SnapshotError,
)
from repro.grug import tiny_cluster
from repro.jobspec import simple_node_jobspec
from repro.recovery import restore_simulator, snapshot_state, state_diff
from repro.recovery.diff import state_fingerprint
from repro.recovery.snapshot import SNAPSHOT_VERSION, load_snapshot
from repro.resilience import (
    CampaignSpec,
    FaultInjector,
    FaultModel,
    InvariantAuditor,
    OverloadConfig,
    RetryPolicy,
    WorkBudget,
)
from repro.sched import ClusterSimulator
from repro.sched.job import CancelReason

#: a snapshot written by the older overload controller, which also had shed
#: and defer policies, circuit breakers and a degradation ladder: shed
#: policy, three sheds, the ladder stepped down to COARSE
OLD_SNAPSHOT = os.path.join(
    os.path.dirname(__file__), "golden", "snapshot_shed_ladder.json"
)


def overload_sim(audit=True, queue="easy", **cfg):
    return ClusterSimulator(
        tiny_cluster(),
        match_policy="first",
        queue=queue,
        audit=InvariantAuditor() if audit else False,
        overload=OverloadConfig(**cfg),
    )


# ----------------------------------------------------------------------
# configuration validation
# ----------------------------------------------------------------------
class TestConfig:
    def test_unknown_policy_rejected(self):
        """The admission policy is a setting the controller no longer has:
        a config naming one is refused, whatever the policy."""
        for policy in ("reject", "shed", "drop"):
            with pytest.raises(SchedulerError, match="admission_policy"):
                OverloadConfig.from_dict({"admission_policy": policy})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_pending", 0),
            ("cycle_budget", 0),
            ("attempt_budget", -1),
            ("checkpoint_interval", 0),
            # settings of the older controller: refused by name
            ("degrade_after", 0),
            ("breaker_window", 0),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(SchedulerError, match=field):
            OverloadConfig.from_dict({field: value})

    def test_dict_round_trip(self):
        cfg = OverloadConfig(
            max_pending=5, cycle_budget=1000, attempt_budget=100,
            checkpoint_interval=16,
        )
        assert OverloadConfig.from_dict(cfg.to_dict()) == cfg
        assert sorted(cfg.to_dict()) == [
            "attempt_budget", "checkpoint_interval", "cycle_budget",
            "max_pending",
        ]

    def test_outdated_or_malformed_dict_raises_scheduler_error(self):
        with pytest.raises(SchedulerError, match="degrade_after"):
            OverloadConfig.from_dict({"max_pending": 3, "degrade_after": 2})
        with pytest.raises(SchedulerError, match="mapping"):
            OverloadConfig.from_dict([["max_pending", 3]])
        with pytest.raises(SchedulerError, match="max_pending"):
            OverloadConfig.from_dict({"max_pending": "3"})

    def test_outdated_reproducer_raises_scheduler_error(self):
        spec = CampaignSpec.from_seed(3).to_dict()
        assert CampaignSpec.from_dict(spec) == CampaignSpec.from_seed(3)
        spec["overload"] = dict(spec["overload"], degrade_after=2)
        with pytest.raises(SchedulerError, match="degrade_after"):
            CampaignSpec.from_dict(spec)


# ----------------------------------------------------------------------
# work budgets (deterministic scheduling deadlines)
# ----------------------------------------------------------------------
class TestWorkBudget:
    def test_under_budget_never_raises(self):
        budget = WorkBudget(cycle_limit=100, checkpoint_interval=10)
        for _ in range(100):
            budget.charge(1)
        assert budget.cycle_spent == 100
        assert not budget.cycle_deadline_hit

    def test_cycle_deadline_scope_and_bounded_overrun(self):
        budget = WorkBudget(cycle_limit=50, checkpoint_interval=8)
        with pytest.raises(SchedulingDeadlineExceeded) as info:
            for _ in range(1000):
                budget.charge(1)
        assert info.value.scope == "cycle"
        # cooperative cancellation: overrun bounded by one checkpoint interval
        assert 0 < budget.cycle_spent - 50 <= 8
        assert budget.max_cycle_overrun <= 8
        assert budget.cycle_deadline_hit

    def test_attempt_deadline_scope(self):
        budget = WorkBudget(attempt_limit=20, checkpoint_interval=4)
        budget.begin_attempt()
        with pytest.raises(SchedulingDeadlineExceeded) as info:
            for _ in range(100):
                budget.charge(1)
        assert info.value.scope == "attempt"
        budget.finish()
        assert budget.attempts == 1
        assert budget.deadline_attempts == 1

    def test_cycle_scope_wins_when_both_exceeded(self):
        budget = WorkBudget(
            cycle_limit=10, attempt_limit=10, checkpoint_interval=4
        )
        budget.begin_attempt()
        with pytest.raises(SchedulingDeadlineExceeded) as info:
            for _ in range(100):
                budget.charge(1)
        assert info.value.scope == "cycle"

    def test_attempt_spend_resets_between_attempts(self):
        budget = WorkBudget(attempt_limit=20, checkpoint_interval=4)
        for _ in range(3):
            budget.begin_attempt()
            budget.charge(16)  # under the limit each time
        budget.finish()
        assert budget.attempts == 3
        assert budget.deadline_attempts == 0


# ----------------------------------------------------------------------
# the queue bound through the simulator
# ----------------------------------------------------------------------
class TestAdmission:
    def test_reject_over_bound(self):
        sim = overload_sim(max_pending=2)
        # 4-core nodes: these each occupy a full node; 8 jobs >> 4 nodes
        for _ in range(8):
            sim.submit(simple_node_jobspec(cores=4, duration=500), at=10)
        report = sim.run()
        assert report.overload_enabled
        assert report.overload_rejected > 0
        rejected = report.admission_rejected
        assert len(rejected) == report.overload_rejected
        assert all(
            j.cancel_reason is CancelReason.ADMISSION for j in rejected
        )
        assert "overload:" in report.summary()

    def test_no_bound_admits_everything(self):
        sim = overload_sim(max_pending=None)
        for _ in range(6):
            sim.submit(simple_node_jobspec(cores=2, duration=100), at=5)
        report = sim.run()
        assert report.overload_rejected == 0
        assert len(report.completed) == 6


# ----------------------------------------------------------------------
# deadlines through the simulator
# ----------------------------------------------------------------------
class TestDeadlinesAndLadder:
    def test_tight_cycle_budget_cuts_cycles_with_bounded_overrun(self):
        # The budget is counted in vertex visits.  It was 8 while a walk
        # looking for cores also visited every childless gpu and memory
        # vertex; the walk skips those now, and a match fits in 8.
        sim = overload_sim(
            cycle_budget=6, checkpoint_interval=4, queue="fcfs"
        )
        for i in range(12):
            sim.submit(simple_node_jobspec(cores=2, duration=300), at=i * 7)
        report = sim.run()
        assert report.deadline_cycles > 0
        # the acceptance bound: never overrun by more than one interval
        assert report.max_cycle_overrun <= 4

    def test_attempt_budget_registers_deadline_attempts(self):
        sim = overload_sim(attempt_budget=2, checkpoint_interval=1)
        for i in range(6):
            sim.submit(simple_node_jobspec(cores=2, duration=200), at=i * 5)
        report = sim.run()
        assert report.deadline_attempts > 0


# ----------------------------------------------------------------------
# snapshot round-trip of controller state
# ----------------------------------------------------------------------
class TestOverloadSnapshot:
    def test_mid_run_round_trip_preserves_overload_state(self):
        sim = overload_sim(
            max_pending=2,
            cycle_budget=30,
            checkpoint_interval=8,
        )
        for i in range(10):
            sim.submit(simple_node_jobspec(cores=4, duration=300), at=i * 5)
        for _ in range(25):
            if sim.step() is None:
                break
        assert sim.overload.counters["rejected"] > 0
        restored = restore_simulator(snapshot_state(sim))
        assert state_diff(sim, restored) == []
        assert restored.overload.export_state() == sim.overload.export_state()
        # both continue identically to completion
        sim.run()
        restored.run()
        assert state_diff(sim, restored) == []

    def test_snapshot_of_the_replaced_controller_is_refused(self):
        doc = load_snapshot(OLD_SNAPSHOT)
        assert doc["overload"]["state"]["level"] == "COARSE"
        with pytest.raises(SnapshotError, match="version 1"):
            restore_simulator(doc)
        # under the current booking rule, the overload section alone
        doc["version"] = SNAPSHOT_VERSION
        with pytest.raises(SnapshotError, match="admission_policy") as info:
            restore_simulator(doc)
        assert "'overload'" in str(info.value)

    def test_state_keys_of_the_replaced_controller_are_refused(self):
        sim = overload_sim(max_pending=2)
        doc = json.loads(json.dumps(snapshot_state(sim)))
        for key in ("level", "breakers", "deferred", "consecutive_bad"):
            stale = json.loads(json.dumps(doc))
            stale["overload"]["state"][key] = 0
            with pytest.raises(SnapshotError, match=key):
                restore_simulator(stale)
        stale = json.loads(json.dumps(doc))
        stale["overload"]["state"]["counters"]["shed"] = 1
        with pytest.raises(SnapshotError, match="shed"):
            restore_simulator(stale)
        del doc["overload"]["state"]
        with pytest.raises(SnapshotError, match="'overload'"):
            restore_simulator(doc)


# ----------------------------------------------------------------------
# acceptance: 10x burst + fault storm, audited + sanitized + accounted
# ----------------------------------------------------------------------
def burst_workload(sim):
    """A steady stream (1 job / 100 ticks) plus a 10x burst at t=500."""
    for i in range(10):
        sim.submit(
            simple_node_jobspec(cores=2, duration=400),
            at=i * 100,
            priority=i % 3,
        )
    for i in range(30):  # 10x the steady rate, all in three ticks
        sim.submit(
            simple_node_jobspec(
                cores=2 + (i % 3), nodes=1 + (i % 2), duration=300
            ),
            at=500 + (i % 3),
            priority=i % 5,
        )


def acceptance_sim():
    sim = ClusterSimulator(
        tiny_cluster(),
        match_policy="first",
        queue="easy",
        retry_policy=RetryPolicy(max_retries=2, seed=7),
        audit=InvariantAuditor(),
        sanitize=True,
        overload=OverloadConfig(
            max_pending=4,
            cycle_budget=600,
            attempt_budget=200,
            checkpoint_interval=32,
        ),
    )
    burst_workload(sim)
    FaultInjector(
        {"node": FaultModel(mtbf=900, mttr=150)}, horizon=2500, seed=7
    ).install(sim)
    return sim


class TestAcceptance:
    def test_burst_under_fault_storm_stays_consistent(self):
        sim = acceptance_sim()
        try:
            report = sim.run()  # auditor + FluxSan raise on any violation
            InvariantAuditor(deep=True).check(sim)
        finally:
            sim.fluxsan.deactivate()

        # every job is accounted for: terminal or still active
        originals = [j for j in report.jobs if not j.attempt]
        assert len(originals) == 40  # retries add failure resubmissions
        assert not [j for j in report.jobs if j.is_active]

        # overload accounting reconciles with per-job cancel reasons
        assert report.overload_rejected == len(report.admission_rejected)
        assert report.overload_rejected > 0  # the burst went over the bound

        # the cycle deadline was never overrun by more than one interval
        assert report.max_cycle_overrun <= 32

        # and the summary surfaces it
        summary = report.summary()
        assert "overload:" in summary and "rejected" in summary

    def test_campaign_is_deterministic(self):
        fingerprints = []
        for _ in range(2):
            sim = acceptance_sim()
            try:
                sim.run()
            finally:
                sim.fluxsan.deactivate()
            fingerprints.append(state_fingerprint(sim))
        assert fingerprints[0] == fingerprints[1]
