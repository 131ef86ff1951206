"""Overload protection: admission control, deadlines, breakers, ladder.

The acceptance bar is TestAcceptance: a 10x submission burst on top of a
steady stream, under a fault storm, with the invariant auditor and FluxSan
active throughout, must finish with zero violations, every rejected / shed
/ deferred / degraded job accounted for in the report, the cycle deadline
never overrun by more than one checkpoint interval — and the whole run must
be bit-identical when repeated (state fingerprints equal).
"""

import pytest

from repro.errors import (
    AdmissionRejected,
    SchedulerError,
    SchedulingDeadlineExceeded,
)
from repro.grug import tiny_cluster
from repro.jobspec import Jobspec, simple_node_jobspec
from repro.jobspec.build import (
    ResourceRequest,
    pool_jobspec,
    rack_spread_jobspec,
    slot,
)
from repro.recovery import restore_simulator, snapshot_state, state_diff
from repro.recovery.diff import state_fingerprint
from repro.resilience import (
    CircuitBreaker,
    DegradeLevel,
    FaultInjector,
    FaultModel,
    InvariantAuditor,
    OverloadConfig,
    OverloadController,
    RetryPolicy,
    WorkBudget,
    coarsen_jobspec,
)
from repro.sched import ClusterSimulator
from repro.sched.job import CancelReason, JobState


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
        with pytest.raises(SchedulerError, match="unknown admission policy"):
            OverloadConfig(admission_policy="drop")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_pending", 0),
            ("cycle_budget", 0),
            ("attempt_budget", -1),
            ("checkpoint_interval", 0),
            ("degrade_after", 0),
            ("breaker_window", 0),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(SchedulerError, match=field):
            OverloadConfig(**{field: value})

    def test_dict_round_trip(self):
        cfg = OverloadConfig(
            max_pending=5, admission_policy="shed", cycle_budget=1000,
            attempt_budget=100, latency_threshold=80,
        )
        assert OverloadConfig.from_dict(cfg.to_dict()) == cfg


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

    def test_slow_attempts_counted(self):
        budget = WorkBudget(
            attempt_limit=100, checkpoint_interval=200, latency_threshold=10
        )
        budget.begin_attempt()
        budget.charge(50)  # within budget, over the latency threshold
        budget.begin_attempt()
        budget.charge(5)
        budget.finish()
        assert budget.attempts == 2
        assert budget.slow_attempts == 1


# ----------------------------------------------------------------------
# circuit breakers (cycle-count clock, no wall time)
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_threshold_failures(self):
        breaker = CircuitBreaker("b", window=4, failure_threshold=2)
        breaker.record(True, 1)
        breaker.record(False, 2)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record(False, 3)
        assert breaker.is_open
        assert breaker.trips == 1

    def test_cooldown_half_open_probe_closes(self):
        breaker = CircuitBreaker(
            "b", window=4, failure_threshold=1, cooldown=3, probes=2
        )
        breaker.record(False, 1)
        assert breaker.is_open
        breaker.tick(2)
        assert breaker.is_open  # still cooling down
        breaker.tick(4)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record(True, 4)
        assert breaker.state == CircuitBreaker.HALF_OPEN  # needs 2 probes
        breaker.record(True, 5)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(
            "b", window=4, failure_threshold=1, cooldown=2, probes=1
        )
        breaker.record(False, 1)
        breaker.tick(3)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record(False, 3)
        assert breaker.is_open
        assert breaker.trips == 2

    def test_state_round_trips(self):
        breaker = CircuitBreaker("b", window=4, failure_threshold=3)
        breaker.record(False, 1)
        breaker.record(True, 2)
        clone = CircuitBreaker("b", window=4, failure_threshold=3)
        clone.import_state(breaker.export_state())
        assert clone.export_state() == breaker.export_state()
        # one more failure in each must behave identically
        breaker.record(False, 3)
        clone.record(False, 3)
        assert clone.state == breaker.state


# ----------------------------------------------------------------------
# jobspec coarsening (degraded-match request rewriting)
# ----------------------------------------------------------------------
class TestCoarsenJobspec:
    def test_node_local_request_coarsens_to_whole_nodes(self):
        coarse = coarsen_jobspec(
            simple_node_jobspec(cores=4, gpus=1, nodes=2, duration=600)
        )
        assert coarse is not None
        assert coarse.totals()["node"] == 2
        assert coarse.duration == 600
        # whole-node exclusive shape: nothing below the node level remains
        assert {r.type for r in coarse.walk()} <= {"slot", "node"}
        node = next(r for r in coarse.walk() if r.type == "node")
        assert node.exclusive is True

    def test_rack_constraint_not_expressible(self):
        jobspec = rack_spread_jobspec(
            racks=2, slots_per_rack=1, nodes_per_slot=1, cores_per_node=2
        )
        assert coarsen_jobspec(jobspec) is None

    def test_no_node_total_not_expressible(self):
        jobspec = pool_jobspec("memory", 8)
        assert coarsen_jobspec(jobspec) is None

    def test_property_predicate_not_expressible(self):
        node = ResourceRequest(
            type="node",
            requires="vendor=amd",
            with_=(slot(1, ResourceRequest(type="core", count=2)),),
        )
        assert coarsen_jobspec(Jobspec(resources=(node,))) is None


# ----------------------------------------------------------------------
# admission control through the simulator
# ----------------------------------------------------------------------
class TestAdmission:
    def test_reject_over_bound(self):
        sim = overload_sim(max_pending=2, admission_policy="reject")
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

    def test_shed_evicts_lowest_priority(self):
        sim = overload_sim(max_pending=1, admission_policy="shed")
        for i in range(8):
            sim.submit(
                simple_node_jobspec(cores=4, duration=500),
                at=10,
                priority=i,  # ascending: every wave outranks the queue
            )
        report = sim.run()
        shed = report.admission_shed
        assert report.overload_shed == len(shed) > 0
        assert all(j.cancel_reason is CancelReason.SHED for j in shed)
        # the highest-priority submission must never be the victim
        assert max(j.priority for j in report.jobs) not in {
            j.priority for j in shed
        }

    def test_shed_new_job_when_nothing_outranked(self):
        sim = overload_sim(max_pending=1, admission_policy="shed")
        for i in range(8):
            sim.submit(
                simple_node_jobspec(cores=4, duration=500),
                at=10,
                priority=8 - i,  # descending: the new job is the weakest
            )
        report = sim.run()
        shed = report.admission_shed
        assert report.overload_shed == len(shed) > 0
        # descending priorities: an arriving job never outranks the queue,
        # so pressure sheds the newcomer itself, never an already-queued
        # higher-priority job — the strongest submission always survives
        strongest = max(report.jobs, key=lambda j: j.priority)
        assert strongest.cancel_reason is not CancelReason.SHED
        assert min(j.priority for j in shed) <= min(
            j.priority for j in report.completed
        )

    def test_defer_parks_then_promotes(self):
        sim = overload_sim(max_pending=2, admission_policy="defer")
        for _ in range(8):
            sim.submit(simple_node_jobspec(cores=4, duration=100), at=10)
        report = sim.run()
        assert report.overload_deferred > 0
        assert report.overload_promoted == report.overload_deferred
        assert report.overload_still_deferred == 0
        # nothing is lost under defer: every job eventually runs
        assert len(report.completed) == 8
        assert "resumed" in report.summary()

    def test_check_admission_raises_for_service_callers(self):
        sim = overload_sim(max_pending=1, admission_policy="reject")
        for _ in range(4):
            sim.submit(simple_node_jobspec(cores=4, duration=500), at=10)
        while sim.step():
            if sim.now >= 10:
                break
        with pytest.raises(AdmissionRejected) as info:
            sim.overload.check_admission()
        assert info.value.policy == "reject"
        assert info.value.depth >= 1

    def test_no_bound_admits_everything(self):
        sim = overload_sim(max_pending=None)
        for _ in range(6):
            sim.submit(simple_node_jobspec(cores=2, duration=100), at=5)
        report = sim.run()
        assert report.overload_rejected == 0
        assert report.overload_shed == 0
        assert len(report.completed) == 6


# ----------------------------------------------------------------------
# deadlines + degradation ladder through the simulator
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

    def test_sustained_pressure_degrades_and_recovers(self):
        sim = overload_sim(
            cycle_budget=6,
            checkpoint_interval=2,
            degrade_after=1,
            recover_after=2,
        )
        for i in range(10):
            sim.submit(simple_node_jobspec(cores=2, duration=120), at=i * 3)
        report = sim.run()
        transitions = [
            entry for entry in sim.event_log if entry[1] == "overload"
        ]
        assert transitions, "ladder never moved under sustained pressure"
        assert any("full->coarse" in t[2] for t in transitions)
        # pressure ends with the workload: the ladder must have stepped back
        assert sim.overload.level is DegradeLevel.FULL
        assert report.overload_level == "FULL"

    def test_degraded_matches_are_whole_node_and_flagged(self):
        sim = overload_sim(
            cycle_budget=6,
            checkpoint_interval=2,
            degrade_after=1,
            recover_after=50,  # stay degraded for the whole run
        )
        for i in range(10):
            sim.submit(simple_node_jobspec(cores=2, duration=120), at=i * 3)
        report = sim.run()
        degraded = report.degraded
        assert degraded, "no job was matched on the degraded path"
        assert report.degraded_matches >= len(degraded)
        for job in degraded:
            assert job.degraded in ("COARSE", "NODECENTRIC")
        InvariantAuditor(deep=True).check(sim)

    def test_open_queue_breaker_floors_the_ladder(self):
        sim = overload_sim(cycle_budget=1000)
        controller = sim.overload
        assert controller.effective_level() is DegradeLevel.FULL
        controller._queue_breaker._trip(1)
        assert controller.effective_level() is DegradeLevel.COARSE
        controller._match_breaker._trip(1)
        assert controller.effective_level() is DegradeLevel.NODECENTRIC

    def test_breaker_trips_surface_in_report(self):
        sim = overload_sim(
            cycle_budget=5,
            checkpoint_interval=2,
            breaker_window=4,
            breaker_failure_threshold=2,
            breaker_cooldown=2,
        )
        for i in range(14):
            sim.submit(simple_node_jobspec(cores=2, duration=200), at=i * 4)
        report = sim.run()
        assert report.breaker_trips > 0
        assert "breaker trips" in report.summary()


# ----------------------------------------------------------------------
# snapshot round-trip of controller state
# ----------------------------------------------------------------------
class TestOverloadSnapshot:
    def test_mid_run_round_trip_preserves_overload_state(self):
        sim = overload_sim(
            max_pending=2,
            admission_policy="defer",
            cycle_budget=30,
            checkpoint_interval=8,
            degrade_after=1,
        )
        for i in range(10):
            sim.submit(simple_node_jobspec(cores=4, duration=300), at=i * 5)
        for _ in range(25):
            if not sim.step():
                break
        restored = restore_simulator(snapshot_state(sim))
        assert state_diff(sim, restored) == []
        assert restored.overload.export_state() == sim.overload.export_state()
        # both continue identically to completion
        sim.run()
        restored.run()
        assert state_diff(sim, restored) == []


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
            admission_policy="shed",
            cycle_budget=600,
            attempt_budget=200,
            checkpoint_interval=32,
            degrade_after=2,
            recover_after=3,
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

        # every job is accounted for: terminal, still active, or parked
        total = len(report.jobs)
        originals = [j for j in report.jobs if not j.attempt]
        assert len(originals) == 40  # retries add failure resubmissions
        terminal = [j for j in report.jobs if not j.is_active]
        parked = report.overload_still_deferred
        assert len(terminal) + parked + len(
            [j for j in report.jobs if j.is_active]
        ) == total

        # overload accounting reconciles with per-job cancel reasons
        assert report.overload_rejected == len(report.admission_rejected)
        assert report.overload_shed == len(report.admission_shed)
        assert report.overload_shed > 0  # the burst actually shed work
        assert report.degraded_matches >= len(report.degraded)

        # the cycle deadline was never overrun by more than one interval
        assert report.max_cycle_overrun <= 32

        # and the summary surfaces all of it
        summary = report.summary()
        assert "overload:" in summary
        assert "shed" in summary and "degraded" in summary

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
