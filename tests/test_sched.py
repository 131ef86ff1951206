"""Tests for the scheduling framework: jobs, queues, simulator."""

import pytest

from repro.errors import JobError, SchedulerError
from repro.grug import tiny_cluster
from repro.jobspec import nodes_jobspec, simple_node_jobspec
from repro.sched import ClusterSimulator, Job, JobState, make_queue_policy


def four_node_cluster():
    return tiny_cluster(racks=1, nodes_per_rack=4, cores=4)


def assert_graph_clean(graph):
    for v in graph.vertices():
        assert v.plans.span_count == 0, v
        assert v.xplans.span_count == 0, v


class TestJobLifecycle:
    def test_legal_transitions(self):
        job = Job(1, nodes_jobspec(1))
        job.transition(JobState.RESERVED)
        job.transition(JobState.RUNNING)
        job.transition(JobState.COMPLETED)
        assert not job.is_active

    def test_illegal_transition_rejected(self):
        job = Job(1, nodes_jobspec(1))
        with pytest.raises(JobError):
            job.transition(JobState.COMPLETED)

    def test_wait_time(self):
        job = Job(1, nodes_jobspec(1), submit_time=10)
        assert job.wait_time is None


class TestConservativeSimulation:
    def test_sequential_batches(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, match_policy="low", queue="conservative")
        for _ in range(6):
            sim.submit(nodes_jobspec(2, duration=100), at=0)
        report = sim.run()
        assert sorted(j.start_time for j in report.jobs) == [0, 0, 100, 100, 200, 200]
        assert len(report.completed) == 6
        assert report.makespan == 300
        assert_graph_clean(g)

    def test_immediate_starts_counted(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="conservative")
        for _ in range(3):
            sim.submit(nodes_jobspec(2, duration=100), at=0)
        report = sim.run()
        assert report.immediate_starts() == 2

    def test_unsatisfiable_job_canceled(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g)
        job = sim.submit(nodes_jobspec(9, duration=10), at=0)
        report = sim.run()
        assert job.state is JobState.CANCELED
        assert report.unsatisfiable == [job]

    def test_arrivals_over_time(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="conservative")
        sim.submit(nodes_jobspec(4, duration=100), at=0)
        late = sim.submit(nodes_jobspec(4, duration=50), at=30)
        report = sim.run()
        assert late.start_time == 100
        assert late.wait_time == 70
        assert report.makespan == 150

    def test_submit_in_past_rejected(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g)
        sim.submit(nodes_jobspec(1, duration=10), at=50)
        sim.run()
        with pytest.raises(SchedulerError):
            sim.submit(nodes_jobspec(1, duration=5), at=0)

    def test_shared_core_jobs_pack(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, match_policy="low")
        for _ in range(4):
            sim.submit(simple_node_jobspec(cores=2, duration=100), at=0)
        report = sim.run()
        assert all(j.start_time == 0 for j in report.jobs)
        assert report.makespan == 100

    def test_cancel_pending_and_running(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g)
        running = sim.submit(nodes_jobspec(4, duration=100), at=0)
        queued = sim.submit(nodes_jobspec(4, duration=100), at=0)
        sim.step()  # submit event 1 -> running
        sim.step()  # submit event 2 -> reserved
        assert running.state is JobState.RUNNING
        assert queued.state is JobState.RESERVED
        sim.cancel(queued)
        assert queued.state is JobState.CANCELED
        sim.cancel(running)
        assert_graph_clean(g)
        with pytest.raises(SchedulerError):
            sim.cancel(running)


class TestQueuePolicyBehavior:
    def submit_trio(self, queue):
        """Job1 takes 3/4 nodes for 100; job2 wants all 4; job3 wants 1 for 50."""
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue=queue)
        j1 = sim.submit(nodes_jobspec(3, duration=100), at=0)
        j2 = sim.submit(nodes_jobspec(4, duration=100), at=0)
        j3 = sim.submit(nodes_jobspec(1, duration=50), at=0)
        report = sim.run()
        assert_graph_clean(g)
        return j1, j2, j3, report

    def test_fcfs_no_backfill(self):
        j1, j2, j3, report = self.submit_trio("fcfs")
        assert j1.start_time == 0
        assert j2.start_time == 100
        assert j3.start_time == 200  # waits behind j2 even though a node is free

    def test_easy_backfills_short_job(self):
        j1, j2, j3, report = self.submit_trio("easy")
        assert (j1.start_time, j2.start_time, j3.start_time) == (0, 100, 0)

    def test_conservative_backfills_short_job(self):
        j1, j2, j3, report = self.submit_trio("conservative")
        assert (j1.start_time, j2.start_time, j3.start_time) == (0, 100, 0)

    def test_easy_reservation_not_delayed_by_backfill(self):
        """A long backfill candidate must not postpone the head reservation."""
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="easy")
        j1 = sim.submit(nodes_jobspec(3, duration=100), at=0)
        j2 = sim.submit(nodes_jobspec(4, duration=100), at=0)  # reserved at 100
        j3 = sim.submit(nodes_jobspec(1, duration=500), at=0)  # would delay j2
        report = sim.run()
        assert j2.start_time == 100
        assert j3.start_time >= 200

    def test_easy_reservation_pulled_earlier_on_completion(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="easy")
        j1 = sim.submit(nodes_jobspec(2, duration=100), at=0)
        j2 = sim.submit(nodes_jobspec(2, duration=300), at=0)
        j3 = sim.submit(nodes_jobspec(4, duration=50), at=0)  # head-blocked
        report = sim.run()
        # j3 needs all nodes: reserved at 300 initially; j1's completion at
        # 100 cannot help (j2 still runs), so start stays 300.
        assert j3.start_time == 300
        assert len(report.completed) == 3

    def test_unknown_queue_policy(self):
        with pytest.raises(SchedulerError):
            make_queue_policy("mystery")

    def test_policy_names(self):
        for name in ("fcfs", "easy", "conservative"):
            assert make_queue_policy(name).name == name


class TestPriorities:
    def test_priority_orders_same_instant_batch(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="fcfs")
        a = sim.submit(nodes_jobspec(4, duration=100), at=0)
        b = sim.submit(nodes_jobspec(4, duration=100), at=0)
        c = sim.submit(nodes_jobspec(4, duration=100), at=0, priority=5)
        sim.run()
        assert (c.start_time, a.start_time, b.start_time) == (0, 100, 200)

    def test_priority_jumps_existing_queue(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="fcfs")
        running = sim.submit(nodes_jobspec(4, duration=100), at=0)
        waiting = sim.submit(nodes_jobspec(4, duration=100), at=0)
        urgent = sim.submit(nodes_jobspec(4, duration=50), at=10, priority=9)
        sim.run()
        assert running.start_time == 0
        assert urgent.start_time == 100
        assert waiting.start_time == 150

    def test_conservative_respects_priority_reservation_order(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="conservative")
        filler = sim.submit(nodes_jobspec(4, duration=100), at=0)
        low = sim.submit(nodes_jobspec(4, duration=100), at=0, priority=1)
        high = sim.submit(nodes_jobspec(4, duration=100), at=0, priority=2)
        sim.run()
        # Same-instant batch: priority decides who allocates "now" and the
        # reservation order behind it.
        assert high.start_time == 0
        assert low.start_time == 100
        assert filler.start_time == 200

    def test_default_priority_is_fifo(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="fcfs")
        jobs = [sim.submit(nodes_jobspec(4, duration=10), at=0) for _ in range(3)]
        sim.run()
        assert [j.start_time for j in jobs] == [0, 10, 20]


class TestSchedTimeAccounting:
    def test_sched_time_recorded(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="conservative")
        for _ in range(4):
            sim.submit(nodes_jobspec(2, duration=100), at=0)
        report = sim.run()
        assert all(j.sched_time > 0 for j in report.jobs)
        assert report.total_sched_time >= max(j.sched_time for j in report.jobs)

    def test_report_summary_format(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g)
        sim.submit(nodes_jobspec(1, duration=10), at=0)
        report = sim.run()
        text = report.summary()
        assert "1/1 jobs completed" in text
        assert "makespan=10" in text


class TestQueueDepth:
    def test_depth_limits_reservations(self):
        from repro.sched import ConservativeBackfill

        g = four_node_cluster()
        sim = ClusterSimulator(g, queue=ConservativeBackfill(depth=1))
        blocker = sim.submit(nodes_jobspec(4, duration=100), at=0)
        first = sim.submit(nodes_jobspec(4, duration=100), at=0)
        second = sim.submit(nodes_jobspec(4, duration=100), at=0)
        sim.step(); sim.step(); sim.step()  # all submissions at t=0
        assert first.state is JobState.RESERVED
        assert second.state is JobState.PENDING  # depth=1 blocks its reservation
        report = sim.run()
        assert len(report.completed) == 3  # still completes once capacity frees

    def test_unlimited_depth_reserves_all(self):
        from repro.sched import ConservativeBackfill

        g = four_node_cluster()
        sim = ClusterSimulator(g, queue=ConservativeBackfill())
        jobs = [sim.submit(nodes_jobspec(4, duration=10), at=0) for _ in range(4)]
        sim.step(); sim.step(); sim.step(); sim.step()
        states = [j.state for j in jobs]
        assert states.count(JobState.RESERVED) == 3

    def test_bad_depth(self):
        from repro.sched import ConservativeBackfill

        with pytest.raises(SchedulerError):
            ConservativeBackfill(depth=0)


class TestEventLog:
    def test_chronological_lifecycle(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="conservative")
        a = sim.submit(nodes_jobspec(4, duration=100), at=0)
        b = sim.submit(nodes_jobspec(4, duration=50), at=0)
        sim.run()
        events = [(t, kind, jid) for t, kind, jid in sim.event_log]
        assert (0, "submit", a.job_id) in events
        assert (0, "start", a.job_id) in events
        assert (100, "end", a.job_id) in events
        assert (100, "start", b.job_id) in events
        assert (150, "end", b.job_id) in events
        times = [t for t, *_ in events]
        assert times == sorted(times)

    def test_cancel_recorded(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g)
        job = sim.submit(nodes_jobspec(1, duration=100), at=0)
        sim.step()
        sim.cancel(job)
        assert (0, "cancel", job.job_id) in sim.event_log


@pytest.mark.parametrize("queue", ["easy", "conservative"])
def test_only_root_filters_are_asked_earliest_time_questions(queue):
    """Paper §3.4/§4.1: the traverser asks EarliestAt of the root's pruning
    filter alone, so after a backlogged run no other planner has indexed its
    tree.  A change that starts asking per-vertex planners shows up here."""
    g = tiny_cluster(racks=2, nodes_per_rack=4, cores=4)
    sim = ClusterSimulator(g, match_policy="first", queue=queue)
    for i in range(24):
        sim.submit(nodes_jobspec(1 + i % 5, duration=100 + 37 * (i % 4)), at=i * 10)
    report = sim.run()
    assert len(report.completed) == 24
    root_filters = [r.prune_filters for r in g.roots()]
    allowed = {id(f.planner(t)) for f in root_filters for t in f.types}
    holders = set()
    for v in g.vertices():
        planners = [v.plans, v.xplans]
        if v.prune_filters is not None:
            planners += [v.prune_filters.planner(t) for t in v.prune_filters.types]
        holders.update(id(p) for p in planners if p.indexed)
    assert holders and holders <= allowed
