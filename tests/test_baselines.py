"""Tests for the §2 baselines: naive list planner and node-centric scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import Algorithm1, ListPlanner, NodeCentricScheduler
from repro.errors import PlannerError, SchedulerError, SpanNotFoundError
from repro.jobspec import nodes_jobspec, pool_jobspec, rack_spread_jobspec
from repro.planner import Planner


class TestListPlanner:
    def test_basic_profile(self):
        p = ListPlanner(8, 0, 100)
        p.add_span(0, 10, 5)
        assert p.avail_resources_at(5) == 3
        assert p.avail_resources_at(10) == 8
        assert p.avail_during(0, 10, 3)
        assert not p.avail_during(0, 10, 4)

    def test_validation_mirrors_planner(self):
        p = ListPlanner(4, 0, 10)
        with pytest.raises(PlannerError):
            p.add_span(0, 0, 1)
        with pytest.raises(PlannerError):
            p.add_span(0, 1, 5)
        with pytest.raises(PlannerError):
            p.add_span(5, 10, 1)
        with pytest.raises(SpanNotFoundError):
            p.rem_span(3)
        for request in (1, 5):  # validated before "5 can never fit"
            with pytest.raises(PlannerError, match="duration must be positive"):
                p.avail_time_first(request, 0, 0)

    def test_overcommit_rejected(self):
        p = ListPlanner(4, 0, 100)
        p.add_span(0, 50, 3)
        with pytest.raises(PlannerError):
            p.add_span(25, 50, 2)

    def test_earliest_fit(self):
        p = ListPlanner(4, 0, 1000)
        p.add_span(0, 100, 4)
        p.add_span(150, 100, 4)
        assert p.avail_time_first(4, 50, 0) == 100
        assert p.avail_time_first(4, 60, 0) == 250
        assert p.avail_time_first(5, 1, 0) is None

    @given(
        st.lists(
            st.tuples(st.integers(0, 80), st.integers(1, 30), st.integers(0, 8)),
            max_size=25,
        ),
        st.integers(1, 8),
        st.integers(1, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_list_planner_agrees_with_tree_planner(
        self, spans, request, duration
    ):
        """The naive baseline and the RB-tree Planner are observationally
        equivalent — only their complexity differs."""
        horizon = 120
        tree = Planner(8, 0, horizon)
        naive = ListPlanner(8, 0, horizon)
        for start, dur, req in spans:
            if start + dur > horizon:
                continue
            tree_ok = tree.avail_during(start, dur, req)
            naive_ok = naive.avail_during(start, dur, req)
            assert tree_ok == naive_ok
            if tree_ok:
                tree.add_span(start, dur, req)
                naive.add_span(start, dur, req)
        for probe in range(0, horizon, 7):
            assert tree.avail_resources_at(probe) == naive.avail_resources_at(probe)
        assert tree.avail_time_first(request, duration, 0) == naive.avail_time_first(
            request, duration, 0
        )


class TestAlgorithm1:
    """The paper's ET tree + AVAILAT loop over a Planner's public surface."""

    def test_earliest_fit(self):
        p = Planner(4, 0, 1000)
        p.add_span(0, 100, 4)
        p.add_span(150, 100, 4)
        reference = Algorithm1(p)
        assert reference.avail_time_first(4, 50, 0) == 100
        assert reference.avail_time_first(4, 60, 0) == 250
        assert reference.avail_time_first(4, 60, 300) == 300
        assert reference.avail_time_first(5, 1, 0) is None
        assert reference.avail_time_first(4, 751, 0) is None
        with pytest.raises(PlannerError, match="duration must be positive"):
            reference.avail_time_first(1, 0, 0)

    def test_one_point_per_span_boundary_and_the_stash_is_put_back(self):
        p = Planner(8, 0, 100)
        for start, duration, request in ((0, 1, 8), (1, 3, 3), (6, 1, 7)):  # Fig 3
            p.add_span(start, duration, request)
        reference = Algorithm1(p)
        points = sorted((pt.time, pt.remaining) for pt in reference._et)
        assert points == [(0, 0), (1, 5), (4, 8), (6, 1), (7, 8)]
        assert len(points) == p.point_count
        assert reference.avail_time_first(6, 3, 0) == 7  # [4, 6) is too short
        assert sorted((pt.time, pt.remaining) for pt in reference._et) == points
        reference._et.check_invariants()
        assert not p.indexed  # it never asks the planner an earliest-time question


class TestNodeCentricScheduler:
    def test_basic_allocate(self):
        s = NodeCentricScheduler(4, cores_per_node=8)
        alloc = s.allocate(nnodes=2, duration=100)
        assert alloc.node_ids == [0, 1]
        alloc2 = s.allocate(nnodes=2, duration=100)
        assert alloc2.node_ids == [2, 3]
        assert s.allocate(nnodes=1, duration=100) is None

    def test_high_ids_first(self):
        s = NodeCentricScheduler(4)
        alloc = s.allocate(nnodes=2, duration=10, high_ids_first=True)
        assert alloc.node_ids == [2, 3]

    def test_core_sharing_within_node(self):
        s = NodeCentricScheduler(1, cores_per_node=8)
        a = s.allocate(nnodes=1, duration=100, cores_per_node=4)
        b = s.allocate(nnodes=1, duration=100, cores_per_node=4)
        assert a and b
        assert s.allocate(nnodes=1, duration=100, cores_per_node=1) is None

    def test_reserve_at_completion(self):
        s = NodeCentricScheduler(2)
        s.allocate(nnodes=2, duration=100)
        r = s.allocate_orelse_reserve(nnodes=1, duration=50, now=0)
        assert r.reserved and r.at == 100

    def test_remove_restores(self):
        s = NodeCentricScheduler(2)
        a = s.allocate(nnodes=2, duration=100)
        s.remove(a.alloc_id)
        assert s.allocate(nnodes=2, duration=10) is not None
        with pytest.raises(SchedulerError):
            s.remove(a.alloc_id)

    def test_oversized_requests(self):
        s = NodeCentricScheduler(2, cores_per_node=4)
        assert s.allocate(nnodes=1, duration=10, cores_per_node=8) is None
        assert s.allocate_orelse_reserve(nnodes=3, duration=10) is None

    def test_needs_at_least_one_node(self):
        with pytest.raises(SchedulerError):
            NodeCentricScheduler(0)

    def test_expressibility_gap(self):
        """The flat model cannot express the paper's relationship-based
        requests — the fundamental limitation of §2."""
        assert NodeCentricScheduler.can_express(nodes_jobspec(4))
        assert not NodeCentricScheduler.can_express(
            rack_spread_jobspec(2, 2, 2, cores_per_node=4)
        )
        assert not NodeCentricScheduler.can_express(
            pool_jobspec("io_bandwidth", 128, within="pfs")
        )

    def test_agrees_with_graph_scheduler_on_whole_node_trace(self):
        """On plain whole-node jobs both models produce the same start times."""
        from repro.grug import quartz
        from repro.match import Traverser

        graph = quartz(racks=1, nodes_per_rack=8)
        tree_sched = Traverser(graph, policy="low")
        flat_sched = NodeCentricScheduler(8)
        for nnodes, duration in [(3, 100), (5, 80), (4, 50), (8, 30), (2, 200)]:
            a = tree_sched.allocate_orelse_reserve(
                nodes_jobspec(nnodes, duration=duration), now=0
            )
            b = flat_sched.allocate_orelse_reserve(nnodes, duration, now=0)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.at == b.at, (nnodes, duration)
