"""Tests for drain status, moldable counts, walltime updates, callback policies."""

import pytest

from repro.errors import JobspecError, MatchError, PlannerError
from repro.grug import tiny_cluster
from repro.jobspec import (
    Jobspec,
    ResourceRequest,
    nodes_jobspec,
    parse_jobspec,
    simple_node_jobspec,
    slot,
)
from repro.match import CallbackPolicy, Traverser
from repro.planner import Planner
from repro.resource import find_by_expression


class TestDrainStatus:
    def test_drained_node_skipped(self):
        g = tiny_cluster(racks=1, nodes_per_rack=3, cores=2)
        t = Traverser(g, policy="low")
        g.mark_down(g.find(type="node")[0])
        alloc = t.allocate(nodes_jobspec(2, duration=10), at=0)
        assert sorted(n.id for n in alloc.nodes()) == [1, 2]
        assert t.allocate(nodes_jobspec(1, duration=10), at=0) is None

    def test_drained_rack_closes_subtree(self):
        g = tiny_cluster(racks=2, nodes_per_rack=2, cores=4)
        t = Traverser(g, policy="low")
        g.mark_down(g.find(type="rack")[0])
        alloc = t.allocate(simple_node_jobspec(cores=4, duration=10), at=0)
        assert g.parents(alloc.nodes()[0])[0].name == "rack1"

    def test_resume_restores(self):
        g = tiny_cluster(racks=1, nodes_per_rack=1)
        t = Traverser(g)
        node = g.find(type="node")[0]
        g.mark_down(node)
        assert t.allocate(nodes_jobspec(1, duration=10), at=0) is None
        g.mark_up(node)
        assert t.allocate(nodes_jobspec(1, duration=10), at=0) is not None

    def test_drain_leaves_running_jobs(self):
        g = tiny_cluster(racks=1, nodes_per_rack=2, cores=2)
        t = Traverser(g, policy="low")
        alloc = t.allocate(nodes_jobspec(1, duration=100), at=0)
        g.mark_down(alloc.nodes()[0])
        assert alloc.alloc_id in t.allocations  # untouched
        # Satisfiability (capacity mode) also respects drain.
        assert not t.satisfiable(nodes_jobspec(2))

    def test_status_in_expressions(self):
        g = tiny_cluster(racks=1, nodes_per_rack=3)
        g.mark_down(g.find(type="node")[1])
        down = find_by_expression(g, "status=down")
        assert [v.id for v in down] == [1]
        up_nodes = find_by_expression(g, "type=node and status=up")
        assert len(up_nodes) == 2

    def test_foreign_vertex_rejected(self):
        from repro.errors import ResourceGraphError

        g = tiny_cluster()
        other = tiny_cluster().find(type="node")[0]
        with pytest.raises(ResourceGraphError):
            g.mark_down(other)


def moldable_nodes(lo, hi, duration=100):
    return Jobspec(
        resources=(slot(1, ResourceRequest(type="node", count=lo, count_max=hi)),),
        duration=duration,
    )


class TestMoldableCounts:
    def test_takes_up_to_max(self):
        g = tiny_cluster(racks=1, nodes_per_rack=4, cores=2)
        t = Traverser(g, policy="low")
        alloc = t.allocate(moldable_nodes(2, 3), at=0)
        assert len(alloc.nodes()) == 3

    def test_settles_for_available_above_min(self):
        g = tiny_cluster(racks=1, nodes_per_rack=4, cores=2)
        t = Traverser(g, policy="low")
        t.allocate(nodes_jobspec(2, duration=100), at=0)
        alloc = t.allocate(moldable_nodes(1, 8), at=0)
        assert len(alloc.nodes()) == 2

    def test_fails_below_min(self):
        g = tiny_cluster(racks=1, nodes_per_rack=4, cores=2)
        t = Traverser(g, policy="low")
        t.allocate(nodes_jobspec(3, duration=100), at=0)
        assert t.allocate(moldable_nodes(2, 4), at=0) is None

    def test_moldable_pool_quantity(self):
        g = tiny_cluster(racks=1, nodes_per_rack=2, cores=2,
                         memory_pools=2, memory_size=16)
        t = Traverser(g, policy="low")
        js = Jobspec(
            resources=(
                slot(1, ResourceRequest(type="memory", count=8, count_max=1000)),
            ),
            duration=10,
        )
        alloc = t.allocate(js, at=0)
        assert alloc.amount_of("memory") == 64  # everything available

    def test_moldable_reservation_takes_max_later(self):
        g = tiny_cluster(racks=1, nodes_per_rack=4, cores=2)
        t = Traverser(g, policy="low")
        t.allocate(nodes_jobspec(4, duration=100), at=0)
        alloc = t.allocate_orelse_reserve(moldable_nodes(2, 4, duration=10), now=0)
        assert alloc.reserved and alloc.at == 100
        assert len(alloc.nodes()) == 4

    def test_yaml_range_count(self):
        js = parse_jobspec(
            {
                "version": 1,
                "resources": [
                    {
                        "type": "slot",
                        "count": 1,
                        "with": [
                            {"type": "node",
                             "count": {"min": 1, "max": 3, "operator": "+",
                                       "operand": 1}}
                        ],
                    }
                ],
            }
        )
        g = tiny_cluster(racks=1, nodes_per_rack=2, cores=2)
        alloc = Traverser(g, policy="low").allocate(js, at=0)
        assert len(alloc.nodes()) == 2

    def test_validation(self):
        with pytest.raises(JobspecError):
            ResourceRequest(type="node", count=3, count_max=2)
        with pytest.raises(JobspecError):
            slot_req = ResourceRequest(
                type="slot", count=1, count_max=2,
                with_=(ResourceRequest(type="node"),),
            )

    def test_moldable_under_slot_scales(self):
        g = tiny_cluster(racks=1, nodes_per_rack=4, cores=4)
        t = Traverser(g, policy="low")
        js = Jobspec(
            resources=(
                slot(2, ResourceRequest(type="core", count=1, count_max=3)),
            ),
            duration=10,
        )
        alloc = t.allocate(js, at=0)
        # 2 slots x up to 3 cores: grabs 6 cores if free.
        assert alloc.amount_of("core") == 6

    def test_roundtrip_serialization(self):
        js = moldable_nodes(2, 5)
        again = parse_jobspec(js.to_dict())
        node = again.resources[0].with_[0]
        assert (node.count, node.count_max) == (2, 5)


class TestAllocationUpdateEnd:
    def make(self):
        g = tiny_cluster(racks=1, nodes_per_rack=2, cores=2)
        return g, Traverser(g, policy="low")

    def test_extend_free_tail(self):
        g, t = self.make()
        alloc = t.allocate(nodes_jobspec(2, duration=100), at=0)
        t.update_end(alloc.alloc_id, 150)
        assert alloc.end == 150
        node = alloc.nodes()[0]
        assert node.xplans.avail_resources_at(140) == 0

    def test_extension_blocked_by_reservation(self):
        g, t = self.make()
        alloc = t.allocate(nodes_jobspec(2, duration=100), at=0)
        t.allocate_orelse_reserve(nodes_jobspec(2, duration=50), now=0)
        with pytest.raises(MatchError):
            t.update_end(alloc.alloc_id, 110)
        assert alloc.end == 100  # rolled back completely
        for v in g.vertices():
            v.plans.check_invariants()
            v.xplans.check_invariants()

    def test_truncate_releases_tail(self):
        g, t = self.make()
        alloc = t.allocate(nodes_jobspec(2, duration=100), at=0)
        t.update_end(alloc.alloc_id, 40)
        later = t.allocate(nodes_jobspec(2, duration=30), at=40)
        assert later is not None

    def test_filters_follow_update(self):
        g, t = self.make()
        alloc = t.allocate(nodes_jobspec(2, duration=100), at=0)
        t.update_end(alloc.alloc_id, 200)
        filters = g.root.prune_filters
        assert filters.planner("node").avail_resources_at(150) == 0
        assert filters.planner("node").avail_resources_at(200) == 2

    def test_unknown_allocation(self):
        from repro.errors import AllocationNotFoundError

        g, t = self.make()
        with pytest.raises(AllocationNotFoundError):
            t.update_end(99, 10)

    def test_noop_update(self):
        g, t = self.make()
        alloc = t.allocate(nodes_jobspec(1, duration=50), at=0)
        assert t.update_end(alloc.alloc_id, 50) is alloc


class TestPlannerUpdateSpanEnd:
    def test_extend_and_truncate_consistency(self):
        p = Planner(4, 0, 1000)
        sid = p.add_span(10, 10, 2)
        p.update_span_end(sid, 50)
        assert p.avail_resources_at(40) == 2
        p.update_span_end(sid, 15)
        assert p.avail_resources_at(20) == 4
        p.check_invariants()
        p.rem_span(sid)
        assert p.point_count == 1

    def test_bad_targets(self):
        p = Planner(4, 0, 100)
        sid = p.add_span(10, 10, 2)
        with pytest.raises(PlannerError):
            p.update_span_end(sid, 10)
        with pytest.raises(PlannerError):
            p.update_span_end(sid, 101)

    def test_extension_respects_other_spans(self):
        p = Planner(4, 0, 100)
        a = p.add_span(0, 10, 3)
        p.add_span(20, 10, 3)
        with pytest.raises(PlannerError):
            p.update_span_end(a, 25)
        p.update_span_end(a, 20)  # exactly adjacent is fine
        p.check_invariants()


class TestCallbackPolicy:
    def test_custom_key_ordering(self):
        g = tiny_cluster(racks=1, nodes_per_rack=4)
        policy = CallbackPolicy(
            key=lambda v, r: -v.id, name="reverse"
        )
        t = Traverser(g, policy=policy)
        alloc = t.allocate(nodes_jobspec(1, duration=10), at=0)
        assert alloc.nodes()[0].id == 3
        assert t.policy.name == "reverse"

    @pytest.mark.parametrize("key, picked", [
        # None for every vertex keeps discovery order
        (lambda v, r: None, 0),
        # None for some vertices only is refused, whichever comes first
        # (the last one used to die in sorted(), the first one to turn the
        # ranking off without a word)
        (lambda v, r: None if v.id == 3 else -v.id, MatchError),
        (lambda v, r: None if v.id == 0 else -v.id, MatchError),
    ], ids=["all-none", "last-none", "first-none"])
    def test_key_that_is_none(self, key, picked):
        g = tiny_cluster(racks=1, nodes_per_rack=4)
        t = Traverser(g, policy=CallbackPolicy(key=key, name="partial"))
        if picked is MatchError:
            with pytest.raises(MatchError, match="'partial'.* 1 of 4 'node'"):
                t.allocate(nodes_jobspec(1, duration=10), at=0)
            return
        alloc = t.allocate(nodes_jobspec(1, duration=10), at=0)
        assert alloc.nodes()[0].id == picked

    def test_custom_choose_hook(self):
        g = tiny_cluster(racks=1, nodes_per_rack=4)
        def pick_middle(feasible, needed, request):
            inner = sorted(feasible, key=lambda c: c.vertex.id)
            return inner[1 : 1 + needed] + inner[:1] + inner[1 + needed :]

        policy = CallbackPolicy(
            key=lambda v, r: v.id, choose=pick_middle, name="middle"
        )
        assert policy.needs_full_feasible
        t = Traverser(g, policy=policy)
        alloc = t.allocate(nodes_jobspec(2, duration=10), at=0)
        assert sorted(n.id for n in alloc.nodes()) == [1, 2]


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    st.integers(0, 8),   # nodes pre-occupied
    st.integers(1, 8),   # min
    st.integers(0, 8),   # extra above min
)
@settings(max_examples=50, deadline=None)
def test_property_moldable_count_takes_min_of_max_and_available(busy, lo, extra):
    """A moldable [lo, hi] node request yields exactly
    min(hi, available) nodes when available >= lo, else no match."""
    hi = lo + extra
    g = tiny_cluster(racks=2, nodes_per_rack=4, cores=1, gpus=0,
                     memory_pools=0, prune_types=("node",))
    t = Traverser(g, policy="low")
    if busy:
        blocker = t.allocate(nodes_jobspec(busy, duration=100), at=0)
        assert blocker is not None
    available = 8 - busy
    js = Jobspec(
        resources=(slot(1, ResourceRequest(type="node", count=lo,
                                           count_max=hi)),),
        duration=100,
    )
    alloc = t.allocate(js, at=0)
    if available >= lo:
        assert alloc is not None
        assert len(alloc.nodes()) == min(hi, available)
    else:
        assert alloc is None
