"""Tests for the DFU traverser: matching, exclusivity, pruning, SDFU."""

import pytest

from repro.errors import AllocationNotFoundError
from repro.jobspec import (
    ResourceRequest,
    from_counts,
    nodes_jobspec,
    parse_jobspec,
    pool_jobspec,
    rack_spread_jobspec,
    simple_node_jobspec,
    slot,
)
from repro.jobspec import Jobspec
from repro.match import Traverser
from repro.resource import ResourceGraph


def build_cluster(
    nracks=2,
    nodes_per_rack=3,
    cores=8,
    gpus=2,
    mem_pools=4,
    mem_size=16,
    horizon=100_000,
    filters=("core", "node", "memory", "gpu"),
):
    g = ResourceGraph(0, horizon)
    cluster = g.add_vertex("cluster")
    for _ in range(nracks):
        rack = g.add_vertex("rack")
        g.add_edge(cluster, rack)
        for _ in range(nodes_per_rack):
            node = g.add_vertex("node")
            g.add_edge(rack, node)
            for _ in range(cores):
                g.add_edge(node, g.add_vertex("core"))
            for _ in range(gpus):
                g.add_edge(node, g.add_vertex("gpu"))
            for _ in range(mem_pools):
                g.add_edge(node, g.add_vertex("memory", size=mem_size))
    if filters:
        g.install_pruning_filters(list(filters), at_types=["rack", "node"])
    return g


def assert_pristine(graph):
    """Every planner and filter in the graph is back to its initial state."""
    for v in graph.vertices():
        assert v.plans.span_count == 0, v
        assert v.xplans.span_count == 0, v
        if v.prune_filters is not None:
            assert v.prune_filters.span_count == 0, v
            v.prune_filters.check_invariants()


class TestBasicAllocate:
    def test_core_level_allocation(self):
        g = build_cluster()
        t = Traverser(g, policy="low")
        alloc = t.allocate(simple_node_jobspec(cores=4, duration=100), at=0)
        assert alloc is not None
        assert alloc.amount_of("core") == 4
        assert len(alloc.vertices_of_type("core")) == 4
        assert len(alloc.nodes()) == 1

    def test_allocation_books_planners(self):
        g = build_cluster()
        t = Traverser(g, policy="low")
        alloc = t.allocate(simple_node_jobspec(cores=4, duration=100), at=0)
        for core in alloc.vertices_of_type("core"):
            # an exclusive hold is booked in xplans alone: read the effective
            # view, where it uses the whole pool
            assert core.avail_resources_at(50) == 0
            assert core.avail_resources_at(100) == 1
            assert core.plans.span_count == 0 and core.xplans.span_count == 1

    def test_unsatisfiable_count_returns_none(self):
        g = build_cluster(cores=4)
        t = Traverser(g)
        assert t.allocate(simple_node_jobspec(cores=5, duration=10), at=0) is None

    def test_unknown_type_returns_none(self):
        g = build_cluster()
        t = Traverser(g)
        assert t.allocate(from_counts({"fpga": 1}), at=0) is None

    def test_memory_aggregates_across_pools(self):
        g = build_cluster(mem_pools=4, mem_size=16)
        t = Traverser(g, policy="low")
        alloc = t.allocate(simple_node_jobspec(cores=1, memory=40, duration=10), at=0)
        assert alloc.amount_of("memory") == 40
        mem_selections = [
            s for s in alloc.resources() if s.type == "memory"
        ]
        assert len(mem_selections) == 3  # 16 + 16 + 8
        assert sorted(s.amount for s in mem_selections) == [8, 16, 16]

    def test_fills_node_then_moves_on(self):
        g = build_cluster(nracks=1, nodes_per_rack=2, cores=8)
        t = Traverser(g, policy="low")
        first = t.allocate(simple_node_jobspec(cores=8, duration=10), at=0)
        second = t.allocate(simple_node_jobspec(cores=8, duration=10), at=0)
        assert first.nodes()[0] is not second.nodes()[0]
        assert t.allocate(simple_node_jobspec(cores=1, duration=10), at=0) is None

    def test_allocate_at_future_time(self):
        g = build_cluster()
        t = Traverser(g)
        alloc = t.allocate(simple_node_jobspec(cores=2, duration=10), at=500)
        assert alloc.at == 500 and not alloc.reserved

    def test_beyond_horizon_fails(self):
        g = build_cluster(horizon=100)
        t = Traverser(g)
        assert t.allocate(simple_node_jobspec(cores=1, duration=200), at=0) is None
        assert t.allocate(simple_node_jobspec(cores=1, duration=50), at=80) is None


class TestExclusivity:
    def test_exclusive_node_blocks_everything(self):
        g = build_cluster(nracks=1, nodes_per_rack=1)
        t = Traverser(g)
        assert t.allocate(nodes_jobspec(1, duration=100), at=0) is not None
        # No core can be taken on the exclusively-held node.
        assert t.allocate(simple_node_jobspec(cores=1, duration=10), at=0) is None
        # But the window after the exclusive job works.
        assert t.allocate(simple_node_jobspec(cores=1, duration=10), at=100) is not None

    def test_shared_jobs_block_exclusive(self):
        g = build_cluster(nracks=1, nodes_per_rack=1)
        t = Traverser(g)
        assert t.allocate(simple_node_jobspec(cores=1, duration=100), at=0)
        assert t.allocate(nodes_jobspec(1, duration=10), at=50) is None
        assert t.allocate(nodes_jobspec(1, duration=10), at=100) is not None

    def test_shared_jobs_coexist(self):
        g = build_cluster(nracks=1, nodes_per_rack=1, cores=8)
        t = Traverser(g, policy="low")
        allocs = [
            t.allocate(simple_node_jobspec(cores=2, duration=100), at=0)
            for _ in range(4)
        ]
        assert all(a is not None for a in allocs)
        node = g.find(type="node")[0]
        assert all(a.nodes()[0] is node for a in allocs)

    def test_exclusive_cores_not_shared(self):
        g = build_cluster(nracks=1, nodes_per_rack=1, cores=2)
        t = Traverser(g)
        a = t.allocate(simple_node_jobspec(cores=2, duration=100), at=0)
        assert a is not None
        # Cores are under a slot, hence exclusive: no overlap possible.
        assert t.allocate(simple_node_jobspec(cores=1, duration=10), at=50) is None

    def test_explicit_shared_core_override(self):
        g = build_cluster(nracks=1, nodes_per_rack=1, cores=1)
        t = Traverser(g)
        shared_core = Jobspec(
            resources=(
                slot(1, ResourceRequest(type="core", count=1, exclusive=False)),
            ),
            duration=100,
        )
        assert t.allocate(shared_core, at=0) is not None
        assert t.allocate(shared_core, at=0) is not None  # sharing allowed


class TestRackSpread:
    def test_fig4b_spread_across_racks(self):
        g = build_cluster(nracks=2, nodes_per_rack=3, cores=8, gpus=2)
        t = Traverser(g, policy="low")
        js = rack_spread_jobspec(
            racks=2, slots_per_rack=2, nodes_per_slot=1,
            cores_per_node=8, gpus_per_node=2, duration=100,
        )
        alloc = t.allocate(js, at=0)
        assert alloc is not None
        nodes = alloc.nodes()
        assert len(nodes) == 4
        racks = {g.parents(n)[0].name for n in nodes}
        assert len(racks) == 2

    def test_insufficient_racks(self):
        g = build_cluster(nracks=1)
        t = Traverser(g)
        js = rack_spread_jobspec(racks=2, slots_per_rack=1, nodes_per_slot=1)
        assert t.allocate(js, at=0) is None


class TestRemove:
    def test_remove_restores_pristine_state(self):
        g = build_cluster()
        t = Traverser(g, policy="low")
        ids = []
        for _ in range(3):
            ids.append(t.allocate(simple_node_jobspec(cores=4, duration=50), at=0).alloc_id)
        ids.append(t.allocate(nodes_jobspec(2, duration=70), at=0).alloc_id)
        for alloc_id in ids:
            t.remove(alloc_id)
        assert_pristine(g)

    def test_remove_frees_capacity(self):
        g = build_cluster(nracks=1, nodes_per_rack=1)
        t = Traverser(g)
        a = t.allocate(nodes_jobspec(1, duration=100), at=0)
        assert t.allocate(nodes_jobspec(1, duration=10), at=0) is None
        t.remove(a.alloc_id)
        assert t.allocate(nodes_jobspec(1, duration=10), at=0) is not None

    def test_remove_unknown_raises(self):
        t = Traverser(build_cluster())
        with pytest.raises(AllocationNotFoundError):
            t.remove(42)

    def test_double_remove_raises(self):
        g = build_cluster()
        t = Traverser(g)
        a = t.allocate(nodes_jobspec(1, duration=10), at=0)
        t.remove(a.alloc_id)
        with pytest.raises(AllocationNotFoundError):
            t.remove(a.alloc_id)


class TestReserve:
    def test_allocate_now_when_possible(self):
        g = build_cluster()
        t = Traverser(g)
        alloc = t.allocate_orelse_reserve(nodes_jobspec(2, duration=10), now=0)
        assert alloc.at == 0 and not alloc.reserved

    def test_reserves_earliest_completion(self):
        g = build_cluster(nracks=1, nodes_per_rack=2)
        t = Traverser(g)
        t.allocate(nodes_jobspec(2, duration=100), at=0)
        r = t.allocate_orelse_reserve(nodes_jobspec(1, duration=10), now=0)
        assert r.reserved and r.at == 100

    def test_reservations_stack(self):
        g = build_cluster(nracks=1, nodes_per_rack=1)
        t = Traverser(g)
        t.allocate(nodes_jobspec(1, duration=100), at=0)
        r1 = t.allocate_orelse_reserve(nodes_jobspec(1, duration=50), now=0)
        r2 = t.allocate_orelse_reserve(nodes_jobspec(1, duration=50), now=0)
        assert (r1.at, r2.at) == (100, 150)

    def test_backfill_into_gap(self):
        """A short job slides before an existing future reservation."""
        g = build_cluster(nracks=1, nodes_per_rack=2)
        t = Traverser(g)
        t.allocate(nodes_jobspec(2, duration=100), at=0)       # now .. 100
        t.allocate_orelse_reserve(nodes_jobspec(2, duration=100), now=0)  # 100..200
        # 1-node job fits only at 200?  No: both nodes busy 0-200.
        r = t.allocate_orelse_reserve(nodes_jobspec(1, duration=10), now=0)
        assert r.at == 200
        t.remove_all()
        t.allocate(nodes_jobspec(2, duration=100), at=0)
        t.allocate_orelse_reserve(nodes_jobspec(1, duration=100), now=0)  # node A 100-200
        # second node is free during [100, 200): backfill lands there.
        r2 = t.allocate_orelse_reserve(nodes_jobspec(1, duration=50), now=0)
        assert r2.at == 100

    def test_never_satisfiable_returns_none(self):
        g = build_cluster(nracks=1, nodes_per_rack=2)
        t = Traverser(g)
        assert t.allocate_orelse_reserve(nodes_jobspec(3, duration=10), now=0) is None

    def test_reserve_without_filters_works(self):
        g = build_cluster(filters=None)
        t = Traverser(g)
        t.allocate(nodes_jobspec(6, duration=100), at=0)
        r = t.allocate_orelse_reserve(nodes_jobspec(1, duration=10), now=0)
        assert r.at == 100


class TestSatisfiability:
    def test_capacity_check_ignores_allocations(self):
        g = build_cluster(nracks=1, nodes_per_rack=2)
        t = Traverser(g)
        t.allocate(nodes_jobspec(2, duration=10**4), at=0)
        assert t.satisfiable(nodes_jobspec(2))
        assert not t.satisfiable(nodes_jobspec(3))

    def test_structure_constraints_respected(self):
        g = build_cluster(nracks=2, nodes_per_rack=3, cores=8)
        t = Traverser(g)
        assert t.satisfiable(simple_node_jobspec(cores=8))
        assert not t.satisfiable(simple_node_jobspec(cores=9))
        assert t.satisfiable(rack_spread_jobspec(2, 3, 1))
        assert not t.satisfiable(rack_spread_jobspec(3, 1, 1))


class TestPruning:
    def test_pruned_and_unpruned_agree(self):
        """Pruning must never change results, only skip work."""
        for policy in ("low", "high", "first"):
            g1 = build_cluster()
            g2 = build_cluster()
            t1 = Traverser(g1, policy=policy, prune=True)
            t2 = Traverser(g2, policy=policy, prune=False)
            jobs = [
                simple_node_jobspec(cores=4, memory=8, duration=100),
                nodes_jobspec(2, duration=50),
                simple_node_jobspec(cores=8, gpus=2, duration=70),
            ] * 3
            for js in jobs:
                a1 = t1.allocate_orelse_reserve(js, now=0)
                a2 = t2.allocate_orelse_reserve(js, now=0)
                assert (a1 is None) == (a2 is None)
                if a1:
                    assert a1.at == a2.at
                    assert sorted(v.name for v in a1.nodes()) == sorted(
                        v.name for v in a2.nodes()
                    )

    def test_pruning_reduces_visits(self):
        def fill(prune):
            g = build_cluster(nracks=4, nodes_per_rack=4, cores=8)
            t = Traverser(g, policy="low", prune=prune)
            while t.allocate(simple_node_jobspec(cores=8, duration=1000), at=0):
                pass
            return t.metrics.counter("dfu.visits").value

        assert fill(True) < fill(False)

    def test_filter_state_tracks_allocations(self):
        g = build_cluster(nracks=1, nodes_per_rack=2, cores=8)
        t = Traverser(g, policy="low")
        t.allocate(simple_node_jobspec(cores=8, duration=100), at=0)
        rack = g.find(type="rack")[0]
        assert rack.prune_filters.planner("core").avail_resources_at(50) == 8
        assert rack.prune_filters.planner("core").avail_resources_at(100) == 16

    def test_exclusive_subtree_charged_to_filters(self):
        g = build_cluster(nracks=1, nodes_per_rack=2, cores=8, gpus=2)
        t = Traverser(g)
        t.allocate(nodes_jobspec(1, duration=100), at=0)
        rack = g.find(type="rack")[0]
        filters = rack.prune_filters
        assert filters.planner("core").avail_resources_at(50) == 8
        assert filters.planner("gpu").avail_resources_at(50) == 2
        assert filters.planner("node").avail_resources_at(50) == 1


class TestMultiRootAndPassthrough:
    def test_passthrough_vertices_recorded_shared(self):
        g = build_cluster(nracks=2, nodes_per_rack=1)
        t = Traverser(g, policy="low")
        alloc = t.allocate(simple_node_jobspec(cores=1, duration=10), at=0)
        passthrough_types = {s.type for s in alloc.selections if s.passthrough}
        assert passthrough_types == {"cluster", "rack"}
        assert all(
            s.amount == 0 and not s.exclusive
            for s in alloc.selections
            if s.passthrough
        )

    def test_two_roots_reserve_agrees_with_allocate(self):
        """Each root filter sees only its own rack, so neither may be asked
        for the whole request: a 3-node job fits across two 2-node racks."""

        def two_racks():
            g = ResourceGraph(0, 10_000)
            for _ in range(2):
                rack = g.add_vertex("rack")
                for _ in range(2):
                    g.add_edge(rack, g.add_vertex("node"))
            g.install_pruning_filters(["node"])
            assert len(g.roots()) == 2
            return g

        job = nodes_jobspec(3, duration=100)
        now = Traverser(two_racks()).allocate(job, at=0)
        assert now is not None and len(now.nodes()) == 3
        t = Traverser(two_racks())
        first = t.allocate_orelse_reserve(job, now=0)
        assert first is not None and not first.reserved
        assert {n.name for n in first.nodes()} == {n.name for n in now.nodes()}
        # One node is left: the next 3-node job waits for the first to end.
        second = t.allocate_orelse_reserve(job, now=0)
        assert second is not None and second.reserved and second.at == 100
        assert t.allocate(nodes_jobspec(2, duration=10), at=0) is None
        t.remove_all()
        assert_pristine(t.graph)

    def test_rlite_excludes_passthrough(self):
        g = build_cluster()
        t = Traverser(g)
        alloc = t.allocate(simple_node_jobspec(cores=2, duration=10), at=0)
        rlite = alloc.to_rlite()
        assert all(entry["type"] != "cluster" for entry in rlite["resources"])
        assert rlite["execution"]["starttime"] == 0
        assert rlite["execution"]["expiration"] == 10


class TestPolicies:
    def test_high_vs_low_pick_opposite_ends(self):
        g = build_cluster(nracks=1, nodes_per_rack=4)
        t_low = Traverser(g, policy="low")
        a_low = t_low.allocate(nodes_jobspec(1, duration=10), at=0)
        g2 = build_cluster(nracks=1, nodes_per_rack=4)
        t_high = Traverser(g2, policy="high")
        a_high = t_high.allocate(nodes_jobspec(1, duration=10), at=0)
        assert a_low.nodes()[0].id == 0
        assert a_high.nodes()[0].id == 3

    def test_locality_packs_within_rack(self):
        g = build_cluster(nracks=2, nodes_per_rack=3)
        t = Traverser(g, policy="locality")
        alloc = t.allocate(nodes_jobspec(3, duration=10), at=0)
        racks = {g.parents(n)[0].name for n in alloc.nodes()}
        assert len(racks) == 1

    def test_variation_policy_minimizes_spread(self):
        g = build_cluster(nracks=1, nodes_per_rack=6, filters=("node",))
        for i, node in enumerate(g.find(type="node")):
            node.properties["perf_class"] = [1, 1, 3, 3, 3, 5][i]
        t = Traverser(g, policy="variation")
        alloc = t.allocate(nodes_jobspec(3, duration=10), at=0)
        classes = sorted(n.properties["perf_class"] for n in alloc.nodes())
        assert classes == [3, 3, 3]  # zero-spread window preferred

    def test_unknown_policy_rejected(self):
        from repro.errors import MatchError

        with pytest.raises(MatchError):
            Traverser(build_cluster(), policy="mystery")


class TestNestedExclusives:
    def test_exclusive_rack_with_exclusive_nodes_inside(self):
        """Nested exclusive selections must not double-charge the filters
        (the SDFU exclusive-tops bookkeeping)."""
        g = build_cluster(nracks=2, nodes_per_rack=3, cores=4)
        t = Traverser(g, policy="low")
        js = Jobspec(
            resources=(
                ResourceRequest(
                    type="rack",
                    count=1,
                    exclusive=True,
                    with_=(slot(1, ResourceRequest(type="node", count=2)),),
                ),
            ),
            duration=100,
        )
        alloc = t.allocate(js, at=0)
        assert alloc is not None
        rack = [s.vertex for s in alloc.resources() if s.type == "rack"][0]
        # The whole rack is closed: even the third (unselected) node.
        assert t.allocate(nodes_jobspec(4, duration=10), at=0) is None
        other = t.allocate(nodes_jobspec(3, duration=10), at=0)
        assert other is not None
        assert all(g.parents(n)[0] is not rack for n in other.nodes())
        # Root filter aggregates reflect the entire exclusive subtree once.
        assert g.root.prune_filters.planner("core").avail_resources_at(50) == 12
        t.remove_all()
        assert_pristine(g)

    def test_exclusive_rack_charges_subtree_to_filters(self):
        g = build_cluster(nracks=2, nodes_per_rack=2, cores=4, gpus=1)
        t = Traverser(g, policy="low")
        js = Jobspec(
            resources=(slot(1, ResourceRequest(type="rack", count=1)),),
            duration=100,
        )
        alloc = t.allocate(js, at=0)
        filters = g.root.prune_filters
        assert filters.planner("node").avail_resources_at(50) == 2
        assert filters.planner("core").avail_resources_at(50) == 8
        assert filters.planner("gpu").avail_resources_at(50) == 2
        t.remove(alloc.alloc_id)
        assert filters.planner("core").avail_resources_at(50) == 16


class TestKitchenSink:
    def test_everything_at_once(self):
        """Constraints + moldable counts + outage + drain + reservation +
        walltime extension on one graph, then a clean teardown."""
        from repro.sched import CapacitySchedule

        g = build_cluster(nracks=2, nodes_per_rack=3, cores=8)
        for i, node in enumerate(sorted(g.find(type="node"),
                                        key=lambda v: v.id)):
            node.properties["perf_class"] = (i % 3) + 1
        t = Traverser(g, policy="variation")
        capacity = CapacitySchedule(g)

        g.mark_down(g.find(type="node")[5])
        outage = capacity.add_outage(
            g.find(type="rack")[0], start=500, duration=500
        )
        moldable_fast = Jobspec(
            resources=(
                slot(1, ResourceRequest(type="node", count=1, count_max=3,
                                        requires="perf_class<=2")),
            ),
            duration=300,
        )
        a = t.allocate_orelse_reserve(moldable_fast, now=0)
        assert a is not None
        assert all(
            n.properties["perf_class"] <= 2 and n.status == "up"
            for n in a.nodes()
        )
        # 5 up-nodes exist only when rack0 is healthy: a 300-tick window
        # cannot start before the outage ends.
        b = t.allocate_orelse_reserve(nodes_jobspec(5, duration=300), now=0)
        assert b is not None and b.at == 1000
        extended = t.update_end(a.alloc_id, 450)
        assert extended.end == 450
        t.remove_all()
        capacity.cancel(outage.outage_id)
        assert_pristine(g)


class TestBookingIsAllOrNothing:
    def test_refused_booking_leaves_nothing_behind(self):
        """An exclusive rack over a node in an outage window matches (the
        rack's own planners are free) but its subtree charge no longer fits
        the ancestors' filters: the match is refused, not half-booked."""
        from repro.grug import quartz
        from repro.obs import Observer
        from repro.sched import CapacitySchedule

        def booked_spans(graph):
            return sum(
                v.plans.span_count + v.xplans.span_count
                + (v.prune_filters.span_count if v.prune_filters else 0)
                for v in graph.vertices()
            )

        def exclusive_rack(nodes):
            rack = ResourceRequest(
                type="rack", count=1, exclusive=True,
                with_=(slot(1, ResourceRequest(type="node", count=nodes)),),
            )
            return Jobspec(resources=(rack,), duration=50)

        g = quartz(2, 3)
        obs = Observer()
        t = Traverser(g, policy="first", obs=obs)
        rack0 = min(g.find(type="rack"), key=lambda v: v.id)
        down = min(g.descendants(rack0), key=lambda v: v.id)
        CapacitySchedule(g).add_outage(down, start=0, duration=100)
        before = booked_spans(g)

        obs.why.begin_attempt(1, 0.0, "allocate")
        assert t.allocate(exclusive_rack(1), at=0) is None
        obs.why.end_attempt("failed")
        assert booked_spans(g) == before
        assert t.metrics.counter("dfu.failed").value == 1 and not t.allocations
        (attempt,) = obs.why.export()["jobs"]["1"]["attempts"]
        assert [f["kind"] for f in attempt["fails"]] == ["booking"]

        # Nothing is held on rack0, so a shared request still lands there,
        # and the other rack takes the exclusive one it can cover.
        shared = t.allocate(nodes_jobspec(1, duration=50), at=0)
        assert rack0 in g.ancestors(shared.nodes()[0])
        other = t.allocate(exclusive_rack(3), at=0)
        assert other is not None
        assert rack0 not in [s.vertex for s in other.selections]
        t.remove_all()
        assert booked_spans(g) == before
