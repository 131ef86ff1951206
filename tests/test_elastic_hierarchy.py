"""Tests for elasticity (§5.5) and hierarchical scheduling (§5.6)."""

import pytest

from repro.errors import ResourceGraphError, SchedulerError
from repro.grug import tiny_cluster
from repro.jobspec import nodes_jobspec, simple_node_jobspec
from repro.match import Traverser
from repro.sched import Instance, Job, JobState
from repro.sched.elastic import (
    grow,
    grow_job,
    resize_pool,
    shrink_job,
    shrink_subtree,
)


class TestGrow:
    def test_grow_adds_capacity_visible_to_matcher(self):
        g = tiny_cluster(racks=1, nodes_per_rack=2, cores=4)
        t = Traverser(g, policy="low")
        assert t.allocate(nodes_jobspec(3, duration=10), at=0) is None
        rack = g.find(type="rack")[0]
        created = grow(
            g, rack, {"type": "node", "count": 1, "with": [{"type": "core", "count": 4}]}
        )
        assert len(created) == 5
        assert t.allocate(nodes_jobspec(3, duration=10), at=0) is not None

    def test_grow_updates_filter_totals(self):
        g = tiny_cluster(racks=1, nodes_per_rack=2, cores=4)
        rack = g.find(type="rack")[0]
        before_rack = rack.prune_filters.total("core")
        before_root = g.root.prune_filters.total("core")
        grow(g, rack, {"type": "node", "with": [{"type": "core", "count": 4}]})
        assert rack.prune_filters.total("core") == before_rack + 4
        assert g.root.prune_filters.total("core") == before_root + 4
        assert rack.prune_filters.total("node") == 3

    def test_grow_while_jobs_running(self):
        g = tiny_cluster(racks=1, nodes_per_rack=1, cores=4)
        t = Traverser(g, policy="low")
        a = t.allocate(nodes_jobspec(1, duration=100), at=0)
        rack = g.find(type="rack")[0]
        grow(g, rack, {"type": "node", "with": [{"type": "core", "count": 4}]})
        # New node is free even though the old one is exclusively held.
        b = t.allocate(nodes_jobspec(1, duration=10), at=0)
        assert b is not None
        assert b.nodes()[0] is not a.nodes()[0]

    def test_grow_new_rack_at_root(self):
        g = tiny_cluster(racks=1, nodes_per_rack=1, cores=2)
        created = grow(
            g,
            g.root,
            {
                "type": "rack",
                "with": [{"type": "node", "count": 2,
                          "with": [{"type": "core", "count": 2}]}],
            },
        )
        assert len(g.find(type="rack")) == 2
        # Freshly-grown rack has no filter of its own (install is explicit),
        # but matching still works through it.
        t = Traverser(g)
        assert t.allocate(nodes_jobspec(3, duration=5), at=0) is not None


class TestShrink:
    def test_shrink_removes_capacity(self):
        g = tiny_cluster(racks=1, nodes_per_rack=3, cores=4)
        t = Traverser(g)
        node = g.find(type="node")[-1]
        removed = shrink_subtree(g, node)
        assert removed == 8  # node + 4 cores + 1 gpu + 2 memory pools
        assert t.allocate(nodes_jobspec(3, duration=5), at=0) is None
        assert t.allocate(nodes_jobspec(2, duration=5), at=0) is not None

    def test_shrink_busy_subtree_refused(self):
        g = tiny_cluster(racks=1, nodes_per_rack=2, cores=4)
        t = Traverser(g, policy="low")
        t.allocate(nodes_jobspec(1, duration=100), at=0)
        busy_node = g.find(type="node")[0]
        with pytest.raises(ResourceGraphError):
            shrink_subtree(g, busy_node)
        # Force works for failure injection.
        shrink_subtree(g, busy_node, force=True)
        assert len(g.find(type="node")) == 1

    def test_shrink_updates_filter_totals(self):
        g = tiny_cluster(racks=1, nodes_per_rack=2, cores=4)
        rack = g.find(type="rack")[0]
        before = rack.prune_filters.total("core")
        shrink_subtree(g, g.find(type="node")[-1])
        assert rack.prune_filters.total("core") == before - 4

    def test_oversized_subtree_refused_before_anything_is_removed(self):
        """A size inside the subtree was corrupted upwards: the deltas would
        drive a filter total negative, so the call stops with the graph as
        it was (it used to remove the vertices and then raise)."""
        g = tiny_cluster(2, 2, cores=2, gpus=0, memory_pools=2, memory_size=4)
        node = g.find(type="node")[0]
        next(v for v in g.children(node) if v.type == "core").size = 4

        def totals():
            return {
                (v.name, rtype): v.prune_filters.total(rtype)
                for v in g.vertices() if v.prune_filters is not None
                for rtype in g.prune_types if v.prune_filters.tracks(rtype)
            }

        count, before = g.vertex_count, totals()
        with pytest.raises(
            ResourceGraphError,
            match=f"subtree of {node.name} holds 5 core .* core filter on rack0 "
            "totals 4",
        ):
            shrink_subtree(g, node)
        assert (g.vertex_count, totals()) == (count, before)
        assert g.find(type="node")[0] is node


class TestResizePool:
    def test_resize_memory_pool(self):
        g = tiny_cluster(racks=1, nodes_per_rack=1, cores=2,
                         memory_pools=1, memory_size=16)
        t = Traverser(g)
        mem = g.find(type="memory")[0]
        assert t.allocate(simple_node_jobspec(cores=1, memory=32, duration=5), at=0) is None
        resize_pool(g, mem, 32)
        assert t.allocate(simple_node_jobspec(cores=1, memory=32, duration=5), at=0) is not None

    def test_oversized_cut_refused_before_anything_is_changed(self):
        """The pool's size was corrupted upwards: giving it all up would
        drive the filters above negative (it used to resize the pool, move
        ``structure`` and then raise PlannerError half way up)."""
        g = tiny_cluster(racks=1, nodes_per_rack=1, memory_pools=1, memory_size=16)
        mem = g.find(type="memory")[0]
        mem.size = 40
        node = g.find(type="node")[0]
        seen = g.structure
        with pytest.raises(
            ResourceGraphError,
            match=f"{mem.name} gives up 40 memory .* filter on {node.name} totals 16",
        ):
            resize_pool(g, mem, 0)
        assert (mem.size, mem.plans.total, g.structure) == (40, 16, seen)
        assert node.prune_filters.total("memory") == 16

    def test_resize_updates_filters(self):
        g = tiny_cluster(racks=1, nodes_per_rack=1, memory_pools=1, memory_size=16)
        mem = g.find(type="memory")[0]
        resize_pool(g, mem, 48)
        assert g.root.prune_filters.total("memory") == 48

    def test_shrink_pool_below_use_rejected(self):
        g = tiny_cluster(racks=1, nodes_per_rack=1, memory_pools=1, memory_size=16)
        t = Traverser(g)
        t.allocate(simple_node_jobspec(cores=1, memory=10, duration=100), at=0)
        mem = g.find(type="memory")[0]
        from repro.errors import PlannerError

        with pytest.raises(PlannerError):
            resize_pool(g, mem, 8)


class TestMalleableJobs:
    def test_grow_and_shrink_job(self):
        g = tiny_cluster(racks=1, nodes_per_rack=4, cores=4)
        t = Traverser(g, policy="low")
        job = Job(1, nodes_jobspec(1, duration=100))
        primary = t.allocate(job.jobspec, at=0)
        job.allocations.append(primary)
        extra = grow_job(t, job, nodes_jobspec(2, duration=100), now=0)
        assert extra is not None
        assert len(job.allocations) == 2
        total_nodes = {v.name for a in job.allocations for v in a.nodes()}
        assert len(total_nodes) == 3
        shrink_job(t, job, extra)
        assert len(job.allocations) == 1

    def test_cannot_release_primary_first(self):
        g = tiny_cluster(racks=1, nodes_per_rack=4, cores=4)
        t = Traverser(g)
        job = Job(1, nodes_jobspec(1, duration=100))
        job.allocations.append(t.allocate(job.jobspec, at=0))
        grow_job(t, job, nodes_jobspec(1, duration=100), now=0)
        with pytest.raises(ResourceGraphError):
            shrink_job(t, job, job.allocations[0])

    def test_foreign_allocation_rejected(self):
        g = tiny_cluster(racks=1, nodes_per_rack=2, cores=4)
        t = Traverser(g)
        job = Job(1, nodes_jobspec(1, duration=10))
        job.allocations.append(t.allocate(job.jobspec, at=0))
        stray = t.allocate(nodes_jobspec(1, duration=10), at=0)
        with pytest.raises(ResourceGraphError):
            shrink_job(t, job, stray)


class TestHierarchy:
    def test_grant_isolated_from_parent(self):
        g = tiny_cluster(racks=2, nodes_per_rack=4, cores=4)
        root = Instance(g, match_policy="low")
        child = root.spawn_child(nodes_jobspec(4, duration=2**30), name="batch")
        assert child.depth == 1
        assert len(child.graph.find(type="node")) == 4
        # Parent can only hand out the remaining 4 nodes.
        assert root.allocate(nodes_jobspec(5, duration=10), at=0) is None
        assert root.allocate(nodes_jobspec(4, duration=10), at=0) is not None

    def test_child_schedules_independently(self):
        g = tiny_cluster(racks=2, nodes_per_rack=4, cores=4)
        root = Instance(g, match_policy="low")
        child = root.spawn_child(nodes_jobspec(4, duration=2**30))
        allocs = [
            child.allocate(simple_node_jobspec(cores=4, duration=100), at=0)
            for _ in range(4)
        ]
        assert all(a is not None for a in allocs)
        assert child.allocate(simple_node_jobspec(cores=1, duration=100), at=0) is None

    def test_grant_preserves_structure_and_properties(self):
        g = tiny_cluster(racks=2, nodes_per_rack=2, cores=4)
        for i, node in enumerate(g.find(type="node")):
            node.properties["perf_class"] = i + 1
        root = Instance(g, match_policy="low")
        child = root.spawn_child(nodes_jobspec(2, duration=2**30))
        child_nodes = child.graph.find(type="node")
        assert [n.properties.get("perf_class") for n in child_nodes] == [1, 2]
        assert len(child.graph.find(type="rack")) == 1  # scaffolding kept

    def test_multi_level_hierarchy(self):
        g = tiny_cluster(racks=2, nodes_per_rack=4, cores=4)
        root = Instance(g)
        mid = root.spawn_child(nodes_jobspec(6, duration=2**30), name="mid")
        leaf = mid.spawn_child(nodes_jobspec(2, duration=2**30), name="leaf")
        assert leaf.depth == 2
        assert [i.name for i in root.walk()] == ["root", "mid", "leaf"]
        assert len(leaf.graph.find(type="node")) == 2

    def test_shutdown_returns_grant(self):
        g = tiny_cluster(racks=1, nodes_per_rack=4, cores=4)
        root = Instance(g)
        child = root.spawn_child(nodes_jobspec(4, duration=2**30))
        assert root.allocate(nodes_jobspec(1, duration=10), at=0) is None
        root.shutdown_child(child)
        assert root.allocate(nodes_jobspec(4, duration=10), at=0) is not None

    def test_shutdown_cascades(self):
        g = tiny_cluster(racks=1, nodes_per_rack=4, cores=4)
        root = Instance(g)
        mid = root.spawn_child(nodes_jobspec(4, duration=2**30))
        mid.spawn_child(nodes_jobspec(2, duration=2**30))
        root.shutdown_child(mid)
        assert root.children == []
        assert not root.traverser.allocations

    def test_grant_too_big_raises(self):
        g = tiny_cluster(racks=1, nodes_per_rack=2, cores=4)
        root = Instance(g)
        with pytest.raises(SchedulerError):
            root.spawn_child(nodes_jobspec(3, duration=10))

    def test_foreign_child_shutdown_rejected(self):
        g = tiny_cluster(racks=1, nodes_per_rack=4, cores=4)
        root = Instance(g)
        other = Instance(tiny_cluster(), name="other")
        with pytest.raises(SchedulerError):
            root.shutdown_child(other)
