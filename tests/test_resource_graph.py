"""Tests for the resource graph store (paper §3.1-§3.4)."""

import pytest

from repro.errors import ResourceGraphError, SubsystemError
from repro.grug import quartz
from repro.jobspec import nodes_jobspec
from repro.match import Traverser
from repro.resource import CONTAINMENT, ResourceGraph


@pytest.fixture
def small_graph():
    """cluster -> 2 racks -> 2 nodes each -> 4 cores + 1 memory pool each."""
    g = ResourceGraph(0, 1000)
    cluster = g.add_vertex("cluster")
    for _ in range(2):
        rack = g.add_vertex("rack")
        g.add_edge(cluster, rack)
        for _ in range(2):
            node = g.add_vertex("node")
            g.add_edge(rack, node)
            for _ in range(4):
                core = g.add_vertex("core")
                g.add_edge(node, core)
            mem = g.add_vertex("memory", size=32)
            g.add_edge(node, mem)
    return g


def whole_nodes_allocated():
    """A quartz slice with two whole nodes allocated through their rack."""
    graph = quartz(2, 4)
    alloc = Traverser(graph).allocate(nodes_jobspec(2), at=0)
    assert alloc is not None
    return graph, alloc


class TestVertexCreation:
    def test_auto_ids_per_basename(self):
        g = ResourceGraph()
        a = g.add_vertex("core")
        b = g.add_vertex("core")
        c = g.add_vertex("gpu")
        assert (a.id, b.id, c.id) == (0, 1, 0)
        assert a.name == "core0" and b.name == "core1"
        assert a.uniq_id != b.uniq_id

    def test_explicit_id_advances_counter(self):
        g = ResourceGraph()
        g.add_vertex("node", id=10)
        nxt = g.add_vertex("node")
        assert nxt.id == 11

    def test_unit_defaults_from_registry(self):
        g = ResourceGraph()
        assert g.add_vertex("memory", size=32).unit == "GB"
        assert g.add_vertex("power", size=100).unit == "W"
        assert g.add_vertex("core").unit == ""

    def test_negative_size_rejected(self):
        g = ResourceGraph()
        with pytest.raises(ResourceGraphError):
            g.add_vertex("core", size=-1)

    def test_properties_copied(self):
        g = ResourceGraph()
        props = {"perf_class": 3}
        v = g.add_vertex("node", properties=props)
        props["perf_class"] = 5
        assert v.properties["perf_class"] == 3

    def test_planner_horizon_propagates(self):
        g = ResourceGraph(10, 500)
        v = g.add_vertex("core")
        assert v.plans.plan_start == 10
        assert v.plans.plan_end == 500


class TestEdges:
    def test_paths_assigned_top_down(self, small_graph):
        node = small_graph.find(type="node")[0]
        assert node.path() == "/cluster0/rack0/node0"
        core = small_graph.find(type="core")[0]
        assert core.path() == "/cluster0/rack0/node0/core0"

    def test_duplicate_edge_rejected(self):
        g = ResourceGraph()
        a, b = g.add_vertex("rack"), g.add_vertex("node")
        g.add_edge(a, b)
        with pytest.raises(ResourceGraphError):
            g.add_edge(a, b)

    def test_self_edge_rejected(self):
        g = ResourceGraph()
        a = g.add_vertex("rack")
        with pytest.raises(ResourceGraphError):
            g.add_edge(a, a)

    def test_multi_parent_keeps_first_path(self):
        """Rabbits are reachable from both rack and cluster (§5.1)."""
        g = ResourceGraph()
        cluster, rack = g.add_vertex("cluster"), g.add_vertex("rack")
        g.add_edge(cluster, rack)
        rabbit = g.add_vertex("rabbit")
        g.add_edge(rack, rabbit)
        g.add_edge(cluster, rabbit)
        assert rabbit.path() == "/cluster0/rack0/rabbit0"
        assert {p.name for p in g.parents(rabbit)} == {"cluster0", "rack0"}

    def test_remove_edge(self, small_graph):
        rack = small_graph.find(type="rack")[0]
        node = small_graph.children(rack)[0]
        before = small_graph.edge_count
        small_graph.remove_edge(rack, node)
        assert small_graph.edge_count == before - 1
        assert node not in small_graph.children(rack)
        with pytest.raises(ResourceGraphError):
            small_graph.remove_edge(rack, node)

    def test_edges_by_subsystem(self, small_graph):
        assert sum(1 for _ in small_graph.edges(CONTAINMENT)) == small_graph.edge_count
        with pytest.raises(SubsystemError):
            list(small_graph.edges("power"))


class TestStructureQueries:
    def test_root(self, small_graph):
        assert small_graph.root.type == "cluster"

    def test_multiple_roots_error(self):
        g = ResourceGraph()
        a, b, c, d = (g.add_vertex("cluster") for _ in range(4))
        g.add_edge(a, b)
        g.add_edge(c, d)
        with pytest.raises(ResourceGraphError):
            _ = g.root
        assert {v.name for v in g.roots()} == {"cluster0", "cluster2"}

    def test_children_order_stable(self, small_graph):
        rack = small_graph.find(type="rack")[0]
        names = [v.name for v in small_graph.children(rack)]
        assert names == sorted(names, key=lambda n: int(n.replace("node", "")))

    def test_descendants_counts(self, small_graph):
        root = small_graph.root
        descendants = list(small_graph.descendants(root))
        assert len(descendants) == small_graph.vertex_count - 1
        node = small_graph.find(type="node")[0]
        assert len(list(small_graph.descendants(node))) == 5

    def test_descendants_diamond_safe(self):
        g = ResourceGraph()
        cluster, rack = g.add_vertex("cluster"), g.add_vertex("rack")
        rabbit = g.add_vertex("rabbit")
        g.add_edge(cluster, rack)
        g.add_edge(cluster, rabbit)
        g.add_edge(rack, rabbit)
        seen = list(g.descendants(cluster))
        assert len(seen) == 2  # rabbit yielded once

    def test_subtree_totals(self, small_graph):
        node = small_graph.find(type="node")[0]
        assert small_graph.subtree_totals(node) == {
            "node": 1,
            "core": 4,
            "memory": 32,
        }

    def test_total_by_type(self, small_graph):
        totals = small_graph.total_by_type()
        assert totals == {
            "cluster": 1,
            "rack": 2,
            "node": 4,
            "core": 16,
            "memory": 128,
        }

    def test_by_path(self, small_graph):
        v = small_graph.by_path("/cluster0/rack1/node2")
        assert v.type == "node" and v.id == 2
        with pytest.raises(ResourceGraphError):
            small_graph.by_path("/nowhere")

    def test_ancestors(self, small_graph):
        core = small_graph.find(type="core")[0]
        names = {v.name for v in small_graph.ancestors(core)}
        assert names == {"node0", "rack0", "cluster0"}

    def test_find_with_predicate(self, small_graph):
        big = small_graph.find(predicate=lambda v: v.size > 1)
        assert all(v.type == "memory" for v in big)
        assert len(big) == 4


class TestVertexRemoval:
    def test_remove_detaches(self, small_graph):
        node = small_graph.find(type="node")[-1]
        rack = small_graph.parents(node)[0]
        small_graph.remove_vertex(node)
        assert node not in small_graph.children(rack)
        assert small_graph.vertex_count == 26  # node only; subtree kept

    def test_remove_allocated_vertex_refused(self, small_graph):
        node = small_graph.find(type="node")[0]
        node.plans.add_span(0, 10, 1)
        with pytest.raises(ResourceGraphError):
            small_graph.remove_vertex(node)
        small_graph.remove_vertex(node, force=True)

    def test_remove_rack_a_live_allocation_passes_through_refused(self):
        """The rack holds no ``plans`` span, only the pass-through's
        ``xplans`` one: held all the same."""
        graph, alloc = whole_nodes_allocated()
        rack = graph.parents(alloc.nodes()[0])[0]
        assert not rack.plans.span_count and rack.xplans.span_count
        with pytest.raises(ResourceGraphError, match=rack.name):
            graph.remove_vertex(rack)
        assert rack in graph.children(graph.root)

    def test_foreign_vertex_rejected(self, small_graph):
        other = ResourceGraph().add_vertex("node")
        with pytest.raises(ResourceGraphError):
            small_graph.remove_vertex(other)


class TestSubsystems:
    def make_power_graph(self):
        g = ResourceGraph()
        cluster = g.add_vertex("cluster")
        node = g.add_vertex("node")
        pdu = g.add_vertex("power", size=1000)
        g.add_edge(cluster, node)
        g.add_edge(cluster, pdu, subsystem="power", edge_type="supplies")
        g.add_edge(pdu, node, subsystem="power", edge_type="powers")
        return g, cluster, node, pdu

    def test_subsystems_listed(self):
        g, *_ = self.make_power_graph()
        assert set(g.subsystems) == {CONTAINMENT, "power"}

    def test_per_subsystem_adjacency(self):
        g, cluster, node, pdu = self.make_power_graph()
        assert g.children(cluster, "power") == [pdu]
        assert g.parents(node, "power") == [pdu]
        assert g.children(cluster, CONTAINMENT) == [node]

    def test_per_subsystem_paths(self):
        g, cluster, node, pdu = self.make_power_graph()
        assert node.path("power") == "/cluster0/power0/node0"
        assert node.path(CONTAINMENT) == "/cluster0/node0"

    def test_subsystem_view_filters(self):
        g, cluster, node, pdu = self.make_power_graph()
        view = g.subsystem_view("power")
        assert {v.name for v in view.vertices()} == {"cluster0", "power0", "node0"}
        assert all(e.subsystem == "power" for e in view.edges())
        assert view.roots() == [cluster]

    def test_unknown_subsystem_view(self):
        g, *_ = self.make_power_graph()
        with pytest.raises(SubsystemError):
            g.subsystem_view("network")


class TestPruningFilters:
    def test_install_counts_and_totals(self, small_graph):
        installed = small_graph.install_pruning_filters(
            ["core"], at_types=["rack"]
        )
        assert installed == 3  # root + 2 racks
        root = small_graph.root
        assert root.prune_filters.total("core") == 16
        rack = small_graph.find(type="rack")[0]
        assert rack.prune_filters.total("core") == 8

    def test_leaf_vertices_skip_empty_filters(self, small_graph):
        small_graph.install_pruning_filters(["gpu"], at_types=["rack"])
        rack = small_graph.find(type="rack")[0]
        assert rack.prune_filters is None  # no gpus anywhere

    def test_reinstall_with_active_allocation_rejected(self, small_graph):
        small_graph.install_pruning_filters(["core"])
        small_graph.root.prune_filters.add_span(0, 10, {"core": 1})
        small_graph.root.plans.add_span(0, 10, 1)
        with pytest.raises(ResourceGraphError):
            small_graph.install_pruning_filters(["core"])

    def test_reinstall_under_a_live_allocation_rejected(self):
        """Whole nodes book no ``plans`` span anywhere; the root's
        pass-through ``xplans`` span still holds it."""
        graph, _ = whole_nodes_allocated()
        assert not any(v.plans.span_count for v in graph.vertices())
        with pytest.raises(ResourceGraphError, match="allocations exist"):
            graph.install_pruning_filters(["node"])

    def test_prune_types_recorded(self, small_graph):
        small_graph.install_pruning_filters(["core", "memory"], at_types=["node"])
        assert small_graph.prune_types == ("core", "memory")


class TestNetworkxExport:
    def test_roundtrip_counts(self, small_graph):
        nxg = small_graph.to_networkx()
        assert nxg.number_of_nodes() == small_graph.vertex_count
        assert nxg.number_of_edges() == small_graph.edge_count

    def test_subsystem_restriction(self):
        g = ResourceGraph()
        a, b, c = g.add_vertex("cluster"), g.add_vertex("node"), g.add_vertex("power")
        g.add_edge(a, b)
        g.add_edge(a, c, subsystem="power")
        nxg = g.to_networkx("power")
        assert nxg.number_of_nodes() == 2
        assert nxg.number_of_edges() == 1

    def test_node_attributes(self, small_graph):
        nxg = small_graph.to_networkx()
        mem = small_graph.find(type="memory")[0]
        attrs = nxg.nodes[mem.uniq_id]
        assert attrs["type"] == "memory"
        assert attrs["size"] == 32
        assert attrs["paths"][CONTAINMENT] == mem.path()

    def test_is_dag_and_tree_shape(self, small_graph):
        import networkx as nx

        nxg = small_graph.to_networkx()
        assert nx.is_directed_acyclic_graph(nxg)
        assert nx.is_tree(nxg.to_undirected())


class TestAdjacencyCaches:
    """roots()/children_tuple() are memoised; structural edits must
    invalidate them (stale caches would corrupt matching after elasticity)."""

    def test_children_cache_updates_on_add(self):
        g = ResourceGraph()
        cluster = g.add_vertex("cluster")
        a = g.add_vertex("node")
        g.add_edge(cluster, a)
        assert [v.name for v in g.children_tuple(cluster)] == ["node0"]
        b = g.add_vertex("node")
        g.add_edge(cluster, b)
        assert [v.name for v in g.children_tuple(cluster)] == ["node0", "node1"]

    def test_children_cache_updates_on_remove(self):
        g = ResourceGraph()
        cluster = g.add_vertex("cluster")
        a, b = g.add_vertex("node"), g.add_vertex("node")
        g.add_edge(cluster, a)
        g.add_edge(cluster, b)
        g.children_tuple(cluster)  # prime the cache
        g.remove_edge(cluster, a)
        assert [v.name for v in g.children_tuple(cluster)] == ["node1"]
        g.remove_vertex(b)
        assert g.children_tuple(cluster) == ()

    def test_roots_cache_updates_on_structure_change(self):
        g = ResourceGraph()
        a, b = g.add_vertex("cluster"), g.add_vertex("rack")
        g.add_edge(a, b)
        assert g.roots() == [a]
        c = g.add_vertex("cluster")
        d = g.add_vertex("rack")
        g.add_edge(c, d)
        assert {v.name for v in g.roots()} == {"cluster0", "cluster1"}
        g.remove_edge(c, d)
        assert g.roots() == [a]

    def test_matching_after_grow_uses_fresh_adjacency(self):
        """End to end: grow a rack after the caches are warm; the traverser
        must see the new capacity immediately."""
        from repro.grug import tiny_cluster
        from repro.jobspec import nodes_jobspec
        from repro.match import Traverser
        from repro.sched.elastic import grow

        g = tiny_cluster(racks=1, nodes_per_rack=1, cores=2)
        t = Traverser(g, policy="low")
        assert t.allocate(nodes_jobspec(1, duration=10), at=0)  # warm caches
        assert t.allocate(nodes_jobspec(1, duration=10), at=0) is None
        grow(g, g.root, {
            "type": "rack",
            "with": [{"type": "node", "with": [{"type": "core", "count": 2}]}],
        })
        assert t.allocate(nodes_jobspec(1, duration=10), at=0) is not None

    def test_per_subsystem_cache_isolation(self):
        g = ResourceGraph()
        a, b = g.add_vertex("cluster"), g.add_vertex("node")
        g.add_edge(a, b)
        g.add_edge(a, b, subsystem="network")
        g.children_tuple(a)  # prime containment
        g.children_tuple(a, "network")
        g.remove_edge(a, b, subsystem="network")
        assert g.children_tuple(a) == (b,)
        assert g.children_tuple(a, "network") == ()
