"""Scheduling over non-containment subsystems, and the rabbit use case
driven through the simulator over time."""

import pytest

from repro.grug import fat_tree_cluster, edge_local_bandwidth_job, rabbit_system
from repro.jobspec import Jobspec, ResourceRequest, slot
from repro.match import Traverser
from repro.sched import ClusterSimulator
from repro.usecases import RabbitScheduler, global_storage_job


class TestNetworkSubsystemScheduling:
    def test_reservations_in_network_subsystem(self):
        """allocate_orelse_reserve works against a non-containment subsystem
        (no filters there: the event-based candidate search carries it)."""
        g = fat_tree_cluster(racks=1, nodes_per_rack=2, edge_bandwidth=100)
        t = Traverser(g, subsystem="network", policy="low")
        t.allocate(edge_local_bandwidth_job(nodes=2, gbps=100, duration=60), at=0)
        later = t.allocate_orelse_reserve(
            edge_local_bandwidth_job(nodes=1, gbps=50, duration=30), now=0
        )
        assert later is not None and later.at == 60

    def test_same_vertex_schedulable_from_both_subsystems(self):
        """A node allocated via containment blocks its exclusivity for
        network-side matches too (one planner per vertex, §3.1)."""
        g = fat_tree_cluster(racks=1, nodes_per_rack=2)
        containment = Traverser(g, policy="low")
        network = Traverser(g, subsystem="network", policy="low")
        from repro.jobspec import nodes_jobspec

        held = containment.allocate(nodes_jobspec(2, duration=100), at=0)
        assert held is not None
        assert network.allocate(
            edge_local_bandwidth_job(nodes=1, gbps=10, duration=10), at=0
        ) is None
        assert network.allocate(
            edge_local_bandwidth_job(nodes=1, gbps=10, duration=10), at=100
        ) is not None

    def test_bandwidth_invisible_to_containment(self):
        g = fat_tree_cluster(racks=1, nodes_per_rack=1)
        t = Traverser(g)  # containment
        js = Jobspec(
            resources=(slot(1, ResourceRequest(type="bandwidth", count=1)),),
            duration=10,
        )
        assert t.allocate(js, at=0) is None
        assert not t.satisfiable(js)


class TestAuditInTheScheduledSubsystem:
    def test_hold_planted_under_an_exclusive_switch_is_an_exclusivity_violation(self):
        """A simulator scheduling the network subsystem audits subtrees of
        *that* subsystem: an edge switch has no containment path at all."""
        from repro.match.writer import Selection

        g = fat_tree_cluster(racks=2, nodes_per_rack=2, edge_bandwidth=100)
        sim = ClusterSimulator(g, match_policy="low", queue="easy", audit=True)
        sim.traverser.subsystem = "network"
        whole_switch = Jobspec(
            resources=(
                ResourceRequest(
                    type="edge_switch", count=1, exclusive=True,
                    with_=(ResourceRequest(type="node", count=1),),
                ),
            ),
            duration=100,
        )
        holder = sim.submit(whole_switch, at=0)
        other = sim.submit(
            edge_local_bandwidth_job(nodes=1, gbps=10, duration=100), at=0
        )
        sim.run(until=0)
        switch = next(
            s.vertex for s in holder.allocation.selections
            if s.vertex.type == "edge_switch"
        )
        assert switch.path("containment") == ""
        assert sim.auditor.collect(sim) == []
        below = next(
            v for v in g.descendants(switch, "network") if v.type == "node"
            and all(s.vertex is not v for s in holder.allocation.selections)
        )
        other.allocation.selections.append(Selection(below, 1))  # sabotage
        violations = [
            v for v in sim.auditor.collect(sim) if v.invariant == "exclusivity"
        ]
        assert [v.subject for v in violations] == [below.name]
        assert f"job {holder.job_id}'s exclusive {switch.name}" in (
            violations[0].expected
        )


class TestRabbitOverTime:
    def test_filesystem_outlives_compute_waves(self):
        """Storage-only allocations persist while waves of compute jobs come
        and go through the simulator (§5.1's multi-job file systems)."""
        graph = rabbit_system(chassis=2, nodes_per_chassis=2,
                              ssds_per_rabbit=2, ssd_size=500)
        storage = RabbitScheduler(graph)
        fs = storage.allocate_storage_only(gb=400, duration=100_000)
        assert fs is not None

        from repro.jobspec import nodes_jobspec

        sim = ClusterSimulator(graph, match_policy="low", queue="conservative")
        waves = [
            sim.submit(nodes_jobspec(2, duration=200), at=0) for _ in range(6)
        ]
        report = sim.run()
        assert len(report.completed) == 6
        # The file system was never disturbed.
        assert fs.alloc_id in storage.traverser.allocations
        assert fs.amount_of("ssd") == 400
        storage.free(fs)

    def test_global_fs_capacity_respected_alongside_compute(self):
        graph = rabbit_system(chassis=2, nodes_per_chassis=2,
                              ssds_per_rabbit=1, ssd_size=500)
        storage = RabbitScheduler(graph)
        a = storage.allocate_global_fs(gb=500, duration=1000)
        b = storage.allocate_global_fs(gb=500, duration=1000)
        assert a is not None and b is not None
        # Both rabbits fully committed: any further storage must wait.
        c = storage.traverser.allocate_orelse_reserve(
            global_storage_job(gb=100, duration=10), now=0
        )
        assert c is not None and c.at == 1000
