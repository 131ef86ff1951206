"""Power-aware scheduling with flow resources (paper §1, §3.1).

Power is the paper's canonical *flow* resource: a budget that jobs draw from
while they run, with limits at several levels of the hierarchy (facility,
cluster, rack/PDU).  The graph model handles it as ordinary pool vertices —
one power pool per rack plus one cluster-level pool — so a single match can
enforce "N cores *and* W watts at the rack *and* the cluster stays under its
cap" with no scheduler plugin (the multi-level constraint §2 says bolt-on
plugins cannot compose).
"""

from __future__ import annotations

from typing import Optional

from ..jobspec import Jobspec, ResourceRequest, slot
from ..match import Allocation, Traverser
from ..resource import ResourceGraph

__all__ = ["power_capped_cluster", "power_job", "PowerAwareScheduler"]


def power_capped_cluster(
    racks: int = 2,
    nodes_per_rack: int = 2,
    cores_per_node: int = 8,
    rack_power_cap: int = 1000,
    cluster_power_cap: Optional[int] = None,
    plan_end: int = 2**40,
) -> ResourceGraph:
    """A cluster with per-rack power pools and an optional cluster-level cap.

    When ``cluster_power_cap`` is smaller than ``racks * rack_power_cap``,
    the cluster pool is the binding constraint under high load — the
    facility-level budget case.
    """
    graph = ResourceGraph(0, plan_end)
    cluster = graph.add_vertex("cluster")
    if cluster_power_cap is not None:
        # A distinct type keeps the facility budget out of rack-level power
        # matches (and vice versa): type is the match key in the jobspec DSL.
        cluster_power = graph.add_vertex(
            "facility_power", basename="cluster_power", size=cluster_power_cap
        )
        graph.add_edge(cluster, cluster_power)
    for _ in range(racks):
        rack = graph.add_vertex("rack")
        graph.add_edge(cluster, rack)
        pdu = graph.add_vertex("power", basename="rack_power",
                               size=rack_power_cap)
        graph.add_edge(rack, pdu)
        for _ in range(nodes_per_rack):
            node = graph.add_vertex("node")
            graph.add_edge(rack, node)
            for _ in range(cores_per_node):
                graph.add_edge(node, graph.add_vertex("core"))
    graph.install_pruning_filters(
        ["core", "node", "power", "facility_power"], at_types=["rack"]
    )
    return graph


def power_job(
    cores: int,
    rack_watts: int,
    cluster_watts: int = 0,
    nodes: int = 1,
    duration: int = 3600,
) -> Jobspec:
    """Cores plus a rack-level power draw, optionally also charging a
    cluster-level budget.

    The rack grouping guarantees the watts come from the PDU feeding the
    chosen nodes; the optional top-level power request draws from the
    cluster pool simultaneously — the composed multi-level constraint.
    """
    rack = ResourceRequest(
        type="rack",
        count=1,
        with_=(
            slot(
                1,
                ResourceRequest(
                    type="node",
                    count=nodes,
                    with_=(ResourceRequest(type="core", count=cores),),
                ),
                ResourceRequest(type="power", count=rack_watts, unit="W"),
            ),
        ),
    )
    resources = [rack]
    if cluster_watts:
        resources.insert(
            0,
            slot(
                1,
                ResourceRequest(
                    type="facility_power", count=cluster_watts, unit="W"
                ),
                label="cluster-budget",
            ),
        )
    return Jobspec(resources=tuple(resources), duration=duration)


class PowerAwareScheduler:
    """Facade bundling a power-capped graph with the match verbs."""

    def __init__(self, graph: ResourceGraph, policy: str = "low") -> None:
        self.graph = graph
        self.traverser = Traverser(graph, policy=policy)

    def submit(
        self,
        cores: int,
        rack_watts: int,
        cluster_watts: int = 0,
        nodes: int = 1,
        duration: int = 3600,
        now: int = 0,
    ) -> Optional[Allocation]:
        """Allocate now or reserve the earliest power-feasible window."""
        return self.traverser.allocate_orelse_reserve(
            power_job(cores, rack_watts, cluster_watts, nodes, duration),
            now=now,
        )

    def headroom(self, at: int = 0) -> dict:
        """Remaining watts per power pool (rack PDUs and facility budget)."""
        pools = list(self.graph.vertices("power")) + list(
            self.graph.vertices("facility_power")
        )
        return {
            vertex.path("containment"): vertex.avail_resources_at(at)
            for vertex in pools
        }

    def free(self, allocation: Allocation) -> None:
        self.traverser.remove(allocation.alloc_id)
