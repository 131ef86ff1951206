"""Resource-pool vertices (paper §3.1).

A vertex is a *resource pool*: one or more indistinguishable resources of the
same kind, collectively represented as a quantity (``size``).  A singleton
resource (a core, a node) is a pool of size one.  Each vertex owns two
:class:`~repro.planner.Planner` objects tracking its pool's allocation state
over time (pool quantities and exclusivity, one fact each), and may
additionally carry a :class:`~repro.planner.PlannerMulti`
pruning filter summarising the aggregate availability of configured
lower-level resource types in its subtree (§3.4).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..planner import Planner, PlannerMulti

__all__ = ["ResourceVertex", "PLANNER_KINDS", "X_LIMIT"]

#: Capacity of the exclusivity-tracking planner: a shared allocation books 1
#: "job slot", an exclusive one books all of them, so exclusive-vs-anything
#: conflicts and shared-with-shared coexistence both fall out of ordinary
#: span arithmetic (the paper's exclusivity pruning, §3.4).
X_LIMIT = 2**30

#: The planners a vertex carries, as span records name them (filters last:
#: they aggregate the other two).
PLANNER_KINDS = ("plans", "xplans", "filter")


class ResourceVertex:
    """One resource pool in the graph store.

    Instances are created by :meth:`ResourceGraph.add_vertex
    <repro.resource.graph.ResourceGraph.add_vertex>`; user code should treat
    the structural fields as read-only and mutate state only through the
    graph/traverser APIs.

    Attributes
    ----------
    uniq_id:
        Graph-wide unique integer id.
    type:
        Resource type name ("core", "memory", ...).
    basename:
        Name stem; ``name`` is ``f"{basename}{id}"``.
    id:
        Logical id among same-type siblings (drives ID-based match policies).
    size:
        Schedulable pool quantity.
    unit:
        Informational unit of the pool quantity ("GB", "W", '').
    rank:
        Execution-broker rank (kept for fidelity with Fluxion; -1 = unset).
    properties:
        Free-form key/value tags (e.g. ``{"perf_class": 2}``, §5.2).
    status:
        Administrative state: ``"up"`` (schedulable) or ``"down"``
        (drained); the traverser skips down vertices and their subtrees.
    paths:
        Canonical hierarchical path per subsystem, set when the first in-edge
        of a subsystem is added (e.g. ``{"containment": "/cluster0/rack3/node42"}``).
    plans:
        Pool-quantity planner: a pool-quantity fill books its amount here
        and nothing else books here, so it holds pool quantities only.
    xplans:
        Exclusivity planner, holding every exclusivity fact: shared and
        pass-through selections book 1 unit, exclusive holds (and planned
        outages) all X_LIMIT units, so an exclusive hold conflicts with any
        other hold while shared holds coexist.  An exclusive hold uses the
        whole pool without a ``plans`` span: what is in use is read through
        the effective view (:meth:`avail_resources_during`).
    prune_filters:
        Optional PlannerMulti summarising subtree availability per tracked
        type (installed by the graph store on high-level vertices, §3.4).
    """

    __slots__ = (
        "uniq_id",
        "type",
        "basename",
        "id",
        "size",
        "unit",
        "rank",
        "properties",
        "paths",
        "status",
        "plans",
        "xplans",
        "prune_filters",
    )

    def __init__(
        self,
        uniq_id: int,
        type: str,
        basename: str,
        id: int,
        size: int,
        unit: str = "",
        rank: int = -1,
        properties: Optional[Dict[str, Any]] = None,
        plan_start: int = 0,
        plan_end: int = 2**62,
    ) -> None:
        self.uniq_id = uniq_id
        self.type = type
        self.basename = basename
        self.id = id
        self.size = size
        self.unit = unit
        self.rank = rank
        self.properties: Dict[str, Any] = dict(properties or {})
        self.paths: Dict[str, str] = {}
        self.status = "up"
        self.plans = Planner(size, plan_start, plan_end, resource_type=type)
        self.xplans = Planner(X_LIMIT, plan_start, plan_end, resource_type=f"x:{type}")
        self.prune_filters: Optional[PlannerMulti] = None

    @property
    def name(self) -> str:
        """Display name: basename + logical id (e.g. ``core7``)."""
        return f"{self.basename}{self.id}"

    def path(self, subsystem: str = "containment") -> str:
        """Canonical path of this vertex within ``subsystem`` ('' if none)."""
        return self.paths.get(subsystem, "")

    def planner_of(self, kind: str) -> "Planner | PlannerMulti | None":
        """The planner a span record's ``kind`` names: ``plans``, ``xplans``
        or ``filter`` (None when no pruning filter is installed here)."""
        return self.prune_filters if kind == "filter" else getattr(self, kind)

    @property
    def held(self) -> bool:
        """Whether any span stands here, in either planner: an allocation,
        a reservation or an outage holds the vertex."""
        return bool(self.plans.span_count or self.xplans.span_count)

    # The effective view: the quantity in use is what ``plans`` holds, or
    # the whole pool while an exclusive hold (all X_LIMIT units of
    # ``xplans``) covers the time.
    def avail_during(self, at: int, duration: int, request: int = 1) -> bool:
        """Is ``request`` of this pool free over the window?"""
        return self.avail_resources_during(at, duration) >= request

    def avail_resources_during(self, at: int, duration: int) -> int:
        """Minimum free pool quantity over the window."""
        if not self.xplans.avail_during(at, duration, 1):
            return 0
        return self.plans.avail_resources_during(at, duration)

    def avail_resources_at(self, at: int) -> int:
        """Free pool quantity at instant ``at``."""
        if not self.xplans.avail_at(at, 1):
            return 0
        return self.plans.avail_resources_at(at)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ResourceVertex(#{self.uniq_id} {self.type} {self.name!r} "
            f"size={self.size})"
        )
