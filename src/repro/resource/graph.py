"""The in-memory resource graph store (paper §3.1-§3.3).

Vertices are resource pools, edges are typed relationships grouped into named
*subsystems* (``containment`` by default; ``power``, ``network``, ... for
multi-subsystem models).  The store supports:

* multi-subsystem adjacency with per-subsystem roots, children/parents and
  DFS, enabling *graph filtering* — exposing only the subsystem of interest
  to a traverser (§3.3);
* dynamic vertex/edge addition and removal for elasticity (§5.5);
* pruning-filter installation: PlannerMulti summaries of subtree resource
  totals placed on configurable high-level vertex types (§3.4);
* conversion to :mod:`networkx` for analysis and visualisation.

The store intentionally does not know anything about scheduling policy —
that lives in :mod:`repro.match` (separation of concerns, §3.5).
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..errors import ResourceGraphError, SubsystemError
from ..planner import Planner, PlannerMulti
from .edge import CONTAINMENT, CONTAINS, ResourceEdge
from .types import DEFAULT_REGISTRY, ResourceTypeRegistry
from .vertex import ResourceVertex

__all__ = ["ResourceGraph", "SubsystemView"]


class ResourceGraph:
    """Directed multi-subsystem graph of resource pools.

    Parameters
    ----------
    plan_start, plan_end:
        Planning horizon shared by every vertex Planner and pruning filter.
    registry:
        Resource-type metadata used to default pool units.
    """

    __slots__ = (
        "plan_start",
        "plan_end",
        "registry",
        "_vertices",
        "_next_id",
        "_id_counters",
        "_out",
        "_in",
        "_edge_count",
        "_derived",
        "_derived_at",
        "prune_types",
        "capacity_schedules",
        "reshaped",
        "freed",
        "unplanned",
        "structure",
        "drains",
    )

    def __init__(
        self,
        plan_start: int = 0,
        plan_end: int = 2**62,
        registry: ResourceTypeRegistry = DEFAULT_REGISTRY,
    ) -> None:
        self.plan_start = plan_start
        self.plan_end = plan_end
        self.registry = registry
        self._vertices: Dict[int, ResourceVertex] = {}
        self._next_id = 0
        self._id_counters: Dict[str, int] = defaultdict(int)
        # subsystem -> src uniq_id -> [edge]
        self._out: Dict[str, Dict[int, List[ResourceEdge]]] = {}
        self._in: Dict[str, Dict[int, List[ResourceEdge]]] = {}
        self._edge_count = 0
        # the structure-derived table (:meth:`_table`) and the shape it is of
        self._derived: Dict[tuple, Any] = {}
        self._derived_at = 0
        #: types that pruning filters track (set by install_pruning_filters)
        self.prune_types: Tuple[str, ...] = ()
        #: every CapacitySchedule booking outages on this graph (each adds
        #: itself): their spans are expected planner state, not corruption
        self.capacity_schedules: List[object] = []
        #: ``{name: structural fields}`` of what an operator added or
        #: resized on purpose, as the call left it, and ``{name: None}`` of
        #: what it removed (:mod:`repro.sched.elastic` writes it): an
        #: integrity monitor makes the dict when it takes its baseline,
        #: takes these into the baseline and empties it, so they do not read
        #: as corruption.  None while no monitor reads it.
        self.reshaped: Optional[Dict[str, Optional[dict]]] = None
        #: monotone change counters (see :meth:`note_change`): whoever
        #: keeps an answer it derived keeps it for as long as the counter
        #: it depends on has not moved.  ``freed`` counts everything that
        #: may let a refused match succeed; ``unplanned`` the part of it no
        #: booked span end announced, which is what can pull a standing
        #: reservation earlier or move it; ``structure`` the part that
        #: changed what exists or is in service (a vertex, an edge, a pool
        #: size, a drain), which is all that an answer ignoring allocations
        #: depends on; ``drains`` the part of ``structure`` that only took a
        #: vertex out of service or returned it, so ``structure - drains``
        #: is what an answer that ignores status as well depends on.
        self.freed = 0
        self.unplanned = 0
        self.structure = 0
        self.drains = 0

    def note_change(self, planned: bool = False, structural: bool = False) -> None:
        """Count one event after which a match may answer differently.

        Called where capacity is released or the structure changes: by this
        class, by :meth:`Traverser.remove` / ``update_end``,
        :class:`~repro.sched.capacity.CapacitySchedule`,
        :func:`~repro.sched.elastic.resize_pool` and the repair engine.
        ``planned`` marks a release at the booked end of its span — the
        planners already said the capacity returns then, so whatever was
        planned around it stands.  ``structural`` marks a change to the
        machine itself rather than to what is booked on it: every write to
        a vertex's ``size`` or ``status`` and every vertex or edge added or
        removed says so before it returns.  A needless call costs a caller
        one re-derivation; a missing one leaves it acting on a stale answer.
        """
        self.freed += 1
        if not planned:
            self.unplanned += 1
        if structural:
            self.structure += 1

    @property
    def shape(self) -> int:
        """``structure - drains``: the epoch of what *exists* (vertices,
        edges, pool sizes), whatever is in service."""
        return self.structure - self.drains

    def _table(self) -> Dict[tuple, Any]:
        """Everything this class keeps that only the structure decides —
        roots, children, children worth visiting, ancestry, tracked totals,
        pool types, the gate's cuts — under one rule: dropped whole when
        :attr:`shape` moves and when :meth:`install_pruning_filters` runs.
        Nothing in it reads a status; nothing is derived before it is asked
        for."""
        shape = self.structure - self.drains
        if shape != self._derived_at:
            self._derived_at = shape
            self._derived = {}
        return self._derived

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(
        self,
        type: str,
        basename: Optional[str] = None,
        id: Optional[int] = None,
        size: int = 1,
        unit: Optional[str] = None,
        rank: int = -1,
        properties: Optional[Dict[str, Any]] = None,
    ) -> ResourceVertex:
        """Create a resource-pool vertex and return it.

        ``basename`` defaults to the type name; ``id`` defaults to a running
        counter per basename; ``unit`` defaults from the type registry.
        """
        if size < 0:
            raise ResourceGraphError(f"pool size must be >= 0, got {size}")
        basename = basename if basename is not None else type
        if id is None:
            id = self._id_counters[basename]
        self._id_counters[basename] = max(self._id_counters[basename], id + 1)
        if unit is None:
            unit = self.registry.unit(type)
        vertex = ResourceVertex(
            uniq_id=self._next_id,
            type=type,
            basename=basename,
            id=id,
            size=size,
            unit=unit,
            rank=rank,
            properties=properties,
            plan_start=self.plan_start,
            plan_end=self.plan_end,
        )
        self._vertices[self._next_id] = vertex
        self._next_id += 1
        self.note_change(structural=True)
        return vertex

    def add_edge(
        self,
        src: ResourceVertex,
        dst: ResourceVertex,
        subsystem: str = CONTAINMENT,
        edge_type: str = CONTAINS,
        properties: Optional[Dict[str, Any]] = None,
    ) -> ResourceEdge:
        """Add a directed ``src -> dst`` edge within ``subsystem``.

        The first in-edge a vertex receives in a subsystem fixes its canonical
        path there (additional parents — e.g. a rabbit reachable from both its
        rack and the cluster, §5.1 — keep the original path).
        """
        self._require(src)
        self._require(dst)
        if src.uniq_id == dst.uniq_id:
            raise ResourceGraphError(f"self edge on vertex {src.name}")
        out = self._out.setdefault(subsystem, defaultdict(list))
        inn = self._in.setdefault(subsystem, defaultdict(list))
        for existing in out[src.uniq_id]:
            if existing.dst == dst.uniq_id:
                raise ResourceGraphError(
                    f"duplicate {subsystem} edge {src.name} -> {dst.name}"
                )
        edge = ResourceEdge(
            src.uniq_id, dst.uniq_id, subsystem, edge_type, properties or {}
        )
        out[src.uniq_id].append(edge)
        inn[dst.uniq_id].append(edge)
        self._edge_count += 1
        self.note_change(structural=True)
        if subsystem not in src.paths and not inn[src.uniq_id]:
            src.paths[subsystem] = f"/{src.name}"
        if subsystem not in dst.paths:
            parent_path = src.paths.get(subsystem, f"/{src.name}")
            dst.paths[subsystem] = f"{parent_path}/{dst.name}"
        return edge

    def remove_edge(
        self, src: ResourceVertex, dst: ResourceVertex, subsystem: str = CONTAINMENT
    ) -> None:
        """Remove the ``src -> dst`` edge within ``subsystem``."""
        out = self._out.get(subsystem, {})
        inn = self._in.get(subsystem, {})
        before = len(out.get(src.uniq_id, ()))
        out[src.uniq_id] = [e for e in out.get(src.uniq_id, []) if e.dst != dst.uniq_id]
        if len(out[src.uniq_id]) == before:
            raise ResourceGraphError(
                f"no {subsystem} edge {src.name} -> {dst.name}"
            )
        inn[dst.uniq_id] = [e for e in inn.get(dst.uniq_id, []) if e.src != src.uniq_id]
        self._edge_count -= 1
        self.note_change(structural=True)

    def remove_vertex(self, vertex: ResourceVertex, force: bool = False) -> None:
        """Detach and delete ``vertex`` (elasticity, §5.5).

        Refuses to remove a vertex with active allocations unless ``force``.
        Subtree vertices are *not* removed implicitly; use
        :func:`repro.sched.elastic.shrink` for whole-subtree operations.
        """
        self._require(vertex)
        if not force and vertex.held:
            raise ResourceGraphError(
                f"vertex {vertex.name} is held by active allocations; "
                "pass force=True to remove anyway"
            )
        for subsystem in list(self._out):
            for edge in list(self._out[subsystem].get(vertex.uniq_id, [])):
                self.remove_edge(vertex, self._vertices[edge.dst], subsystem)
            for edge in list(self._in[subsystem].get(vertex.uniq_id, [])):
                self.remove_edge(self._vertices[edge.src], vertex, subsystem)
            self._out[subsystem].pop(vertex.uniq_id, None)
            self._in[subsystem].pop(vertex.uniq_id, None)
        del self._vertices[vertex.uniq_id]
        self.note_change(structural=True)

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._vertices)

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def subsystems(self) -> Tuple[str, ...]:
        """Subsystem names present in the graph."""
        return tuple(self._out)

    def vertex(self, uniq_id: int) -> ResourceVertex:
        """Return the vertex with ``uniq_id``; KeyError-ish on absence."""
        try:
            return self._vertices[uniq_id]
        except KeyError:
            raise ResourceGraphError(f"unknown vertex id {uniq_id}") from None

    def vertex_by_name(self, name: str) -> ResourceVertex:
        """Return the vertex named ``name`` (``basename + id``).

        Names are unique within a graph (JGF round-trips rely on it); the
        recovery and integrity layers address vertices by name because
        ``uniq_id`` is not stable across restores.
        """
        for v in self._vertices.values():
            if v.name == name:
                return v
        raise ResourceGraphError(f"unknown vertex name {name!r}")

    def vertices(self, type: Optional[str] = None) -> Iterator[ResourceVertex]:
        """Iterate vertices (optionally restricted to one type)."""
        if type is None:
            yield from self._vertices.values()
        else:
            for v in self._vertices.values():
                if v.type == type:
                    yield v

    def find(
        self,
        type: Optional[str] = None,
        basename: Optional[str] = None,
        predicate: Optional[Callable[[ResourceVertex], bool]] = None,
    ) -> List[ResourceVertex]:
        """Return vertices matching all given criteria."""
        out = []
        for v in self._vertices.values():
            if type is not None and v.type != type:
                continue
            if basename is not None and v.basename != basename:
                continue
            if predicate is not None and not predicate(v):
                continue
            out.append(v)
        return out

    def by_path(self, path: str, subsystem: str = CONTAINMENT) -> ResourceVertex:
        """Return the vertex whose canonical ``subsystem`` path is ``path``."""
        for v in self._vertices.values():
            if v.paths.get(subsystem) == path:
                return v
        raise ResourceGraphError(f"no vertex at {subsystem} path {path!r}")

    def children(
        self, vertex: ResourceVertex, subsystem: str = CONTAINMENT
    ) -> List[ResourceVertex]:
        """Out-neighbors of ``vertex`` within ``subsystem``, insertion-ordered."""
        return list(self.children_tuple(vertex, subsystem))

    def children_tuple(
        self, vertex: ResourceVertex, subsystem: str = CONTAINMENT
    ) -> Tuple[ResourceVertex, ...]:
        """Immutable form of :meth:`children` (structure-derived table)."""
        table = self._table()
        key = ("children", subsystem, vertex.uniq_id)
        kept = table.get(key)
        if kept is None:
            out = self._out.get(subsystem)
            if out is None:
                raise SubsystemError(f"unknown subsystem: {subsystem!r}")
            kept = table[key] = tuple(
                self._vertices[e.dst] for e in out.get(vertex.uniq_id, ())
            )
        return kept

    def children_toward(
        self, vertex: ResourceVertex, rtype: str, subsystem: str = CONTAINMENT
    ) -> Tuple[ResourceVertex, ...]:
        """The children of ``vertex`` a walk looking for ``rtype`` has to
        visit: those of that type and those with children of their own.  A
        childless vertex of another type can neither be nor contain a
        candidate, whatever its status, x-plan or filter says."""
        table = self._table()
        key = ("toward", subsystem, rtype, vertex.uniq_id)
        kept = table.get(key)
        if kept is None:
            children = self.children_tuple(vertex, subsystem)
            out = self._out[subsystem]
            kept = table[key] = tuple(
                c for c in children if c.type == rtype or out.get(c.uniq_id)
            )
        return kept

    def ancestry(
        self, vertex: ResourceVertex, subsystem: str = CONTAINMENT
    ) -> Tuple[Tuple[ResourceVertex, ...], Tuple[int, ...]]:
        """``(holders, ids)`` above ``vertex``: its proper ancestors that
        hold a pruning filter, in :meth:`ancestors` order — the chain SDFU
        charges along (§3.4) — and the ``uniq_id`` of every proper ancestor,
        which is what *nested under* means in this subsystem.  Kept per set
        of parents, so the cores of one node share one entry."""
        # (an unknown subsystem misses, and ancestors() below names it)
        edges = self._in.get(subsystem, {}).get(vertex.uniq_id, ())
        parents = edges[0].src if len(edges) == 1 else tuple(e.src for e in edges)
        key = ("above", subsystem, parents)
        table = self._table()
        kept = table.get(key)
        if kept is None:
            above = tuple(self.ancestors(vertex, subsystem))
            kept = table[key] = (
                tuple(v for v in above if v.prune_filters is not None),
                tuple(v.uniq_id for v in above),
            )
        return kept

    def parents(
        self, vertex: ResourceVertex, subsystem: str = CONTAINMENT
    ) -> List[ResourceVertex]:
        """In-neighbors of ``vertex`` within ``subsystem``."""
        inn = self._in.get(subsystem)
        if inn is None:
            raise SubsystemError(f"unknown subsystem: {subsystem!r}")
        return [self._vertices[e.src] for e in inn.get(vertex.uniq_id, [])]

    def out_edges(
        self, vertex: ResourceVertex, subsystem: str = CONTAINMENT
    ) -> List[ResourceEdge]:
        return list(self._out.get(subsystem, {}).get(vertex.uniq_id, []))

    def edges(self, subsystem: Optional[str] = None) -> Iterator[ResourceEdge]:
        """Iterate edges, optionally restricted to one subsystem."""
        names = [subsystem] if subsystem is not None else list(self._out)
        for name in names:
            adjacency = self._out.get(name)
            if adjacency is None:
                raise SubsystemError(f"unknown subsystem: {subsystem!r}")
            for edge_list in adjacency.values():
                yield from edge_list

    def roots(self, subsystem: str = CONTAINMENT) -> List[ResourceVertex]:
        """Vertices participating in ``subsystem`` with no in-edges there.

        Kept in the structure-derived table (matching asks on every walk).
        """
        table = self._table()
        root_ids = table.get(("roots", subsystem))
        if root_ids is None:
            out = self._out.get(subsystem)
            inn = self._in.get(subsystem)
            if out is None or inn is None:
                raise SubsystemError(f"unknown subsystem: {subsystem!r}")
            members: Set[int] = set()
            for src, edge_list in out.items():
                if edge_list:
                    members.add(src)
                    members.update(e.dst for e in edge_list)
            root_ids = table[("roots", subsystem)] = [
                uid for uid in sorted(members) if not inn.get(uid)
            ]
        return [self._vertices[uid] for uid in root_ids]

    @property
    def root(self) -> ResourceVertex:
        """The single containment root (error if zero or several)."""
        roots = self.roots(CONTAINMENT)
        if len(roots) != 1:
            raise ResourceGraphError(
                f"expected one containment root, found {len(roots)}"
            )
        return roots[0]

    def descendants(
        self,
        vertex: ResourceVertex,
        subsystem: str = CONTAINMENT,
        include_self: bool = False,
    ) -> Iterator[ResourceVertex]:
        """DFS over the subtree below ``vertex`` (cycle/diamond safe)."""
        seen: Set[int] = set()
        stack = [vertex] if include_self else self.children(vertex, subsystem)[::-1]
        while stack:
            v = stack.pop()
            if v.uniq_id in seen:
                continue
            seen.add(v.uniq_id)
            yield v
            stack.extend(self.children(v, subsystem)[::-1])

    def subtree_totals(
        self, vertex: ResourceVertex, subsystem: str = CONTAINMENT
    ) -> Dict[str, int]:
        """Total pool size per resource type in ``vertex``'s subtree
        (including the vertex itself)."""
        totals: Dict[str, int] = defaultdict(int)
        totals[vertex.type] += vertex.size
        for v in self.descendants(vertex, subsystem):
            totals[v.type] += v.size
        return dict(totals)

    def tracked_below(
        self, vertex: ResourceVertex, subsystem: str = CONTAINMENT
    ) -> Mapping[str, int]:
        """Units per pruning-filter-tracked type strictly below ``vertex``
        (types with none left out): what an exclusive hold of it closes
        beyond the vertex itself.  Kept in the structure-derived table; the
        caller must not change it."""
        table = self._table()
        key = ("below", subsystem, vertex.uniq_id)
        kept = table.get(key)
        if kept is None:
            totals = self.subtree_totals(vertex, subsystem)
            totals[vertex.type] -= vertex.size
            kept = table[key] = {
                t: n for t, n in totals.items() if n > 0 and t in self.prune_types
            }
        return kept

    def cover(
        self, subsystem: str, rtype: str
    ) -> Optional[Tuple[Planner, ...]]:
        """The ``rtype`` planners of the pruning filters on a *cut* of
        ``subsystem``: vertices whose subtrees together hold every vertex
        of that type.  With one root the cut is its children, with several
        the roots themselves.  A member holding none of the type is left
        out; None when the type is not a pruning type, when the one root is
        itself of the type, or when a member holds the type without a
        filter that tracks it.  Kept in the structure-derived table; the
        traverser's gate sums these planners' window minima (§3.4)."""
        table = self._table()
        key = ("cover", subsystem, rtype)
        if key in table:
            return table[key]
        kept: Optional[Tuple[Planner, ...]] = None
        roots = self.roots(subsystem)
        members: Tuple[ResourceVertex, ...] = tuple(roots)
        if len(roots) == 1:
            members = () if roots[0].type == rtype else self.children_tuple(
                roots[0], subsystem)
        if rtype in self.prune_types and members:
            planners: List[Planner] = []
            for member in members:
                holds = (member.type == rtype and member.size > 0) or (
                    rtype in self.tracked_below(member, subsystem))
                if not holds:
                    continue
                filters = member.prune_filters
                if filters is None or not filters.tracks(rtype):
                    break
                planners.append(filters.planner(rtype))
            else:
                kept = tuple(planners)
        table[key] = kept
        return kept

    def is_tree(self, subsystem: str = CONTAINMENT) -> bool:
        """True when no vertex has two parents in ``subsystem``, kept in the
        structure-derived table: a walk there meets what lies below a
        vertex only through that vertex."""
        table = self._table()
        key = ("tree", subsystem)
        kept = table.get(key)
        if kept is None:
            inn = self._in.get(subsystem)
            if inn is None:
                raise SubsystemError(f"unknown subsystem: {subsystem!r}")
            kept = table[key] = all(len(edges) <= 1 for edges in inn.values())
        return kept

    @property
    def pool_types(self) -> FrozenSet[str]:
        """Types with a pool (``size != 1``) anywhere in the store, kept in
        the structure-derived table: a request for any other type can only
        ever select distinct vertices, never aggregate units."""
        table = self._table()
        kept = table.get(("pool_types",))
        if kept is None:
            kept = table[("pool_types",)] = frozenset(
                v.type for v in self._vertices.values() if v.size != 1
            )
        return kept

    def total_by_type(self) -> Dict[str, int]:
        """Total pool size per resource type across the whole store."""
        totals: Dict[str, int] = defaultdict(int)
        for v in self._vertices.values():
            totals[v.type] += v.size
        return dict(totals)

    # ------------------------------------------------------------------
    # administrative status (drain/resume)
    # ------------------------------------------------------------------
    def mark_down(self, vertex: ResourceVertex) -> None:
        """Drain ``vertex``: it and its subtree stop matching immediately.

        Existing allocations are untouched (the admin decides whether to
        cancel them); new matches skip the vertex.  Unlike a scheduled
        outage (:class:`~repro.sched.capacity.CapacitySchedule`) this is an
        instantaneous, open-ended state change.
        """
        self._require(vertex)
        vertex.status = "down"
        self.drains += 1
        self.note_change(structural=True)

    def mark_up(self, vertex: ResourceVertex) -> None:
        """Return a drained vertex to service."""
        self._require(vertex)
        vertex.status = "up"
        self.drains += 1
        self.note_change(structural=True)

    # ------------------------------------------------------------------
    # pruning filters (§3.4)
    # ------------------------------------------------------------------
    def install_pruning_filters(
        self,
        filter_types: List[str],
        at_types: Optional[List[str]] = None,
        subsystem: str = CONTAINMENT,
    ) -> int:
        """Install PlannerMulti pruning filters and return how many were placed.

        ``filter_types`` are the lower-level resource types each filter tracks
        in aggregate (e.g. ``["core"]``).  Filters are placed on vertices whose
        type is in ``at_types`` *and always on the containment roots* (the
        root filter also drives reservation scheduling).  Existing filters are
        replaced; installing filters while allocations are active is an error
        because the aggregates would be stale.
        """
        # Ancestry and tracked totals read the filters: the table goes
        # first, so it is gone even when a busy vertex stops the call half
        # way, and what the call itself derives (roots, children) stays.
        self._derived = {}
        targets: List[ResourceVertex] = list(self.roots(subsystem))
        if at_types:
            at = set(at_types)
            root_ids = {v.uniq_id for v in targets}
            targets.extend(
                v for v in self._vertices.values()
                if v.type in at and v.uniq_id not in root_ids
            )
        installed = 0
        for vertex in targets:
            if vertex.held:
                raise ResourceGraphError(
                    "cannot (re)install pruning filters while allocations exist"
                )
            totals = self.subtree_totals(vertex, subsystem)
            tracked = {t: totals[t] for t in filter_types if totals.get(t)}
            if not tracked:
                vertex.prune_filters = None
                continue
            vertex.prune_filters = PlannerMulti(
                tracked, self.plan_start, self.plan_end
            )
            installed += 1
        self.prune_types = tuple(filter_types)
        return installed

    def ancestors(
        self, vertex: ResourceVertex, subsystem: str = CONTAINMENT
    ) -> Iterator[ResourceVertex]:
        """All (transitive) parents of ``vertex``, deduplicated, bottom-up-ish."""
        seen: Set[int] = set()
        stack = self.parents(vertex, subsystem)
        while stack:
            v = stack.pop()
            if v.uniq_id in seen:
                continue
            seen.add(v.uniq_id)
            yield v
            stack.extend(self.parents(v, subsystem))

    # ------------------------------------------------------------------
    # views and export
    # ------------------------------------------------------------------
    def subsystem_view(self, subsystem: str) -> "SubsystemView":
        """Graph filtering (§3.3): a view exposing only one subsystem."""
        if subsystem not in self._out:
            raise SubsystemError(f"unknown subsystem: {subsystem!r}")
        return SubsystemView(self, subsystem)

    def to_networkx(self, subsystem: Optional[str] = None) -> Any:
        """Export to a networkx.DiGraph (vertex attrs: type, name, size, ...)."""
        import networkx as nx

        g = nx.DiGraph()
        member_ids: Optional[Set[int]] = None
        if subsystem is not None:
            member_ids = set()
            for edge in self.edges(subsystem):
                member_ids.add(edge.src)
                member_ids.add(edge.dst)
        for v in self._vertices.values():
            if member_ids is not None and v.uniq_id not in member_ids:
                continue
            g.add_node(
                v.uniq_id,
                type=v.type,
                name=v.name,
                size=v.size,
                unit=v.unit,
                properties=dict(v.properties),
                paths=dict(v.paths),
            )
        for edge in self.edges(subsystem):
            g.add_edge(edge.src, edge.dst, subsystem=edge.subsystem, type=edge.type)
        return g

    def _require(self, vertex: ResourceVertex) -> None:
        if self._vertices.get(vertex.uniq_id) is not vertex:
            raise ResourceGraphError(f"vertex {vertex!r} not in this graph")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ResourceGraph({len(self._vertices)} vertices, "
            f"{self._edge_count} edges, subsystems={list(self._out)})"
        )


class SubsystemView:
    """A read-only, single-subsystem view of a :class:`ResourceGraph`.

    Implements the paper's *graph filtering*: schedulers that only care about
    one subsystem (e.g. ``containment``) see just that slice.
    """

    __slots__ = ("_graph", "subsystem")

    def __init__(self, graph: ResourceGraph, subsystem: str) -> None:
        self._graph = graph
        self.subsystem = subsystem

    def vertices(self) -> Iterator[ResourceVertex]:
        member_ids: Set[int] = set()
        for edge in self._graph.edges(self.subsystem):
            member_ids.add(edge.src)
            member_ids.add(edge.dst)
        for uid in sorted(member_ids):
            yield self._graph.vertex(uid)

    def edges(self) -> Iterator[ResourceEdge]:
        return self._graph.edges(self.subsystem)

    def children(self, vertex: ResourceVertex) -> List[ResourceVertex]:
        return self._graph.children(vertex, self.subsystem)

    def parents(self, vertex: ResourceVertex) -> List[ResourceVertex]:
        return self._graph.parents(vertex, self.subsystem)

    def roots(self) -> List[ResourceVertex]:
        return self._graph.roots(self.subsystem)

    def __len__(self) -> int:
        return sum(1 for _ in self.vertices())
