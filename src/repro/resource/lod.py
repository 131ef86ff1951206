"""Dynamic level-of-detail control: pool coarsening and refinement (§3.3).

"When a resource needs to be described at coarse granularity it can be
pooled together at a higher level; when fine granularity is required, the
resource can be promoted to its own individual pool" — and the paper adds
that vertices may be added or removed *dynamically* for this.  These
operations do exactly that, in place:

* :func:`coarsen_pools` — merge idle sibling pools of one type into a single
  pool vertex of the summed size (e.g. 8x16GB memory -> 1x128GB);
* :func:`refine_pool` — split an idle pool vertex into parts (e.g. a 5-core
  pool promoted to five singleton cores).

Both conserve total capacity per type, so pruning-filter aggregates stay
valid without any update.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import ResourceGraphError
from .graph import ResourceGraph
from .vertex import ResourceVertex

__all__ = ["coarsen_pools", "refine_pool"]


def _require_idle(vertices: Sequence[ResourceVertex]) -> None:
    busy = [v.name for v in vertices if v.held]
    if busy:
        raise ResourceGraphError(
            f"cannot change granularity of allocated pools: {busy[:5]}"
        )


def coarsen_pools(
    graph: ResourceGraph, vertices: Sequence[ResourceVertex]
) -> ResourceVertex:
    """Merge idle sibling leaf pools into one pool of the summed size.

    All vertices must share a type, a unit, and a single containment parent,
    be leaves (no children), and be idle.  Returns the new pool vertex.
    """
    if len(vertices) < 2:
        raise ResourceGraphError("coarsening needs at least two pools")
    first = vertices[0]
    if any(v.type != first.type or v.unit != first.unit for v in vertices):
        raise ResourceGraphError("pools must share type and unit to merge")
    parents = {id(p): p for v in vertices for p in graph.parents(v)}
    if len(parents) != 1:
        raise ResourceGraphError("pools must share a single parent to merge")
    for v in vertices:
        if graph.children(v):
            raise ResourceGraphError(f"{v.name} is not a leaf pool")
    _require_idle(vertices)
    (parent,) = parents.values()
    merged = graph.add_vertex(
        first.type,
        basename=first.basename,
        size=sum(v.size for v in vertices),
        unit=first.unit,
    )
    graph.add_edge(parent, merged)
    for v in vertices:
        graph.remove_vertex(v)
    return merged


def refine_pool(
    graph: ResourceGraph, vertex: ResourceVertex, parts: Sequence[int]
) -> List[ResourceVertex]:
    """Split an idle leaf pool into sibling pools sized ``parts``.

    ``sum(parts)`` must equal the pool's size (capacity conservation).
    Returns the new pool vertices, attached to the original parent.
    """
    if len(parts) < 2:
        raise ResourceGraphError("refinement needs at least two parts")
    if any(p < 1 for p in parts):
        raise ResourceGraphError("every part must be at least 1")
    if sum(parts) != vertex.size:
        raise ResourceGraphError(
            f"parts sum to {sum(parts)}, pool holds {vertex.size}"
        )
    if graph.children(vertex):
        raise ResourceGraphError(f"{vertex.name} is not a leaf pool")
    parents = graph.parents(vertex)
    if len(parents) != 1:
        raise ResourceGraphError("refinement requires a single parent")
    _require_idle([vertex])
    parent = parents[0]
    created = []
    for size in parts:
        part = graph.add_vertex(
            vertex.type, basename=vertex.basename, size=size, unit=vertex.unit
        )
        graph.add_edge(parent, part)
        created.append(part)
    graph.remove_vertex(vertex)
    return created
