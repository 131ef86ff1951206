"""Elasticity: dynamic updates to the resource graph store (paper §5.5).

Systems grow (new racks arrive, cloud capacity is attached) and shrink
(nodes drained, capacity reclaimed) while the scheduler keeps running.  The
graph model supports this directly: subtrees are added or removed and the
affected pruning-filter totals are resized in place — no global rebuild, and
existing allocations are never broken (shrinking allocated resources is
refused).

Job-side elasticity (malleability) works through the ordinary match verbs: a
job grows by acquiring an additional allocation and shrinks by releasing one
(see :meth:`grow_job` / :meth:`shrink_job`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from ..errors import PlannerError, ResourceGraphError
from ..grug.recipe import _build_level
from ..jobspec import Jobspec
from ..match import Allocation, Traverser
from ..resource import ResourceGraph, ResourceVertex
from .job import Job

__all__ = ["grow", "shrink_subtree", "resize_pool", "grow_job", "shrink_job"]


def _ancestor_filter_deltas(
    graph: ResourceGraph,
    vertex: ResourceVertex,
    deltas: Mapping[str, int],
    include_self: bool = False,
) -> Iterator[Tuple[ResourceVertex, str, int]]:
    """``(holder, type, delta)`` for every filter above ``vertex`` that a
    per-type capacity delta lands on."""
    targets: List[ResourceVertex] = list(graph.ancestors(vertex))
    if include_self:
        targets.insert(0, vertex)
    for ancestor in targets:
        if ancestor.prune_filters is None:
            continue
        for rtype, delta in deltas.items():
            if delta and rtype in graph.prune_types:
                yield ancestor, rtype, delta


def _adjust_ancestor_filters(
    graph: ResourceGraph,
    vertex: ResourceVertex,
    deltas: Mapping[str, int],
    include_self: bool = False,
) -> None:
    """Apply per-type capacity deltas to every filter above ``vertex``."""
    for ancestor, rtype, delta in _ancestor_filter_deltas(
        graph, vertex, deltas, include_self
    ):
        filters = ancestor.prune_filters
        if filters.tracks(rtype):
            filters.resize(rtype, filters.total(rtype) + delta)
        elif delta > 0:
            filters.add_type(rtype, delta)


def _refuse_beyond_totals(
    graph: ResourceGraph, vertex: ResourceVertex, deltas: Mapping[str, int],
    include_self: bool, what: str,
) -> None:
    """Refuse, before anything is changed, a cut larger than a filter above
    ``vertex`` totals: a size disagrees with it (unrepaired corruption)."""
    for holder, rtype, delta in _ancestor_filter_deltas(
        graph, vertex, deltas, include_self
    ):
        filters = holder.prune_filters
        if filters.tracks(rtype) and filters.total(rtype) + delta < 0:
            raise ResourceGraphError(
                f"{what} {-delta} {rtype} by its vertex sizes but the "
                f"{rtype} filter on {holder.name} totals "
                f"{filters.total(rtype)}; repair the sizes first"
            )


def _reshaped(
    graph: ResourceGraph, vertex: ResourceVertex, gone: bool = False
) -> None:
    """Tell the integrity monitor reading ``graph`` (if any) what this call
    made of ``vertex``, so the change enters its baseline and nothing
    written to the vertex afterwards does."""
    if graph.reshaped is not None:
        from ..recovery.integrity import vertex_structure

        graph.reshaped[vertex.name] = None if gone else vertex_structure(vertex)


def grow(
    graph: ResourceGraph,
    parent: ResourceVertex,
    spec: Mapping[str, Any],
) -> List[ResourceVertex]:
    """Attach a new subtree under ``parent`` and return the created vertices.

    ``spec`` uses the GRUG recipe vertex format (type/count/size/with/...).
    Pruning filters on ``parent`` and its ancestors are grown by the new
    subtree's totals, so matching sees the capacity immediately.
    """
    first_new_id = graph._next_id
    _build_level(graph, parent, spec)
    created = [
        graph.vertex(uid) for uid in range(first_new_id, graph._next_id)
    ]
    deltas: Dict[str, int] = {}
    for vertex in created:
        deltas[vertex.type] = deltas.get(vertex.type, 0) + vertex.size
        _reshaped(graph, vertex)
    _adjust_ancestor_filters(graph, parent, deltas, include_self=True)
    return created


def shrink_subtree(
    graph: ResourceGraph, vertex: ResourceVertex, force: bool = False
) -> int:
    """Remove ``vertex`` and its entire subtree; return how many were removed.

    Refuses when any vertex in the subtree holds active allocations unless
    ``force`` (which tears the spans' vertices out regardless — only for
    failure simulation).  Ancestor filter totals shrink accordingly; when
    the subtree's sizes add up to more than an ancestor filter totals, the
    call refuses with the graph untouched.
    """
    doomed = [vertex] + list(graph.descendants(vertex))
    if not force:
        busy = [v.name for v in doomed if v.held]
        if busy:
            raise ResourceGraphError(
                f"subtree of {vertex.name} has active allocations on "
                f"{busy[:5]}; drain first or pass force=True"
            )
    deltas: Dict[str, int] = {}
    for v in doomed:
        deltas[v.type] = deltas.get(v.type, 0) - v.size
    parents = graph.parents(vertex)
    anchor = parents[0] if parents else None
    if anchor is not None:
        _refuse_beyond_totals(
            graph, anchor, deltas, True, f"subtree of {vertex.name} holds"
        )
    for v in reversed(doomed):
        graph.remove_vertex(v, force=True)
        _reshaped(graph, v, gone=True)
    if anchor is not None:
        _adjust_ancestor_filters(graph, anchor, deltas, include_self=True)
    return len(doomed)


def resize_pool(
    graph: ResourceGraph, vertex: ResourceVertex, new_size: int
) -> None:
    """Change a pool vertex's schedulable quantity (e.g. add memory).

    Shrinking below the amount in use at any time raises, and so does a cut
    larger than a filter above totals, with nothing changed.  What is in
    use is the vertex's effective view: an exclusive hold uses the whole
    pool.
    """
    delta = new_size - vertex.size
    if delta == 0:
        return
    _refuse_beyond_totals(
        graph, vertex, {vertex.type: delta}, False, f"{vertex.name} gives up"
    )
    plans = vertex.plans
    cut = plans.total - new_size
    if cut > 0 and not vertex.avail_during(
        plans.plan_start, plans.plan_end - plans.plan_start, cut
    ):
        raise PlannerError(
            f"cannot shrink {vertex.name} to {new_size}: more is in use "
            "within the plan"
        )
    plans.resize(new_size)
    vertex.size = new_size
    _reshaped(graph, vertex)
    graph.note_change(structural=True)
    _adjust_ancestor_filters(graph, vertex, {vertex.type: delta})


def grow_job(
    traverser: Traverser, job: Job, jobspec: Jobspec, now: int = 0
) -> Optional[Allocation]:
    """Malleable grow: acquire an additional allocation for ``job``.

    Returns the new allocation (attached to the job) or None if it does not
    fit right now.  The extra window is clipped to the job's remaining
    runtime when the job already has a primary allocation.
    """
    alloc = traverser.allocate(jobspec, at=now)
    if alloc is not None:
        job.allocations.append(alloc)
    return alloc


def shrink_job(traverser: Traverser, job: Job, allocation: Allocation) -> None:
    """Malleable shrink: release one of the job's allocations early."""
    if allocation not in job.allocations:
        raise ResourceGraphError(
            f"allocation {allocation.alloc_id} does not belong to job {job.job_id}"
        )
    if allocation is job.allocation and len(job.allocations) > 1:
        raise ResourceGraphError(
            "cannot release the primary allocation while grown allocations "
            "remain; shrink those first"
        )
    traverser.remove(allocation.alloc_id)
    job.allocations.remove(allocation)
