"""JGF (JSON Graph Format) serialization of resource graphs.

Fluxion exchanges resource graphs as JGF documents (``flux ion-R encode``,
``resource-query --load-format=jgf``); this module provides the equivalent:

* :func:`to_jgf` — serialise a :class:`~repro.resource.graph.ResourceGraph`
  into a JGF mapping (vertex metadata: type, basename, id, size, unit, rank,
  paths, properties; edge metadata: subsystem and relationship name);
* :func:`from_jgf` — rebuild a graph from a JGF mapping or JSON text.

Round-tripping preserves the full structure: types, pool sizes, per-subsystem
paths, properties and edge relationships.  Planner state (allocations) is
deliberately *not* serialised — JGF describes resources, not bookings, same
as Fluxion's.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Union

from ..errors import ResourceGraphError
from .graph import ResourceGraph

__all__ = ["to_jgf", "from_jgf", "save_jgf", "load_jgf"]


def to_jgf(graph: ResourceGraph) -> Dict[str, Any]:
    """Serialise ``graph`` into a JGF mapping."""
    nodes = []
    for vertex in graph.vertices():
        nodes.append(
            {
                "id": str(vertex.uniq_id),
                "metadata": {
                    "type": vertex.type,
                    "basename": vertex.basename,
                    "name": vertex.name,
                    "id": vertex.id,
                    "uniq_id": vertex.uniq_id,
                    "rank": vertex.rank,
                    "size": vertex.size,
                    "unit": vertex.unit,
                    "status": vertex.status,
                    "paths": dict(vertex.paths),
                    "properties": dict(vertex.properties),
                },
            }
        )
    edges = []
    for edge in graph.edges():
        metadata: Dict[str, Any] = {
            "subsystem": edge.subsystem,
            "name": {edge.subsystem: edge.type},
        }
        if edge.properties:
            metadata["properties"] = dict(edge.properties)
        edges.append(
            {
                "source": str(edge.src),
                "target": str(edge.dst),
                "metadata": metadata,
            }
        )
    # Record where pruning filters actually sit so a reload re-installs them
    # at the same levels (rabbit systems filter at rack/rabbit, LOD presets
    # at rack/node, ...).  Roots always get filters, so only non-root
    # placements need recording.
    root_ids = set()
    for subsystem in graph.subsystems:
        root_ids.update(v.uniq_id for v in graph.roots(subsystem))
    prune_at = sorted(
        {
            v.type
            for v in graph.vertices()
            if v.prune_filters is not None and v.uniq_id not in root_ids
        }
    )
    return {
        "graph": {
            "directed": True,
            "nodes": nodes,
            "edges": edges,
            "metadata": {
                "plan_start": graph.plan_start,
                "plan_end": graph.plan_end,
                "prune_types": list(graph.prune_types),
                "prune_at": prune_at,
            },
        }
    }


def from_jgf(source: Union[str, Mapping[str, Any]]) -> ResourceGraph:
    """Rebuild a :class:`ResourceGraph` from a JGF mapping or JSON text.

    Vertex ``uniq_id`` values are reassigned (they are graph-internal);
    logical ids, names, paths, edge properties and structure are preserved
    exactly.  If the document records ``prune_types``, matching pruning
    filters are reinstalled at the recorded ``prune_at`` levels (falling
    back to rack/node for documents written before ``prune_at`` existed).
    """
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ResourceGraphError(f"invalid JGF JSON: {exc}") from exc
    else:
        data = source
    if not isinstance(data, Mapping) or "graph" not in data:
        raise ResourceGraphError("JGF document requires a top-level 'graph'")
    body = data["graph"]
    if not isinstance(body, Mapping):
        raise ResourceGraphError("'graph' must be a mapping")
    doc_meta = body.get("metadata") or {}
    graph = ResourceGraph(
        plan_start=doc_meta.get("plan_start", 0),
        plan_end=doc_meta.get("plan_end", 2**62),
    )
    nodes = body.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise ResourceGraphError("JGF graph requires a non-empty 'nodes' list")
    by_id = {}
    for entry in nodes:
        if not isinstance(entry, Mapping) or "id" not in entry:
            raise ResourceGraphError(f"malformed JGF node: {entry!r}")
        meta = entry.get("metadata") or {}
        if "type" not in meta:
            raise ResourceGraphError(
                f"JGF node {entry['id']!r} missing metadata.type"
            )
        vertex = graph.add_vertex(
            type=meta["type"],
            basename=meta.get("basename"),
            id=meta.get("id"),
            size=meta.get("size", 1),
            unit=meta.get("unit"),
            rank=meta.get("rank", -1),
            properties=meta.get("properties"),
        )
        status = meta.get("status", "up")
        if status not in ("up", "down"):
            raise ResourceGraphError(
                f"JGF node {entry['id']!r} has unknown status {status!r}"
            )
        if status == "down":
            graph.mark_down(vertex)
        key = str(entry["id"])
        if key in by_id:
            raise ResourceGraphError(f"duplicate JGF node id {key!r}")
        by_id[key] = vertex
        # Preserve recorded paths verbatim (add_edge would re-derive them,
        # but explicit paths survive even partial/multi-parent structures).
        paths = meta.get("paths") or {}
        vertex.paths.update({str(k): str(v) for k, v in paths.items()})
    for entry in body.get("edges", []):
        if not isinstance(entry, Mapping):
            raise ResourceGraphError(f"malformed JGF edge: {entry!r}")
        try:
            src = by_id[str(entry["source"])]
            dst = by_id[str(entry["target"])]
        except KeyError as exc:
            raise ResourceGraphError(
                f"JGF edge references unknown node {exc}"
            ) from None
        meta = entry.get("metadata") or {}
        subsystem = meta.get("subsystem", "containment")
        names = meta.get("name") or {}
        edge_type = names.get(subsystem, "contains")
        properties = meta.get("properties") or None
        graph.add_edge(
            src,
            dst,
            subsystem=subsystem,
            edge_type=edge_type,
            properties=dict(properties) if properties else None,
        )
    prune_types = doc_meta.get("prune_types") or []
    if prune_types:
        at_types = doc_meta.get("prune_at")
        if at_types is None:  # pre-``prune_at`` documents
            at_types = ["rack", "node"]
        graph.install_pruning_filters(
            list(prune_types), at_types=list(at_types)
        )
    return graph


def save_jgf(graph: ResourceGraph, path: str, indent: int = 2) -> None:
    """Write ``graph`` to ``path`` as JGF JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_jgf(graph), handle, indent=indent, sort_keys=True)


def load_jgf(path: str) -> ResourceGraph:
    """Read a JGF JSON file into a :class:`ResourceGraph`."""
    with open(path, "r", encoding="utf-8") as handle:
        return from_jgf(handle.read())
