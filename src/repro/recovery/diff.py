"""State-diff checker: prove two simulators are in equivalent states.

The crash-equivalence tests compare a recovered simulator against an
uninterrupted control run.  Equivalence is *logical*: everything that can
influence future scheduling decisions or reported results must match —
graph structure and vertex status, planner spans (ids included, since ids
feed future decisions), allocations, jobs, queue state, the pending event
heap, the event log and the accounting counters.  Wall-clock measurements
(``Job.sched_time``) are excluded: two runs of identical decisions never
take identical wall time.  The graph's change counters
(:meth:`ResourceGraph.note_change`) are left out as well: only a queue
policy that keys an answer on ``freed`` / ``unplanned`` can tell their
values apart, and that policy's state — the values it keyed on — is
compared; ``structure`` keys only answers that are re-derived on demand
(:meth:`Traverser.satisfiable`'s remembered shapes,
:attr:`ResourceGraph.pool_types`) and that a restore starts without.

``state_fingerprint`` reduces a simulator to a nested JSON-able structure;
``state_diff`` returns human-readable paths where two fingerprints differ
(empty list = equivalent).
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..match.writer import planner_owner_index
from ..sched.simulator import ClusterSimulator
from .snapshot import LAYER_SECTIONS

__all__ = ["state_fingerprint", "state_diff"]


def state_fingerprint(sim: ClusterSimulator) -> Dict[str, Any]:
    """Reduce ``sim`` to a comparable, JSON-able structure.

    Vertices appear under their globally unique names so fingerprints from
    independently constructed graphs (e.g. restored from JGF) compare
    correctly even though ``uniq_id`` values differ.
    """
    graph = sim.graph
    vertices: Dict[str, Any] = {}
    for vertex in graph.vertices():
        entry: Dict[str, Any] = {
            "type": vertex.type,
            "size": vertex.size,
            "status": vertex.status,
            "properties": dict(vertex.properties),
            "paths": dict(vertex.paths),
            "plans": vertex.plans.export_state(),
            "xplans": vertex.xplans.export_state(),
        }
        if vertex.prune_filters is not None:
            entry["filter"] = vertex.prune_filters.export_state()
        vertices[vertex.name] = entry

    owner = planner_owner_index(graph)
    allocations = {
        str(alloc_id): alloc.to_record(owner)
        for alloc_id, alloc in sim.traverser.allocations.items()
    }

    jobs = {}
    for job_id, job in sim.jobs.items():
        record = job.to_record()
        record.pop("sched_time", None)  # wall-clock: never reproducible
        # Released allocations of finished jobs still feed the report
        # (start/end windows), so their windows are part of the state.
        record["alloc_windows"] = [
            [a.at, a.duration, a.reserved] for a in job.allocations
        ]
        jobs[str(job_id)] = record

    events = [
        [when, kind, eseq, sim._event_ref(kind, ref), data]
        for when, kind, eseq, ref, data in sorted(sim._events)
    ]

    fingerprint = {
        "now": sim.now,
        "vertices": vertices,
        "allocations": allocations,
        "next_alloc_id": sim.traverser._next_alloc_id,
        "jobs": jobs,
        "next_job_id": sim._next_job_id,
        "queue": {
            "name": sim.queue_policy.name,
            "state": sim.queue_policy.export_state(),
        },
        "events": events,
        "event_seq": sim._event_seq,
        "started_allocs": sorted(sim._started_allocs),
        "event_log": [list(entry) for entry in sim.event_log],
        "counters": {
            "failures": sim.failures,
            "retries": sim.retries,
            "busy_node_seconds": sim._busy_node_seconds,
            "work_lost": sim._work_lost,
        },
        "down_since": {
            graph.vertex(uid).name: [t, nodes]
            for uid, (t, nodes) in sim._down_since.items()
        },
        "downtime": sorted(
            [graph.vertex(uid).name, t0, t1, nodes]
            for uid, t0, t1, nodes in sim._downtime
        ),
    }
    # An optional layer's state steers its future decisions and feeds the
    # report (None = the layer is absent).
    for name, layer in LAYER_SECTIONS.items():
        if layer.fingerprinted:
            held = getattr(sim, name)
            fingerprint[name] = None if held is None else held.export_state()
    return fingerprint


def _walk(a: Any, b: Any, path: str, out: List[str]) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a:
                out.append(f"{sub}: only in second ({b[key]!r})")
            elif key not in b:
                out.append(f"{sub}: only in first ({a[key]!r})")
            else:
                _walk(a[key], b[key], sub, out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
            return
        for index, (item_a, item_b) in enumerate(zip(a, b)):
            _walk(item_a, item_b, f"{path}[{index}]", out)
    elif a != b:
        out.append(f"{path}: {a!r} != {b!r}")


def state_diff(a: ClusterSimulator, b: ClusterSimulator) -> List[str]:
    """Human-readable differences between two simulators' logical states.

    Returns an empty list when the simulators are equivalent.
    """
    out: List[str] = []
    _walk(state_fingerprint(a), state_fingerprint(b), "", out)
    return out
