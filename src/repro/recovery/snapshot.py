"""Snapshots: one versioned, checksummed document for the whole scheduler.

A snapshot captures everything a :class:`~repro.sched.ClusterSimulator`
needs to resume: the resource graph (as JGF, including down/drained status
and pruning-filter placement), every planner's spans (per-vertex ``plans``
and ``xplans`` plus pruning-filter aggregates), active and reserved
allocations, job and queue-policy state, the pending event heap, the
accounting counters, and one section per optional layer
(:data:`LAYER_SECTIONS`: its settings and its state).  The document is
wrapped with a SHA-256 checksum; a half-written or bit-rotted snapshot file
fails verification and recovery falls back to an older one.  A section that
verifies but cannot be read raises :class:`SnapshotError` naming it.

Restores are *exact*: planner spans come back under their original ids (so
future auto-assigned ids match), the event heap keeps its sequence
tiebreakers, and vertices are matched by globally unique name (uniq_ids are
graph-internal and reassigned on load).
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
from contextlib import contextmanager
from operator import attrgetter
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple,
)

from ..errors import FluxionError, RecoveryError, SnapshotError
from ..match.writer import Allocation, planner_owner_index
from ..resilience.auditor import InvariantAuditor
from ..resilience.overload import OverloadConfig
from ..resilience.retry import RetryPolicy
from ..resource.jgf import from_jgf, to_jgf
from ..resource.vertex import PLANNER_KINDS
from ..sched.job import Job
from ..sched.simulator import _FAIL, _REPAIR, ClusterSimulator
from ..settings import Settings, _refuse_unknown
from .integrity import IntegrityConfig

__all__ = [
    "SNAPSHOT_VERSION",
    "REBUILDABLE_SECTIONS",
    "LAYER_SECTIONS",
    "snapshot_state",
    "restore_simulator",
    "write_snapshot",
    "load_snapshot",
    "load_snapshot_salvage",
]

#: 2: each selection books one span (:attr:`Selection.booking`); a version-1
#: document also holds a ``plans`` span per exclusive hold, which would
#: restore as spans no allocation accounts for
SNAPSHOT_VERSION = 2

#: sections :func:`load_snapshot_salvage` may drop: each can be rebuilt from
#: the rest of the document (planners from the allocation table) or holds
#: only reporting state whose loss is bounded and accounted.
REBUILDABLE_SECTIONS = frozenset(
    {"planners", "traverser_stats", "event_log", "recovery_stats"}
)

#: the keys of the ``traverser_stats`` section; each holds the traverser's
#: ``dfu.<key>`` counter
_TRAVERSER_STATS = ("visits", "matched", "failed", "reserve_iters")


class _Layer(NamedTuple):
    """How one optional layer crosses a restart."""

    settings: type  # what the layer's ClusterSimulator keyword takes
    state_key: str  # the section key of the layer's export_state()
    settings_of: Callable[[Any], Settings]  # the layer's settings object
    fingerprinted: bool  # whether state_fingerprint compares that state


#: The optional layers that survive a restart, one snapshot section each,
#: named as the layer's :class:`ClusterSimulator` keyword and attribute:
#: ``{"config": settings.to_dict(), state_key: layer.export_state()}``, or
#: None when the layer is absent.
LAYER_SECTIONS: Dict[str, _Layer] = {
    # The fingerprint leaves the jitter stream's position out (ROADMAP 7(a)
    # decides where it belongs).
    "retry_policy": _Layer(RetryPolicy, "rng_state", lambda p: p, False),
    "overload": _Layer(OverloadConfig, "state", attrgetter("config"), True),
    "integrity": _Layer(IntegrityConfig, "state", attrgetter("config"), True),
}


@contextmanager
def _section(name: str) -> Iterator[None]:
    """Raise whatever a malformed section ``name`` makes its reader raise as
    one SnapshotError naming the section."""
    try:
        yield
    except (
        FluxionError, KeyError, TypeError, ValueError, AttributeError
    ) as exc:
        raise SnapshotError(f"snapshot section {name!r}: {exc}") from None


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _section_digest(value: Any) -> str:
    return _sha256(_canonical(value))


def _planner_states(sim: ClusterSimulator) -> Dict[str, Dict[str, Any]]:
    """Per-vertex planner exports, skipping pristine (never-touched) ones."""

    def keep(state: Dict[str, Any]) -> bool:
        return bool(state["spans"]) or state["next_span_id"] > 1

    out: Dict[str, Dict[str, Any]] = {}
    for vertex in sim.graph.vertices():
        entry: Dict[str, Any] = {}
        plans = vertex.plans.export_state()
        if keep(plans):
            entry["plans"] = plans
        xplans = vertex.xplans.export_state()
        if keep(xplans):
            entry["xplans"] = xplans
        if vertex.prune_filters is not None:
            filt = vertex.prune_filters.export_state()
            if filt["spans"] or filt["next_span_id"] > 1:
                entry["filter"] = filt
        if entry:
            out[vertex.name] = entry
    return out


def snapshot_state(sim: ClusterSimulator, seq: int = 0) -> Dict[str, Any]:
    """Serialise the complete simulator state at journal sequence ``seq``.

    Journal records with sequence numbers greater than ``seq`` replay on top
    of this snapshot during recovery.
    """
    owner = planner_owner_index(sim.graph)
    events = [
        [when, kind, eseq, sim._event_ref(kind, ref), data]
        for when, kind, eseq, ref, data in sorted(sim._events)
    ]
    # Completed jobs keep references to already-released allocations (their
    # windows feed the report), so serialise the union of live traverser
    # allocations and everything any job still points at.
    all_allocs = dict(sim.traverser.allocations)
    for job in sim.jobs.values():
        for alloc in job.allocations:
            all_allocs.setdefault(alloc.alloc_id, alloc)
    metrics = sim.traverser.metrics
    doc = {
        "version": SNAPSHOT_VERSION,
        "seq": seq,
        "now": sim.now,
        "config": {
            "match_policy": sim.traverser.policy.name,
            "queue": sim.queue_policy.name,
            "queue_state": sim.queue_policy.export_state(),
            "prune": sim.traverser.prune,
            "audit": False if sim.auditor is None else {"deep": sim.auditor.deep},
        },
        "graph": to_jgf(sim.graph),
        "planners": _planner_states(sim),
        "allocations": [
            alloc.to_record(owner) for _, alloc in sorted(all_allocs.items())
        ],
        "live_alloc_ids": sorted(sim.traverser.allocations),
        "next_alloc_id": sim.traverser._next_alloc_id,
        # What the queue-policy state under config.queue_state is keyed on
        # (graph.structure keys only what a restored run derives afresh).
        "graph_changes": [sim.graph.freed, sim.graph.unplanned],
        "traverser_stats": {
            key: metrics.counter("dfu." + key).value for key in _TRAVERSER_STATS
        },
        "jobs": [job.to_record() for _, job in sorted(sim.jobs.items())],
        "next_job_id": sim._next_job_id,
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
            sim.graph.vertex(uid).name: [t, nodes]
            for uid, (t, nodes) in sim._down_since.items()
        },
        "downtime": [
            [sim.graph.vertex(uid).name, t0, t1, nodes]
            for uid, t0, t1, nodes in sim._downtime
        ],
        "recovery_stats": dict(sim.recovery_stats),
    }
    for name, layer in LAYER_SECTIONS.items():
        held = getattr(sim, name)
        doc[name] = None if held is None else {
            "config": layer.settings_of(held).to_dict(),
            layer.state_key: held.export_state(),
        }
    return doc


def restore_simulator(
    doc: Dict[str, Any], salvaged: Iterable[str] = ()
) -> ClusterSimulator:
    """Rebuild a fresh :class:`ClusterSimulator` from a snapshot document.

    ``salvaged`` names sections :func:`load_snapshot_salvage` dropped; each
    must be in :data:`REBUILDABLE_SECTIONS`.  A dropped ``planners`` section
    is reconstructed from the restored live allocations: every planner is
    rebuilt to what :func:`~repro.recovery.integrity.expected_span_table`
    says it holds (span ids preserved; planner auto-id counters restart
    from the rebuilt registry — a bounded, accounted loss).  The other
    rebuildable sections restart from fresh defaults.  Every rebuilt section
    is counted in ``recovery_stats["snapshot_sections_rebuilt"]``.
    """
    salvaged = set(salvaged)
    bad = salvaged - REBUILDABLE_SECTIONS
    if bad:
        raise SnapshotError(
            f"cannot restore without critical section(s): {sorted(bad)}"
        )
    if doc.get("version") == 1:
        raise SnapshotError(
            "snapshot version 1 predates the one-span booking rule (an "
            "exclusive hold books only its xplans span, a pool quantity only "
            f"its plans span); version {SNAPSHOT_VERSION} cannot restore it"
        )
    if doc.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {doc.get('version')!r}"
        )
    graph = from_jgf(doc["graph"])
    config = doc["config"]
    audit = config["audit"]  # a bare bool before the auditor's depth was kept
    if isinstance(audit, dict):
        audit = InvariantAuditor(deep=audit["deep"])
    # A snapshot written before a layer existed has no section for it.
    layers = {n: doc[n] for n in LAYER_SECTIONS if doc.get(n) is not None}
    settings: Dict[str, Any] = {}
    for name, section in layers.items():
        layer = LAYER_SECTIONS[name]
        with _section(name):
            _refuse_unknown(
                "section", section, ("config", layer.state_key), SnapshotError
            )
            settings[name] = layer.settings.from_dict(section["config"])
    sim = ClusterSimulator(
        graph,
        match_policy=config["match_policy"],
        queue=config["queue"],
        prune=config["prune"],
        audit=audit,
        **settings,
    )
    by_name = {v.name: v for v in graph.vertices()}

    live = set(doc["live_alloc_ids"])
    allocations: Dict[int, Allocation] = {}
    for record in doc["allocations"]:
        alloc = Allocation.from_record(record, by_name)
        if alloc.alloc_id in live:
            sim.traverser.install_allocation(alloc)
        allocations[alloc.alloc_id] = alloc
    if "planners" in salvaged:
        from .integrity import expected_span_table
        from .repair import RepairEngine

        engine = RepairEngine(sim)
        for (name, kind), want in expected_span_table(sim).items():
            engine.rebuild_planner(by_name[name], kind, want)
    else:
        for name, entry in doc["planners"].items():
            try:
                vertex = by_name[name]
            except KeyError:
                raise SnapshotError(
                    f"snapshot references unknown vertex {name!r}"
                ) from None
            if "filter" in entry and vertex.prune_filters is None:
                raise SnapshotError(
                    f"snapshot has filter spans for {name!r} but the "
                    "restored graph installed no filter there"
                )
            for kind in PLANNER_KINDS:
                if kind in entry:
                    vertex.planner_of(kind).import_state(entry[kind])
        for alloc in sim.traverser.allocations.values():
            for planner, span_id in alloc._span_records:
                if planner is None or not planner.has_span(span_id):
                    raise RecoveryError(
                        f"allocation {alloc.alloc_id} references span "
                        f"{span_id}, missing from the restored planners"
                    )
    sim.traverser._next_alloc_id = max(
        sim.traverser._next_alloc_id, int(doc["next_alloc_id"])
    )
    if "traverser_stats" not in salvaged:
        stats = doc["traverser_stats"]
        metrics = sim.traverser.metrics
        for key in _TRAVERSER_STATS:
            metrics.counter("dfu." + key).value = int(stats.get(key, 0))
    # Last graph mutation of the restore: rebuilding the graph counted its
    # own construction.  A snapshot without the key predates the counters
    # and carries no queue-policy state keyed on them either.
    if "graph_changes" in doc:
        graph.freed, graph.unplanned = doc["graph_changes"]

    for record in doc["jobs"]:
        sim._register(Job.from_record(record, allocations))
    sim._next_job_id = int(doc["next_job_id"])
    sim.queue_policy.import_state(config["queue_state"], sim.jobs)

    events = []
    for when, kind, eseq, ref, data in doc["events"]:
        if kind in (_FAIL, _REPAIR):
            ref = by_name[ref].uniq_id
        events.append((when, kind, eseq, ref, data))
    heapq.heapify(events)
    sim._events = events
    sim._event_seq = int(doc["event_seq"])
    sim.now = doc["now"]
    sim._started_allocs = set(doc["started_allocs"])
    if "event_log" not in salvaged:
        sim.event_log = [tuple(entry) for entry in doc["event_log"]]
    counters = doc["counters"]
    sim.failures = counters["failures"]
    sim.retries = counters["retries"]
    sim._busy_node_seconds = counters["busy_node_seconds"]
    sim._work_lost = counters["work_lost"]
    sim._down_since = {
        by_name[name].uniq_id: (t, nodes)
        for name, (t, nodes) in doc["down_since"].items()
    }
    sim._downtime = [
        (by_name[name].uniq_id, t0, t1, nodes)
        for name, t0, t1, nodes in doc["downtime"]
    ]
    if "recovery_stats" not in salvaged:
        # Merge over the constructor defaults so snapshots written before a
        # counter existed restore with it at 0 rather than missing.
        sim.recovery_stats.update(doc["recovery_stats"])
    sim.recovery_stats["snapshot_sections_rebuilt"] += len(salvaged)
    for name, section in layers.items():
        with _section(name):
            getattr(sim, name).import_state(
                section[LAYER_SECTIONS[name].state_key]
            )
    return sim


def write_snapshot(doc: Dict[str, Any], path: str) -> None:
    """Write ``doc`` to ``path`` wrapped with a SHA-256 checksum.

    The write goes through a temporary file + ``os.replace`` so a crash
    mid-write can never leave a half-written file under the final name.
    The file holds ``_canonical({"sha256": ..., "sections": ...,
    "snapshot": doc})``, built from one serialization of each section.
    """
    # One serialization per section: with string keys, ``_canonical(doc)``
    # is the sections' texts in key order.
    texts = {key: _canonical(value) for key, value in doc.items()}
    payload = "{" + ",".join(
        f"{json.dumps(key)}:{texts[key]}" for key in sorted(texts)
    ) + "}"
    # Per-section digests let salvage recovery localise damage: a bad
    # rebuildable section is dropped instead of discarding the file.
    sections = {key: _sha256(text) for key, text in texts.items()}
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        # the wrapper's keys in sorted order: sections, sha256, snapshot
        handle.write(
            f'{{"sections":{_canonical(sections)},'
            f'"sha256":"{_sha256(payload)}","snapshot":{payload}}}'
        )
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_snapshot(path: str) -> Dict[str, Any]:
    """Read and verify a snapshot file; raise :class:`SnapshotError`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            wrapper = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from exc
    if (
        not isinstance(wrapper, dict)
        or "sha256" not in wrapper
        or "snapshot" not in wrapper
    ):
        raise SnapshotError(f"snapshot {path!r} has no checksum wrapper")
    doc = wrapper["snapshot"]
    if _section_digest(doc) != wrapper["sha256"]:
        raise SnapshotError(f"snapshot {path!r} fails checksum verification")
    # The per-section digests are salvage metadata outside the global
    # checksum; verify them too so no byte of the file is unprotected.
    sections = wrapper.get("sections")
    if sections is not None:
        for key, value in doc.items():
            if sections.get(key) != _section_digest(value):
                raise SnapshotError(
                    f"snapshot {path!r}: section {key!r} fails digest "
                    "verification"
                )
    return doc


def load_snapshot_salvage(
    path: str,
) -> Optional[Tuple[Dict[str, Any], List[str]]]:
    """Best-effort snapshot load; returns ``(doc, dropped)`` or ``None``.

    A snapshot :func:`load_snapshot` verifies loads with ``dropped == []``.
    Otherwise the per-section digests written by :func:`write_snapshot`
    localise the damage: a bad section in :data:`REBUILDABLE_SECTIONS` is
    removed from the document and listed in ``dropped`` (sorted) for
    :func:`restore_simulator` to reconstruct; a bad *critical* section — or
    a file that is unreadable, unparseable, or predates per-section digests
    — salvages nothing and returns ``None`` so recovery falls back to an
    older snapshot.
    """
    try:
        return load_snapshot(path), []
    except SnapshotError:
        pass
    try:
        with open(path, "r", encoding="utf-8") as handle:
            wrapper = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(wrapper, dict):
        return None
    doc = wrapper.get("snapshot")
    sections = wrapper.get("sections")
    if not isinstance(doc, dict) or not isinstance(sections, dict):
        return None
    dropped = []
    for key in sorted(doc):
        digest = sections.get(key)
        if digest is not None and _section_digest(doc[key]) == digest:
            continue
        if key not in REBUILDABLE_SECTIONS:
            return None
        dropped.append(key)
    if not dropped:
        # Global checksum failed but every section verifies: the wrapper
        # itself is damaged — nothing trustworthy to salvage section-wise.
        return None
    for key in dropped:
        del doc[key]
    return doc, dropped
