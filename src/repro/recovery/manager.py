"""RecoveryManager: glue between a simulator, its journal and its snapshots.

Attach a manager to a simulator and every top-level command (submit, cancel,
fail, repair, scheduled failures/repairs, reschedule, corrupt, and each
event-heap dispatch) is appended to the write-ahead journal *before* it
mutates state.  The journal holds these commands and nothing else: what a
command does (allocations, retries, admission and repair decisions) follows
from the command and the state it ran on.  Snapshots are written on attach,
on demand (:meth:`RecoveryManager.snapshot`) and every ``snapshot_every``
journaled commands.

After a crash, :func:`recover` rebuilds a simulator from the newest valid
snapshot and deterministically re-executes the journal suffix.  Replay pops
heap events in the same order the dead scheduler did (verified record by
record), regenerates every effect by re-running the real code paths, drops
a torn journal tail, and re-attaches a manager so the recovered simulator
keeps journaling where the dead one stopped.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
from typing import Any, Dict, List, Optional

from ..errors import FluxionError, RecoveryError, SnapshotError
from ..jobspec import parse_jobspec
from ..obs import WallTimer
from ..sched.job import CancelReason
from ..sched.simulator import _FAIL, _REPAIR, ClusterSimulator
from .journal import Journal, read_journal, read_journal_salvage
from .snapshot import (
    load_snapshot,
    load_snapshot_salvage,
    restore_simulator,
    snapshot_state,
    write_snapshot,
)

__all__ = ["RecoveryManager", "recover"]

_JOURNAL_NAME = "journal.wal"
_SNAPSHOT_PREFIX = "snapshot-"
_SNAPSHOT_SUFFIX = ".json"


def _snapshot_path(directory: str, seq: int) -> str:
    return os.path.join(
        directory, f"{_SNAPSHOT_PREFIX}{seq:012d}{_SNAPSHOT_SUFFIX}"
    )


def _snapshot_files(directory: str) -> List[str]:
    """Snapshot files in the directory, newest (highest seq) first."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    found = [
        name
        for name in names
        if name.startswith(_SNAPSHOT_PREFIX) and name.endswith(_SNAPSHOT_SUFFIX)
    ]
    return [os.path.join(directory, name) for name in sorted(found, reverse=True)]


class RecoveryManager:
    """Owns one recovery directory: a journal plus snapshot files.

    Parameters
    ----------
    directory:
        Where the journal (``journal.wal``) and snapshots
        (``snapshot-<seq>.json``) live.  Created if missing.
    snapshot_every:
        Write a snapshot automatically every N journaled commands (checked
        between event dispatches).  ``None`` disables periodic snapshots.
    fsync:
        Per-record fsync barriers on the journal.
    keep_snapshots:
        How many snapshot files to retain (older ones are pruned).
    """

    def __init__(
        self,
        directory: str,
        snapshot_every: Optional[int] = None,
        fsync: bool = False,
        keep_snapshots: int = 2,
    ) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise RecoveryError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        if keep_snapshots < 1:
            raise RecoveryError(
                f"keep_snapshots must be >= 1, got {keep_snapshots}"
            )
        self.directory = directory
        self.snapshot_every = snapshot_every
        self.fsync = fsync
        self.keep_snapshots = keep_snapshots
        os.makedirs(directory, exist_ok=True)
        self.sim: Optional[ClusterSimulator] = None
        self._journal: Optional[Journal] = None
        self._last_snapshot_seq = 0

    @property
    def journal_path(self) -> str:
        return os.path.join(self.directory, _JOURNAL_NAME)

    # ------------------------------------------------------------------
    # attachment and journaling
    # ------------------------------------------------------------------
    def attach(
        self,
        sim: ClusterSimulator,
        initial_snapshot: bool = True,
        start_seq: int = 0,
    ) -> "RecoveryManager":
        """Bind this manager to ``sim`` and start journaling its commands.

        ``initial_snapshot`` writes a snapshot of the current state
        immediately, so recovery works even before the first periodic one.
        ``start_seq`` continues an existing journal (used by recovery).
        """
        if self.sim is not None:
            raise RecoveryError("manager is already attached to a simulator")
        if sim.recovery is not None:
            raise RecoveryError("simulator already has a recovery manager")
        self.sim = sim
        self._journal = Journal(
            self.journal_path, start_seq=start_seq, fsync=self.fsync
        )
        sim.recovery = self
        if initial_snapshot:
            self.snapshot()
        return self

    def record(self, record: Dict[str, Any]) -> int:
        """Append one record to the journal (called by the simulator)."""
        if self._journal is None:
            raise RecoveryError("manager is not attached")
        before = self._journal.bytes_written
        seq = self._journal.append(record)
        self.sim.recovery_stats["journal_records"] += 1
        obs = self.sim.obs
        if obs.enabled:
            obs.metrics.counter(
                "journal.records", "write-ahead journal records appended"
            ).inc()
            obs.metrics.counter(
                "journal.bytes", "framed journal bytes written"
            ).inc(self._journal.bytes_written - before)
        return seq

    def after_event(self, sim: ClusterSimulator) -> None:
        """Periodic-snapshot hook, called between event dispatches."""
        if self.snapshot_every is None or self._journal is None:
            return
        if self._journal.last_seq - self._last_snapshot_seq >= self.snapshot_every:
            self.snapshot()

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> str:
        """Write a snapshot of the attached simulator now; returns its path."""
        if self.sim is None or self._journal is None:
            raise RecoveryError("manager is not attached")
        self.sim.recovery_stats["snapshots_taken"] += 1
        seq = self._journal.last_seq
        with WallTimer() as timer:
            doc = snapshot_state(self.sim, seq=seq)
            path = _snapshot_path(self.directory, seq)
            write_snapshot(doc, path)
        self._last_snapshot_seq = seq
        for old in _snapshot_files(self.directory)[self.keep_snapshots :]:
            os.unlink(old)
        obs = self.sim.obs
        if obs.enabled:
            obs.metrics.counter(
                "snapshot.count", "snapshots written"
            ).inc()
            obs.metrics.histogram(
                "snapshot.seconds", "wall time to serialize and write a snapshot"
            ).observe(timer.elapsed)
            obs.tracer.instant(
                "recovery.snapshot", "recovery", vt=float(self.sim.now), seq=seq
            )
        return path

    def close(self) -> None:
        """Detach from the simulator and close the journal."""
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        if self.sim is not None:
            self.sim.recovery = None
            self.sim = None


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------
def _fingerprint_digest(sim: ClusterSimulator) -> str:
    """SHA-256 over the logical state fingerprint (divergence forensics)."""
    from .diff import state_fingerprint

    payload = json.dumps(
        state_fingerprint(sim), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _note_divergence(sim: ClusterSimulator) -> None:
    sim.recovery_stats["replay_divergences"] += 1
    if sim.obs.enabled:
        sim.obs.metrics.counter(
            "replay.divergences", "replayed dispatches not matching journal"
        ).inc()


def _replay_dispatch(sim: ClusterSimulator, record: Dict[str, Any]) -> None:
    """Re-execute one journaled event dispatch, verifying determinism."""
    if not sim._events:
        _note_divergence(sim)
        raise RecoveryError(
            f"journal record {record['seq']}: dispatch with an empty "
            "event heap (replaying state fingerprint "
            f"sha256:{_fingerprint_digest(sim)})"
        )
    when, kind, eseq, ref, data = sim._events[0]
    ref_name = sim.graph.vertex(ref).name if kind in (_FAIL, _REPAIR) else ref
    expected = (record["when"], record["kind"], record["ref"], record["data"])
    observed = (when, kind, ref_name, data)
    if observed != expected:
        _note_divergence(sim)
        raise RecoveryError(
            f"journal record {record['seq']}: replay divergence — "
            f"expected (journaled) {expected!r}, observed (heap top) "
            f"{observed!r}; replaying state fingerprint "
            f"sha256:{_fingerprint_digest(sim)}"
        )
    heapq.heappop(sim._events)
    sim._applying += 1
    try:
        sim._dispatch(when, kind, ref, data)
    finally:
        sim._applying -= 1


def _replay(
    sim: ClusterSimulator,
    records: List[Dict[str, Any]],
    salvage: bool = False,
) -> int:
    """Deterministically re-execute the journal suffix on ``sim``.

    The journal holds only commands, and each re-executes; any other
    record type raises :class:`RecoveryError`.  In ``salvage`` mode the
    journal may have damage-induced gaps, so the first record that cannot
    re-execute (replay divergence, missing referent) *stops* replay instead
    of raising; the record and everything after it are dropped.  Returns the number of
    records dropped this way (always 0 when not salvaging).
    """
    by_name = {v.name: v for v in sim.graph.vertices()}
    observed = sim.obs.enabled
    sim._replaying = True
    try:
        for index, record in enumerate(records):
            try:
                _replay_record(sim, record, by_name)
            except (FluxionError, KeyError):
                if not salvage:
                    raise
                # Loss is bounded and accounted: everything up to here
                # replayed cleanly; the remainder is dropped and counted.
                return len(records) - index
            sim.recovery_stats["journal_replayed"] += 1
            if observed:
                sim.obs.metrics.counter(
                    "replay.records", "journal records consumed during replay"
                ).inc()
    finally:
        sim._replaying = False
    return 0


def _replay_record(
    sim: ClusterSimulator,
    record: Dict[str, Any],
    by_name: Dict[str, Any],
) -> None:
    """Re-execute a single journal record (see :func:`_replay`)."""
    rtype = record["type"]
    if rtype == "submit":
        sim.submit(
            parse_jobspec(record["jobspec"]),
            at=record["at"],
            name=record["name"],
            priority=record["priority"],
            actual_duration=record["actual_duration"],
        )
    elif rtype == "cancel":
        sim.cancel(
            sim.jobs[record["job_id"]],
            reason=CancelReason(record["reason"]),
        )
    elif rtype == "sched_fail":
        sim.schedule_failure(by_name[record["vertex"]], record["at"])
    elif rtype == "sched_repair":
        sim.schedule_repair(by_name[record["vertex"]], record["at"])
    elif rtype == "fail":
        sim.fail(by_name[record["vertex"]], resubmit=record["resubmit"])
    elif rtype == "repair":
        sim.repair(by_name[record["vertex"]])
    elif rtype == "reschedule":
        sim.reschedule()
    elif rtype == "corrupt":
        sim.inject_corruption(
            record["kind"], by_name[record["vertex"]], record["salt"]
        )
    elif rtype == "dispatch":
        _replay_dispatch(sim, record)
    else:
        raise RecoveryError(
            f"journal record {record['seq']}: unknown type {rtype!r}"
        )


def recover(
    directory: str,
    snapshot_every: Optional[int] = None,
    fsync: bool = False,
    keep_snapshots: int = 2,
    salvage: bool = False,
    salvage_report: Optional[Dict[str, Any]] = None,
) -> ClusterSimulator:
    """Rebuild the scheduler from ``directory`` after a crash.

    Loads the newest snapshot that passes checksum verification (falling
    back to older ones), drops any torn journal tail (truncating the file so
    future appends are clean), replays every journal record after the
    snapshot's sequence point, and re-attaches a fresh
    :class:`RecoveryManager` continuing the same journal.  A snapshot of
    the recovered state is written immediately, so the replayed suffix is
    never replayed twice and recovery statistics survive further crashes.
    The returned simulator is event-for-event equivalent to one that never
    crashed.

    ``salvage`` turns hard failures into bounded, accounted loss: CRC-bad
    mid-stream journal records are skipped (strict mode raises
    :class:`~repro.errors.JournalCorruptError`), a partially damaged
    snapshot loads section-by-section (rebuildable sections reconstructed,
    see :func:`~repro.recovery.snapshot.load_snapshot_salvage`), and replay
    stops at the first record the damaged prefix makes unreplayable.  The
    journal is then rewritten empty with a fresh snapshot at the recovered
    sequence (a strict reader would refuse the damage-induced gaps).  Every
    loss is tallied in ``recovery_stats`` (``salvage_skipped``,
    ``salvage_dropped``, ``snapshot_sections_rebuilt``) and, when
    ``salvage_report`` (a dict) is passed, itemised into it.
    """
    candidates = _snapshot_files(directory)
    if not candidates:
        raise SnapshotError(f"no snapshot found in {directory!r}")
    doc = None
    salvaged_sections: List[str] = []
    snapshot_path_used = None
    errors = []
    for path in candidates:
        try:
            doc = load_snapshot(path)
            snapshot_path_used = path
            break
        except SnapshotError as exc:
            errors.append(str(exc))
        if salvage:
            loaded = load_snapshot_salvage(path)
            if loaded is not None:
                doc, salvaged_sections = loaded
                snapshot_path_used = path
                break
    if doc is None:
        raise SnapshotError(
            f"no valid snapshot in {directory!r}: " + "; ".join(errors)
        )

    journal_path = os.path.join(directory, _JOURNAL_NAME)
    if salvage:
        records, journal_loss = read_journal_salvage(journal_path)
        torn = journal_loss["torn"]
    else:
        records, torn, valid_bytes = read_journal(journal_path)
        journal_loss = None
        if torn and os.path.exists(journal_path):
            with open(journal_path, "r+b") as handle:
                handle.truncate(valid_bytes)

    sim = restore_simulator(doc, salvaged=salvaged_sections)
    sim.recovery_stats["recoveries"] += 1
    sim.recovery_stats["torn_records_dropped"] += torn

    suffix = [r for r in records if r["seq"] > doc["seq"]]
    dropped = _replay(sim, suffix, salvage=salvage)

    last_seq = records[-1]["seq"] if records else doc["seq"]
    if salvage:
        crc_skipped = journal_loss["crc_skipped"]
        sim.recovery_stats["salvage_skipped"] += crc_skipped
        sim.recovery_stats["salvage_dropped"] += dropped
        if salvage_report is not None:
            salvage_report.update(
                {
                    "snapshot_path": snapshot_path_used,
                    "snapshot_sections_rebuilt": list(salvaged_sections),
                    "journal": journal_loss,
                    "crc_skipped": crc_skipped,
                    "replay_dropped": dropped,
                    "last_seq": last_seq,
                }
            )
        # A strict reader would refuse the damage-induced sequence gaps, so
        # the salvaged journal cannot be appended to: restart it empty and
        # anchor recovery on a fresh snapshot at the recovered sequence.
        if os.path.exists(journal_path):
            with open(journal_path, "r+b") as handle:
                handle.truncate(0)
    manager = RecoveryManager(
        directory,
        snapshot_every=snapshot_every,
        fsync=fsync,
        keep_snapshots=keep_snapshots,
    )
    manager.attach(sim, initial_snapshot=True, start_seq=last_seq)
    return sim
