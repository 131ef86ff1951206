"""RecoveryManager: glue between a simulator, its journal and its snapshots.

Attach a manager to a simulator and every top-level command (an entry of
:data:`~repro.sched.simulator.COMMANDS`, one per public command method and
one per event-heap pop) is appended to the write-ahead journal *before* it
mutates state.  The journal holds these commands and nothing else: what a
command does (allocations, retries, admission and repair decisions) follows
from the command and the state it ran on.  Snapshots are written on attach,
on demand (:meth:`RecoveryManager.snapshot`) and every ``snapshot_every``
journaled commands.

After a crash, :func:`recover` rebuilds a simulator from the newest valid
snapshot and deterministically re-executes the journal suffix
(:func:`load_state`, which fsck also reads a directory with).  Replay pops
heap events in the same order the dead scheduler did (verified record by
record), regenerates every effect by re-running the real code paths, drops
a torn journal tail, and re-attaches a manager so the recovered simulator
keeps journaling where the dead one stopped.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import FluxionError, RecoveryError, SnapshotError
from ..obs import WallTimer
from ..sched.simulator import COMMANDS, ClusterSimulator
from .journal import Journal, read_journal, read_journal_salvage
from .snapshot import (
    load_snapshot,
    load_snapshot_salvage,
    restore_simulator,
    snapshot_state,
    write_snapshot,
)

__all__ = ["Loaded", "RecoveryManager", "load_state", "recover"]

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
def _replay(
    sim: ClusterSimulator,
    records: List[Dict[str, Any]],
    salvage: bool = False,
) -> int:
    """Deterministically re-execute the journal suffix on ``sim``.

    Each record is decoded and applied through its entry in
    :data:`~repro.sched.simulator.COMMANDS`; a record of any other type
    raises :class:`RecoveryError`.  In ``salvage`` mode the journal may
    have damage-induced gaps, so the first record that cannot re-execute
    (replay divergence, missing referent) *stops* replay instead of
    raising; the record and everything after it are dropped.  Returns the
    number of records dropped this way (always 0 when not salvaging).
    """
    vertices = {v.name: v for v in sim.graph.vertices()}
    observed = sim.obs.enabled
    try:
        for index, record in enumerate(records):
            sim._replaying = record["seq"]
            try:
                command = COMMANDS.get(record["type"])
                if command is None:
                    raise RecoveryError(
                        f"journal record {record['seq']}: unknown type "
                        f"{record['type']!r}"
                    )
                sim._command(
                    record["type"], *command.decode(sim, record, vertices)
                )
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
        sim._replaying = 0
    return 0


@dataclass
class Loaded:
    """A simulator :func:`load_state` rebuilt, and what it read to get it."""

    sim: ClusterSimulator
    snapshot_path: str
    #: snapshot sections salvage dropped and rebuilt
    sections_rebuilt: List[str]
    #: journal loss: ``torn`` and ``crc_skipped`` records, and the
    #: ``skipped`` ones itemised
    journal: Dict[str, Any]
    #: strict read: the length of the journal's valid prefix
    valid_bytes: int
    replayed: int
    dropped: int
    #: sequence number of the last journal record (the snapshot's if none)
    last_seq: int


def load_state(directory: str, salvage: bool = False) -> Loaded:
    """Rebuild the simulator ``directory`` holds, modifying no file.

    Loads the newest snapshot that passes checksum verification (falling
    back to older ones), reads the journal (a torn tail is dropped, not
    truncated) and replays every record after the snapshot's sequence
    point.  ``salvage`` as in :func:`recover`.  Raises
    :class:`SnapshotError` when no snapshot loads.
    """
    candidates = _snapshot_files(directory)
    if not candidates:
        raise SnapshotError(f"no snapshot found in {directory!r}")
    errors = []
    for path in candidates:
        try:
            doc, rebuilt = load_snapshot(path), []
            break
        except SnapshotError as exc:
            errors.append(str(exc))
        if salvage:
            salvaged = load_snapshot_salvage(path)
            if salvaged is not None:
                doc, rebuilt = salvaged
                break
    else:
        raise SnapshotError(
            f"no valid snapshot in {directory!r}: " + "; ".join(errors)
        )
    journal_path = os.path.join(directory, _JOURNAL_NAME)
    if salvage:
        records, journal = read_journal_salvage(journal_path)
        valid_bytes = journal["valid_bytes"]
    else:
        records, torn, valid_bytes = read_journal(journal_path)
        journal = {"torn": torn, "crc_skipped": 0, "skipped": []}
    sim = restore_simulator(doc, salvaged=rebuilt)
    suffix = [r for r in records if r["seq"] > doc["seq"]]
    dropped = _replay(sim, suffix, salvage=salvage)
    return Loaded(
        sim, path, rebuilt, journal, valid_bytes,
        replayed=len(suffix) - dropped, dropped=dropped,
        last_seq=records[-1]["seq"] if records else doc["seq"],
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

    Rebuilds the simulator with :func:`load_state`, truncates a torn
    journal tail so future appends are clean, and re-attaches a fresh
    :class:`RecoveryManager` continuing the same journal.  A snapshot of
    the recovered state is written at once, so the replayed suffix is never
    replayed twice and recovery statistics survive further crashes.  The
    returned simulator is event-for-event equivalent to one that never
    crashed.

    ``salvage`` turns hard failures into bounded, accounted loss: CRC-bad
    mid-stream journal records are skipped (strict mode raises
    :class:`~repro.errors.JournalCorruptError`), a partially damaged
    snapshot loads section-by-section
    (:func:`~repro.recovery.snapshot.load_snapshot_salvage`), and replay
    stops at the first record the damage makes unreplayable.  The journal
    is then rewritten empty, anchored on the fresh snapshot.  Every loss is
    tallied in ``recovery_stats`` and, when ``salvage_report`` (a dict) is
    passed, itemised into it.
    """
    loaded = load_state(directory, salvage)
    sim, torn = loaded.sim, loaded.journal["torn"]
    sim.recovery_stats["recoveries"] += 1
    sim.recovery_stats["torn_records_dropped"] += torn
    if salvage:
        crc_skipped = loaded.journal["crc_skipped"]
        sim.recovery_stats["salvage_skipped"] += crc_skipped
        sim.recovery_stats["salvage_dropped"] += loaded.dropped
        if salvage_report is not None:
            salvage_report.update(
                {
                    "snapshot_path": loaded.snapshot_path,
                    "snapshot_sections_rebuilt": list(loaded.sections_rebuilt),
                    "journal": loaded.journal,
                    "crc_skipped": crc_skipped,
                    "replay_dropped": loaded.dropped,
                    "last_seq": loaded.last_seq,
                }
            )
    # Drop a torn tail so future appends are clean.  A strict reader would
    # refuse a salvaged journal's damage-induced sequence gaps, so it
    # restarts empty, anchored on the fresh snapshot written below.
    journal_path = os.path.join(directory, _JOURNAL_NAME)
    if (torn or salvage) and os.path.exists(journal_path):
        with open(journal_path, "r+b") as handle:
            handle.truncate(0 if salvage else loaded.valid_bytes)
    manager = RecoveryManager(
        directory,
        snapshot_every=snapshot_every,
        fsync=fsync,
        keep_snapshots=keep_snapshots,
    )
    manager.attach(sim, initial_snapshot=True, start_seq=loaded.last_seq)
    return sim
