"""Crash-consistent scheduler state: snapshots, write-ahead journal, replay.

Production Fluxion reconstructs its resource/planner state from R allocation
records when the scheduling module reloads; this package gives the
reproduction's simulator the same durability story, extended with a
write-ahead journal so *nothing* is lost between snapshots:

* :mod:`~repro.recovery.snapshot` — serialise/restore the complete
  scheduler state as one versioned, checksummed document;
* :mod:`~repro.recovery.journal` — CRC-framed write-ahead journal with
  torn-tail detection;
* :mod:`~repro.recovery.manager` — :class:`RecoveryManager` (journals an
  attached simulator, snapshots periodically) and :func:`recover` (restore
  newest snapshot + replay journal suffix; ``salvage=True`` trades hard
  failures on mid-stream damage for bounded, accounted loss);
* :mod:`~repro.recovery.integrity` — the "fluxfsck" online scrubber:
  :class:`IntegrityMonitor` cross-checks planner/allocation/graph state
  against the expected spans and the attach-time structure each cycle,
  quarantining corrupted vertices;
* :mod:`~repro.recovery.repair` — :class:`RepairEngine`, the journaled
  repair actions the scrubber and snapshot salvage both use;
* :mod:`~repro.recovery.crash` — :class:`CrashInjector` killing the
  scheduler at named cut points, for restart-equivalence testing;
* :mod:`~repro.recovery.diff` — :func:`state_diff` proving a recovered
  simulator equivalent to an uninterrupted control run.

``python -m repro.recovery fsck <dir>`` is the operator front end: verify
(and optionally repair) a recovery directory offline.

See ``docs/recovery.md`` for formats and guarantees.
"""

from .crash import CRASH_POINTS, CrashInjector, SimulatedCrash
from .diff import state_diff, state_fingerprint
from .integrity import (
    CORRUPTION_KINDS,
    Finding,
    IntegrityConfig,
    IntegrityMonitor,
    apply_corruption,
    corruption_targets,
    expected_span_table,
    structure_drift,
)
from .journal import Journal, read_journal, read_journal_salvage
from .manager import RecoveryManager, recover
from .repair import RepairEngine
from .snapshot import (
    REBUILDABLE_SECTIONS,
    SNAPSHOT_VERSION,
    load_snapshot,
    load_snapshot_salvage,
    restore_simulator,
    snapshot_state,
    write_snapshot,
)

__all__ = [
    "CRASH_POINTS",
    "CrashInjector",
    "SimulatedCrash",
    "state_diff",
    "state_fingerprint",
    "CORRUPTION_KINDS",
    "Finding",
    "IntegrityConfig",
    "IntegrityMonitor",
    "apply_corruption",
    "corruption_targets",
    "expected_span_table",
    "structure_drift",
    "RepairEngine",
    "Journal",
    "read_journal",
    "read_journal_salvage",
    "RecoveryManager",
    "recover",
    "REBUILDABLE_SECTIONS",
    "SNAPSHOT_VERSION",
    "load_snapshot",
    "load_snapshot_salvage",
    "restore_simulator",
    "snapshot_state",
    "write_snapshot",
]
