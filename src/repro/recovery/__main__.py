"""fluxfsck command line: ``python -m repro.recovery fsck <dir>``.

Offline verification (and optional repair) of a recovery directory — the
journal plus its snapshots — using the same machinery the online scrubber
runs per cycle:

* ``--check`` (default): load the newest valid snapshot, replay the journal
  suffix **read-only** (:func:`~repro.recovery.manager.load_state`: no file
  is modified, no snapshot written) and run a full-graph integrity scan.
* ``--repair``: same load, then drive every finding through the journaled
  :class:`~repro.recovery.repair.RepairEngine`, re-scan, and persist the
  repaired state as a fresh snapshot (the journal restarts so the repaired
  snapshot is the new recovery anchor).
* ``--salvage``: tolerate mid-stream journal damage and partially valid
  snapshots (bounded-loss salvage, see :func:`~repro.recovery.manager.
  recover`); without it damage beyond a torn tail fails the load.
* ``--json PATH``: machine-readable report (findings, repairs, loss
  accounting) for CI artifacts.

Exit codes: ``0`` state verifies clean (or repaired clean); ``1`` integrity
findings remain; ``2`` the directory cannot be loaded at all.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Any, Dict, List, Optional

from ..errors import FluxionError
from ..sched.simulator import ClusterSimulator
from .integrity import Finding, IntegrityMonitor
from .manager import load_state, recover

__all__ = ["main"]


def _monitor_for(sim: ClusterSimulator) -> IntegrityMonitor:
    if sim.integrity is not None:
        return sim.integrity
    monitor = IntegrityMonitor()
    monitor.attach(sim)
    return monitor


def _findings_json(findings: List[Finding]) -> List[Dict[str, Any]]:
    return [asdict(finding) for finding in findings]


def _repair_all(
    monitor: IntegrityMonitor, findings: List[Finding]
) -> List[Finding]:
    """Repair every dirty vertex; returns the findings that remain."""
    from .integrity import expected_span_table

    sim = monitor.sim
    by_vertex: Dict[str, List[Finding]] = {}
    for finding in findings:
        by_vertex.setdefault(finding.vertex, []).append(finding)
    # Repairs rebuild planners, never the allocation table: one derivation.
    expected = expected_span_table(sim)
    for name, group in sorted(by_vertex.items()):
        vertex = sim.graph.vertex_by_name(name)
        monitor._engine.repair_vertex(vertex, group, expected)
    return monitor.scan()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.recovery",
        description="fluxfsck: verify or repair a recovery directory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fsck = sub.add_parser("fsck", help="check/repair journal + snapshots")
    fsck.add_argument("directory", help="recovery directory to inspect")
    mode = fsck.add_mutually_exclusive_group()
    mode.add_argument(
        "--check", action="store_true",
        help="verify only; never modify any file (default)",
    )
    mode.add_argument(
        "--repair", action="store_true",
        help="repair findings and write a repaired snapshot",
    )
    fsck.add_argument(
        "--salvage", action="store_true",
        help="tolerate mid-stream journal/snapshot damage (bounded loss)",
    )
    fsck.add_argument(
        "--json", metavar="PATH", default=None,
        help="write a machine-readable report to PATH ('-' for stdout)",
    )
    args = parser.parse_args(argv)

    report: Dict[str, Any] = {
        "directory": args.directory,
        "mode": "repair" if args.repair else "check",
        "salvage": bool(args.salvage),
    }
    try:
        if args.repair:
            salvage_report: Dict[str, Any] = {}
            sim = recover(
                args.directory, salvage=args.salvage,
                salvage_report=salvage_report,
            )
            report["load"] = salvage_report or {
                "snapshot_sections_rebuilt": [],
                "replay_dropped": 0,
            }
        else:
            loaded = load_state(args.directory, args.salvage)
            sim = loaded.sim
            report["load"] = {
                "snapshot_path": loaded.snapshot_path,
                "snapshot_sections_rebuilt": loaded.sections_rebuilt,
                "journal": loaded.journal,
                "replay_dropped": loaded.dropped,
                "records_replayed": loaded.replayed,
            }
    except FluxionError as exc:
        report["error"] = str(exc)
        _emit(args.json, report)
        print(f"fluxfsck: cannot load {args.directory!r}: {exc}",
              file=sys.stderr)
        return 2

    monitor = _monitor_for(sim)
    findings = monitor.scan()
    report["findings"] = _findings_json(findings)
    exit_code = 0
    if findings and args.repair:
        residual = _repair_all(monitor, findings)
        report["residual"] = _findings_json(residual)
        exit_code = 1 if residual else 0
        if sim.recovery is not None:
            # Persist the repaired state as the new recovery anchor.
            sim.recovery.snapshot()
    elif findings:
        exit_code = 1
    if args.repair and sim.recovery is not None:
        sim.recovery.close()

    verdict = "clean" if exit_code == 0 else "dirty"
    repaired = len(findings) - len(report.get("residual", findings))
    print(
        f"fluxfsck: {args.directory}: {verdict} "
        f"({len(findings)} finding(s), {repaired} repaired)"
    )
    report["exit"] = exit_code
    _emit(args.json, report)
    return exit_code


def _emit(dest: Optional[str], report: Dict[str, Any]) -> None:
    if dest is None:
        return
    payload = json.dumps(report, indent=2, sort_keys=True)
    if dest == "-":
        print(payload)
    else:
        with open(dest, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
