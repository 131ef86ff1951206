"""What each per-cycle guard spends, piece by piece, on guarded_easy_64.

    python3 benchmarks/guard_costs.py

Runs the ledger's ``guarded_easy_64`` workload untraced at seed 7 (the full
trace, then its first half, as a ledger rep does) with a ``perf_counter``
wrapper around each piece of guard work: the expected-state refresh and
the derivation of one allocation's bookings inside it, the auditor's
planner / exclusivity / job-state checks, the monitor's end-of-cycle pass
(which the auditor's planner check calls), the structure comparison and
``Planner.check_invariants`` inside it, the snapshot and its write, and
one journal record.  Pieces nest (the planner check contains the pass,
the pass the structure check and ``check_invariants``), so the shares do
not add up.
It also counts how many spans each planner ``check_invariants`` read held.
Then it times the same replay bare, with each default guard alone and
with all of them, best of three, which is where a ledger tax ratio comes
from.  One process, one host speed: compare shares and ratios, not
milliseconds across hosts.
"""

from __future__ import annotations

import os
import sys
import tempfile
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "ledger"))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ledger  # noqa: E402
import workloads  # noqa: E402
from repro.planner.planner import Planner  # noqa: E402
from repro.recovery import integrity, manager  # noqa: E402
from repro.resilience.auditor import InvariantAuditor  # noqa: E402

SEED = 7
REPS = 3
#: span-count buckets of the planners ``check_invariants`` read
SPAN_BUCKETS = ((0, 0), (1, 1), (2, 3), (4, 7), (8, None))

#: row label -> (owner, attribute) of the function it times
PIECES: Dict[str, Tuple[object, str]] = {
    "ExpectedState.refresh": (integrity.ExpectedState, "refresh"),
    "  allocation_bookings": (integrity, "allocation_bookings"),
    "audit: planners": (InvariantAuditor, "_check_planners"),
    "audit: exclusivity": (InvariantAuditor, "_check_exclusivity"),
    "audit: job states": (InvariantAuditor, "_check_job_states"),
    "scrub pass": (integrity.IntegrityMonitor, "scrub_cycle"),
    "  structure check": (integrity, "structure_drift"),
    "  check_invariants": (Planner, "check_invariants"),
    "snapshot": (manager.RecoveryManager, "snapshot"),
    "  write_snapshot": (manager, "write_snapshot"),
    "journal record": (manager.RecoveryManager, "record"),
}


def timed(original: Callable, cost: List[float]) -> Callable:
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            cost[0] += perf_counter() - start
            cost[1] += 1

    return wrapper


def replay(tmpdir: str, guards=None) -> Tuple[float, str]:
    """Wall of one full + half replay, and the full run's event-log digest."""
    ctx = workloads.Context(seed=SEED, tmpdir=tmpdir, guards=guards)
    record = workloads.run(ledger.GUARDED, ctx)
    if record["failures"]:
        raise SystemExit(f"replay failed: {record['failures'][:3]}")
    return record["wall_s"] + record["half"]["wall_s"], record["event_log_sha256"]


def pieces(tmpdir: str) -> None:
    costs = {label: [0.0, 0] for label in PIECES}
    originals = []
    for label, (owner, name) in PIECES.items():
        original = getattr(owner, name)
        originals.append((owner, name, original))
        setattr(owner, name, timed(original, costs[label]))
    spans: Counter = Counter()
    check = Planner.check_invariants

    def counted(planner):
        spans[planner.span_count] += 1
        return check(planner)

    Planner.check_invariants = counted
    try:
        wall, digest = replay(tmpdir)
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
    print(f"guarded_easy_64, seed {SEED}, untraced, default guards "
          f"{', '.join(ledger.GUARDS)}: full + half replay {wall * 1e3:.0f} ms")
    print(f"event_log sha256 {digest[:16]}")
    print(f"{'piece':26} {'calls':>7} {'ms':>8} {'share':>7}")
    for label, (seconds, calls) in costs.items():
        print(f"{label:26} {calls:7d} {seconds * 1e3:8.1f} "
              f"{seconds / wall:7.1%}")
    checked = sum(spans.values())
    print(f"\nspans held by the {checked} planners check_invariants read")
    for low, high in SPAN_BUCKETS:
        n = sum(c for k, c in spans.items()
                if k >= low and (high is None or k <= high))
        label = f"{low}+" if high is None else (
            str(low) if low == high else f"{low}-{high}")
        print(f"{label:>5} {n:6d} {n / max(1, checked):7.1%}")


def walls(tmpdir: str) -> None:
    configs = [("bare", frozenset())] + [
        (guard, frozenset({guard})) for guard in ledger.GUARDS
    ] + [("all", frozenset(ledger.GUARDS))]
    best = {}
    for _ in range(REPS):
        for name, guards in configs:
            wall, _ = replay(tmpdir, guards)
            best[name] = min(best.get(name, wall), wall)
    print(f"\nper-guard walls, best of {REPS} (full + half replay)")
    print(f"{'guards':10} {'ms':>8} {'x bare':>7}")
    for name, _ in configs:
        print(f"{name:10} {best[name] * 1e3:8.1f} {best[name] / best['bare']:7.2f}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmpdir:
        pieces(tmpdir)
        walls(tmpdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
