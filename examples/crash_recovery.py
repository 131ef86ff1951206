#!/usr/bin/env python3
"""Crash recovery: snapshots, a write-ahead journal, and restart equivalence.

Attaches a RecoveryManager to the cluster simulator so every command is
journaled before it runs and snapshots are written periodically, then kills
the scheduler mid-flight with a CrashInjector, recovers it from disk, and
proves the recovered run is event-for-event identical to one that never
crashed.  Finishes by tearing the journal's trailing record to show the
torn-write path: the damaged suffix is dropped, never half-applied.

Run:  python examples/crash_recovery.py
"""

import os
import tempfile

from repro import (
    ClusterSimulator,
    CrashInjector,
    RecoveryManager,
    RetryPolicy,
    SimulatedCrash,
    nodes_jobspec,
    recover,
    state_diff,
    tiny_cluster,
)
from repro.recovery import read_journal


def build_sim(state_dir=None):
    """The same seeded scenario every time — determinism is the point."""
    sim = ClusterSimulator(
        tiny_cluster(racks=2, nodes_per_rack=4, cores=8),
        match_policy="low",
        queue="easy",
        retry_policy=RetryPolicy(max_retries=3, backoff_base=60, jitter=0.2,
                                 checkpoint_period=300, seed=1),
        audit=True,
    )
    if state_dir is not None:
        # Journal every command (fsync barriers on) and snapshot every
        # 40 of them; keep the 2 newest snapshots.
        RecoveryManager(state_dir, snapshot_every=40, fsync=True).attach(sim)
    for i in range(12):
        actual = 1250 if i % 3 == 0 else None  # overrunners get killed
        sim.submit(nodes_jobspec(2, duration=900), at=i * 120,
                   actual_duration=actual)
    node = next(iter(sim.graph.vertices("node")))
    sim.schedule_failure(node, at=700)   # a failure + repair mid-run
    sim.schedule_repair(node, at=1400)
    return sim


def main() -> None:
    # -- the control: an uninterrupted run -------------------------------
    control = build_sim()
    control_report = control.run()
    print(f"control run: {len(control.event_log)} events, "
          f"{len(control_report.completed)}/{len(control_report.jobs)} "
          "jobs completed")

    with tempfile.TemporaryDirectory() as state_dir:
        # -- the victim: same scenario, journaled, killed mid-flight -----
        victim = build_sim(state_dir)
        CrashInjector("end.released", nth=3).attach(victim)
        try:
            victim.run()
            raise AssertionError("the crash point should have fired")
        except SimulatedCrash as crash:
            print(f"\nsimulated crash at {crash.point!r} "
                  f"(t={victim.now}, {len(victim.event_log)} events in)")
        # 'end.released' is the nastiest cut: the finished job's planner
        # spans are already released but the follow-up scheduling cycle
        # never ran.  Nothing to clean up — the journal has the truth.

        # -- recovery: newest snapshot + deterministic replay ------------
        recovered = recover(state_dir)
        stats = recovered.recovery_stats
        print(f"recovered: replayed {stats['journal_replayed']} of "
              f"{stats['journal_records']} journal records on top of "
              f"snapshot #{stats['snapshots_taken']}")

        report = recovered.run()
        assert recovered.event_log == control.event_log
        assert state_diff(control, recovered) == []
        assert report.makespan == control_report.makespan
        print("restart equivalence: event logs identical, state diff empty")
        print(f"\n{report.summary()}\n")

        # -- torn-write handling -----------------------------------------
        # Tear the final journal record (as if the power died mid-write).
        journal_path = os.path.join(state_dir, "journal.wal")
        with open(journal_path, "r+b") as handle:
            handle.truncate(os.path.getsize(journal_path) - 7)
        records, torn, _ = read_journal(journal_path)
        print(f"tore the journal tail: {len(records)} intact records, "
              f"{torn} torn record dropped")
        final = recover(state_dir)  # truncates the tail, replays the rest
        assert final.recovery_stats["torn_records_dropped"] == 1
        final.run()
        assert final.event_log == control.event_log
        print("recovered past the torn tail; still equivalent to control")


if __name__ == "__main__":
    main()
