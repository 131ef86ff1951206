"""Randomized chaos campaigns: storms, bursts and crashes from one seed.

A *campaign* composes the stressors the resilience stack defends against —
submission bursts at many times the steady-state rate, seeded fault storms
(:class:`~repro.resilience.FaultInjector`), crash injection at a named cut
point (:class:`~repro.recovery.CrashInjector`) with journal-replay recovery
— and runs them against one simulator with the
:class:`~repro.resilience.InvariantAuditor` checking state after every
scheduling cycle (plus FluxSan when ``FLUXSAN=1``).

Everything about a campaign derives deterministically from its integer
seed: :meth:`CampaignSpec.from_seed` draws the scenario, and
:func:`run_campaign` replays it identically every time, so a failing seed
*is* the bug report.  :func:`shrink_campaign` then greedily strips the
scenario — drop the crash, drop the fault storm, thin the bursts, halve the
steady stream — re-running after each cut and keeping only cuts that still
fail, until the spec is a minimal reproducer.

CLI (used by the nightly ``chaos-campaign`` CI job)::

    PYTHONPATH=src FLUXSAN=1 python -m repro.resilience.chaos \\
        --campaigns 20 --seed-base 0 --out chaos-artifacts

Exit status is non-zero when any campaign fails; the shrunken reproducer
spec and a trace of the minimal failing run land in ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import tempfile
from dataclasses import dataclass, field, replace
from typing import Any, Callable, List, Mapping, Optional, Tuple, TYPE_CHECKING

from ..errors import FluxionError, SchedulerError
from ..grug.presets import tiny_cluster
from ..jobspec import Jobspec
from ..jobspec.build import simple_node_jobspec
from ..settings import Settings
from .auditor import InvariantAuditor, InvariantViolation
from .faults import FaultInjector, FaultModel
from .overload import OverloadConfig
from .retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..sched.simulator import ClusterSimulator, SimulationReport

__all__ = [
    "CampaignSpec",
    "CampaignResult",
    "CORRUPTION_SITES",
    "run_campaign",
    "run_corruption_campaign",
    "shrink_campaign",
    "main",
]

#: where a corruption campaign injects damage: live planner state (span
#: window / aggregate DFU filter), a mid-stream journal frame, or the
#: ``planners`` section of every snapshot file
CORRUPTION_SITES = ("live-span", "live-aggregate", "journal", "snapshot")

#: crash points a campaign may draw (the hot ones; admit.* fire only when a
#: submission goes over the queue bound, which campaigns keep tight)
_CRASH_POOL = (
    "cycle.pre",
    "cycle.booked",
    "cycle.post",
    "end.pre",
    "end.released",
    "kill.canceled",
    "admit.pre",
    "admit.post",
)


@dataclass(frozen=True)
class CampaignSpec(Settings):
    """One fully determined chaos scenario (a pure function of ``seed``)."""

    seed: int
    racks: int = 2
    nodes_per_rack: int = 2
    cores: int = 4
    queue: str = "easy"
    match_policy: str = "first"
    steady_jobs: int = 8
    steady_spacing: int = 120
    #: submission bursts as (time, size) pairs
    bursts: Tuple[Tuple[int, int], ...] = ()
    faults: bool = True
    fault_mtbf: int = 900
    fault_mttr: int = 200
    fault_horizon: int = 4000
    crash_point: Optional[str] = None
    crash_nth: int = 1
    #: OverloadConfig keyword arguments (None disables overload protection)
    overload: Optional[dict] = None
    #: corruption-injection scenario for :func:`run_corruption_campaign`
    #: (``{"site", "at", "salt", "count", "snapshot_every"}``; None = no
    #: corruption, the spec runs through plain :func:`run_campaign`)
    corruption: Optional[dict] = None

    @classmethod
    def from_seed(cls, seed: int) -> "CampaignSpec":
        """Draw a campaign scenario deterministically from ``seed``."""
        rng = random.Random(seed)
        bursts = tuple(
            (rng.randrange(200, 2000), rng.randrange(8, 21))
            for _ in range(rng.randrange(1, 3))
        )
        crash_point = (
            rng.choice(_CRASH_POOL) if rng.random() < 0.5 else None
        )
        overload = {
            "max_pending": rng.randrange(3, 9),
            "cycle_budget": rng.randrange(600, 3000),
            "attempt_budget": rng.randrange(150, 800),
            "checkpoint_interval": 32,
        }
        return cls(
            seed=seed,
            racks=rng.randrange(2, 4),
            nodes_per_rack=rng.randrange(2, 4),
            cores=4,
            queue=rng.choice(("fcfs", "easy", "conservative")),
            match_policy=rng.choice(("first", "low", "high")),
            steady_jobs=rng.randrange(6, 15),
            steady_spacing=rng.randrange(80, 200),
            bursts=bursts,
            faults=rng.random() < 0.8,
            fault_mtbf=rng.randrange(600, 1600),
            fault_mttr=rng.randrange(100, 400),
            fault_horizon=4000,
            crash_point=crash_point,
            crash_nth=rng.randrange(1, 4),
            overload=overload,
        )

    @classmethod
    def corruption_from_seed(
        cls, seed: int, site: Optional[str] = None
    ) -> "CampaignSpec":
        """Draw a corruption campaign deterministically from ``seed``.

        Starts from :meth:`from_seed` and swaps the crash/fault stressors
        for a corruption injection at ``site`` (drawn from
        :data:`CORRUPTION_SITES` when omitted) — the acceptance matrix
        wants one failure mode per run so detect→quarantine→repair→converge
        is attributable.
        """
        rng = random.Random(seed ^ 0xC0FFEE)
        if site is None:
            site = rng.choice(CORRUPTION_SITES)
        elif site not in CORRUPTION_SITES:
            raise SchedulerError(f"unknown corruption site {site!r}")
        corruption = {
            "site": site,
            "at": rng.randrange(400, 1200),
            "salt": rng.randrange(1, 2**16),
            "count": rng.randrange(1, 4),
            "snapshot_every": 7,
        }
        return replace(
            cls.from_seed(seed),
            faults=False,
            crash_point=None,
            corruption=corruption,
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Rebuild from :meth:`to_dict` output; an unknown key, or an
        overload setting that no longer exists, raises SchedulerError
        naming it."""
        spec = super().from_dict(data)
        if spec.overload is not None:
            OverloadConfig.from_dict(spec.overload)
        return replace(spec, bursts=tuple(map(tuple, spec.bursts)))


@dataclass
class CampaignResult:
    """Outcome of one campaign run."""

    spec: CampaignSpec
    ok: bool
    violations: List[str] = field(default_factory=list)
    summary: str = ""
    #: SHA-256 of the final logical state (determinism comparisons)
    fingerprint: str = ""
    crashed: bool = False
    recovered: bool = False
    report: "Optional[SimulationReport]" = None
    #: corruption-campaign loss accounting (site, injected vs. skipped
    #: counts, sections rebuilt, fsck verdict); empty for plain campaigns
    loss: dict = field(default_factory=dict)


def _submission_plan(
    spec: CampaignSpec,
) -> List[Tuple[int, Jobspec, int, Optional[int]]]:
    """The campaign's full submission schedule: (at, jobspec, priority,
    actual_duration) tuples, drawn deterministically from the seed."""
    rng = random.Random(spec.seed ^ 0x5DEECE66D)
    plan: List[Tuple[int, Jobspec, int, Optional[int]]] = []

    def draw_job() -> Tuple[Jobspec, int, Optional[int]]:
        duration = rng.randrange(200, 900)
        jobspec = simple_node_jobspec(
            cores=rng.randrange(1, spec.cores + 1),
            nodes=rng.randrange(1, 3),
            duration=duration,
        )
        priority = rng.randrange(0, 5)
        actual = (
            duration + rng.randrange(100, 300)
            if rng.random() < 0.15
            else None
        )
        return jobspec, priority, actual

    t = 0
    for _ in range(spec.steady_jobs):
        t += spec.steady_spacing
        jobspec, priority, actual = draw_job()
        plan.append((t, jobspec, priority, actual))
    for burst_at, burst_size in spec.bursts:
        for _ in range(burst_size):
            jobspec, priority, actual = draw_job()
            plan.append((burst_at, jobspec, priority, actual))
    return plan


def _build_simulator(
    spec: CampaignSpec, observe: bool = False
) -> "ClusterSimulator":
    from ..sched.simulator import ClusterSimulator

    graph = tiny_cluster(
        racks=spec.racks,
        nodes_per_rack=spec.nodes_per_rack,
        cores=spec.cores,
    )
    overload = (
        OverloadConfig(**spec.overload) if spec.overload is not None else None
    )
    integrity = None
    if spec.corruption is not None:
        from ..recovery.integrity import IntegrityConfig

        # Full-graph scrub each cycle: the acceptance matrix wants damage
        # detected at the first cycle after injection, not window-delayed.
        integrity = IntegrityConfig(scrub_window=None)
    return ClusterSimulator(
        graph,
        match_policy=spec.match_policy,
        queue=spec.queue,
        retry_policy=RetryPolicy(max_retries=2, seed=spec.seed),
        audit=InvariantAuditor(),
        observe=observe or None,
        overload=overload,
        integrity=integrity,
    )


def _audit_everything(sim: "ClusterSimulator") -> None:
    """End-of-campaign audit: the full one, not the per-cycle check."""
    if sim.auditor is not None:
        found = sim.auditor.collect(sim)
        if found:
            raise InvariantViolation(found, sim.now)


def _accounting_violations(report: "SimulationReport") -> List[str]:
    """Cross-check the report's overload accounting against job states."""
    if (
        report.overload_enabled
        and report.overload_rejected != len(report.admission_rejected)
    ):
        return [
            f"accounting: {report.overload_rejected} rejections counted but "
            f"{len(report.admission_rejected)} ADMISSION-canceled jobs"
        ]
    return []


def run_campaign(
    spec: CampaignSpec,
    workdir: Optional[str] = None,
    observe: bool = False,
    trace_path: Optional[str] = None,
) -> CampaignResult:
    """Run one campaign to completion; never raises on scheduler faults.

    Invariant violations (auditor/FluxSan), unexpected library errors and
    accounting mismatches are collected into ``result.violations``; the
    campaign is ``ok`` when none occurred.  ``workdir`` hosts the
    journal/snapshots when crash injection is enabled (a temporary
    directory is used — and cleaned up — when omitted).
    """
    from ..recovery import CrashInjector, RecoveryManager, recover
    from ..recovery.crash import SimulatedCrash
    from ..recovery.diff import state_fingerprint

    tmp = None
    if spec.crash_point is not None and workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="chaos-")
        workdir = tmp.name
    violations: List[str] = []
    crashed = False
    recovered = False
    try:
        sim = _build_simulator(spec, observe=observe)
        if spec.crash_point is not None:
            RecoveryManager(workdir).attach(sim)
            CrashInjector(spec.crash_point, nth=spec.crash_nth).attach(sim)
        for at, jobspec, priority, actual in _submission_plan(spec):
            sim.submit(
                jobspec, at=at, priority=priority, actual_duration=actual
            )
        if spec.faults:
            FaultInjector(
                {"node": FaultModel(spec.fault_mtbf, spec.fault_mttr)},
                horizon=spec.fault_horizon,
                seed=spec.seed,
            ).install(sim)
        try:
            sim.run()
        # The chaos harness IS the recovery consumer: it absorbs the
        # injected crash and replays the journal, like a restarted daemon.
        except SimulatedCrash:
            crashed = True
            sim = recover(workdir)
            recovered = True
            sim.run()
        # Final full cross-check + accounting reconciliation.
        _audit_everything(sim)
        report = sim.report()
        violations.extend(_accounting_violations(report))
        fingerprint = hashlib.sha256(
            json.dumps(
                state_fingerprint(sim), sort_keys=True, default=str
            ).encode("utf-8")
        ).hexdigest()
        if trace_path is not None and sim.obs.enabled:
            sim.export_trace(trace_path)
        return CampaignResult(
            spec=spec,
            ok=not violations,
            violations=violations,
            summary=report.summary(),
            fingerprint=fingerprint,
            crashed=crashed,
            recovered=recovered,
            report=report,
        )
    except FluxionError as exc:
        violations.append(f"{type(exc).__name__}: {exc}")
        return CampaignResult(
            spec=spec,
            ok=False,
            violations=violations,
            crashed=crashed,
            recovered=recovered,
        )
    finally:
        if tmp is not None:
            tmp.cleanup()


def _corrupt_journal_records(path: str, count: int, rng: random.Random) -> int:
    """Damage ``count`` mid-stream journal frames; returns frames damaged.

    The final record is never touched — damaging it would be a torn tail,
    which strict recovery already tolerates; the campaign is after the
    mid-stream case strict recovery refuses.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    lines = data.split(b"\n")
    body = [i for i, line in enumerate(lines[:-1]) if line]
    eligible = body[:-1]
    if not eligible:
        return 0
    chosen = sorted(rng.sample(eligible, min(count, len(eligible))))
    for index in chosen:
        line = lines[index]
        tail = b"zz" if line[-2:] != b"zz" else b"qq"
        lines[index] = line[:-2] + tail
    with open(path, "wb") as handle:
        handle.write(b"\n".join(lines))
    return len(chosen)


def _tamper_snapshot_planners(directory: str, salt: int) -> int:
    """Damage the ``planners`` section of every snapshot file in place.

    The wrapper checksums are left stale, so strict loading fails on every
    file and salvage loading localises the damage to the one rebuildable
    section.  Returns the number of files tampered.
    """
    tampered = 0
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("snapshot-") and name.endswith(".json")):
            continue
        path = os.path.join(directory, name)
        with open(path, "r", encoding="utf-8") as handle:
            wrapper = json.load(handle)
        doc = wrapper.get("snapshot")
        if not isinstance(doc, dict) or "planners" not in doc:
            continue
        doc["planners"]["__chaos_tamper__"] = salt
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(wrapper, handle, sort_keys=True, separators=(",", ":"))
        tampered += 1
    return tampered


def run_corruption_campaign(
    spec: CampaignSpec,
    workdir: Optional[str] = None,
    observe: bool = False,
) -> CampaignResult:
    """Run one corruption campaign: inject → detect → repair → converge.

    The spec's ``corruption`` scenario picks one injection site (see
    :data:`CORRUPTION_SITES`).  Live-state damage must be detected by the
    online scrubber, quarantined without crashing, repaired, and the
    simulation must run to completion with a clean deep audit.  Durable
    damage (journal frame, snapshot section) must be *refused* by strict
    recovery and salvaged with loss accounting that matches the injected
    damage exactly.  Every campaign ends with the ``fluxfsck --check``
    gate over the recovery directory; its verdict and the loss accounting
    land in ``result.loss``.
    """
    from ..errors import JournalCorruptError, SnapshotError
    from ..recovery import RecoveryManager, recover
    from ..recovery.__main__ import main as fsck_main
    from ..recovery.diff import state_fingerprint
    from ..recovery.integrity import corruption_targets

    if spec.corruption is None:
        raise SchedulerError("spec has no corruption scenario")
    corruption = spec.corruption
    site = corruption["site"]
    salt = int(corruption.get("salt", 1))
    tmp = None
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="chaos-corrupt-")
        workdir = tmp.name
    violations: List[str] = []
    loss: dict = {"site": site}
    rng = random.Random(spec.seed ^ salt)
    try:
        sim = _build_simulator(spec, observe=observe)
        RecoveryManager(
            workdir, snapshot_every=corruption.get("snapshot_every")
        ).attach(sim)
        for at, jobspec, priority, actual in _submission_plan(spec):
            sim.submit(
                jobspec, at=at, priority=priority, actual_duration=actual
            )
        sim.run(until=int(corruption.get("at", 600)))

        if site in ("live-span", "live-aggregate"):
            kind = "span" if site == "live-span" else "aggregate"
            targets = corruption_targets(sim, kind)
            if not targets:
                kind = "structure"  # always applicable fallback
                targets = corruption_targets(sim, kind)
            name = targets[rng.randrange(len(targets))]
            applied = sim.inject_corruption(
                kind, sim.graph.vertex_by_name(name), salt
            )
            loss.update({"kind": kind, "vertex": name, "applied": applied})
            sim.run()
            counters = sim.integrity.counters
            loss.update(
                {
                    "detected": counters["detected"],
                    "repaired": counters["repaired"],
                    "unrepaired": counters["unrepaired"],
                    "jobs_requeued": counters["jobs_requeued"],
                }
            )
            if applied and counters["detected"] < 1:
                violations.append(f"{site}: injected damage never detected")
            if counters["unrepaired"]:
                violations.append(
                    f"{site}: {counters['unrepaired']} vertices unrepaired"
                )
            if sim.integrity.quarantined:
                violations.append(
                    f"{site}: quarantine not released: "
                    f"{sorted(sim.integrity.quarantined)}"
                )
        else:
            sim.recovery.close()
            if site == "journal":
                injected = _corrupt_journal_records(
                    os.path.join(workdir, "journal.wal"),
                    int(corruption.get("count", 2)),
                    rng,
                )
                loss["injected"] = injected
                if injected:
                    try:
                        recover(workdir)
                        violations.append(
                            "journal: strict recovery accepted mid-stream "
                            "damage"
                        )
                    except JournalCorruptError:
                        loss["strict_refused"] = True
            else:
                tampered = _tamper_snapshot_planners(workdir, salt)
                loss["injected"] = tampered
                if tampered:
                    try:
                        recover(workdir)
                        violations.append(
                            "snapshot: strict recovery accepted damaged "
                            "snapshots"
                        )
                    except SnapshotError:
                        loss["strict_refused"] = True
            salvage_report: dict = {}
            sim = recover(
                workdir, salvage=True, salvage_report=salvage_report
            )
            loss.update(
                {
                    "crc_skipped": salvage_report.get("crc_skipped", 0),
                    "replay_dropped": salvage_report.get("replay_dropped", 0),
                    "sections_rebuilt": salvage_report.get(
                        "snapshot_sections_rebuilt", []
                    ),
                }
            )
            if site == "journal" and loss["crc_skipped"] != loss["injected"]:
                violations.append(
                    f"journal: loss accounting mismatch — injected "
                    f"{loss['injected']} but skipped {loss['crc_skipped']}"
                )
            if (
                site == "snapshot"
                and loss["injected"]
                and loss["sections_rebuilt"] != ["planners"]
            ):
                violations.append(
                    f"snapshot: expected ['planners'] rebuilt, got "
                    f"{loss['sections_rebuilt']}"
                )
            sim.run()

        _audit_everything(sim)
        report = sim.report()
        violations.extend(_accounting_violations(report))
        fingerprint = hashlib.sha256(
            json.dumps(
                state_fingerprint(sim), sort_keys=True, default=str
            ).encode("utf-8")
        ).hexdigest()
        if sim.recovery is not None:
            sim.recovery.close()
        fsck_exit = fsck_main(["fsck", workdir, "--check"])
        loss["fsck_exit"] = fsck_exit
        if fsck_exit != 0:
            violations.append(
                f"fsck --check exits {fsck_exit} after repair"
            )
        return CampaignResult(
            spec=spec,
            ok=not violations,
            violations=violations,
            summary=report.summary(),
            fingerprint=fingerprint,
            report=report,
            loss=loss,
        )
    except FluxionError as exc:
        violations.append(f"{type(exc).__name__}: {exc}")
        return CampaignResult(
            spec=spec, ok=False, violations=violations, loss=loss
        )
    finally:
        if tmp is not None:
            tmp.cleanup()


def _simplifications(spec: CampaignSpec) -> List[Tuple[str, CampaignSpec]]:
    """Candidate one-step simplifications of ``spec``, gentlest cut first."""
    out: List[Tuple[str, CampaignSpec]] = []
    if spec.crash_point is not None:
        out.append(("drop-crash", replace(spec, crash_point=None)))
    if spec.faults:
        out.append(("drop-faults", replace(spec, faults=False)))
    for index in range(len(spec.bursts)):
        if len(spec.bursts) > 1:
            remaining = tuple(
                burst
                for position, burst in enumerate(spec.bursts)
                if position != index
            )
            out.append((f"drop-burst-{index}", replace(spec, bursts=remaining)))
    for index, (at, size) in enumerate(spec.bursts):
        if size > 1:
            halved = tuple(
                (at, size // 2) if position == index else burst
                for position, burst in enumerate(spec.bursts)
            )
            out.append((f"halve-burst-{index}", replace(spec, bursts=halved)))
    if spec.steady_jobs > 1:
        out.append(
            ("halve-steady", replace(spec, steady_jobs=spec.steady_jobs // 2))
        )
    return out


def shrink_campaign(
    spec: CampaignSpec,
    failing: Optional[Callable[[CampaignResult], bool]] = None,
    max_runs: int = 40,
) -> Tuple[CampaignSpec, List[str]]:
    """Greedily shrink a failing campaign to a minimal reproducer.

    ``failing`` decides whether a run still reproduces the failure (default:
    ``not result.ok``); the initial ``spec`` must fail it.  Each candidate
    simplification is re-run and kept only when the failure persists,
    looping to a fixpoint (or ``max_runs`` campaign executions).  Returns
    the minimal spec and the list of applied simplification steps.
    """
    if failing is None:
        failing = _default_failing
    if not failing(run_campaign(spec)):
        raise SchedulerError(
            "shrink_campaign needs a failing campaign to start from"
        )
    runs = 1
    applied: List[str] = []
    progress = True
    while progress and runs < max_runs:
        progress = False
        for name, candidate in _simplifications(spec):
            if runs >= max_runs:
                break
            runs += 1
            if failing(run_campaign(candidate)):
                spec = candidate
                applied.append(name)
                progress = True
                break
    return spec, applied


def _default_failing(result: CampaignResult) -> bool:
    return not result.ok


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: run N seeded campaigns, shrink and dump failures."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience.chaos",
        description="Run seeded chaos campaigns against the scheduler.",
    )
    parser.add_argument(
        "--campaigns", type=int, default=5, help="number of campaigns to run"
    )
    parser.add_argument(
        "--seed-base", type=int, default=0, help="seed of the first campaign"
    )
    parser.add_argument(
        "--out",
        default="chaos-artifacts",
        help="directory for reproducer specs and traces of failures",
    )
    parser.add_argument(
        "--max-shrink-runs",
        type=int,
        default=40,
        help="campaign executions the shrinker may spend per failure",
    )
    parser.add_argument(
        "--corruption",
        action="store_true",
        help="run corruption campaigns (inject → detect → repair → fsck) "
        "instead of fault/crash campaigns; loss reports land in --out",
    )
    args = parser.parse_args(argv)
    if args.corruption:
        return _corruption_main(args)
    failures = 0
    for index in range(args.campaigns):
        seed = args.seed_base + index
        spec = CampaignSpec.from_seed(seed)
        result = run_campaign(spec)
        status = "ok" if result.ok else "FAIL"
        print(f"campaign seed={seed}: {status} {result.summary}")
        if result.ok:
            continue
        failures += 1
        for violation in result.violations:
            print(f"  violation: {violation}")
        os.makedirs(args.out, exist_ok=True)
        minimal, steps = shrink_campaign(spec, max_runs=args.max_shrink_runs)
        final = run_campaign(
            minimal,
            observe=True,
            trace_path=os.path.join(args.out, f"trace-seed{seed}.json"),
        )
        artifact = {
            "seed": seed,
            "spec": spec.to_dict(),
            "minimal_spec": minimal.to_dict(),
            "shrink_steps": steps,
            "violations": result.violations,
            "minimal_violations": final.violations,
        }
        path = os.path.join(args.out, f"reproducer-seed{seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
        print(f"  reproducer written to {path} (steps: {steps})")
    print(f"{args.campaigns - failures}/{args.campaigns} campaigns clean")
    return 1 if failures else 0


def _corruption_main(args: argparse.Namespace) -> int:
    """Run the corruption acceptance matrix: sites rotate across seeds.

    Unlike fault campaigns, *every* run writes its loss report to ``--out``
    — the accounting is the artifact, not just the failures.  Corruption
    campaigns are not shrunk: the spec is already minimal (one injection).
    """
    os.makedirs(args.out, exist_ok=True)
    failures = 0
    for index in range(args.campaigns):
        seed = args.seed_base + index
        site = CORRUPTION_SITES[index % len(CORRUPTION_SITES)]
        spec = CampaignSpec.corruption_from_seed(seed, site)
        result = run_corruption_campaign(spec)
        status = "ok" if result.ok else "FAIL"
        print(f"corruption seed={seed} site={site}: {status}")
        if not result.ok:
            failures += 1
            for violation in result.violations:
                print(f"  violation: {violation}")
        artifact = {
            "seed": seed,
            "site": site,
            "ok": result.ok,
            "spec": spec.to_dict(),
            "loss": result.loss,
            "violations": result.violations,
            "summary": result.summary,
        }
        path = os.path.join(args.out, f"corruption-seed{seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
    print(f"{args.campaigns - failures}/{args.campaigns} campaigns clean")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    raise SystemExit(main())
