"""fluxlint / FluxSan command line: ``python -m repro.statcheck``.

Exit codes follow the usual lint convention:

* ``0`` — no violations (or the dual run was deterministic);
* ``1`` — violations found / dual run diverged;
* ``2`` — usage error, unreadable input, or a file that does not parse.

Examples::

    python -m repro.statcheck src/repro              # lint the tree
    python -m repro.statcheck --format json --output lint.json src/repro
    python -m repro.statcheck --select DET001 src/   # one rule only
    python -m repro.statcheck --list-rules
    python -m repro.statcheck --dual-run tiny        # FluxSan determinism

Lint is zero-tolerance: every finding fails the run, and a finding that
does not apply is silenced by a ``# fluxlint: disable=RULE`` directive
next to the reason, not by a baseline file.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional

from ..errors import FluxionError, SanitizerError
from .core import LintEngine, all_rules
from .reporters import render_json, render_text
from .sanitizer import FluxSan, dual_run

__all__ = ["main", "build_preset_simulator", "DUAL_RUN_PRESETS"]


def build_preset_simulator(preset: str) -> "object":
    """Build a fully loaded simulator for one GRUG preset workload.

    The factory is deterministic by construction (seeded trace, seeded
    preset) — exactly what the dual-run detector requires.
    """
    from ..grug import tiny_cluster
    from ..sched.simulator import ClusterSimulator
    from ..workloads.trace import synthetic_trace

    if preset == "tiny":
        graph = tiny_cluster()
        trace = synthetic_trace(
            n_jobs=24, seed=7, max_nodes=4, min_duration=60,
            max_duration=1800, arrival_spread=600,
        )
    elif preset == "tiny-faulty":
        graph = tiny_cluster()
        trace = synthetic_trace(
            n_jobs=16, seed=11, max_nodes=4, min_duration=60,
            max_duration=900, arrival_spread=400,
        )
    else:
        raise FluxionError(
            f"unknown dual-run preset {preset!r}; "
            f"known: {sorted(DUAL_RUN_PRESETS)}"
        )
    sim = ClusterSimulator(graph, match_policy="first", queue="conservative")
    for job in trace:
        sim.submit(job.to_jobspec(), at=job.submit_time)
    if preset == "tiny-faulty":
        nodes = graph.find(type="node")
        sim.schedule_failure(nodes[0], at=300)
        sim.schedule_repair(nodes[0], at=700)
    return sim


DUAL_RUN_PRESETS = ("tiny", "tiny-faulty")


def _run_dual(preset: str, out: Callable[[str], None]) -> int:
    factory = lambda: build_preset_simulator(preset)  # noqa: E731
    with FluxSan():
        try:
            report = dual_run(factory, raise_on_divergence=False)
        except SanitizerError as exc:
            out(f"fluxsan: {exc}")
            return 1
    out(f"fluxsan [{preset}]: {report.summary()}")
    return 0 if report.ok else 1


def _list_rules(out: Callable[[str], None]) -> int:
    out("fluxlint AST rules:")
    for rule_id, rule_cls in sorted(all_rules().items()):
        out(f"  {rule_id}  {rule_cls.summary}")
    out("")
    out("FluxSan runtime sanitizer (--dual-run PRESET / FLUXSAN=1):")
    out("  span double-free, exclusivity, SDFU divergence, graph status")
    out("  sanity, dual-run nondeterminism (runtime checks; no static")
    out("  rule ids)")
    return 0


def _rule_ids(raw: Optional[str]) -> Optional[List[str]]:
    """A comma-separated ``--select`` / ``--ignore`` value as a list."""
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.statcheck",
        description="fluxlint static analysis + FluxSan runtime checks",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="violation report format (default: text)",
    )
    parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", default=None, metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    parser.add_argument(
        "--dual-run", default=None, metavar="PRESET",
        help="run the FluxSan dual-run nondeterminism check on a preset "
        f"workload ({', '.join(DUAL_RUN_PRESETS)}) and exit",
    )
    args = parser.parse_args(argv)

    def out(line: str) -> None:
        print(line)

    if args.list_rules:
        return _list_rules(out)
    if args.dual_run is not None:
        try:
            return _run_dual(args.dual_run, out)
        except FluxionError as exc:
            print(f"fluxsan: error: {exc}", file=sys.stderr)
            return 2
    if not args.paths:
        parser.print_usage(sys.stderr)
        print(
            "python -m repro.statcheck: error: no paths given "
            "(try 'src/repro')",
            file=sys.stderr,
        )
        return 2

    try:
        return _run_lint(args, out)
    except (FluxionError, OSError) as exc:  # LintParseError is a FluxionError
        print(f"fluxlint: error: {exc}", file=sys.stderr)
        return 2


def _run_lint(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    engine = LintEngine(
        select=_rule_ids(args.select), ignore=_rule_ids(args.ignore)
    )
    violations, files_checked = engine.lint_paths(args.paths)
    render = render_json if args.format == "json" else render_text
    report = render(violations, files_checked)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
            handle.write("\n")
    else:
        out(report)
    return 1 if violations else 0
