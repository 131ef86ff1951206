"""``python -m repro.obs`` — trace report, decision provenance, validation.

Commands
--------
``report <trace>``
    Read a trace (line-JSON event log or Chrome ``trace_event`` JSON) and
    print the exact-profiler output: per-span callers/callees table and an
    ASCII flame summary, plus any metrics snapshot embedded in the
    Chrome export's ``otherData``.

``why <trace> [--job N]``
    Render fluxwhy decision provenance from a trace export (or a raw
    provenance JSON document): per-job explain-trees — admission
    verdicts, attempt outcomes, top-k blocking constraints — and the
    per-cycle unsat summary.

``validate <trace.json>``
    Check that a file is structurally valid Chrome ``trace_event`` JSON
    (used by the CI observability job before uploading the artifact).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List

from .profile import aggregate
from .trace import read_jsonl
from .why import render_cycle_summary, render_explain

__all__ = ["main", "chrome_to_events", "validate_chrome"]


def chrome_to_events(document: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Convert Chrome ``traceEvents`` back to native tracer events.

    The Chrome format drops span ids and parent links, so nesting is
    recovered from interval containment: complete events are replayed in
    start order and a stack of still-open intervals supplies parents.
    """
    complete = [
        event for event in document.get("traceEvents", [])
        if event.get("ph") == "X"
    ]
    complete.sort(key=lambda event: (event["ts"], -event.get("dur", 0)))
    events: List[Dict[str, Any]] = []
    stack: List[Dict[str, Any]] = []  # native events still open
    for index, chrome in enumerate(complete):
        start = chrome["ts"]
        end = start + chrome.get("dur", 0)
        while stack and start >= stack[-1]["_end"]:
            stack.pop()
        parent = stack[-1] if stack else None
        native = {
            "ph": "X",
            "name": chrome.get("name", "?"),
            "cat": chrome.get("cat", ""),
            "id": index,
            "parent": parent["id"] if parent is not None else None,
            "depth": len(stack),
            "seq": index,
            "ts": start,
            "dur": chrome.get("dur", 0),
            "vt": chrome.get("args", {}).get("vt"),
            "args": chrome.get("args", {}),
            "_end": end,
        }
        events.append(native)
        stack.append(native)
    for event in events:
        del event["_end"]
    return events


def validate_chrome(document: Any) -> List[str]:
    """Structural schema check; returns a list of problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["top level must be a JSON object"]
    trace_events = document.get("traceEvents")
    if not isinstance(trace_events, list):
        return ["missing 'traceEvents' list"]
    if not trace_events:
        problems.append("'traceEvents' is empty")
    for index, event in enumerate(trace_events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                problems.append(f"{where}: missing '{key}'")
        phase = event.get("ph")
        if phase not in ("X", "i", "C", "B", "E", "M"):
            problems.append(f"{where}: unknown phase {phase!r}")
        if phase == "X" and "dur" not in event:
            problems.append(f"{where}: complete event missing 'dur'")
        if not isinstance(event.get("ts", 0), (int, float)):
            problems.append(f"{where}: 'ts' is not a number")
    other = document.get("otherData")
    if other is not None and not isinstance(other, dict):
        problems.append("'otherData' must be an object when present")
    return problems


def _load(path: str) -> "tuple[List[Dict[str, Any]], Dict[str, Any]]":
    """Load a trace file; returns (native events, otherData).

    Both formats start with ``{``, so sniffing the first byte cannot tell
    them apart: a Chrome export is one JSON document with a ``traceEvents``
    key, while the line-JSON log is one event object per line.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except ValueError:
            handle.seek(0)
            return read_jsonl(handle), {}
    if isinstance(document, dict) and "traceEvents" in document:
        return chrome_to_events(document), document.get("otherData", {})
    # a single-line JSONL file parses as one plain event object
    return [document], {}


def _cmd_report(args: argparse.Namespace) -> int:
    events, other_data = _load(args.trace)
    profile = aggregate(events)
    spans = sum(1 for event in events if event.get("ph") == "X")
    if not spans:
        # A schema-valid but span-free trace (e.g. an unobserved run's
        # export) is not an error: say so instead of a blank table.
        print(f"# trace: {args.trace}: empty trace (0 spans, "
              f"{len(events)} events) — nothing to profile")
        return 0
    print(f"# trace: {args.trace} ({spans} spans, "
          f"{len(events)} events, {profile.wall_total / 1000:.3f} ms traced)")
    print()
    print("## hottest spans (callers marked <-, callees ->)")
    print(profile.table(limit=args.limit))
    print()
    print("## flame summary")
    print(profile.flame())
    metrics = other_data.get("metrics") if isinstance(other_data, dict) else None
    if metrics:
        print()
        print("## metrics snapshot")
        for name in sorted(metrics):
            value = metrics[name]
            if isinstance(value, dict):
                print(f"{name} count={value.get('count')} "
                      f"sum={value.get('sum'):.6f}")
            else:
                print(f"{name} {value}")
    return 0


def _load_provenance(path: str) -> "Dict[str, Any] | None":
    """Provenance dict from a trace export or a raw fluxwhy JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except ValueError:
            return None
    if not isinstance(document, dict):
        return None
    if document.get("schema") == "fluxwhy-v1":
        return document
    other = document.get("otherData")
    if isinstance(other, dict):
        provenance = other.get("provenance")
        if isinstance(provenance, dict):
            return provenance
    return None


def _cmd_why(args: argparse.Namespace) -> int:
    provenance = _load_provenance(args.trace)
    if provenance is None:
        print(
            f"{args.trace}: no decision provenance found (run with "
            "observe=True / FLUXOBS=1 and export_trace, or pass a "
            "fluxwhy-v1 JSON document)",
            file=sys.stderr,
        )
        return 1
    jobs = provenance.get("jobs") or {}
    if args.job is not None:
        print(render_explain(provenance, args.job))
        return 0
    print(f"# fluxwhy: {args.trace} ({len(jobs)} jobs)")
    for job_key in sorted(jobs, key=int):
        print()
        print(render_explain(provenance, int(job_key)))
    print()
    print("# per-cycle summary")
    print(render_cycle_summary(provenance))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"{args.trace}: unreadable: {exc}", file=sys.stderr)
        return 1
    problems = validate_chrome(document)
    if problems:
        for problem in problems:
            print(f"{args.trace}: {problem}", file=sys.stderr)
        return 1
    count = len(document["traceEvents"])
    print(f"{args.trace}: valid Chrome trace ({count} events)")
    return 0


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Trace profiling report and Chrome-trace validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="profile a trace file")
    report.add_argument("trace", help="JSONL event log or Chrome trace JSON")
    report.add_argument("--limit", type=int, default=30,
                        help="max rows in the span table (default 30)")
    report.set_defaults(func=_cmd_report)

    why = sub.add_parser(
        "why", help="render decision provenance from a trace"
    )
    why.add_argument(
        "trace", help="Chrome trace JSON with otherData.provenance, "
        "or a raw fluxwhy-v1 JSON document"
    )
    why.add_argument("--job", type=int, default=None,
                     help="explain a single job id only")
    why.set_defaults(func=_cmd_why)

    validate = sub.add_parser("validate", help="schema-check a Chrome trace")
    validate.add_argument("trace", help="Chrome trace JSON file")
    validate.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
