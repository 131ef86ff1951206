"""Reduce rep records to the ledger's named metrics, and compare two ledgers.

A *rep record* is what ``workloads.run`` returns for one fresh interpreter.
End-to-end metrics come from the untraced reps of a workload, per-layer
metrics from one traced rep (plus the untraced reps and tax runs beside it).
Names, units, directions and bounds are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, os.pardir, os.pardir, "BENCHMARK.json")

#: layer of a per-layer metric, by the prefix of its name
LAYERS = {
    "grug": "grug",
    "sim": "sched.simulator",
    "queue": "sched.queue",
    "match": "match",
    "planner": "planner",
    "resilience": "resilience",
    "recovery": "recovery",
    "tax": "resilience+recovery+obs+statcheck",
    "trace": "trace",
}

#: the workload that runs with the optional layers on, the layers it runs
#: with, and those measured alone as tax rows (FluxSan only as a tax row)
GUARDED = "guarded_easy_64"
GUARDS = ("audit", "observe", "journal", "integrity", "overload")
TAX_GUARDS = GUARDS + ("sanitize",)

#: counters that must read the same on every rep of a workload
EXACT_KEYS = ("event_log_sha256", "inputs_sha256", "counters", "sim", "ops",
              "attempted", "instants")

_QUERY_OPS = ("avail_at", "avail_during", "avail_resources_during",
              "next_event_time")


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


# ----------------------------------------------------------------------
# end-to-end
# ----------------------------------------------------------------------
def _best_per_call(runs: List[List[float]]) -> List[float]:
    """Best latency of each call index over reps.

    The call sequence is deterministic and this host's noise is one-sided
    (a neighbour can only slow a call down), so the best of the reps is the
    steadiest reading of what call *i* costs: measured here, it repeats
    within 5 % where the median over reps spreads 12-21 %.
    """
    return [min(column) for column in zip(*runs)]


def _growth(calls: List[float], ops: int, record: dict,
            half_calls: Optional[List[float]]) -> float:
    """Cost per op of the full run over that of its first half.

    Simulator workloads replay the first half of the trace on a fresh
    simulator; the others compare all calls of the growing phase with its
    first half.
    """
    if half_calls is not None:
        return (sum(calls) / ops) / (sum(half_calls) / record["half"]["ops"])
    first, whole = record["growth_calls"]
    return (sum(calls[:whole]) / whole) / (sum(calls[:first]) / first)


def _stalls(calls: List[float], record: dict) -> List[float]:
    """What the latency percentiles are taken over.

    A simulator's loop stops the virtual clock at an instant and steps
    through every event due then, so its stall is the sum over those steps
    (``record["instants"]`` counts them).  Taken per step, half the samples
    are events that schedule nothing (a start that was booked earlier, a
    walltime timer of a job that has ended): a few microseconds each, which
    put the median on the timer's own cost.  Elsewhere a call is a stall.
    """
    if "instants" not in record:
        return calls
    stalls, first = [], 0
    for steps in record["instants"]:
        stalls.append(sum(calls[first:first + steps]))
        first += steps
    return stalls


def _timed(calls: List[float], ops: int, record: dict,
           half_calls: Optional[List[float]]) -> Dict[str, float]:
    stalls = _stalls(calls, record)
    return {
        "ops_per_s": ops / sum(calls),
        "call_ms_p50": statistics.median(stalls) * 1e3,
        "call_ms_p95": percentile(stalls, 0.95) * 1e3,
        "ms_per_op_growth": _growth(calls, ops, record, half_calls),
    }


def end_to_end(reps: List[dict]) -> Dict[str, dict]:
    """The end-to-end metrics of one workload from its untraced reps.

    Timing metrics are taken over the best latency of each call (see
    ``_best_per_call``), set-up time is the best over reps for the same
    reason, memory the median over reps.
    Each entry carries ``value``, ``samples`` (what the value was taken
    over) and ``spread`` (IQR / median of the same metric read from each
    rep alone, which ``compare`` uses to call a difference unresolved).
    """
    first = reps[0]
    ops = first["ops"]
    halves = [r["half"]["latencies"] for r in reps] if "half" in first else None
    if len({len(r["latencies"]) for r in reps}) > 1:
        reps = reps[:1]  # reported as a failure by cross_rep_failures
    values = _timed(
        _best_per_call([r["latencies"] for r in reps]), ops, first,
        _best_per_call(halves[: len(reps)]) if halves else None,
    )
    per_rep: Dict[str, List[float]] = {name: [] for name in values}
    for r in reps:
        alone = _timed(r["latencies"], ops, r,
                       r["half"]["latencies"] if halves else None)
        for name, value in alone.items():
            per_rep[name].append(value)
    samples = {name: len(reps) for name in values}
    samples["call_ms_p50"] = samples["call_ms_p95"] = len(
        _stalls(first["latencies"], first)
    )
    per_rep["setup_s"] = [r["setup_s"] for r in reps]
    values["setup_s"] = min(per_rep["setup_s"])
    per_rep["peak_rss_mb"] = [r["peak_rss_mb"] for r in reps]
    values["peak_rss_mb"] = statistics.median(per_rep["peak_rss_mb"])
    samples["setup_s"] = samples["peak_rss_mb"] = len(reps)
    return {
        name: {
            "value": values[name],
            "samples": samples[name],
            "spread": spread(per_rep[name]),
        }
        for name in values
    }


def cross_rep_failures(reps: List[dict]) -> List[str]:
    """Everything deterministic must be identical on every rep."""
    failures = []
    for key in EXACT_KEYS:
        seen = {json.dumps(r.get(key), sort_keys=True) for r in reps}
        if len(seen) > 1:
            failures.append(f"{key} differs across reps")
    if len({len(r["latencies"]) for r in reps}) > 1:
        failures.append("call count differs across reps")
    return failures


# ----------------------------------------------------------------------
# per-layer, from one traced rep
# ----------------------------------------------------------------------
def per_layer(
    traced: dict,
    untraced: List[dict],
    tax_walls: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every per-layer metric of one workload; 0 where a layer is not run.

    ``tax_walls`` maps a guard name (and ``"bare"``, ``"all"``) to the wall
    of ``guarded_easy_64``'s inputs with only that optional layer on.
    """
    trace = traced["trace"]
    names = [tuple(n) for n in trace["names"]]
    timed = [s for s in trace["spans"] if s[4] >= 0]
    wall = traced["wall_s"]
    counters = traced["counters"]
    sim = traced.get("sim", {})

    by_name: Dict[str, List[list]] = {}
    layer_self: Dict[str, float] = {}
    planner: Dict[str, List[float]] = {}  # op -> [outermost calls, seconds]
    for span in timed:
        name, layer = names[span[0]]
        by_name.setdefault(name, []).append(span)
        layer_self[layer] = layer_self.get(layer, 0.0) + _self(span)
        _merge(planner, span[6])
    _merge(planner, trace["root_planner"])
    _merge(planner, trace["setup_root_planner"], sign=-1)
    planner_s = sum(seconds for _, seconds in planner.values())
    leaf = {
        op: n - trace["setup_planner_calls"].get(op, 0)
        for op, n in trace["planner_calls"].items()
    }

    def spans(name: str) -> List[list]:
        return by_name.get(name, [])

    def total(name: str, only_failed: bool = False) -> float:
        return sum(
            s[2] - s[1] for s in spans(name) if not (only_failed and s[7])
        )

    def op_seconds(*ops: str) -> float:
        return sum(
            planner.get(prefix + op, (0, 0.0))[1]
            for op in ops for prefix in ("", "multi.")
        )

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    allocate = spans("Traverser.allocate")
    reserve = spans("Traverser.allocate_orelse_reserve")
    cycles = [s for n in by_name for s in by_name[n] if n.endswith(".cycle")]
    in_cycle = [
        s for s in allocate + reserve
        if s[3] >= 0 and names[trace["spans"][s[3]][0]][0].endswith(".cycle")
    ]
    attempts = len(in_cycle)
    matches = len(allocate) + len(reserve)
    booked = sum(1 for s in allocate + reserve if s[7])
    events = counters.get("sim.events", 0)
    sim_self = layer_self.get("sched.simulator", 0.0)
    sched_ms = _per_job_sched_ms(untraced)
    setup_spans = [s for s in trace["spans"] if s[4] < 0]
    metrics = {
        "grug.build_s": sum(
            s[2] - s[1] for s in setup_spans if names[s[0]][1] == "grug"
        ),
        "grug.vertices": counters.get("grug.vertices", 0),
        "sim.events": events,
        "sim.cycles": len(cycles),
        "sim.step_s": total("ClusterSimulator.step"),
        "sim.self_s": sim_self,
        "sim.us_per_event_self": ratio(sim_self, events) * 1e6,
        "sim.peak_pending": trace["pending"][2],
        "sim.submit_s": sum(
            s[2] - s[1] for s in setup_spans
            if names[s[0]][0] == "ClusterSimulator.submit"
        ),
        "sim.report_s": total("ClusterSimulator.report"),
        "sim.mean_wait_s": sim.get("mean_wait_s", 0),
        "sim.makespan_s": sim.get("makespan_s", 0),
        "queue.cycle_s": sum(s[2] - s[1] for s in cycles),
        "queue.self_s": layer_self.get("sched.queue", 0.0),
        "queue.attempts": attempts,
        "queue.attempts_per_start": ratio(
            attempts, counters.get("sim.starts", 0)
        ),
        "queue.useful_attempt_share": ratio(
            sum(1 for s in in_cycle if s[7]), attempts
        ),
        "queue.sched_ms_per_job_p50": (
            statistics.median(sched_ms) if sched_ms else 0
        ),
        "queue.sched_ms_per_job_p95": (
            percentile(sched_ms, 0.95) if sched_ms else 0
        ),
        "match.allocate_calls": len(allocate),
        "match.allocate_ok": sum(1 for s in allocate if s[7]),
        "match.allocate_s": total("Traverser.allocate"),
        "match.allocate_fail_s": total("Traverser.allocate", only_failed=True),
        "match.aor_calls": len(reserve),
        "match.aor_s": total("Traverser.allocate_orelse_reserve"),
        "match.remove_calls": len(spans("Traverser.remove")),
        "match.remove_s": total("Traverser.remove"),
        "match.self_s": layer_self.get("match", 0.0),
        "match.visits": counters.get("match.visits", 0),
        "match.visits_per_call": ratio(counters.get("match.visits", 0), matches),
        "match.ns_per_visit": ratio(
            layer_self.get("match", 0.0), counters.get("match.visits", 0)
        ) * 1e9,
        "match.failed": counters.get("match.failed", 0),
        "match.reserve_iters": counters.get("match.reserve_iters", 0),
        "match.filter_hits": counters.get("match.filter_hits", 0),
        "match.sdfu_updates": counters.get("match.sdfu_updates", 0),
        "planner.add_span_calls": leaf.get("add_span", 0),
        "planner.add_span_s": op_seconds("add_span"),
        "planner.add_span_per_alloc": ratio(leaf.get("add_span", 0), booked),
        "planner.rem_span_calls": leaf.get("rem_span", 0),
        "planner.rem_span_s": op_seconds("rem_span"),
        "planner.query_calls": sum(leaf.get(op, 0) for op in _QUERY_OPS),
        "planner.query_s": op_seconds(*_QUERY_OPS),
        "planner.atf_calls": leaf.get("avail_time_first", 0),
        "planner.atf_s": op_seconds("avail_time_first"),
        "planner.self_s": planner_s,
        "planner.us_per_op": ratio(
            planner_s, sum(n for n, _ in planner.values())
        ) * 1e6,
        "resilience.audit_calls": len(spans("InvariantAuditor.check")),
        "resilience.audit_s": total("InvariantAuditor.check"),
        "resilience.overload_self_s": sum(
            _self(s) for s in spans("OverloadController.run_cycle")
        ),
        "recovery.journal_records": sim.get("journal_records", 0),
        "recovery.journal_s": total("RecoveryManager.record"),
        "recovery.snapshots": sim.get("snapshots", 0),
        "recovery.snapshot_s": total("RecoveryManager.snapshot"),
        "recovery.scrub_calls": len(spans("IntegrityMonitor.scrub_cycle")),
        "recovery.scrub_s": total("IntegrityMonitor.scrub_cycle"),
        "recovery.vertices_scrubbed": sim.get("vertices_scrubbed", 0),
    }
    tax_walls = tax_walls or {}
    bare = tax_walls.get("bare", 0.0)
    for guard in TAX_GUARDS + ("all",):
        metrics[f"tax.{guard}_ratio"] = ratio(tax_walls.get(guard, 0.0), bare)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    metrics["trace.spans"] = len(trace["spans"])
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_ratio"] = ratio(wall, untraced_wall)
    # self times of every layer's spans, planner calls included; what is
    # left of the timed section is the driver's own loop
    metrics["trace.coverage_ratio"] = ratio(
        sum(t for layer, t in layer_self.items() if layer != "driver")
        + planner_s,
        wall,
    )
    return metrics


def _self(span: list) -> float:
    return span[2] - span[1] - span[5]


def _merge(into: Dict[str, List[float]], table: Optional[dict],
           sign: int = 1) -> None:
    for op, (count, seconds) in (table or {}).items():
        entry = into.setdefault(op, [0, 0.0])
        entry[0] += sign * count
        entry[1] += sign * seconds


def _per_job_sched_ms(untraced: List[dict]) -> List[float]:
    """``Job.sched_time`` per job, as the median over untraced reps."""
    columns = [r["sched_ms"] for r in untraced if "sched_ms" in r]
    if not columns or len({len(c) for c in columns}) > 1:
        return []
    return [statistics.median(column) for column in zip(*columns)]


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def compare(old: dict, new: dict, benchmark: dict) -> Tuple[List[tuple], bool]:
    """Rows ``(workload, metric, old, new, change, verdict)`` and whether
    any is worse.

    A bounded metric is *worse* when it moved the wrong way by more than its
    bound, *better* when it moved the right way by more, *unresolved* when
    it moved by more than the bound but the spread across reps of either
    side is wider than the bound, and *within-bound* otherwise.  Everything
    deterministic — counters, simulated-time results, failed operations —
    must be equal, else it is worse.
    """
    rows: List[tuple] = []
    for name, before in old["workloads"].items():
        after = new["workloads"].get(name)
        if after is None:
            rows.append((name, "-", "-", "-", "-", "worse (workload missing)"))
            continue
        for metric in benchmark["end_to_end"]:
            a = before["end_to_end"][metric["name"]]
            b = after["end_to_end"][metric["name"]]
            change = (b["value"] - a["value"]) / a["value"]
            gain = -change if metric["better"] == "lower" else change
            bound = metric["bound"]
            if abs(gain) <= bound:
                verdict = "within-bound"
            elif max(a["spread"], b["spread"]) > bound:
                verdict = "unresolved"
            else:
                verdict = "better" if gain > 0 else "worse"
            rows.append((name, metric["name"], a["value"], b["value"],
                         change, verdict))
        for key in ("failed", "attempted", "ops", "sim", "counters"):
            same = before.get(key) == after.get(key)
            rows.append((name, key, "-", "-", 0.0,
                         "within-bound" if same else "worse (not equal)"))
    return rows, any(row[5].startswith("worse") for row in rows)


def format_rows(rows: Iterable[tuple]) -> str:
    lines = [f"{'workload':28} {'metric':18} {'old':>12} {'new':>12} "
             f"{'change':>8}  verdict"]
    for workload, metric, a, b, change, verdict in rows:
        a = f"{a:12.4f}" if isinstance(a, float) else f"{a:>12}"
        b = f"{b:12.4f}" if isinstance(b, float) else f"{b:>12}"
        lines.append(
            f"{workload:28} {metric:18} {a} {b} {change:+8.1%}  {verdict}"
        )
    return "\n".join(lines)
