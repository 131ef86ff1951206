"""Perf ledger: five workloads, end-to-end and per-layer metrics.

    python3 benchmarks/ledger/run.py [--seed 7] [--reps 5] [--out DIR]
        every workload: human table + one JSON document (DIR/ledger.json)
    python3 benchmarks/ledger/run.py --trace ...
        the same plus the traced pass (per-layer metrics, spans in DIR)
    python3 benchmarks/ledger/run.py --quick
        smoke run at a tenth of the size; never a baseline
    python3 benchmarks/ledger/run.py compare A.json B.json
        apply BENCHMARK.json's bounds; exit 1 on any worse
    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
        one workload for the benchmark driver; the last line of output is
        {"correct", "attempted", "failed", "metrics"}

Every rep runs in a fresh interpreter (``run.py rep ...``), one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional

import ledger

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
SCRATCH = os.path.join(ROOT, ".bench_build", "ledger")
#: the driver's run is ``--seconds`` of timed sections: this many reps, from
#: the time one rep's sections take here in a calm minute (1.6-2.2 s), never
#: from the wall this run measures -- the metrics are bests over reps, which
#: fall as the count rises, so the count must not follow the host's speed
MIN_REPS = 5
MAX_REPS = 8
REP_SECONDS = 1.6
REP_TIMEOUT_S = 150
#: a rep's timed section starts when the gate's spin reads within this
#: factor of the calmest reading the run has seen, or after GATE_WAIT_S
GATE_FACTOR = 1.15
GATE_WAIT_S = 1.5
GATE_SPIN = 200_000


# ----------------------------------------------------------------------
# one rep, in this (fresh) interpreter
# ----------------------------------------------------------------------
def spin_ms(iterations: int = 10**6) -> float:
    """A fixed spin: how fast the host is running this interpreter now."""
    start = time.perf_counter()
    for _ in range(iterations):
        pass
    return (time.perf_counter() - start) * 1e3


class Gate:
    """Hold a timed section back until the host is in its calm state.

    This host has two speeds, a few seconds to a minute at a time, the slow
    one about 1.6x the calm one (a neighbour on the core).  The gate spins
    until a reading is within ``GATE_FACTOR`` of the calmest seen so far in
    this run, for at most ``GATE_WAIT_S``; the wait is neither set-up nor
    timed section.
    """

    def __init__(self, calm_ms: Optional[float]) -> None:
        readings = [spin_ms(GATE_SPIN) for _ in range(5)]
        self.calm_ms = min(readings + ([calm_ms] if calm_ms else []))
        self.waited_s = 0.0

    def __call__(self) -> None:
        start = time.perf_counter()
        while True:
            reading = spin_ms(GATE_SPIN)
            self.calm_ms = min(self.calm_ms, reading)
            waited = time.perf_counter() - start
            if reading <= self.calm_ms * GATE_FACTOR or waited >= GATE_WAIT_S:
                self.waited_s += waited
                return
            time.sleep(0.02)


def rep_main(args: argparse.Namespace) -> int:
    probe = [spin_ms()]
    gate = Gate(args.calm_ms)
    t0 = time.perf_counter()  # set-up starts before the program is imported
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from spans import Tracer

    tracer = Tracer().install() if args.traced else None
    ctx = workloads.Context(
        seed=args.seed, quick=args.quick,
        tracer=tracer, t0=t0, tmpdir=SCRATCH, gate=gate,
        guards=(None if args.guards is None
                else frozenset(g for g in args.guards.split(",") if g)),
    )
    try:
        record = workloads.run(args.workload, ctx)
    finally:
        if tracer is not None:
            tracer.restore()
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    if tracer is not None:
        record["trace"] = tracer.dump()
    probe.append(spin_ms())
    record["host_probe_ms"] = probe
    record["calm_ms"] = gate.calm_ms
    record["gate_wait_s"] = gate.waited_s
    json.dump(record, sys.stdout)
    return 0


class Runner:
    """Runs reps for one invocation: a fresh interpreter each, one at a
    time, each told the calmest host reading its predecessors saw."""

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed, self.quick = seed, quick
        self.calm_ms: Optional[float] = None

    def rep(self, workload: str, traced: bool = False,
            guards: Optional[str] = None) -> dict:
        command = [
            sys.executable, os.path.abspath(__file__), "rep",
            "--workload", workload, "--seed", str(self.seed),
        ]
        if self.quick:
            command.append("--quick")
        if traced:
            command.append("--traced")
        if guards is not None:
            command += ["--guards", guards]
        if self.calm_ms is not None:
            command += ["--calm-ms", repr(self.calm_ms)]
        done = subprocess.run(
            command, stdout=subprocess.PIPE, timeout=REP_TIMEOUT_S,
            check=True, cwd=ROOT,
        )
        record = json.loads(done.stdout)
        self.calm_ms = record["calm_ms"]
        return record

    def tax_runs(self, workload: str, traced: bool) -> Dict[str, dict]:
        """The bare run of the guarded workload's inputs and, with the
        traced pass, one run per optional layer switched on alone."""
        if workload != ledger.GUARDED:
            return {}
        guards = ("",) + (ledger.TAX_GUARDS if traced else ())
        return {guard or "bare": self.rep(workload, guards=guard)
                for guard in guards}


# ----------------------------------------------------------------------
# one workload: reps, checks, metrics
# ----------------------------------------------------------------------
def measure(
    reps: List[dict], traced: Optional[dict], extra: Dict[str, dict]
) -> dict:
    """Entry of one workload in the ledger document."""
    first = reps[0]
    failures = [f for r in reps for f in r["failures"]]
    failures += ledger.cross_rep_failures(reps)
    bare = extra.get("bare")
    if bare is not None:
        failures += bare["failures"]
        if bare["event_log_sha256"] != first["event_log_sha256"]:
            failures.append("guards changed a decision: the event log "
                            "differs from the bare run's")
    failures = sorted(set(failures))
    entry = {
        "inputs_sha256": first["inputs_sha256"],
        "event_log_sha256": first.get("event_log_sha256"),
        "attempted": first["attempted"],
        "ops": first["ops"],
        "failed": len(failures),
        "failed_ops_share": len(failures) / first["attempted"],
        "failures": failures,
        "sim": first.get("sim"),
        "counters": first["counters"],
        "reps": len(reps),
        "host_probe_ms": [r["host_probe_ms"] for r in reps],
        "gate_wait_s": [r["gate_wait_s"] for r in reps],
        "end_to_end": ledger.end_to_end(reps),
    }
    if traced is not None:
        tax = {guard: run["wall_s"] for guard, run in extra.items()}
        if tax:
            tax["all"] = first["wall_s"]
        entry["per_layer"] = ledger.per_layer(traced, reps, tax)
    return entry


# ----------------------------------------------------------------------
# the benchmark driver's entry: one workload, one result line
# ----------------------------------------------------------------------
def driver_main(args: argparse.Namespace) -> int:
    benchmark = ledger.load_benchmark()
    runner = Runner(args.seed, args.quick)
    traced = None
    if args.trace:
        # one traced rep beside two untraced ones (the overhead's base)
        traced = runner.rep(args.workload, traced=True)
        reps = [runner.rep(args.workload) for _ in range(2)]
    else:
        count = min(MAX_REPS, max(MIN_REPS,
                                  round(args.seconds / REP_SECONDS)))
        reps = [runner.rep(args.workload) for _ in range(count)]
    entry = measure(reps, traced,
                    runner.tax_runs(args.workload, bool(args.trace)))
    if args.trace:
        section = "per_layer"
        values = entry["per_layer"]
    else:
        section = "end_to_end"
        values = {k: v["value"] for k, v in entry["end_to_end"].items()}
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in benchmark[section]
    }
    for failure in entry["failures"]:
        print("check failed:", failure, file=sys.stderr)
    print(f"{args.workload}: seed {args.seed}, {entry['reps']} reps of "
          f"{len(reps[0]['latencies'])} calls, "
          f"{entry['end_to_end']['call_ms_p95']['samples']} stalls, "
          f"inputs_sha256 {entry['inputs_sha256'][:16]}")
    print(json.dumps({
        "correct": not entry["failures"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# the human's entry: every workload, a table and one JSON document
# ----------------------------------------------------------------------
def full_main(args: argparse.Namespace) -> int:
    benchmark = ledger.load_benchmark()
    runner = Runner(args.seed, args.quick)
    workloads = [w["name"] for w in benchmark["workloads"]]
    reps: Dict[str, List[dict]] = {w: [] for w in workloads}
    for _ in range(args.reps):  # round-robin, so slow minutes are shared
        for workload in workloads:
            reps[workload].append(runner.rep(workload))
    os.makedirs(args.out, exist_ok=True)
    document = {
        "schema": "ledger-v1",
        "seed": args.seed,
        "quick": args.quick,
        "workloads": {},
    }
    for workload in workloads:
        traced = None
        if args.trace:
            traced = runner.rep(workload, traced=True)
            with open(os.path.join(args.out, f"spans-{workload}.json"),
                      "w") as handle:
                json.dump(traced["trace"], handle)
        document["workloads"][workload] = measure(
            reps[workload], traced,
            runner.tax_runs(workload, bool(args.trace)),
        )
    print_tables(document, benchmark)
    path = os.path.join(args.out, "ledger.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    print(json.dumps(document, sort_keys=True))
    print(f"written to {path}", file=sys.stderr)
    failed = [w for w, e in document["workloads"].items() if e["failures"]]
    for workload in failed:
        for failure in document["workloads"][workload]["failures"]:
            print(f"check failed: {workload}: {failure}", file=sys.stderr)
    return 1 if failed else 0


def print_tables(document: dict, benchmark: dict) -> None:
    entries = document["workloads"]
    width = max(len(w) for w in entries)
    print(f"seed {document['seed']}"
          f"{'  QUICK (not a baseline)' if document['quick'] else ''}")
    for workload, entry in entries.items():
        print(f"{workload:{width}}  inputs_sha256 {entry['inputs_sha256'][:16]}"
              f"  reps {entry['reps']}  attempted {entry['attempted']}"
              f"  failed_ops_share {entry['failed_ops_share']:.4f}")
    print()
    print(f"{'end-to-end':18} {'unit':6} " + " ".join(
        f"{w[:width]:>{width}}" for w in entries))
    for metric in benchmark["end_to_end"]:
        cells = []
        for entry in entries.values():
            m = entry["end_to_end"][metric["name"]]
            cells.append(f"{m['value']:{width}.4f}")
        print(f"{metric['name']:18} {metric['unit']:6} " + " ".join(cells))
    print(f"{'  samples p50/p95':25} " + " ".join(
        f"{e['end_to_end']['call_ms_p95']['samples']:{width}d}"
        for e in entries.values()))
    if not all("per_layer" in e for e in entries.values()):
        return
    print()
    layer = None
    for metric in benchmark["per_layer"]:
        prefix = metric["name"].split(".")[0]
        if ledger.LAYERS[prefix] != layer:
            layer = ledger.LAYERS[prefix]
            print(f"-- layer {layer}")
        cells = [f"{e['per_layer'][metric['name']]:{width}.4f}"
                 for e in entries.values()]
        print(f"{metric['name']:28} {metric['unit']:6} " + " ".join(cells))


def compare_main(args: argparse.Namespace) -> int:
    with open(args.old) as handle:
        old = json.load(handle)
    with open(args.new) as handle:
        new = json.load(handle)
    if old["quick"] or new["quick"]:
        print("warning: a --quick run is not a baseline", file=sys.stderr)
    rows, worse = ledger.compare(old, new, ledger.load_benchmark())
    print(ledger.format_rows(rows))
    return 1 if worse else 0


# ----------------------------------------------------------------------
def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = argv[0] if argv and argv[0] in ("rep", "compare") else "run"
    if mode != "run":
        argv = argv[1:]
    if mode == "compare":
        parser.add_argument("old")
        parser.add_argument("new")
    else:
        parser.add_argument("--seed", type=int, default=7)
        parser.add_argument("--quick", action="store_true")
        parser.add_argument("--workload")
    if mode == "rep":
        parser.add_argument("--traced", action="store_true")
        parser.add_argument("--guards")
        parser.add_argument("--calm-ms", type=float)
    if mode == "run":
        parser.add_argument("--reps", type=int, default=MIN_REPS)
        parser.add_argument("--out", default=os.path.join(SCRATCH, "out"))
        parser.add_argument("--seconds", type=float, default=8)
        # "--trace" alone for people, "--trace 0|1" for the driver
        parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    args = parser.parse_args(argv)
    args.mode = mode
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if args.mode == "compare":
        return compare_main(args)
    if args.mode == "rep":
        return rep_main(args)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("the program is not in this checkout: no src/repro",
              file=sys.stderr)
        return 2
    if args.workload:
        return driver_main(args)
    return full_main(args)


if __name__ == "__main__":
    sys.exit(main())
