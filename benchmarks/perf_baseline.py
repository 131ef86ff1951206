"""Record / check the fluxhot hot-path baseline (``BENCH_statcheck_hot.json``).

``BENCH_statcheck_hot.json`` records the fluxhot mechanical-sweep
before/after on the 64-node Med-LOD fill (best-of-N total seconds, pre- and
post-sweep, plus the measured speedup).  ``check`` fails when the fill's
best time regresses past ``TOLERANCE`` (2x — generous enough to absorb
runner-to-runner variance, tight enough to catch an accidental O(n) ->
O(n^2)); exact ``jobs``/``visits`` drift fails it outright.

Usage::

    PYTHONPATH=src python benchmarks/perf_baseline.py record-hot  # post-sweep
    PYTHONPATH=src python benchmarks/perf_baseline.py check       # CI gate
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOT_BASELINE_PATH = os.path.join(_REPO_ROOT, "BENCH_statcheck_hot.json")
TOLERANCE = 2.0  # CI fails when a timed metric exceeds baseline * TOLERANCE
HOT_REPS = 3  # fill repetitions for the hot-path baseline (best-of)


def measure_hot(reps: int = HOT_REPS) -> dict:
    """The fluxhot sweep benchmark: best-of-N fig6a med/prune 64-node fill.

    Best-of (not mean) because the fill is deterministic — all variance is
    machine noise, and the minimum is the least-noisy estimate.
    """
    totals = []
    jobs = visits = 0
    for _ in range(reps):
        row = harness.fig6a_run_one("med", True, 4, 16)
        totals.append(row["total_s"])
        jobs, visits = row["jobs"], row["visits"]
    return {
        "best_total_s": round(min(totals), 6),
        "median_total_s": round(sorted(totals)[len(totals) // 2], 6),
        "reps": reps,
        "jobs": jobs,
        "visits": visits,
    }


def record_hot() -> int:
    """Refresh the post-sweep numbers in BENCH_statcheck_hot.json.

    ``pre_sweep`` is the historical measurement taken before the first
    mechanical PRF sweep landed; it is preserved so the recorded speedup
    keeps meaning across refreshes.
    """
    try:
        with open(HOT_BASELINE_PATH, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError:
        print(f"no baseline at {HOT_BASELINE_PATH}; pre_sweep unknown")
        return 2
    post = measure_hot()
    doc["post_sweep"] = post
    pre = doc["pre_sweep"]
    doc["speedup"] = {
        "best": round(pre["best_total_s"] / post["best_total_s"], 3),
        "median": round(pre["median_total_s"] / post["median_total_s"], 3),
    }
    with open(HOT_BASELINE_PATH, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"hot-path baseline written to {HOT_BASELINE_PATH}:")
    for key, value in sorted(post.items()):
        print(f"  {key} = {value}")
    print(f"  speedup = {doc['speedup']}")
    return 0


def check() -> int:
    """2x regression gate over the swept hot path."""
    try:
        with open(HOT_BASELINE_PATH, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        print(f"no baseline at {HOT_BASELINE_PATH} ({exc}); run "
              "`record-hot` first")
        return 2
    tolerance = float(doc.get("tolerance", TOLERANCE))
    baseline = doc["post_sweep"]
    current = measure_hot()
    failures = []
    limit = baseline["best_total_s"] * tolerance
    status = "ok" if current["best_total_s"] <= limit else "REGRESSION"
    print(
        f"statcheck_hot fill best_total_s: {current['best_total_s']} "
        f"(baseline {baseline['best_total_s']}, limit {round(limit, 4)}) "
        f"{status}"
    )
    if current["best_total_s"] > limit:
        failures.append("statcheck_hot_fill")
    for key in ("jobs", "visits"):
        status = "ok" if current[key] == baseline[key] else "DRIFT"
        print(f"statcheck_hot {key}: {current[key]} "
              f"(baseline {baseline[key]}) {status}")
        if current[key] != baseline[key]:
            failures.append(f"statcheck_hot_{key}")
    if failures:
        print(f"perf baseline check FAILED: {', '.join(failures)}")
        return 1
    print("perf baseline check passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("check", "record-hot"))
    args = parser.parse_args(argv)
    if args.mode == "record-hot":
        return record_hot()
    return check()


if __name__ == "__main__":
    raise SystemExit(main())
