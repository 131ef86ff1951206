"""The ledger's five workloads.

Each workload function builds its inputs from ``inputs.py``, sets the
program up, runs the timed section as a closed loop in host time (the next
call is issued when the previous one returns), checks the outputs and
returns one JSON-able record.  Importing this module imports ``repro``; the
caller starts the set-up clock before that.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import shutil
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

import inputs
import ledger
from repro import (
    ClusterSimulator,
    InvariantAuditor,
    Planner,
    RecoveryManager,
    RetryPolicy,
    Traverser,
    grug,
    nodes_jobspec,
    simple_node_jobspec,
)
from repro.baselines import ListPlanner
from repro.recovery import IntegrityConfig
from repro.resilience import OverloadConfig
from repro.resilience.faults import install_trace
from repro.sched import JobState
from spans import Tracer

# Size constants.  "quick" is the smoke scale of ``run.py --quick``; its
# numbers never go into a baseline.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "backlog_easy_1008": {
        "full": {"racks": 56, "per_rack": 18, "jobs": 120},
        "quick": {"racks": 56, "per_rack": 18, "jobs": 40},
    },
    "backlog_conservative_2418": {
        "full": {"racks": 39, "per_rack": 62, "jobs": 220},
        "quick": {"racks": 39, "per_rack": 62, "jobs": 80},
    },
    "fill_churn_med_288": {
        "full": {"racks": 16, "per_rack": 18, "churn": 150},
        "quick": {"racks": 4, "per_rack": 18, "churn": 40},
    },
    "planner_steady_1000": {
        "full": {"preload": 1000, "iterations": 2400},
        "quick": {"preload": 300, "iterations": 300},
    },
    ledger.GUARDED: {
        "full": {"racks": 4, "per_rack": 16, "jobs": 72},
        "quick": {"racks": 4, "per_rack": 16, "jobs": 40},
    },
}
NAMES = tuple(SIZES)


@dataclass
class Context:
    """What one rep of one workload is given."""

    seed: int
    #: directory the recovery journal may write to
    tmpdir: str
    quick: bool = False
    tracer: Optional[Tracer] = None
    #: optional layers for guarded_easy_64 (None: the workload's default)
    guards: Optional[FrozenSet[str]] = None
    #: perf_counter() taken before ``repro`` was imported
    t0: float = field(default_factory=perf_counter)
    #: called between set-up and the timed section; ``run.py`` passes one
    #: that waits for a calm moment of the host
    gate: Callable[[], None] = lambda: None
    #: set-up time of the rep, filled in when its first timed section starts
    setup_s: Optional[float] = None

    def size(self, name: str) -> Dict[str, int]:
        return SIZES[name]["quick" if self.quick else "full"]


def _setup_done(ctx: Context) -> float:
    """Set-up ends here; returns the instant the timed section starts."""
    if ctx.setup_s is None:  # the half-size run's set-up is not the rep's
        ctx.setup_s = perf_counter() - ctx.t0
    ctx.gate()
    if ctx.tracer is not None:
        ctx.tracer.start_timed()
    return perf_counter()


def _timed_done(ctx: Context, began: float) -> float:
    """Wall of the timed section; the output checks that follow are not
    part of it, so the traced pass stops recording here."""
    wall = perf_counter() - began
    if ctx.tracer is not None:
        ctx.tracer.restore()
    return wall


def run(name: str, ctx: Context) -> dict:
    """Run one rep of workload ``name``; see the module docstring."""
    record = _WORKLOADS[name](name, ctx)
    record["workload"] = name
    record["setup_s"] = ctx.setup_s
    return record


# ----------------------------------------------------------------------
# simulator workloads
# ----------------------------------------------------------------------
def _drive(
    sim: ClusterSimulator, tracer: Optional[Tracer]
) -> Tuple[List[float], List[int]]:
    """Step ``sim`` until it drains; returns the latency of every step and
    how many consecutive steps each instant of virtual time took."""
    latencies: List[float] = []
    instants: List[int] = []
    now = None
    while True:
        if tracer is not None:
            tracer.call += 1
        start = perf_counter()
        when = sim.step()
        end = perf_counter()
        if when is None:
            return latencies, instants
        latencies.append(end - start)
        if when == now:
            instants[-1] += 1
        else:
            now = when
            instants.append(1)


def _replay(
    ctx: Context,
    make_sim: Callable[[], Tuple[ClusterSimulator, Callable[[], None]]],
    jobs: List[inputs.Job],
    faults: List[Tuple[int, str, str]],
) -> dict:
    """Submit ``jobs`` (and ``faults``) to a fresh simulator and drain it."""
    sim, close = make_sim()
    try:
        for nodes, duration, at in jobs:
            sim.submit(nodes_jobspec(nodes, duration=duration), at=at)
        if faults:
            install_trace(sim, faults)
        began = _setup_done(ctx)
        latencies, instants = _drive(sim, ctx.tracer)
        report = sim.report()
        wall = _timed_done(ctx, began)
    finally:
        close()
    # A trace job and its retries form one chain; it must complete once.
    chains: Dict[int, List] = {}
    for job in report.jobs:
        root = job.retry_of if job.retry_of is not None else job.job_id
        chains.setdefault(root, []).append(job)
    failures = []
    for root, chain in sorted(chains.items()):
        done = [j for j in chain if j.state is JobState.COMPLETED]
        if len(done) != 1:
            failures.append(f"job {root}: completed {len(done)} times")
        elif done[0].start_time < done[0].submit_time:
            failures.append(f"job {root}: started before it was submitted")
    for violation in InvariantAuditor().collect(sim):
        failures.append(f"invariant: {violation}")
    stats = sim.traverser.metrics.as_dict()
    starts = sum(1 for _, kind, _ in sim.event_log if kind == "start")
    return {
        "wall_s": wall,
        "latencies": latencies,
        "instants": instants,
        "ops": len(chains) - sum(1 for f in failures if f.startswith("job")),
        "attempted": len(chains),
        "failures": failures,
        "event_log_sha256": hashlib.sha256(
            repr(sim.event_log).encode()
        ).hexdigest(),
        "sched_ms": [j.sched_time * 1e3 for j in report.jobs],
        "sim": {
            "mean_wait_s": report.mean_wait(),
            "makespan_s": report.makespan,
            "journal_records": report.journal_records,
            "snapshots": report.snapshots_taken,
            "vertices_scrubbed": report.vertices_scrubbed,
        },
        "counters": {
            "grug.vertices": sum(1 for _ in sim.graph.vertices()),
            "sim.events": len(latencies),
            "sim.starts": starts,
            "match.visits": stats["dfu.visits"],
            "match.matched": stats["dfu.matched"],
            "match.failed": stats["dfu.failed"],
            "match.reserve_iters": stats["dfu.reserve_iters"],
            "match.filter_hits": stats["sdfu.filter_hits"],
            "match.sdfu_updates": stats["sdfu.updates"],
        },
    }


def _simulator_workload(
    ctx: Context,
    make_sim: Callable[[], Tuple[ClusterSimulator, Callable[[], None]]],
    jobs: List[inputs.Job],
    faults: List[Tuple[int, str, str]],
    described: dict,
) -> dict:
    """The full trace, then its first half on a fresh simulator (growth)."""
    full = _replay(ctx, make_sim, jobs, faults)
    full["sim"]["makespan_s"] -= jobs[0][2]  # relative to the time origin
    if ctx.tracer is None:  # growth is an end-to-end metric: untraced only
        half = _replay(ctx, make_sim, jobs[: len(jobs) // 2], faults)
        full["half"] = {
            "wall_s": half["wall_s"],
            "latencies": half["latencies"],
            "ops": half["ops"],
        }
        full["failures"] += [f"half: {f}" for f in half["failures"]]
    full["inputs_sha256"] = inputs.digest(
        dict(described, jobs=jobs, faults=faults)
    )
    return full


def backlog(name: str, ctx: Context, queue: str) -> dict:
    size = ctx.size(name)
    nodes = size["racks"] * size["per_rack"]
    jobs = inputs.trace(
        size["jobs"], ctx.seed, inputs.time_origin(ctx.seed),
        max_nodes=nodes // 8,
    )

    def make_sim():
        graph = grug.quartz(size["racks"], size["per_rack"])
        return ClusterSimulator(graph, "first", queue=queue), _nothing

    return _simulator_workload(
        ctx, make_sim, jobs, [], {"workload": name, "size": size}
    )


def guarded_easy(name: str, ctx: Context) -> dict:
    size = ctx.size(name)
    guards = frozenset(ledger.GUARDS) if ctx.guards is None else ctx.guards
    origin = inputs.time_origin(ctx.seed)
    jobs = inputs.trace(
        size["jobs"], ctx.seed, origin, max_nodes=32, interval=20,
        min_duration=200, max_duration=4000,
    )
    node_paths = [
        v.path() for v in _guarded_graph(size).vertices("node")
    ]
    faults = inputs.fault_trace(
        node_paths, origin, mtbf=200_000, mttr=600,
        horizon=size["jobs"] * 20 + 20_000,
    )
    journal_dir = os.path.join(ctx.tmpdir, f"journal-{os.getpid()}")

    def make_sim():
        optional = {
            guard: make() for guard, make in _GUARD_ARGUMENTS.items()
            if guard in guards
        }
        sim = ClusterSimulator(
            _guarded_graph(size), "low", queue="easy",
            retry_policy=RetryPolicy(
                max_retries=8, backoff_base=60, jitter=0.25,
                checkpoint_period=300, seed=inputs.DESIGN,
            ),
            **optional,
        )
        manager = None
        if "journal" in guards:
            shutil.rmtree(journal_dir, ignore_errors=True)
            manager = RecoveryManager(journal_dir, snapshot_every=500)
            manager.attach(sim)

        def close() -> None:
            if manager is not None:
                manager.close()
                shutil.rmtree(journal_dir, ignore_errors=True)
            if sim.fluxsan is not None:
                sim.fluxsan.deactivate()

        return sim, close

    return _simulator_workload(
        ctx, make_sim, jobs, faults,
        {"workload": name, "size": size, "retry_seed": inputs.DESIGN},
    )


#: ClusterSimulator keyword of each optional layer ("journal" is attached)
_GUARD_ARGUMENTS: Dict[str, Callable[[], object]] = {
    "audit": InvariantAuditor,
    "observe": lambda: True,
    "integrity": IntegrityConfig,
    # limits that never bind: the controller runs, decides nothing
    "overload": lambda: OverloadConfig(
        max_pending=10**6, cycle_budget=10**9, attempt_budget=10**9
    ),
    "sanitize": lambda: True,
}


def _guarded_graph(size: Dict[str, int]):
    return grug.tiny_cluster(
        size["racks"], size["per_rack"], cores=4, gpus=0, memory_pools=0
    )


def _nothing() -> None:
    pass


# ----------------------------------------------------------------------
# fill_churn: the traverser alone (Fig 6a)
# ----------------------------------------------------------------------
FILL_REQUEST = {"core": 10, "memory": 8, "ssd": 1}


def fill_churn(name: str, ctx: Context) -> dict:
    size = ctx.size(name)
    tracer = ctx.tracer
    origin = inputs.time_origin(ctx.seed)
    picks = inputs.churn_picks(size["churn"], ctx.seed)
    graph = grug.build_lod(
        "med", size["racks"], size["per_rack"], prune_types=("core",)
    )
    traverser = Traverser(graph, "first", prune=True)
    jobspec = simple_node_jobspec(
        cores=FILL_REQUEST["core"], memory=FILL_REQUEST["memory"],
        ssds=FILL_REQUEST["ssd"], duration=10_000,
    )
    capacity = _fill_capacity(graph)
    failures: List[str] = []
    latencies: List[float] = []
    live: List[int] = []

    def call(verb, *args):
        if tracer is not None:
            tracer.call += 1
        start = perf_counter()
        result = verb(*args)
        latencies.append(perf_counter() - start)
        return result

    began = _setup_done(ctx)
    for index in range(capacity):
        alloc = call(traverser.allocate, jobspec, origin)
        if alloc is None:
            failures.append(f"fill: allocation {index} of {capacity} failed")
        else:
            live.append(alloc.alloc_id)
    fill_calls = len(latencies)
    # Fig 6a fills until the machine refuses.  The refusal is the last call
    # of the fill: timed like any call, but no op, since it books nothing.
    if call(traverser.allocate, jobspec, origin) is not None:
        failures.append("full machine accepted one more allocation")
    for index, pick in enumerate(picks):
        if not live:
            failures.append(f"churn {index}: nothing left to remove")
            continue
        slot = int(pick * len(live))
        live[slot], live[-1] = live[-1], live[slot]
        call(traverser.remove, live.pop())
        alloc = call(traverser.allocate, jobspec, origin)
        if alloc is None:
            failures.append(f"churn {index}: re-allocation failed")
        else:
            live.append(alloc.alloc_id)
    wall = _timed_done(ctx, began)
    stats = traverser.metrics.as_dict()
    attempted = capacity + 2 * len(picks)
    return {
        "wall_s": wall,
        "latencies": latencies,
        "ops": attempted - len(failures),
        "attempted": attempted,
        "failures": failures,
        # growth: the whole fill against its first half
        "growth_calls": [fill_calls // 2, fill_calls],
        "inputs_sha256": inputs.digest(
            {"workload": name, "size": size, "picks": picks,
             "request": FILL_REQUEST, "at": origin}
        ),
        "counters": {
            "grug.vertices": sum(1 for _ in graph.vertices()),
            "fill.capacity": capacity,
            "match.visits": stats["dfu.visits"],
            "match.matched": stats["dfu.matched"],
            "match.failed": stats["dfu.failed"],
            "match.reserve_iters": stats["dfu.reserve_iters"],
            "match.filter_hits": stats["sdfu.filter_hits"],
            "match.sdfu_updates": stats["sdfu.updates"],
        },
    }


def _fill_capacity(graph) -> int:
    """Jobs that fit: per node, the scarcest requested pool decides."""
    capacity = 0
    for node in graph.vertices("node"):
        pool: Dict[str, int] = {}
        for vertex in graph.descendants(node):
            pool[vertex.type] = pool.get(vertex.type, 0) + vertex.size
        capacity += min(
            pool.get(rtype, 0) // count for rtype, count in FILL_REQUEST.items()
        )
    return capacity


# ----------------------------------------------------------------------
# planner_steady: one Planner in a dense conservative-backfill state
# ----------------------------------------------------------------------
PLANNER_TOTAL = 128
#: virtual seconds ``now`` advances per iteration: the mean request (32.5
#: units x 21 630 s) at full use of 128 units, so the plan neither drains
#: nor runs away
PLANNER_STEP = 5_500


def planner_steady(name: str, ctx: Context) -> dict:
    size = ctx.size(name)
    tracer = ctx.tracer
    origin = inputs.time_origin(ctx.seed)
    requests = inputs.planner_requests(
        size["preload"] + size["iterations"], ctx.seed
    )
    planner = Planner(PLANNER_TOTAL, resource_type="core")
    live: Dict[int, Tuple[int, int, int]] = {}  # span id -> start, dur, req
    ends: List[Tuple[int, int]] = []  # heap of (end, span id)
    failures: List[str] = []

    def place(request: int, duration: int, now: int) -> None:
        start = planner.avail_time_first(request, duration, now)
        if start is None:
            failures.append(f"no window for {request}x{duration}")
            return
        span_id = planner.add_span(start, duration, request)
        live[span_id] = (start, duration, request)
        heapq.heappush(ends, (start + duration, span_id))

    for request, duration in requests[: size["preload"]]:
        place(request, duration, origin)
    latencies: List[float] = []
    removed = 0
    now = origin
    began = _setup_done(ctx)
    if tracer is not None:  # one span per iteration: the driver's own time
        tracer.names.append(("driver.iteration", "driver"))
        iteration = len(tracer.names) - 1
    for request, duration in requests[size["preload"]:]:
        if tracer is not None:
            tracer.call += 1
            tracer.begin(iteration)
        start = perf_counter()
        now += PLANNER_STEP
        while ends and ends[0][0] <= now:
            span_id = heapq.heappop(ends)[1]
            planner.rem_span(span_id)
            del live[span_id]
            removed += 1
        planner.avail_at(now, request)
        planner.avail_during(now, duration, request)
        place(request, duration, now)
        latencies.append(perf_counter() - start)
        if tracer is not None:
            tracer.end()
    wall = _timed_done(ctx, began)
    failures += _check_planner(planner, live, now, ctx.seed)
    return {
        "wall_s": wall,
        "latencies": latencies,
        "ops": len(latencies) - len(failures),
        "attempted": len(latencies),
        "failures": failures,
        "growth_calls": [len(latencies) // 2, len(latencies)],
        "inputs_sha256": inputs.digest(
            {"workload": name, "size": size, "requests": requests,
             "total": PLANNER_TOTAL, "step": PLANNER_STEP, "start": origin}
        ),
        "counters": {
            "planner.iterations": len(latencies),
            "planner.removed": removed,
            "planner.live_spans": len(live),
        },
    }


def _check_planner(
    planner: Planner, live: Dict[int, Tuple[int, int, int]], now: int,
    seed: int,
) -> List[str]:
    """Tree invariants, then 50 sampled queries against the list planner.

    Point and window queries are sampled over the whole plan.  The list
    planner's earliest-fit search is quadratic in the spans still ahead of
    it, so that query starts in the last tenth of the plan.
    """
    failures: List[str] = []
    try:
        planner.check_invariants()
    except AssertionError as exc:
        failures.append(f"check_invariants: {exc}")
    reference = ListPlanner(PLANNER_TOTAL, resource_type="core")
    for start, duration, request in sorted(live.values()):
        reference.add_span(start, duration, request)
    horizon = max((s + d for s, d, _ in live.values()), default=now + 1)
    rng = np.random.default_rng([seed, 99])
    for _ in range(50):
        at = int(rng.integers(now, horizon + 1))
        late = horizon - (horizon - at) // 10
        duration = int(rng.integers(60, 43_201))
        request = int(rng.integers(1, 65))
        got = (
            planner.avail_resources_at(at),
            planner.avail_during(at, duration, request),
            planner.avail_time_first(request, duration, late),
        )
        want = (
            reference.avail_resources_at(at),
            reference.avail_during(at, duration, request),
            reference.avail_time_first(request, duration, late),
        )
        if got != want:
            failures.append(
                f"query at={at} d={duration} r={request}: {got} != {want}"
            )
    return failures


_WORKLOADS: Dict[str, Callable[[str, Context], dict]] = {
    "backlog_easy_1008": partial(backlog, queue="easy"),
    "backlog_conservative_2418": partial(backlog, queue="conservative"),
    "fill_churn_med_288": fill_churn,
    "planner_steady_1000": planner_steady,
    ledger.GUARDED: guarded_easy,
}
