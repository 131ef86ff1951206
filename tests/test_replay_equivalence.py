"""Replay-equivalence corpus: seeded scenarios with pinned decision digests.

A change that claims to preserve behaviour must leave every digest below
byte-identical; a change that moves one must say which decisions moved and
why.  Each scenario is reduced to the SHA-256 of its ``event_log``, of its
final :func:`~repro.recovery.diff.state_fingerprint` (planner spans, filter
aggregates, allocations, jobs, pending events — no wall-clock fields) and of
its :func:`schedule` (job -> start, end, sorted vertex paths).  The schedule
is what a user sees: only a declared decision change may move it, while a
change of bookkeeping (alloc ids, span ids, stale heap events) may move the
fingerprint and must say so.

The ``event_log`` and fingerprint digests were generated at commit 1ac0481
(before the root-aggregate gate, the linear ``sdfu_charges`` and the
incremental pending queue), the schedule digests at 4f0160b (before the
event-driven EASY policy).  The three ``*-easy`` fingerprints were re-pinned
once, when EASY stopped re-making its head reservation every cycle: half
the bookings, so alloc ids (``jobs.*.alloc_ids``, ``next_alloc_id``,
``started_allocs``), every planner's ``next_span_id``, ``event_seq`` and the
shape of ``queue.state`` moved — ``state_diff`` against the every-cycle
reference of ``tests/test_easy_event_driven.py`` lists nothing else, and
their ``event_log`` and schedule digests did not move.  All nine
fingerprints were re-pinned once more when the degradation ladder left and
took ``Job.degraded`` (``jobs.*.degraded``, always None here) with it: each
new pin is the SHA-256 of the previous fingerprint with that key removed.
They moved a third time when each selection came to book one span (an
exclusive hold only its ``xplans`` span, a pool quantity only its ``plans``
span): that moves the span tables, ``allocations.*.spans`` and the planners'
``next_span_id`` while allocations are live.  Every scenario ends drained,
so the final fingerprints differ in ``vertices.*.plans.next_span_id`` alone,
and in ``vertices.*.xplans.next_span_id`` too on the three ``med_lod`` runs;
all 18 ``event_log`` and schedule digests stayed byte-identical.
To print the table for the current tree::

    PYTHONPATH=src python tests/test_replay_equivalence.py
"""

import hashlib
import json

import pytest

from repro import (
    ClusterSimulator,
    FaultInjector,
    FaultModel,
    RetryPolicy,
    nodes_jobspec,
    simple_node_jobspec,
    tiny_cluster,
)
from repro.grug import build_lod, quartz
from repro.recovery.diff import state_fingerprint
from repro.workloads import synthetic_trace


def node_lod(queue):
    """Backlogged whole-node trace on a 96-node quartz slice."""
    sim = ClusterSimulator(quartz(6, 16), "first", queue=queue)
    for job in synthetic_trace(
        n_jobs=60, seed=31, max_nodes=48, min_duration=200,
        max_duration=6000, arrival_spread=3000,
    ):
        sim.submit(job.to_jobspec(), at=job.submit_time)
    return sim


def med_lod(queue):
    """Core/memory/burst-buffer jobs on a Med-LOD system (Fig 6a shape)."""
    sim = ClusterSimulator(build_lod("med", 2, 4), "low", queue=queue)
    for job in synthetic_trace(
        n_jobs=50, seed=32, max_nodes=8, min_duration=100,
        max_duration=3000, arrival_spread=1500,
    ):
        sim.submit(
            simple_node_jobspec(
                cores=4 + 4 * (job.job_index % 6),
                memory=4 * (job.job_index % 3),
                ssds=job.job_index % 2,
                nodes=min(job.nnodes, 3),
                duration=job.duration,
            ),
            at=job.submit_time,
        )
    return sim


def faulty(queue):
    """Node faults, retries with backoff and checkpoints, five priorities."""
    sim = ClusterSimulator(
        tiny_cluster(2, 8, cores=4, gpus=0, memory_pools=0),
        "low",
        queue=queue,
        retry_policy=RetryPolicy(
            max_retries=4, backoff_base=60, jitter=0.25,
            checkpoint_period=300, seed=5,
        ),
    )
    for job in synthetic_trace(
        n_jobs=60, seed=33, max_nodes=8, min_duration=200,
        max_duration=3000, arrival_spread=4000,
    ):
        sim.submit(
            nodes_jobspec(job.nnodes, duration=job.duration),
            at=job.submit_time,
            priority=job.job_index % 5,
            actual_duration=(
                job.duration * 3 // 2 if job.job_index % 11 == 0 else None
            ),
        )
    FaultInjector(
        {"node": FaultModel(mtbf=15_000, mttr=500)}, horizon=9000, seed=34
    ).install(sim)
    return sim


SCENARIOS = {
    f"{build.__name__}-{queue}": (build, queue)
    for build in (node_lod, med_lod, faulty)
    for queue in ("fcfs", "easy", "conservative")
}

#: scenario -> (event_log, state_fingerprint, schedule) sha256
PINNED = {
    "faulty-conservative": (
        "5583ff332b7e339d5023b705b92a41ca8438a4f43fa2c1c195cb6e401eeefd16",
        "0d3eff7d534e082aaa210db36f2f930745fab308e1e6e2877c1fe30b8b679782",
        "dd1c824574c25ec058e4c8800127a135ec841da5eba5e9c6d22505960031f4d9",
    ),
    "faulty-easy": (
        "f3138dbdeb364c84ffd8bdc1199da081a61ee9b66a7d3818fd1471da8157cc99",
        "387d126d498b47c14d7c10b85409df17b03991379f6072b23e560743a36ed420",
        "d08b809bdf32cd78a2882cb374fd241f7af0bfb2dced5611446f7e5a528a2ef1",
    ),
    "faulty-fcfs": (
        "7d0d7f5bb11d42048b0ebde0e6f1a4017e94d27de5b3edcec7ad945e40adc486",
        "cb934f3d24cc7d5565cbd5652c6445a3edecca6f174f2fe24f7b826ff20b0a8b",
        "03cb92bc9870ed13ce888fc69b722c89c8f07b2463ba2e270bf4fde7191fbf01",
    ),
    "med_lod-conservative": (
        "77cd8c179b4e36efd76b7cabea438684a4bc8b7b6f106b47470b5074780020b4",
        "63fcaf8a5f52a2f283691e3a8bed4f81d022818062911eb4c03f4bdb29bb6a5f",
        "1c223fc72f562f5577a0405cdaad8bee4fb476cb86d2d42666fe52d86f1cdf00",
    ),
    "med_lod-easy": (
        "bfe491cb00ab062bbdd0b4af433a8242c6b627ae366d593b647c8d459ce41acd",
        "2dc58319f77df9a9a8dac19947c95131c65c4f7467f4032d16b5b49b4a7d7b48",
        "e160284483544175ff140473bedb9cd9f0f57e1069eac896be6dc812b21ddded",
    ),
    "med_lod-fcfs": (
        "31f6cd7265abca9f50cfdc488b9ac07689a1b403d1f3415a98e0de48c753beeb",
        "3360d3a2a4b27511b02c97e7e139e6bf2c711a1135fe35741aa8cce3c1ed1e3f",
        "f0405e982585c1152258469622ef0102eb5ed096d54cb9bc8e203e1b94b3db57",
    ),
    "node_lod-conservative": (
        "7dcbc99d003e2235bf26ea37dc7c00972500823a0f9830735a177d27a844bf5b",
        "1c8eeb208f1d8428a4081f16ea04a49d1320f6ffe52b971e7427eb25a55dfe34",
        "5de5e364edbd49483c3e34e747ea98e7be74f580af54709a4179eabbb4030254",
    ),
    "node_lod-easy": (
        "95010250124202ff7a6bb91b42356c081533e8dd0e45da8f5e1a109b668a775e",
        "08f321b56cd5299e296bd02f5c8226223aec234daccdf16a05548d3178ba886b",
        "ce31552964bc7082c6423d1abea2e5af3672ddf60da983e5c6776f3f74b9d1c9",
    ),
    "node_lod-fcfs": (
        "f9158bff48f71c7fefe3c7c96af53cf25bbee3c0f9aefd15e694c5dc9991bece",
        "8d1b944ca5995885f3ef2fae77d086b89791f4da0c55dccca12e6b1006a3ae5a",
        "136865a820d276b2de29aeb3f6d56b55c6e8525d0c908e134bfc474bc54f52ba",
    ),
}


def schedule(sim):
    """job id -> (start, end, sorted vertex paths) of a finished run.

    A job killed or canceled keeps no allocation, so it reads
    ``(None, <when it stopped>, [])``; its start is in the ``event_log``.
    """
    return {
        job.job_id: (
            job.start_time,
            job.finished_at if job.finished_at is not None else job.end_time,
            sorted(
                sel.vertex.path()
                for alloc in job.allocations
                for sel in alloc.resources()
            ),
        )
        for job in sim.jobs.values()
    }


def digests(name):
    build, queue = SCENARIOS[name]
    sim = build(queue)
    sim.run()
    assert len(sim.event_log) > 100, "scenario too small to pin anything"
    state = json.dumps(state_fingerprint(sim), sort_keys=True, default=str)
    return (
        hashlib.sha256(repr(sim.event_log).encode()).hexdigest(),
        hashlib.sha256(state.encode()).hexdigest(),
        hashlib.sha256(repr(sorted(schedule(sim).items())).encode()).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_decisions_match_pinned_digests(name):
    assert digests(name) == PINNED[name]


if __name__ == "__main__":
    for scenario in sorted(SCENARIOS):
        print(f'    "{scenario}": (')
        for digest in digests(scenario):
            print(f'        "{digest}",')
        print("    ),")
