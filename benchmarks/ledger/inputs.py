"""Seeded input generators for the perf ledger.

Everything the program is fed comes from here: job traces, fault traces,
planner span requests and churn victims.  Nothing in this file imports
``repro`` — the program receives only plain tuples, which ``workloads.py``
turns into jobspecs and planner calls.

One seed, the ``--seed`` argument (README.md, "Seeds", has the measurements
behind this).  A backlogged queue and a dense plan are chaotic in their
inputs: redrawing a trace moves the program's work by 20 % between quartiles,
redrawing the planner's requests moves its median latency by up to 25 %,
against bounds of 25 % that have to hold host noise too.  So what arrives --
the job mix of a trace, its fault trace, the planner's requests -- is drawn
from ``DESIGN`` and is part of a workload's definition, like its size, and the
seed draws in which order: it shuffles within blocks of ``SHUFFLE_BLOCK``.
Every seed gives the program another sequence of decisions over the same
items (work moves 2-5 %).  The churn victims, which the work does not depend
on, and the virtual time a workload starts at are drawn from the seed
outright.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Sequence, Tuple

import numpy as np

POWERS_OF_TWO = (1, 2, 4, 8, 16, 32, 64)
#: draws the job mix and fault times of a trace and the planner's requests
DESIGN = 7
#: the seed shuffles the order of those within blocks of this many
SHUFFLE_BLOCK = 2

# Stream tags keep the generators' random streams independent of each other.
_TRACE, _ORIGIN, _FAULTS, _PLANNER, _CHURN, _ORDER = range(6)

Job = Tuple[int, int, int]  # (nodes, duration, submit time)


def time_origin(seed: int) -> int:
    """Virtual time at which a workload starts: up to a day, from ``seed``."""
    return int(np.random.default_rng([seed, _ORIGIN]).integers(0, 86_400))


def trace(
    n_jobs: int,
    seed: int,
    origin: int,
    max_nodes: int,
    pow2_cap: int = 64,
    interval: int = 30,
    min_duration: int = 600,
    max_duration: int = 43_200,
) -> List[Job]:
    """A backlogged whole-node trace with ``synthetic_trace``'s distribution.

    60 % of jobs take a power of two of at most ``pow2_cap`` nodes, the rest
    a log-uniform count up to ``max_nodes``; durations are log-uniform in
    ``[min_duration, max_duration]``.  That mix is drawn from ``DESIGN``;
    ``seed`` shuffles it within blocks of ``SHUFFLE_BLOCK`` jobs, and the job
    in place *i* is submitted at ``origin + i * interval``.  The growth runs
    replay a prefix of the trace.
    """
    rng = np.random.default_rng([DESIGN, _TRACE])
    powers = [p for p in POWERS_OF_TWO if p <= min(pow2_cap, max_nodes)]
    mix: List[Tuple[int, int]] = []
    for _ in range(n_jobs):
        if rng.random() < 0.6:
            nodes = int(rng.choice(powers))
        else:
            nodes = int(np.exp(rng.uniform(0.0, np.log(max(2, max_nodes)))))
        duration = int(
            np.exp(rng.uniform(np.log(min_duration), np.log(max_duration)))
        )
        mix.append((max(1, min(nodes, max_nodes)), duration))
    return [
        (nodes, duration, origin + index * interval)
        for index, (nodes, duration) in enumerate(_shuffled(mix, seed))
    ]


def _shuffled(mix: list, seed: int) -> list:
    """``mix`` with each block of ``SHUFFLE_BLOCK`` items permuted by
    ``seed``; a prefix of whole blocks keeps its items."""
    rng = np.random.default_rng([seed, _ORDER])
    out: list = []
    for first in range(0, len(mix), SHUFFLE_BLOCK):
        block = mix[first:first + SHUFFLE_BLOCK]
        out += [block[i] for i in rng.permutation(len(block))]
    return out


def fault_trace(
    node_paths: Sequence[str],
    origin: int,
    mtbf: float,
    mttr: float,
    horizon: int,
) -> List[Tuple[int, str, str]]:
    """Alternating exponential up/down timelines, one per node path, drawn
    from ``DESIGN``.

    Returns sorted ``(time, path, "fail" | "repair")`` tuples with failures
    inside ``[origin, origin + horizon)``; every failure has its repair, so
    no job waits for hardware forever.
    """
    rng = np.random.default_rng([DESIGN, _FAULTS])
    events: List[Tuple[int, str, str]] = []
    for path in node_paths:
        t = 0
        while True:
            t += max(1, int(round(rng.exponential(mtbf))))
            if t >= horizon:
                break
            down = max(1, int(round(rng.exponential(mttr))))
            events.append((origin + t, path, "fail"))
            events.append((origin + t + down, path, "repair"))
            t += down
    events.sort()
    return events


def planner_requests(
    n: int, seed: int, max_request: int = 64,
    min_duration: int = 60, max_duration: int = 43_200,
) -> List[Tuple[int, int]]:
    """``(request, duration)`` pairs: request uniform in ``[1, max_request]``,
    duration uniform in ``[min_duration, max_duration]``, drawn from
    ``DESIGN`` and shuffled by ``seed`` like a trace."""
    rng = np.random.default_rng([DESIGN, _PLANNER])
    requests = rng.integers(1, max_request + 1, size=n)
    durations = rng.integers(min_duration, max_duration + 1, size=n)
    return _shuffled(
        [(int(r), int(d)) for r, d in zip(requests, durations)], seed
    )


def churn_picks(n: int, seed: int) -> List[float]:
    """Uniform draws in ``[0, 1)``; pick *k* selects the live allocation at
    index ``int(pick * live_count)``."""
    return [float(x) for x in np.random.default_rng([seed, _CHURN]).random(n)]


def digest(inputs: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON form of a workload's inputs."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
