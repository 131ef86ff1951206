"""Schedule analysis: utilization timelines, slowdowns, ASCII Gantt charts.

Utility layer over simulation results and resource graphs, used by the
benchmark harness and the examples to quantify schedules (the paper reports
scheduling *overhead*; these metrics cover schedule *quality*, which the
queue-policy tests assert on).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..resource import ResourceGraph
from ..resource.vertex import X_LIMIT
from ..sched import Job, JobState, SimulationReport

__all__ = [
    "utilization_timeline",
    "average_utilization",
    "bounded_slowdowns",
    "ascii_gantt",
]


def utilization_timeline(
    graph: ResourceGraph, rtype: str
) -> List[Tuple[int, int, int]]:
    """Exact (time, in_use, total) steps for one resource type.

    Walks every span booked on every ``rtype`` vertex and builds the event
    profile of the vertices' effective view: a pool quantity uses its
    request, an exclusive hold the whole pool.  Consecutive entries describe
    half-open intervals ``[t_i, t_{i+1})``.  An empty graph (no bookings)
    yields a single step at the plan start with zero use.
    """
    total = sum(v.size for v in graph.vertices(rtype))
    deltas: Dict[int, int] = defaultdict(int)
    for vertex in graph.vertices(rtype):
        held = [(s.start, s.end, s.request) for s in vertex.plans.spans()] + [
            (s.start, s.end, vertex.size)
            for s in vertex.xplans.spans() if s.request == X_LIMIT
        ]
        for start, end, used in held:
            deltas[start] += used
            deltas[end] -= used
    if not deltas:
        return [(graph.plan_start, 0, total)]
    timeline = []
    in_use = 0
    for t in sorted(deltas):
        in_use += deltas[t]
        timeline.append((t, in_use, total))
    return timeline


def average_utilization(
    graph: ResourceGraph, rtype: str, start: int, end: int
) -> float:
    """Time-weighted mean utilization of ``rtype`` over ``[start, end)``."""
    if end <= start:
        raise ValueError(f"empty window [{start}, {end})")
    timeline = utilization_timeline(graph, rtype)
    total = timeline[0][2]
    if total == 0:
        return 0.0
    area = 0
    for i, (t, in_use, _) in enumerate(timeline):
        seg_start = max(t, start)
        seg_end = end if i + 1 == len(timeline) else min(timeline[i + 1][0], end)
        if seg_start < seg_end:
            area += in_use * (seg_end - seg_start)
    # Portion before the first event is idle and contributes zero.
    return area / (total * (end - start))


def bounded_slowdowns(
    report: SimulationReport, bound: int = 10
) -> List[float]:
    """Bounded slowdown per started job: ``(wait + run) / max(run, bound)``."""
    out = []
    for job in report.jobs:
        if job.wait_time is None:
            continue
        run = job.jobspec.duration
        out.append((job.wait_time + run) / max(run, bound))
    return out


def ascii_gantt(
    jobs: Sequence[Job],
    width: int = 60,
    until: Optional[int] = None,
) -> str:
    """Render planned job windows as an ASCII Gantt chart.

    Each row is one job; ``#`` marks its ``[start, end)`` window scaled onto
    ``width`` columns.  Jobs without an allocation render as pending.
    """
    placed = [j for j in jobs if j.start_time is not None]
    if not placed:
        return "(no placed jobs)"
    horizon = until if until is not None else max(j.end_time for j in placed)
    horizon = max(horizon, 1)
    lines = [f"t=0 {'.' * width} t={horizon}"]
    for job in jobs:
        if job.start_time is None:
            lines.append(f"job{job.job_id:<4} (pending)")
            continue
        lo = min(int(job.start_time / horizon * width), width - 1)
        hi = max(min(int(job.end_time / horizon * width), width), lo + 1)
        bar = " " * lo + "#" * (hi - lo) + " " * (width - hi)
        state = job.state.value[0].upper()
        lines.append(f"job{job.job_id:<4} |{bar}| {state}")
    return "\n".join(lines)
