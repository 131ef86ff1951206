"""fluxwhy — per-job scheduling decision provenance (ISSUE 10 tentpole).

At scale the operationally hard question is not *whether* a job matched
but *why it didn't*: which predicate, aggregate filter, exclusivity
conflict, planner window or queue bound pruned it,
and where in the tree.  ``dfu.failed`` is a single opaque counter; this
module turns it into a structured explain-tree.

The :class:`DecisionRecorder` rides on the :class:`~repro.obs.Observer`
(one per observed simulator) and captures, for every job on every
dispatch cycle:

* **admission verdicts** — a submission the
  :class:`~repro.resilience.OverloadController` rejected over its queue
  bound, with the depth it saw;
* **attempt records** — one per scheduling attempt
  (:class:`~repro.sched.queue._SchedAttempt` scope), with verb and
  outcome; a stretch of cycles that passed the job over
  without an attempt (EASY kept its reservation, or did not re-try a
  refused backfill because nothing it could use came free) is one record
  with a repeat count, not a gap;
* **match-failure attribution** — per-vertex prune reasons from the
  traverser (:data:`PRUNE_REASONS` taxonomy) aggregated into
  ``reason|type`` counts with bounded example vertices, plus
  request-level failure verdicts (count shortfall, type mismatch,
  planner time conflict, ...).

Determinism: every recorded field derives from simulator state (virtual
time, cycle index, graph names) — never from wall clocks — so dual runs
of the same workload export byte-identical provenance (FluxSan's
nondeterminism detector stays green).  Disabled runs pay only the
null-twin pattern: :data:`NULL_WHY` no-ops every call, and the hot
traversal loop guards each probe behind one hoisted ``enabled`` bool.

Exposure:

* ``report.explain(job_id)`` on
  :class:`~repro.sched.simulator.SimulationReport`;
* ``python -m repro.obs why TRACE`` renders explain-trees and per-cycle
  unsat summaries from an exported trace;
* the provenance export rides in the Chrome trace's
  ``otherData.provenance``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "DecisionRecorder",
    "NullDecisionRecorder",
    "NULL_WHY",
    "PRUNE_REASONS",
    "FAIL_KINDS",
    "render_explain",
    "render_cycle_summary",
]

#: Per-vertex prune-reason taxonomy (traverser probe sites).
PRUNE_REASONS: Tuple[str, ...] = (
    "down",        # vertex drained/down closes its whole subtree
    "exclusive",   # exclusivity overlap (vertex exclusively held)
    "filter",      # aggregate pruning-filter miss (SDFU prune, §3.4)
    "predicate",   # requires-expression mismatch
    "quantity",    # per-vertex quantity shortfall
)

#: Request-level failure verdicts (one attempt may carry several, e.g. an
#: inner core shortfall explaining an outer node shortfall).
FAIL_KINDS: Tuple[str, ...] = (
    "type",               # no vertex of the requested type in the region
    "no_candidates",      # every candidate was pruned (see prune counts)
    "count",              # fewer feasible vertices than requested
    "quantity",           # pool units gathered fell short of the minimum
    "horizon",            # request extends beyond the planning horizon
    "planner_time",       # avail_time_first found no feasible window
    "reserve_exhausted",  # reservation search ran out of candidate times
    "deadline",           # attempt cut short by a scheduling deadline
    "booking",            # a planner refused a span of the match; rolled back
    "cover",              # the cut's filters, summed, fall short of the totals
)

_REASON_LABELS = {
    "down": "vertex down/drained",
    "exclusive": "exclusivity conflict",
    "filter": "aggregate-filter miss",
    "predicate": "predicate (requires) mismatch",
    "quantity": "per-vertex quantity shortfall",
}

_FAIL_LABELS = {
    "type": "type mismatch",
    "no_candidates": "all candidates pruned",
    "count": "count shortfall",
    "quantity": "quantity shortfall",
    "horizon": "planner horizon exceeded",
    "planner_time": "planner time conflict",
    "reserve_exhausted": "reservation search exhausted",
    "deadline": "scheduling deadline",
    "booking": "booking refused, match rolled back",
    "cover": "child-filter sum short",
}

SCHEMA = "fluxwhy-v1"


def _fmt_vt(vt: Optional[float]) -> str:
    if vt is None:
        return "-"
    value = float(vt)
    if value.is_integer():
        return str(int(value))
    return repr(value)


class _Attempt:
    """One scheduling attempt being recorded (mutable while open)."""

    __slots__ = (
        "job_id", "cycle", "vt", "verb", "outcome",
        "prune", "examples", "fails", "fails_dropped", "kept", "repeat",
    )

    def __init__(
        self, job_id: int, cycle: Optional[int], vt: Optional[float],
        verb: str, kept: bool,
    ) -> None:
        self.job_id = job_id
        self.cycle = cycle
        self.vt = vt
        self.verb = verb
        self.outcome = "open"
        self.prune: Dict[str, int] = {}
        self.examples: Dict[str, List[str]] = {}
        self.fails: List[Dict[str, Any]] = []
        self.fails_dropped = 0
        #: False when the per-job attempt cap dropped this record
        self.kept = kept
        #: cycles a "skipped" record stands for (0 for a real attempt)
        self.repeat = 0

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "cycle": self.cycle,
            "vt": self.vt,
            "verb": self.verb,
            "outcome": self.outcome,
        }
        if self.repeat:
            out["repeat"] = self.repeat
        if self.prune:
            out["prune"] = dict(self.prune)
            out["examples"] = {k: list(v) for k, v in self.examples.items()}
        if self.fails:
            out["fails"] = [dict(f) for f in self.fails]
        if self.fails_dropped:
            out["fails_dropped"] = self.fails_dropped
        return out


class DecisionRecorder:
    """Structured per-job decision provenance for one observed run.

    Bounded by design: at most ``max_attempts_per_job`` attempt records
    are kept per job (later ones still count in ``dropped`` and in cycle
    summaries), ``top_k`` example vertex names per prune bucket, and
    ``max_cycles`` per-cycle summary rows — a week-long run cannot grow
    the recorder without bound.
    """

    enabled = True

    __slots__ = (
        "top_k", "max_attempts_per_job", "max_fails", "max_cycles",
        "_jobs", "_cycles", "_cycles_dropped", "_open",
        "_cycle_index", "_cycle_vt", "_cycle_counts", "_cycle_prune",
        "_total_attempts", "_total_failed", "_total_events",
    )

    def __init__(
        self,
        top_k: int = 3,
        max_attempts_per_job: int = 64,
        max_fails: int = 16,
        max_cycles: int = 512,
    ) -> None:
        self.top_k = top_k
        self.max_attempts_per_job = max_attempts_per_job
        self.max_fails = max_fails
        self.max_cycles = max_cycles
        #: job_id -> {"name", "events", "attempts", "dropped"}
        self._jobs: Dict[int, Dict[str, Any]] = {}
        self._cycles: List[Dict[str, Any]] = []
        self._cycles_dropped = 0
        self._open: Optional[_Attempt] = None
        self._cycle_index = -1
        self._cycle_vt: Optional[float] = None
        self._cycle_counts = {"attempts": 0, "matched": 0, "failed": 0}
        self._cycle_prune: Dict[str, int] = {}
        self._total_attempts = 0
        self._total_failed = 0
        self._total_events = 0

    # -- job bookkeeping ------------------------------------------------
    def _job(self, job_id: int, name: str = "") -> Dict[str, Any]:
        entry = self._jobs.get(job_id)
        if entry is None:
            entry = {"name": name, "events": [], "attempts": [], "dropped": 0}
            self._jobs[job_id] = entry
        elif name and not entry["name"]:
            entry["name"] = name
        return entry

    # -- cycle lifecycle ------------------------------------------------
    def begin_cycle(self, vt: float) -> None:
        """Open a new dispatch cycle; flushes the previous cycle summary."""
        self._flush_cycle()
        self._cycle_index += 1
        self._cycle_vt = vt

    def _flush_cycle(self) -> None:
        if self._cycle_index < 0 or not self._cycle_counts["attempts"]:
            self._cycle_counts = {"attempts": 0, "matched": 0, "failed": 0}
            self._cycle_prune = {}
            return
        if len(self._cycles) >= self.max_cycles:
            self._cycles_dropped += 1
        else:
            top = sorted(
                self._cycle_prune.items(), key=lambda kv: (-kv[1], kv[0])
            )[: self.top_k]
            row: Dict[str, Any] = {
                "cycle": self._cycle_index,
                "vt": self._cycle_vt,
            }
            row.update(self._cycle_counts)
            if top:
                row["top"] = [[key, count] for key, count in top]
            self._cycles.append(row)
        self._cycle_counts = {"attempts": 0, "matched": 0, "failed": 0}
        self._cycle_prune = {}

    # -- attempt lifecycle ----------------------------------------------
    def begin_attempt(
        self, job_id: int, vt: Optional[float], verb: str, name: str = ""
    ) -> None:
        """Open an attempt record; traverser probes accumulate into it."""
        entry = self._job(job_id, name)
        kept = len(entry["attempts"]) < self.max_attempts_per_job
        attempt = _Attempt(
            job_id, self._cycle_index if self._cycle_index >= 0 else None,
            vt, verb, kept,
        )
        if kept:
            entry["attempts"].append(attempt)
        else:
            entry["dropped"] += 1
        self._open = attempt

    def end_attempt(self, outcome: str) -> None:
        """Close the open attempt with its outcome (no-op when none open)."""
        attempt = self._open
        if attempt is None:
            return
        attempt.outcome = outcome
        self._open = None
        self._total_attempts += 1
        self._cycle_counts["attempts"] += 1
        if outcome in ("matched", "reserved"):
            self._cycle_counts["matched"] += 1
        elif outcome in ("failed", "unsat", "deadline"):
            self._total_failed += 1
            self._cycle_counts["failed"] += 1

    def skipped(
        self, job_id: int, vt: Optional[float], verb: str, name: str = ""
    ) -> None:
        """A cycle passed ``job_id`` over without an attempt.

        ``verb`` says which answer was kept: ``backfill`` (refused, and
        nothing it could use came free since) or ``reservation`` (the
        head's stands).
        Consecutive skips of one kind extend one record — ``vt`` is where
        the stretch began — so a long wait costs one line, not one per
        cycle.  Not an attempt: the attempt totals do not move.
        """
        attempts = self._job(job_id, name)["attempts"]
        last = attempts[-1] if attempts else None
        if last is None or last.outcome != "skipped" or last.verb != verb:
            if len(attempts) >= self.max_attempts_per_job:
                return
            last = _Attempt(
                job_id, self._cycle_index if self._cycle_index >= 0 else None,
                vt, verb, True,
            )
            last.outcome = "skipped"
            attempts.append(last)
        last.repeat += 1

    # -- traverser probes -----------------------------------------------
    def prune(self, reason: str, rtype: str, vertex: str) -> None:
        """One vertex (and its subtree) pruned during candidate collection."""
        attempt = self._open
        if attempt is None:
            return
        key = f"{reason}|{rtype}"
        count = attempt.prune.get(key, 0)
        attempt.prune[key] = count + 1
        if count < self.top_k:
            attempt.examples.setdefault(key, []).append(vertex)
        self._cycle_prune[key] = self._cycle_prune.get(key, 0) + 1

    def fail(self, kind: str, **detail: Any) -> None:
        """A request-level failure verdict for the open attempt."""
        attempt = self._open
        if attempt is None:
            return
        if len(attempt.fails) >= self.max_fails:
            attempt.fails_dropped += 1
            return
        record: Dict[str, Any] = {"kind": kind}
        record.update(detail)
        attempt.fails.append(record)

    def mark(self) -> int:
        """Opaque progress marker: prune events recorded so far in the open
        attempt (lets the traverser tell "nothing of that type exists" from
        "everything was pruned")."""
        attempt = self._open
        if attempt is None:
            return 0
        return sum(attempt.prune.values()) + len(attempt.fails)

    # -- admission / lifecycle events ------------------------------------
    def event(
        self, job_id: int, vt: Optional[float], event: str,
        name: str = "", **detail: Any,
    ) -> None:
        """Record an admission or lifecycle verdict for ``job_id``."""
        entry = self._job(job_id, name)
        record: Dict[str, Any] = {"vt": vt, "event": event}
        record.update(detail)
        entry["events"].append(record)
        self._total_events += 1

    # -- export ----------------------------------------------------------
    def export(self) -> Dict[str, Any]:
        """JSON-able snapshot of everything recorded (non-destructive)."""
        jobs: Dict[str, Any] = {}
        for job_id in sorted(self._jobs):
            entry = self._jobs[job_id]
            jobs[str(job_id)] = {
                "name": entry["name"],
                "events": [dict(e) for e in entry["events"]],
                "attempts": [a.as_dict() for a in entry["attempts"]],
                "dropped": entry["dropped"],
            }
        cycles = [dict(row) for row in self._cycles]
        # the in-progress cycle, rendered without mutating recorder state
        if self._cycle_index >= 0 and self._cycle_counts["attempts"]:
            if len(cycles) >= self.max_cycles:
                pass  # counted as dropped on the next flush
            else:
                top = sorted(
                    self._cycle_prune.items(), key=lambda kv: (-kv[1], kv[0])
                )[: self.top_k]
                row = {"cycle": self._cycle_index, "vt": self._cycle_vt}
                row.update(self._cycle_counts)
                if top:
                    row["top"] = [[key, count] for key, count in top]
                cycles.append(row)
        return {
            "schema": SCHEMA,
            "top_k": self.top_k,
            "jobs": jobs,
            "cycles": cycles,
            "cycles_dropped": self._cycles_dropped,
            "totals": {
                "attempts": self._total_attempts,
                "failed": self._total_failed,
                "events": self._total_events,
            },
        }

    def explain(self, job_id: int) -> str:
        """Rendered explain-tree for one job (see :func:`render_explain`)."""
        return render_explain(self.export(), job_id)


class NullDecisionRecorder:
    """Disabled recorder: records nothing, allocates nothing."""

    __slots__ = ()
    enabled = False

    def begin_cycle(self, vt: float) -> None:
        pass

    def begin_attempt(
        self, job_id: int, vt: Optional[float], verb: str, name: str = ""
    ) -> None:
        pass

    def end_attempt(self, outcome: str) -> None:
        pass

    def skipped(
        self, job_id: int, vt: Optional[float], verb: str, name: str = ""
    ) -> None:
        pass

    def prune(self, reason: str, rtype: str, vertex: str) -> None:
        pass

    def fail(self, kind: str, **detail: Any) -> None:
        pass

    def mark(self) -> int:
        return 0

    def event(
        self, job_id: int, vt: Optional[float], event: str,
        name: str = "", **detail: Any,
    ) -> None:
        pass

    def export(self) -> Dict[str, Any]:
        return {}

    def explain(self, job_id: int) -> str:
        return ""


NULL_WHY = NullDecisionRecorder()


# ----------------------------------------------------------------------
# rendering (shared by report.explain and `python -m repro.obs why`)
# ----------------------------------------------------------------------
def _blocking_lines(attempt: Dict[str, Any], top_k: int) -> List[str]:
    """Ranked blocking-constraint lines for one exported attempt."""
    lines: List[str] = []
    rank = 0
    for fail in attempt.get("fails", []):
        rank += 1
        kind = fail.get("kind", "?")
        label = _FAIL_LABELS.get(kind, kind)
        detail = ", ".join(
            f"{key}={fail[key]}"
            for key in sorted(fail)
            if key != "kind" and fail[key] != ""
        )
        lines.append(f"{rank}. {label}" + (f": {detail}" if detail else ""))
    dropped = attempt.get("fails_dropped", 0)
    if dropped:
        lines.append(f"   (+{dropped} more failure verdicts)")
    prune = attempt.get("prune", {})
    examples = attempt.get("examples", {})
    ordered = sorted(prune.items(), key=lambda kv: (-kv[1], kv[0]))
    for key, count in ordered[:top_k]:
        rank += 1
        reason, _, rtype = key.partition("|")
        label = _REASON_LABELS.get(reason, reason)
        sample = ", ".join(examples.get(key, []))
        suffix = f" (e.g. {sample})" if sample else ""
        lines.append(
            f"{rank}. {label}: {rtype} x{count} subtree(s) pruned{suffix}"
        )
    if len(ordered) > top_k:
        rest = sum(count for _, count in ordered[top_k:])
        lines.append(
            f"   (+{len(ordered) - top_k} more prune buckets, "
            f"{rest} subtrees)"
        )
    return lines


def _skipped_line(attempt: Dict[str, Any]) -> str:
    """One line for a stretch of cycles that made no attempt for the job."""
    times = f"×{attempt.get('repeat', 1)}"
    since = f"since t={_fmt_vt(attempt.get('vt'))}"
    if attempt.get("verb") == "reservation":
        return f"reservation kept {times} {since}: nothing came back early"
    return f"not re-tried {times} {since}: nothing it could use came free"


def render_explain(
    provenance: Dict[str, Any], job_id: int, job: Optional[object] = None
) -> str:
    """Render the explain-tree for ``job_id`` from an exported provenance.

    ``job`` optionally supplies live :class:`~repro.sched.job.Job` state
    (final state / cancel reason) for the header; the CLI path has only
    the provenance document.
    """
    entry = (provenance.get("jobs") or {}).get(str(job_id))
    top_k = int(provenance.get("top_k", 3))
    header = f"job {job_id}"
    if entry is not None and entry.get("name"):
        header += f" ({entry['name']})"
    if job is not None:
        state = getattr(job, "state", None)
        reason = getattr(job, "cancel_reason", None)
        if state is not None:
            header += f" — {state.value}"
        if reason is not None:
            header += f" ({reason.value})"
    if entry is None:
        return header + "\n  (no decisions recorded for this job)"
    lines = [header]
    for event in entry.get("events", []):
        detail = ", ".join(
            f"{key}={event[key]}"
            for key in sorted(event)
            if key not in ("vt", "event") and event[key] != ""
        )
        lines.append(
            f"├─ t={_fmt_vt(event.get('vt'))} {event.get('event', '?')}"
            + (f" ({detail})" if detail else "")
        )
    attempts = entry.get("attempts", [])
    for index, attempt in enumerate(attempts):
        last = index == len(attempts) - 1
        branch = "└─" if last else "├─"
        stem = "   " if last else "│  "
        if attempt.get("outcome") == "skipped":
            lines.append(f"{branch} {_skipped_line(attempt)}")
            continue
        cycle = attempt.get("cycle")
        where = f" [cycle {cycle}]" if cycle is not None else ""
        lines.append(
            f"{branch} t={_fmt_vt(attempt.get('vt'))}{where} "
            f"{attempt.get('verb', '?')} -> {attempt.get('outcome', '?')}"
        )
        blocking = _blocking_lines(attempt, top_k)
        if blocking:
            lines.append(f"{stem}   blocking constraints:")
            for text in blocking:
                lines.append(f"{stem}     {text}")
    dropped = entry.get("dropped", 0)
    if dropped:
        lines.append(f"   ({dropped} further attempts not retained)")
    return "\n".join(lines)


def render_cycle_summary(provenance: Dict[str, Any]) -> str:
    """Per-cycle unsat summary table from an exported provenance."""
    cycles = provenance.get("cycles") or []
    if not cycles:
        return "(no scheduling cycles recorded)"
    lines = ["cycle        t  attempts  matched  failed  top blockers"]
    for row in cycles:
        top = row.get("top") or []
        rendered = ", ".join(f"{key} x{count}" for key, count in top)
        lines.append(
            f"{row.get('cycle', 0):>5} {_fmt_vt(row.get('vt')):>8}  "
            f"{row.get('attempts', 0):>8}  {row.get('matched', 0):>7}  "
            f"{row.get('failed', 0):>6}  {rendered}"
        )
    dropped = provenance.get("cycles_dropped", 0)
    if dropped:
        lines.append(f"(+{dropped} cycles beyond the retention cap)")
    return "\n".join(lines)
