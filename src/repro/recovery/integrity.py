"""Online state-integrity scrubbing and corruption quarantine ("fluxfsck").

Long-running scheduler instances accumulate three families of state that
must stay mutually consistent: the resource graph (vertex structure and
status), the planner layer (span registries and scheduled-point trees) and
the allocation/queue layer (who holds what, and when).  A bit-flip or a
logic bug in any one of them silently poisons future placement decisions
long before a snapshot or restart would surface it.

This module provides the *detection and containment* half of the fluxfsck
subsystem (repairs live in :mod:`repro.recovery.repair`):

* :class:`IntegrityMonitor` — the end-of-cycle pass over what the cycle
  wrote (handed over by the invariant auditor) and a rotating window of
  vertices, comparing a window vertex's structure with the attach-time
  baseline and every planner it reads with what the live allocation table
  says it *should* hold.  Drift is quarantined (the vertex is drained so
  matching skips it), repaired through the repair engine and re-verified
  before the auditor reports what stays unrepaired.
* :class:`ExpectedState` — the one statement of what every planner should
  hold right now: each live allocation's spans as
  :func:`~repro.match.writer.allocation_bookings` derives them from its
  selections, plus the spans of every planned outage.  One is kept per
  simulator (:func:`expected_state`) and brought up to date by comparing
  the live allocations and outages with the ones it last saw, so a cycle
  pays for what it booked and released, not for the cluster;
  :func:`expected_span_table` is the same derivation from nothing.
  :meth:`ExpectedState.scan` diffs one vertex against it; the pass, fsck,
  the invariant auditor and snapshot salvage all read this table.
* :func:`apply_corruption` — a seeded, deterministic corruption injector
  used by the chaos harness and by :meth:`ClusterSimulator.inject_corruption`
  (which journals the injection as a replayable command, so crash-recovery
  replay re-corrupts and re-repairs identically).

Everything the scrubber decides is a pure function of simulator state plus
its own exported cursor/counters, so dual runs and journal replays converge.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..errors import FluxionError, IntegrityError
from ..match.writer import ExclusivityIndex, allocation_bookings
from ..resource.vertex import PLANNER_KINDS
from ..settings import GuardSettings, _refuse_unknown

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..match.writer import Allocation
    from ..resource import ResourceVertex
    from ..sched.simulator import ClusterSimulator

__all__ = [
    "ExpectedState",
    "IntegrityConfig",
    "IntegrityMonitor",
    "Finding",
    "apply_corruption",
    "corruption_targets",
    "expected_span_table",
    "expected_state",
    "scan_planners",
    "structure_drift",
    "vertex_structure",
]

#: ``(start, end, booked)`` of one span: ``booked`` is the request of a
#: plans/xplans span, the ``{type: quantity}`` counts of a filter bundle
Expectation = Tuple[int, int, object]
#: ``{(vertex name, planner kind): {span id: expectation}}``
SpanTable = Dict[Tuple[str, str], Dict[int, Expectation]]
#: what a planner no booking mentions is expected to hold (never mutated)
_NOTHING: Dict[int, Expectation] = {}

#: live-corruption kinds understood by :func:`apply_corruption`
CORRUPTION_KINDS = ("span", "point", "aggregate", "structure")


# ----------------------------------------------------------------------
# structure baselines
# ----------------------------------------------------------------------
def vertex_structure(vertex: "ResourceVertex") -> dict:
    """The structural (mid-run immutable) fields of a vertex, JSON-able."""
    return {
        "type": vertex.type,
        "basename": vertex.basename,
        "id": vertex.id,
        "size": vertex.size,
        "unit": vertex.unit,
        "rank": vertex.rank,
        "properties": dict(vertex.properties),
        "paths": dict(vertex.paths),
    }


def structure_drift(vertex: "ResourceVertex", baseline: dict) -> List[str]:
    """The structural fields of ``vertex`` that differ from ``baseline``, a
    :func:`vertex_structure` taken earlier (empty = unchanged)."""
    current = vertex_structure(vertex)
    if current == baseline:
        return []
    return [key for key in current if current[key] != baseline.get(key)]


# ----------------------------------------------------------------------
# findings
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Finding:
    """One detected inconsistency on one vertex."""

    vertex: str
    kind: str  # structure | span-missing | span-drift | span-orphan | tree-drift
    planner: Optional[str]  # plans | xplans | filter | None (structure)
    detail: str


# ----------------------------------------------------------------------
# ground truth: what the planners should hold, per the allocation table
# ----------------------------------------------------------------------
#: what the kept table remembers of one allocation or outage it has counted:
#: ``(holder, start, end, bookings, entries)``, ``entries`` being the
#: ``(table key, span id)`` pairs the holder contributed
_Counted = Tuple[object, int, int, list, List[Tuple[Tuple[str, str], int]]]


class ExpectedState:
    """What every planner of one simulator should hold, kept across cycles.

    Live allocations contribute what
    :func:`~repro.match.writer.allocation_bookings` says their selections
    book; planned outages what :meth:`CapacitySchedule.bookings
    <repro.sched.capacity.CapacitySchedule.bookings>` says their subtree
    books.  Both lists come in booking order, so they pair off with the
    ``_span_records`` that carry the span ids.

    :meth:`refresh` brings :attr:`table` up to date by comparing the live
    allocations and outages with the ones it last counted — same object,
    same window, same ``_bookings`` memo — which costs O(live allocations)
    and asks nothing of the booking paths but the list each booking wrote,
    which the traverser keeps as ``_bookings`` once the kept state has
    switched :attr:`Traverser.keep_bookings
    <repro.match.traverser.Traverser.keep_bookings>` on.  Built with
    ``exclusive``, :attr:`exclusive` follows the same allocations for the
    exclusivity rule; only the kept table and the full
    audit read one.  Whoever verifies takes the difference from
    :attr:`changed` and :attr:`entered` and clears them.
    When :attr:`ResourceGraph.structure` has moved by more than
    :attr:`~ResourceGraph.drains` — a vertex, an edge or a pool size
    changed, not only what is in service — everything is dropped and
    derived again.  Derived state: not exported, snapshotted or
    fingerprinted, and empty after a restore.
    """

    __slots__ = (
        "sim", "table", "order", "changed", "entered", "rebuilds",
        "exclusive", "_shape", "_allocs", "_outages",
    )

    def __init__(self, sim: "ClusterSimulator", exclusive: bool = False) -> None:
        self.sim = sim
        self.table: SpanTable = {}
        #: every vertex in name order (the scrub rotation), as of ``_shape``
        self.order: List["ResourceVertex"] = []
        #: ``{uniq id: vertex}`` whose expectation changed since an audit
        #: last verified them: every vertex a counted, moved or departed
        #: allocation or outage books, whether or not a span record survives
        self.changed: Dict[int, "ResourceVertex"] = {}
        #: ``{alloc id: allocation}`` counted or moved since then, still live
        self.entered: Dict[int, "Allocation"] = {}
        #: times the table was derived from nothing
        self.rebuilds = 0
        #: the live allocations counted, indexed for the exclusivity rule
        #: (None = not kept)
        self.exclusive: Optional[ExclusivityIndex] = (
            ExclusivityIndex(sim.graph, sim.traverser.subsystem)
            if exclusive else None
        )
        self._shape: Optional[int] = None
        self._allocs: Dict[int, _Counted] = {}
        self._outages: Dict[Tuple[int, int], _Counted] = {}

    def refresh(self) -> None:
        """Make :attr:`table` say what the planners should hold right now."""
        sim = self.sim
        graph = sim.graph
        # What exists: no booking and no vertex depends on a drain.
        shape = graph.shape
        if shape != self._shape:
            self._shape = shape
            self.order = sorted(graph.vertices(), key=lambda v: v.name)
            self.table.clear()
            self._allocs.clear()
            self._outages.clear()
            self.entered.clear()
            self.changed = {v.uniq_id: v for v in self.order}
            if self.exclusive is not None:
                self.exclusive = ExclusivityIndex(graph, sim.traverser.subsystem)
            self.rebuilds += 1
            if sim.obs.enabled:
                sim.obs.metrics.counter(
                    "integrity.table_rebuilds",
                    "expected-state tables derived from nothing",
                ).inc()
        traverser = sim.traverser
        live = traverser.allocations
        exclusive = self.exclusive
        counted = self._allocs
        for aid in [
            aid
            for aid, (alloc, start, end, bookings, _) in counted.items()
            if live.get(aid) is not alloc
            or alloc.at != start
            or alloc.end != end
            or alloc._bookings is not bookings
        ]:
            self._forget(counted.pop(aid))
            if exclusive is not None:
                exclusive.discard(aid)
            self.entered.pop(aid, None)
        if len(counted) != len(live):
            subsystem = traverser.subsystem
            for aid, alloc in live.items():
                if aid in counted:
                    continue
                if alloc._bookings is None:
                    alloc._bookings = allocation_bookings(
                        graph, subsystem, alloc.selections
                    )
                counted[aid] = self._count(
                    alloc, alloc._bookings, alloc._span_records,
                    alloc.at, alloc.end,
                )
                if exclusive is not None:
                    exclusive.add(alloc)
                self.entered[aid] = alloc
        outages = {
            (index, outage.outage_id): (schedule, outage)
            for index, schedule in enumerate(graph.capacity_schedules)
            for outage in schedule.outages.values()
        }
        counted = self._outages
        for key in [
            key
            for key, (outage, start, end, _, _) in counted.items()
            if key not in outages
            or outages[key][1] is not outage
            or outage.start != start
            or outage.end != end
        ]:
            self._forget(counted.pop(key))
        for key, (schedule, outage) in outages.items():
            if key not in counted:
                counted[key] = self._count(
                    outage, schedule.bookings(outage.vertex),
                    outage._span_records, outage.start, outage.end,
                )

    def _count(
        self, holder: object, bookings: list, span_records: list,
        start: int, end: int,
    ) -> _Counted:
        """Enter one holder's spans into the table."""
        table = self.table
        changed = self.changed
        entries = []
        for (vertex, kind, booked), (_, span_id) in zip(bookings, span_records):
            key = (vertex.name, kind)
            table.setdefault(key, {})[span_id] = (start, end, booked)
            entries.append((key, span_id))
        for vertex, _, _ in bookings:
            changed[vertex.uniq_id] = vertex
        return holder, start, end, bookings, entries

    def _forget(self, counted: _Counted) -> None:
        """Take one holder's spans out of the table."""
        table = self.table
        changed = self.changed
        for key, span_id in counted[4]:
            spans = table.get(key)
            if spans is not None:
                spans.pop(span_id, None)
                if not spans:
                    del table[key]
        for vertex, _, _ in counted[3]:
            changed[vertex.uniq_id] = vertex

    def scan(
        self,
        vertex: "ResourceVertex",
        deep: bool = True,
        baseline: Optional[dict] = None,
    ) -> List[Finding]:
        """Cross-check one vertex against the table (empty = clean).

        The one verifier behind the end-of-cycle pass, fsck and ``scan()``:
        :func:`scan_planners` on the vertex and, given the ``baseline``
        structure taken of it, :func:`structure_drift`.
        """
        findings: List[Finding] = []
        if baseline is not None:
            drift = structure_drift(vertex, baseline)
            if drift:
                findings.append(
                    Finding(
                        vertex.name, "structure", None,
                        f"{', '.join(drift)} differ from the attach-time "
                        "baseline",
                    )
                )
        findings.extend(scan_planners(vertex, self.table, deep))
        return findings


def expected_state(sim: "ClusterSimulator") -> ExpectedState:
    """The table kept for ``sim``, created when a guard first asks for it;
    from then on the traverser keeps the list each booking wrote."""
    state = sim._expected_state
    if state is None:
        state = sim._expected_state = ExpectedState(sim, exclusive=True)
        sim.traverser.keep_bookings = True
    return state


def expected_span_table(sim: "ClusterSimulator") -> SpanTable:
    """What every planner of ``sim.graph`` should hold right now, derived
    from nothing: the first :meth:`~ExpectedState.refresh` of a table that
    has counted no allocation yet."""
    state = ExpectedState(sim)
    state.refresh()
    return state.table


def _held(planner: object, kind: str) -> Dict[int, Expectation]:
    """``{span id: (start, end, booked)}`` as ``planner`` reports it.

    A filter bundle is read back through its per-type spans; one whose
    per-type spans are unreadable or disagree on the window reads as
    ``(None, None, ...)`` and so can equal no expectation.
    """
    if kind != "filter":
        return planner.span_windows()
    per_type = {t: planner.planner(t).span_windows() for t in planner.types}
    held: Dict[int, Expectation] = {}
    for sid in planner.span_ids():
        counts: Dict[str, int] = {}
        windows = set()
        try:
            for rtype, per_sid in planner.get_span(sid).items():
                start, end, counts[rtype] = per_type[rtype][per_sid]
                windows.add((start, end))
        except KeyError:
            windows.clear()
        start, end = windows.pop() if len(windows) == 1 else (None, None)
        held[sid] = (start, end, counts)
    return held


def _show(span: Expectation) -> str:
    start, end, booked = span
    return f"{booked}x[{start},{end})"


def _diff(
    name: str,
    kind: str,
    have: Dict[int, Expectation],
    want: Dict[int, Expectation],
) -> List[Finding]:
    """Findings for one planner that holds ``have`` where ``want`` is due."""
    findings: List[Finding] = []
    for sid in sorted(want):
        got = have.get(sid)
        if got is None:
            findings.append(
                Finding(
                    name, "span-missing", kind,
                    f"span {sid} absent (want {_show(want[sid])})",
                )
            )
        elif got != want[sid]:
            findings.append(
                Finding(
                    name, "span-drift", kind,
                    f"span {sid}: have {_show(got)}, want {_show(want[sid])}",
                )
            )
    orphans = sorted(set(have) - set(want))
    if orphans:
        findings.append(
            Finding(name, "span-orphan", kind, f"unreferenced spans {orphans}")
        )
    return findings


def scan_planners(
    vertex: "ResourceVertex",
    expected: SpanTable,
    deep: bool = True,
) -> List[Finding]:
    """Diff the planners of ``vertex`` against ``expected``.

    Yields ``span-missing`` / ``span-drift`` per expected span, one
    ``span-orphan`` per planner holding spans nothing accounts for and —
    with ``deep`` — one ``tree-drift`` per planner whose internal
    ``check_invariants()`` trips (O(points x spans), so the per-cycle auditor
    leaves it off).
    """
    findings: List[Finding] = []
    name = vertex.name
    for kind in PLANNER_KINDS:
        planner = vertex.planner_of(kind)
        if planner is None:
            continue
        want = expected.get((name, kind), _NOTHING)
        # Most planners of a large graph are idle with nothing expected.
        if want or planner.span_count:
            have = _held(planner, kind)
            if have != want:
                findings.extend(_diff(name, kind, have, want))
        if deep:
            try:
                planner.check_invariants()
            except (AssertionError, FluxionError) as exc:
                findings.append(Finding(name, "tree-drift", kind, repr(exc)))
    return findings


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass
class IntegrityConfig(GuardSettings):
    """Tuning for the integrity monitor.

    scrub_window:
        Vertices of the rotation read per pass (None = the whole graph
        every pass).  The cursor rotates so every vertex is eventually
        covered.
    auto_repair:
        Repair-and-release quarantined vertices within the same pass.  When
        False the monitor only detects and drains — operator tooling
        (``python -m repro.recovery fsck --repair``) finishes the job — and
        the auditor raises none of the findings it drained (a drained
        vertex that still holds a job is a ``down-vertex`` violation, as
        for any drain).
    """

    error = IntegrityError
    #: no orphans to skip (outages are expected state); no head-of-cycle
    #: scrub to pace or budget
    retired = frozenset(
        {"check_orphans", "scrub_every", "scrub_budget", "checkpoint_interval"}
    )

    scrub_window: Optional[int] = 8
    auto_repair: bool = True


# ----------------------------------------------------------------------
# the monitor
# ----------------------------------------------------------------------
class IntegrityMonitor:
    """End-of-cycle verifier + quarantine coordinator.

    Attach to a :class:`~repro.sched.simulator.ClusterSimulator` (the
    ``integrity=`` constructor parameter does this).  :meth:`scrub_cycle`
    runs at the end of every scheduling cycle: inside the auditor's check,
    which hands it what the cycle wrote, or alone on its window.
    """

    def __init__(self, config: Optional[IntegrityConfig] = None) -> None:
        self.config = config or IntegrityConfig()
        self.sim: Optional["ClusterSimulator"] = None
        self.cursor = 0
        #: what a ``corrupt`` command damaged, for its own cycle's pass
        self.damaged: Dict[int, "ResourceVertex"] = {}
        self.quarantined: Dict[str, str] = {}
        self.counters: Dict[str, int] = {
            "scrub_passes": 0,
            "scrubbed_vertices": 0,
            "detected": 0,
            "quarantined": 0,
            "repaired": 0,
            "unrepaired": 0,
            "repair_actions": 0,
            "jobs_requeued": 0,
        }
        self._baseline: Dict[str, dict] = {}
        self._engine = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, sim: "ClusterSimulator") -> None:
        """Bind to a simulator and take structural baselines."""
        from .repair import RepairEngine

        self.sim = sim
        self._engine = RepairEngine(sim, monitor=self)
        self.rebaseline()

    def rebaseline(self) -> None:
        """(Re)capture every vertex's structural fields from the live graph.

        Called at attach and after restores.  An intentional change made
        later reaches the baseline through :attr:`ResourceGraph.reshaped`,
        which :mod:`repro.sched.elastic` fills and every pass empties.
        """
        sim = self.sim
        if sim is None:
            raise IntegrityError("monitor is not attached to a simulator")
        sim.graph.reshaped = {}
        self._baseline = {
            vertex.name: vertex_structure(vertex)
            for vertex in sim.graph.vertices()
        }

    def _adopt_reshaped(self) -> None:
        """Take what an operator reshaped on purpose (elastic grow, shrink,
        resize) into the baseline: a new vertex gains one, a removed vertex
        loses it, a resized pool is recorded as the call left it —
        whatever was written to it since still reads as damage."""
        reshaped = self.sim.graph.reshaped
        while reshaped:
            name, structure = reshaped.popitem()
            if structure is None:
                self._baseline.pop(name, None)
            else:
                self._baseline[name] = structure

    def baseline_structure(self, vertex: "ResourceVertex") -> Optional[dict]:
        """The attach-time structural fields for ``vertex`` (None = unknown)."""
        base = self._baseline.get(vertex.name)
        return None if base is None else dict(base)

    # ------------------------------------------------------------------
    # scanning
    # ------------------------------------------------------------------
    def _scan_vertex(
        self, state: ExpectedState, vertex: "ResourceVertex"
    ) -> List[Finding]:
        return state.scan(vertex, baseline=self._baseline.get(vertex.name))

    def scan(self) -> List[Finding]:
        """Full-graph scan (fsck / test support)."""
        sim = self.sim
        if sim is None:
            raise IntegrityError("monitor is not attached to a simulator")
        self._adopt_reshaped()
        state = ExpectedState(sim)  # from nothing; the kept table stays
        state.refresh()
        findings: List[Finding] = []
        for vertex in state.order:
            findings.extend(self._scan_vertex(state, vertex))
        return findings

    # ------------------------------------------------------------------
    # the end-of-cycle pass
    # ------------------------------------------------------------------
    def scrub_cycle(
        self,
        state: Optional[ExpectedState] = None,
        written: Sequence["ResourceVertex"] = (),
        deep: bool = False,
    ) -> List[Finding]:
        """One pass: detect, quarantine, repair, release; returns the
        findings that stay unrepaired.

        ``written`` (what the cycle wrote, against ``state`` as the auditor
        just refreshed it) is read as the auditor reads it, ``deep`` or not;
        the window after the cursor and what a ``corrupt`` command damaged
        deep and against the structure baseline; a vertex in both, that
        way.  Alone, the monitor refreshes the kept table itself.
        Deterministic given simulator state and the cursor, so journal
        replay regenerates every quarantine and repair.
        """
        sim = self.sim
        if sim is None:
            return []
        with sim.obs.tracer.span(
            "integrity.scrub", "integrity", vt=float(sim.now)
        ):
            self._adopt_reshaped()
            if state is None:
                state = expected_state(sim)
                state.refresh()
            order = state.order
            window = min(self.config.scrub_window or len(order), len(order))
            rotation: Dict[int, "ResourceVertex"] = {}
            for i in range(window):
                vertex = order[(self.cursor + i) % len(order)]
                rotation[vertex.uniq_id] = vertex
            if order:
                self.cursor = (self.cursor + window) % len(order)
            rotation.update(self.damaged)
            self.damaged.clear()
            read = [
                (v, state.scan(v, deep=deep))
                for v in written if v.uniq_id not in rotation
            ]
            read += [(v, self._scan_vertex(state, v)) for v in rotation.values()]
            self.counters["scrub_passes"] += 1
            self.counters["scrubbed_vertices"] += len(rotation)
            self._obs_count("integrity.scrubbed", len(rotation))
            unrepaired: List[Finding] = []
            for vertex, findings in read:
                if findings:
                    unrepaired.extend(
                        self._handle_dirty(state, vertex, findings)
                    )
            return unrepaired

    def _handle_dirty(
        self,
        state: ExpectedState,
        vertex: "ResourceVertex",
        findings: List[Finding],
    ) -> List[Finding]:
        """Quarantine ``vertex`` and (``auto_repair``) repair it; returns
        what a repair left there (nothing without ``auto_repair``: the
        drained vertex waits for operator tooling)."""
        sim = self.sim
        name = vertex.name
        kinds = sorted({f.kind for f in findings})
        self.counters["detected"] += len(findings)
        self._obs_count("integrity.detected", len(findings))
        was_up = vertex.status == "up"
        if was_up:
            # Drain: matching skips the subtree while it is untrusted.
            sim.graph.mark_down(vertex)
        if name not in self.quarantined:
            self.counters["quarantined"] += 1
            self._obs_count("integrity.quarantined")
        self.quarantined[name] = ",".join(kinds)
        if sim.obs.enabled:
            sim.obs.tracer.instant(
                "integrity.quarantine", "integrity",
                vt=float(sim.now), vertex=name, kinds=",".join(kinds),
            )
        if not self.config.auto_repair:
            return []  # drained; operator tooling repairs it
        actions = self._engine.repair_vertex(vertex, findings, state.table)
        self.counters["repair_actions"] += len(actions)
        residual = self._scan_vertex(state, vertex)
        if not residual:
            self._release(vertex, was_up, actions)
            return []
        # Last resort: shed everything the vertex carries, then retry once.
        # Evacuation is the only step that changes the allocation table.
        requeued = self._engine.evacuate_vertex(vertex)
        self.counters["jobs_requeued"] += requeued
        self._obs_count("integrity.jobs_requeued", requeued)
        state.refresh()
        actions = self._engine.repair_vertex(vertex, residual, state.table)
        self.counters["repair_actions"] += len(actions)
        residual = self._scan_vertex(state, vertex)
        if not residual:
            self._release(vertex, was_up, actions)
        else:
            self.counters["unrepaired"] += 1
            self._obs_count("integrity.unrepaired")
        return residual

    def _release(
        self, vertex: "ResourceVertex", was_up: bool, actions: List[str]
    ) -> None:
        sim = self.sim
        name = vertex.name
        if was_up and vertex.status == "down":
            sim.graph.mark_up(vertex)
        self.quarantined.pop(name, None)
        self.counters["repaired"] += 1
        self._obs_count("integrity.repaired")
        if sim.obs.enabled:
            sim.obs.tracer.instant(
                "integrity.repair", "integrity",
                vt=float(sim.now), vertex=name, actions=",".join(actions),
            )

    # ------------------------------------------------------------------
    # metrics plumbing
    # ------------------------------------------------------------------
    def _obs_count(self, name: str, amount: int = 1) -> None:
        sim = self.sim
        if sim is not None and sim.obs.enabled and amount:
            sim.obs.metrics.counter(name, "state-integrity events").inc(amount)

    # ------------------------------------------------------------------
    # snapshot state (crash recovery)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Dynamic scrubber state for snapshots and fingerprints."""
        return {
            "cursor": self.cursor,
            "quarantined": dict(sorted(self.quarantined.items())),
            "counters": dict(self.counters),
        }

    def import_state(self, state: dict) -> None:
        """Restore :meth:`export_state` output (after :meth:`attach`); a key
        or counter this monitor does not own raises IntegrityError.  The
        cycle count an older snapshot carries is dropped: nothing reads it."""
        state = {k: v for k, v in state.items() if k != "cycles_seen"}
        _refuse_unknown(
            "integrity state", state, self.export_state(), IntegrityError
        )
        _refuse_unknown(
            "integrity counters", state["counters"], self.counters,
            IntegrityError,
        )
        self.cursor = int(state["cursor"])
        self.quarantined = {
            str(k): str(v) for k, v in state["quarantined"].items()
        }
        self.counters.update(state["counters"])


# ----------------------------------------------------------------------
# seeded corruption injection (chaos / test support)
# ----------------------------------------------------------------------
def _held_planner(vertex: "ResourceVertex") -> Optional[object]:
    """The vertex planner holding spans that ``span`` and ``point`` damage:
    ``plans`` when a pool quantity stands there, else ``xplans`` (every
    other hold), else None."""
    for planner in (vertex.plans, vertex.xplans):
        if planner.span_count:
            return planner
    return None


def corruption_targets(sim: "ClusterSimulator", kind: str) -> List[str]:
    """Vertex names where :func:`apply_corruption` would have an effect."""
    names: List[str] = []
    for vertex in sorted(sim.graph.vertices(), key=lambda v: v.name):
        if kind == "structure":
            names.append(vertex.name)
        elif kind in ("span", "point"):
            if vertex.held:
                names.append(vertex.name)
        elif kind == "aggregate":
            filters = vertex.prune_filters
            if filters is not None and any(
                filters.planner(t).point_count > 1 for t in filters.types
            ):
                names.append(vertex.name)
        else:
            raise IntegrityError(f"unknown corruption kind: {kind!r}")
    return names


def apply_corruption(
    sim: "ClusterSimulator", vertex: "ResourceVertex", kind: str, salt: int = 0
) -> bool:
    """Deterministically damage live state on ``vertex`` (test hook).

    Kinds: ``span`` tampers a span-registry window; ``point`` bumps a
    scheduled-point's usage — both in the vertex planner that holds spans
    (``plans`` for a pool quantity, else ``xplans``); ``aggregate`` bumps a
    pruning-filter point's usage (the paper's aggregate DFU data);
    ``structure`` perturbs the vertex ``size`` field.  The damage is a pure
    function of ``(vertex name, kind, salt)`` so journal replay re-applies
    it exactly.  Returns False (and changes nothing) when the vertex has no
    state of the requested kind — keeping a journaled no-op replayable as a
    no-op.
    """
    rng = random.Random(salt ^ zlib.crc32(vertex.name.encode("utf-8")))
    if kind == "span":
        planner = _held_planner(vertex)
        if planner is None:
            return False
        registry = planner._spans
        sid = sorted(registry)[rng.randrange(len(registry))]
        start, end, request, metadata = registry[sid]
        registry[sid] = (start, end + 1 + rng.randrange(7), request, metadata)
        return True
    if kind in ("point", "aggregate"):
        if kind == "point":
            planner = _held_planner(vertex)
            if planner is None:
                return False
        else:
            filters = vertex.prune_filters
            if filters is None:
                return False
            candidates = [
                t
                for t in filters.types
                if filters.planner(t)._sp is not None
                or filters.planner(t).span_count
            ]
            if not candidates:
                return False
            planner = filters.planner(
                candidates[rng.randrange(len(candidates))]
            )
        if planner._sp is None:
            planner._ensure_tree()  # a planner holding runs: charge its tree
        points = list(planner._sp)
        point = points[rng.randrange(len(points))]
        # Points are unique in time, so this charges exactly one of them;
        # _shift keeps the tree's remaining-resource index (if it has one) in
        # step, so the tree stays structurally valid: only the usage *values*
        # are corrupted.
        planner._shift(point.time, point.time + 1, 1 + rng.randrange(3))
        return True
    if kind == "structure":
        vertex.size += 1 + rng.randrange(3)
        # A write to ``size`` like any other: what the matcher derived
        # from the old value (see ResourceGraph.structure) goes with it.
        sim.graph.note_change(structural=True)
        return True
    raise IntegrityError(f"unknown corruption kind: {kind!r}")
