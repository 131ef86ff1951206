"""Match writers: the selected resource set a match emits (paper §3.2 step 7).

A successful traversal produces an :class:`Allocation` — the best-matching
resource subgraph with per-vertex amounts and exclusivity — which the
underlying resource manager uses to contain, bind and execute the job.  The
``to_rlite`` form mirrors Flux's R-lite allocation documents.

What an allocation books is stated once, by :func:`allocation_bookings`
(its selections' spans, then SDFU's filter charges, §3.4), and written in
one place, :func:`book`, which planned outages share.
"""

from __future__ import annotations

from typing import (
    Any, Collection, Dict, Iterator, List, Mapping, Optional, Tuple,
)

from ..errors import RecoveryError
from ..resource import ResourceGraph, ResourceVertex
from ..resource.vertex import PLANNER_KINDS, X_LIMIT

__all__ = [
    "Selection", "Allocation", "ExclusivityIndex", "planner_owner_index",
    "allocation_bookings", "book", "exclusive_top_selections", "sdfu_charges",
]


def planner_owner_index(graph: ResourceGraph) -> Dict[int, Tuple[str, str]]:
    """Map ``id(planner object)`` -> ``(vertex name, kind)`` for every
    planner a graph owns (``plans``, ``xplans`` and pruning ``filter``).

    Allocation span records hold bare planner references; this index lets
    :meth:`Allocation.to_record` name them durably.
    """
    index: Dict[int, Tuple[str, str]] = {}
    for vertex in graph.vertices():
        index[id(vertex.plans)] = (vertex.name, "plans")
        index[id(vertex.xplans)] = (vertex.name, "xplans")
        if vertex.prune_filters is not None:
            index[id(vertex.prune_filters)] = (vertex.name, "filter")
    return index


class Selection:
    """One vertex's contribution to an allocation.

    ``amount`` is the pool quantity taken (0 for shared pass-through
    vertices, which participate only for exclusivity tracking); ``exclusive``
    marks a whole-pool exclusive hold, whose ``amount`` is always the
    vertex's size; ``passthrough`` marks interior vertices on the path
    between the request level and the selected resources.

    A selection books exactly one span, in the planner that carries its
    fact (:attr:`booking`): an exclusive hold ``X_LIMIT`` in ``xplans``, a
    pool-quantity fill its ``amount`` in ``plans``, a shared or pass-through
    selection 1 in ``xplans``.

    Slotted plain class: every match emits one Selection per
    booked vertex, and the per-instance dict a dataclass carries is
    measurable overhead at fill-the-machine rates.  Treated as immutable.
    """

    __slots__ = ("vertex", "amount", "exclusive", "passthrough")

    def __init__(
        self,
        vertex: ResourceVertex,
        amount: int,
        exclusive: bool = False,
        passthrough: bool = False,
    ) -> None:
        self.vertex = vertex
        self.amount = amount
        self.exclusive = exclusive
        self.passthrough = passthrough

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Selection):
            return NotImplemented
        return (
            self.vertex == other.vertex
            and self.amount == other.amount
            and self.exclusive == other.exclusive
            and self.passthrough == other.passthrough
        )

    def __hash__(self) -> int:
        return hash((self.vertex, self.amount, self.exclusive, self.passthrough))

    def __repr__(self) -> str:
        return (
            f"Selection(vertex={self.vertex!r}, amount={self.amount!r}, "
            f"exclusive={self.exclusive!r}, passthrough={self.passthrough!r})"
        )

    @property
    def type(self) -> str:
        return self.vertex.type

    @property
    def booking(self) -> Tuple[str, int]:
        """The one span this selection books: ``(planner kind, request)``.

        The booking rule, for the traverser, the expected-state derivation
        and planned outages alike."""
        if self.exclusive:
            return "xplans", X_LIMIT
        if self.amount:
            return "plans", self.amount
        return "xplans", 1


class Allocation:
    """A booked (or reserved) resource set.

    Attributes
    ----------
    alloc_id:
        Traverser-unique id; pass to ``Traverser.remove`` to free.
    at, duration:
        The booked window ``[at, at + duration)``.
    reserved:
        True when the allocation starts in the future (a reservation made by
        ``allocate_orelse_reserve``).
    selections:
        Every vertex booked, including shared pass-through vertices.
    _span_records:
        (planner-like object, span id) pairs to undo on removal;
        planner-like is a Planner (vertex plans/xplans) or PlannerMulti
        (pruning filter).
    _bookings:
        What those spans should hold, :func:`allocation_bookings` of the
        selections: the list :func:`book` wrote, kept at booking while the
        traverser's ``keep_bookings`` is on, or else derived by the first
        :class:`~repro.recovery.integrity.ExpectedState` that counts the
        allocation.  None until then, and again once the spans are
        released: the kept table re-counts an allocation whose memo is not
        the one it counted.  Selections never change once booked, so the
        list is kept instead of derived again.

    Slotted plain class: one Allocation per successful match.
    Mirrors the former (non-frozen) dataclass: equality compares all
    fields and instances are unhashable.
    """

    __slots__ = (
        "alloc_id", "at", "duration", "reserved", "selections",
        "_span_records", "_bookings",
    )

    def __init__(
        self,
        alloc_id: int,
        at: int,
        duration: int,
        reserved: bool,
        selections: List[Selection],
        _span_records: Optional[List[Tuple[object, int]]] = None,
    ) -> None:
        self.alloc_id = alloc_id
        self.at = at
        self.duration = duration
        self.reserved = reserved
        self.selections = selections
        self._span_records = [] if _span_records is None else _span_records
        self._bookings: Optional[list] = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Allocation):
            return NotImplemented
        return (
            self.alloc_id == other.alloc_id
            and self.at == other.at
            and self.duration == other.duration
            and self.reserved == other.reserved
            and self.selections == other.selections
            and self._span_records == other._span_records
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Allocation(alloc_id={self.alloc_id!r}, at={self.at!r}, "
            f"duration={self.duration!r}, reserved={self.reserved!r}, "
            f"selections={self.selections!r})"
        )

    @property
    def end(self) -> int:
        return self.at + self.duration

    def resources(self) -> List[Selection]:
        """Selections that carry actual resources (non-pass-through)."""
        return [s for s in self.selections if not s.passthrough]

    def vertices_of_type(self, rtype: str) -> List[ResourceVertex]:
        """Selected (non-pass-through) vertices of ``rtype``."""
        return [s.vertex for s in self.selections if not s.passthrough and s.type == rtype]

    def nodes(self) -> List[ResourceVertex]:
        """Convenience: selected compute nodes."""
        return self.vertices_of_type("node")

    def amount_of(self, rtype: str) -> int:
        """Total quantity of ``rtype`` in the allocation."""
        return sum(
            s.amount for s in self.selections if not s.passthrough and s.type == rtype
        )

    def to_rlite(self) -> dict:
        """R-lite-style document: per-path type/amount/exclusive entries."""
        children = [
            {
                "path": s.vertex.path("containment"),
                "type": s.type,
                "count": s.amount,
                "exclusive": s.exclusive,
            }
            for s in self.selections
            if not s.passthrough
        ]
        return {
            "version": 1,
            "execution": {
                "starttime": self.at,
                "expiration": self.end,
                "reserved": self.reserved,
            },
            "resources": children,
        }

    def to_rv1(self) -> dict:
        """R version-1 style document: R-lite resources plus a scheduling
        section carrying the full per-vertex detail (Fluxion attaches its
        scheduler-specific view under ``scheduling``)."""
        rlite = self.to_rlite()
        return {
            "version": 1,
            "execution": rlite["execution"],
            "scheduling": {
                "resources": [
                    {
                        "path": s.vertex.path("containment"),
                        "type": s.type,
                        "basename": s.vertex.basename,
                        "id": s.vertex.id,
                        "count": s.amount,
                        "exclusive": s.exclusive,
                        "passthrough": s.passthrough,
                    }
                    for s in self.selections
                ],
            },
            "resources": rlite["resources"],
        }

    # ------------------------------------------------------------------
    # snapshot records (crash recovery)
    # ------------------------------------------------------------------
    def to_record(self, planner_owner: Mapping[int, Tuple[str, str]]) -> dict:
        """Serialise this allocation for a scheduler snapshot.

        Unlike :meth:`to_rlite`, the record keeps everything needed to
        *re-install* the allocation exactly: pass-through selections and the
        ``(vertex, planner kind, span id)`` triples behind ``_span_records``.
        ``planner_owner`` maps ``id(planner_obj)`` to ``(vertex name, kind)``
        — build it with :func:`planner_owner_index`.
        """
        spans = []
        for planner, span_id in self._span_records:
            try:
                name, kind = planner_owner[id(planner)]
            except KeyError:
                raise RecoveryError(
                    f"allocation {self.alloc_id} books a planner not owned "
                    "by any graph vertex"
                ) from None
            spans.append({"vertex": name, "kind": kind, "span_id": span_id})
        return {
            "alloc_id": self.alloc_id,
            "at": self.at,
            "duration": self.duration,
            "reserved": self.reserved,
            "selections": [
                {
                    "vertex": s.vertex.name,
                    "amount": s.amount,
                    "exclusive": s.exclusive,
                    "passthrough": s.passthrough,
                }
                for s in self.selections
            ],
            "spans": spans,
        }

    @classmethod
    def from_record(
        cls,
        record: Mapping[str, Any],
        by_name: Mapping[str, ResourceVertex],
    ) -> "Allocation":
        """Rebuild an allocation from :meth:`to_record` output.

        ``by_name`` maps vertex names to the (already restored) graph's
        vertices.  Span records are resolved to their planners but not
        looked up in them: the recovery layer decides whether the planners
        are restored from the snapshot (and must hold every span) or rebuilt
        from these very records.
        """

        def vertex_of(name: str) -> ResourceVertex:
            try:
                return by_name[name]
            except KeyError:
                raise RecoveryError(
                    f"allocation record references unknown vertex {name!r}"
                ) from None

        selections = [
            Selection(
                vertex=vertex_of(s["vertex"]),
                amount=int(s["amount"]),
                exclusive=bool(s["exclusive"]),
                passthrough=bool(s["passthrough"]),
            )
            for s in record["selections"]
        ]
        span_records: List[Tuple[object, int]] = []
        for entry in record["spans"]:
            kind = entry["kind"]
            if kind not in PLANNER_KINDS:
                raise RecoveryError(f"unknown planner kind {kind!r}")
            planner = vertex_of(entry["vertex"]).planner_of(kind)
            span_records.append((planner, int(entry["span_id"])))
        return cls(
            alloc_id=int(record["alloc_id"]),
            at=int(record["at"]),
            duration=int(record["duration"]),
            reserved=bool(record["reserved"]),
            selections=selections,
            _span_records=span_records,
        )

    def to_pretty(self) -> str:
        """Render the selected resource set as an indented tree (Fluxion's
        "pretty" match writer): one line per selection, nested by containment
        path, pass-through vertices shown without amounts."""
        entries = sorted(
            self.selections, key=lambda s: s.vertex.path("containment")
        )
        lines = []
        for sel in entries:
            path = sel.vertex.path("containment")
            depth = max(path.count("/") - 1, 0)
            indent = "  " * depth
            if sel.passthrough:
                lines.append(f"{indent}{sel.vertex.name}")
            else:
                marker = "!" if sel.exclusive else ""
                amount = f"[{sel.amount}{sel.vertex.unit}]" if sel.amount else ""
                lines.append(f"{indent}{sel.vertex.name}{marker}{amount}")
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line description, e.g. ``t=[0,3600) node0{core:10,memory:8}``."""
        by_type: Dict[str, int] = {}
        for s in self.resources():
            by_type[s.type] = by_type.get(s.type, 0) + s.amount
        body = ",".join(f"{t}:{n}" for t, n in sorted(by_type.items()))
        flag = " reserved" if self.reserved else ""
        return f"t=[{self.at},{self.end}){flag} {{{body}}}"


# ----------------------------------------------------------------------
# the booking rule and the one writer
# ----------------------------------------------------------------------
def exclusive_top_selections(
    graph: ResourceGraph, selections: List[Selection], subsystem: str
) -> List[Selection]:
    """Exclusive selections not nested under another exclusive selection:
    none of their ancestors in ``subsystem`` is exclusively selected too."""
    exclusive = [s for s in selections if s.exclusive and not s.passthrough]
    held = {s.vertex.uniq_id for s in exclusive}
    return [
        s for s in exclusive
        if held.isdisjoint(graph.ancestry(s.vertex, subsystem)[1])
    ]


def sdfu_charges(
    graph: ResourceGraph, subsystem: str, selections: List[Selection]
) -> Dict[int, Dict[str, int]]:
    """Per-ancestor pruning-filter charges for a selection set (§3.4).

    Pure function of the graph and the selections: returns
    ``{ancestor uniq_id: {type: quantity}}`` in the deterministic order the
    charges are discovered, which is the order the filter spans are booked
    in.  Called by :func:`allocation_bookings`, nobody else.  Every count is
    positive; a filter that tracks none of the charged types keeps an empty
    bucket, which books nothing.  Linear in the selections: who holds a filter
    above a vertex, what is nested under what and what an exclusive hold
    closes below itself are read from the graph's structure-derived table
    (:meth:`ResourceGraph.ancestry`, :meth:`~ResourceGraph.tracked_below`),
    never re-derived per job.  Explicit amounts are summed per (filter
    chain, type) and each chain walked once: the dict, key and bucket order
    included, is the one a walk per selection builds.
    """
    prune_types = graph.prune_types
    updates: Dict[int, Dict[str, int]] = {}
    if not prune_types:
        return updates
    ancestry = graph.ancestry

    def charge(holders: Tuple[ResourceVertex, ...], rtype: str, qty: int) -> None:
        for anc in holders:
            bucket = updates.setdefault(anc.uniq_id, {})
            if anc.prune_filters.tracks(rtype):
                bucket[rtype] = bucket.get(rtype, 0) + qty

    explicit = [s for s in selections if not s.passthrough and s.amount]
    # first-seen order: every key and bucket lands where its first charge did
    sums: Dict[Tuple[Tuple[ResourceVertex, ...], str], int] = {}
    for sel in explicit:
        if sel.type in prune_types:
            key = (ancestry(sel.vertex, subsystem)[0], sel.type)
            sums[key] = sums.get(key, 0) + sel.amount
    for (holders, rtype), qty in sums.items():
        charge(holders, rtype, qty)
    # Exclusive subtree extras: a top-level exclusive hold consumes its
    # whole subtree, so charge what is below it minus explicit bookings.
    # A childless one has nothing below it.
    children = graph.children_tuple
    tops = exclusive_top_selections(
        graph,
        [s for s in selections if s.exclusive and children(s.vertex, subsystem)],
        subsystem,
    )
    if not tops:
        return updates
    below: Dict[int, Dict[str, int]] = {sel.vertex.uniq_id: {} for sel in tops}
    for sel in explicit:
        for uid in ancestry(sel.vertex, subsystem)[1]:
            booked = below.get(uid)
            if booked is not None:
                booked[sel.type] = booked.get(sel.type, 0) + sel.amount
    for sel in tops:
        vertex = sel.vertex
        booked = below[vertex.uniq_id]
        own = vertex.prune_filters
        for rtype, total in graph.tracked_below(vertex, subsystem).items():
            qty = total - booked.get(rtype, 0)
            if qty <= 0:
                continue
            if own is not None:
                bucket = updates.setdefault(vertex.uniq_id, {})
                if own.tracks(rtype):
                    bucket[rtype] = bucket.get(rtype, 0) + qty
            charge(ancestry(vertex, subsystem)[0], rtype, qty)
    return updates


def allocation_bookings(
    graph: ResourceGraph, subsystem: str, selections: List[Selection]
) -> List[Tuple[ResourceVertex, str, object]]:
    """What one allocation books: ``(vertex, planner kind, booked)`` triples.

    The booking rule, stated once: :meth:`Traverser._book
    <repro.match.traverser.Traverser._book>` writes this list through
    :func:`book`, and whatever has to know what the planners *should* hold
    (the expected state behind the auditor, the scrubber, fsck and snapshot
    salvage) derives it again; it lines up with ``Allocation._span_records``.
    Per selection the one span :attr:`Selection.booking` names, then, the
    Scheduler-Driven Filter Update (§3.4), per charged filter a ``filter``
    bundle of its :func:`sdfu_charges` counts.
    """
    bookings: List[Tuple[ResourceVertex, str, object]] = [
        (sel.vertex,) + sel.booking for sel in selections
    ]
    for uid, counts in sdfu_charges(graph, subsystem, selections).items():
        if counts:
            bookings.append((graph.vertex(uid), "filter", counts))
    return bookings


def book(
    bookings: List[Tuple[ResourceVertex, str, object]], start: int, duration: int
) -> List[Tuple[object, int]]:
    """Write ``bookings`` over ``[start, start + duration)``, all or nothing.

    The one place a span is written outside the planners: each
    ``(vertex, kind, booked)`` goes into ``vertex.planner_of(kind)``, and
    the ``(planner, span id)`` records come back in the same order.  On any
    failure what was written is removed, in reverse order, and the error
    re-raised.  BaseException on purpose: the rollback must also run when
    the failure is a SimulatedCrash, which bypasses Exception so that
    ordinary handlers cannot swallow it.
    """
    records: List[Tuple[object, int]] = []
    try:
        for vertex, kind, booked in bookings:
            planner = vertex.planner_of(kind)
            records.append((planner, planner.add_span(start, duration, booked)))
    except BaseException:
        for planner, span_id in reversed(records):
            planner.rem_span(span_id)
        raise
    return records


#: one selection of one allocation, as :meth:`ExclusivityIndex.conflicts`
#: names it: ``(selection, owner, allocation)``
Hold = Tuple[Selection, object, Allocation]

#: what a vertex nothing is indexed under holds (never mutated)
_NONE: Dict[int, List[Selection]] = {}


class ExclusivityIndex:
    """The one exclusivity rule, over a kept set of allocations.

    Nothing of another owner may use an exclusively held vertex, or a vertex
    below it in ``subsystem``, in an overlapping window.  Two maps are kept
    up to date as allocations are added and discarded: the exclusive holds
    by vertex, and the uses (every selection) by vertex and by each of its
    ancestors.  Asking about some allocations then costs what they select
    times the depth of the graph, not the whole set.  The expected state
    the auditor reads keeps one (owner = job id); FluxSan keeps one per
    traverser (owner = allocation id); a full audit is an index built from
    nothing, asked about every allocation.  An index is of one
    :attr:`ResourceGraph.shape`: when that moves, build a new one.
    """

    __slots__ = ("graph", "subsystem", "allocs", "held", "uses")

    def __init__(self, graph: ResourceGraph, subsystem: str) -> None:
        self.graph = graph
        self.subsystem = subsystem
        #: ``{alloc id: allocation}`` indexed
        self.allocs: Dict[int, Allocation] = {}
        #: ``{vertex uniq id: {alloc id: [exclusive selections of it]}}``
        self.held: Dict[int, Dict[int, List[Selection]]] = {}
        #: ``{vertex uniq id: {alloc id: [selections of it or below it]}}``
        self.uses: Dict[int, Dict[int, List[Selection]]] = {}

    def _keys(self, sel: Selection) -> Tuple[int, ...]:
        """The vertex of ``sel`` and every ancestor of it."""
        vertex = sel.vertex
        return (vertex.uniq_id,) + self.graph.ancestry(vertex, self.subsystem)[1]

    def add(self, alloc: Allocation) -> None:
        aid = alloc.alloc_id
        self.allocs[aid] = alloc
        held, uses, keys = self.held, self.uses, self._keys
        for sel in alloc.selections:
            if sel.exclusive:
                held.setdefault(sel.vertex.uniq_id, {}).setdefault(
                    aid, []).append(sel)
            for uid in keys(sel):
                uses.setdefault(uid, {}).setdefault(aid, []).append(sel)

    def discard(self, alloc_id: int) -> None:
        alloc = self.allocs.pop(alloc_id, None)
        if alloc is None:
            return
        held, uses = self.held, self.uses
        for uid in {s.vertex.uniq_id for s in alloc.selections if s.exclusive}:
            _drop(held, uid, alloc_id)
        for uid in {uid for sel in alloc.selections for uid in self._keys(sel)}:
            _drop(uses, uid, alloc_id)

    def sync(self, live: Mapping[int, Allocation]) -> None:
        """Index exactly the allocations of ``live`` (same ids, same
        objects)."""
        allocs = self.allocs
        for aid in [aid for aid, alloc in allocs.items()
                    if live.get(aid) is not alloc]:
            self.discard(aid)
        if len(allocs) != len(live):
            for aid, alloc in live.items():
                if aid not in allocs:
                    self.add(alloc)

    def conflicts(
        self,
        entered: Optional[Collection[int]] = None,
        owners: Optional[Mapping[int, object]] = None,
    ) -> Iterator[Tuple[Hold, Hold]]:
        """Exclusivity conflicts among the indexed allocations.

        Yields ``(hold, use)``: an exclusive hold of one owner and a use by
        another owner in an overlapping window, of the hold's own vertex or
        of a vertex below it.  ``entered`` names the allocation ids a
        conflict must involve (one that was not there at a previous check
        needs one); None is every pair.  ``owners`` maps an allocation id to
        its owner, and an allocation it does not name holds nothing; None
        makes each allocation its own owner (its id).
        """
        allocs, held, uses, keys = self.allocs, self.held, self.uses, self._keys
        for aid in allocs if entered is None else entered:
            alloc = allocs.get(aid)
            owner = aid if owners is None else owners.get(aid)
            if alloc is None or owner is None:
                continue
            for sel in alloc.selections:
                # an exclusive hold on this vertex or above it
                for uid in keys(sel):
                    for other, sels in held.get(uid, _NONE).items():
                        found = _pair(allocs, owners, other, owner, alloc)
                        if found is not None:
                            for hold in sels:
                                yield (hold,) + found, (sel, owner, alloc)
                if entered is None or not sel.exclusive:
                    continue
                # a use of this vertex or below it that did not enter (one
                # that did asked about its own holds above)
                for other, sels in uses.get(sel.vertex.uniq_id, _NONE).items():
                    if other in entered:
                        continue
                    found = _pair(allocs, owners, other, owner, alloc)
                    if found is not None:
                        for use in sels:
                            yield (sel, owner, alloc), (use,) + found


def _drop(index: Dict[int, Dict[int, List[Selection]]], uid: int, aid: int) -> None:
    by_alloc = index[uid]
    del by_alloc[aid]
    if not by_alloc:
        del index[uid]


def _pair(
    allocs: Mapping[int, Allocation],
    owners: Optional[Mapping[int, object]],
    other: int,
    owner: object,
    alloc: Allocation,
) -> Optional[Tuple[object, Allocation]]:
    """``(owner, allocation)`` of indexed allocation ``other`` when it
    belongs to another owner than ``owner`` and overlaps ``alloc``."""
    other_owner = other if owners is None else owners.get(other)
    if other_owner is None or other_owner == owner:
        return None
    found = allocs[other]
    if found.at < alloc.end and alloc.at < found.end:
        return other_owner, found
    return None
