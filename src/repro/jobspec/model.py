"""Canonical jobspec model — the abstract resource request graph (paper §4.2).

A jobspec's ``resources`` section is a small graph: each vertex names a
resource type and requested quantity, edges are ``contains`` relationships,
and the special ``slot`` vertex marks the resource shape that program
processes will be contained in — everything beneath a slot is exclusively
allocated (paper Fig. 4).

Quantity semantics follow the graph model's pool concept:

* requests for *unit* resources (vertices whose pools have size 1 — cores,
  gpus, nodes) select ``count`` distinct vertices;
* requests for *pool* resources (memory, bandwidth, storage) aggregate
  ``count`` units across pool vertices.

The distinction is resolved at match time from the candidate pool sizes, not
here, so the same jobspec works against graphs built at different levels of
detail (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, ClassVar, Dict, Iterator, Optional, Tuple

from ..errors import JobspecError

__all__ = ["ResourceRequest", "Jobspec", "SLOT"]

#: The non-physical grouping vertex type.
SLOT = "slot"


@dataclass(frozen=True)
class ResourceRequest:
    """One vertex of the abstract resource request graph.

    ``exclusive`` tristate: True/False force the mode; None inherits — shared
    by default, exclusive anywhere beneath a slot.  ``count_max`` turns the
    count into a *moldable* range [count, count_max]: the matcher takes as
    much as is available, failing only below the minimum (§5.5).
    ``requires`` is a property-constraint expression evaluated against
    candidate vertices (same language as
    :func:`repro.resource.find_by_expression`), e.g.
    ``"perf_class<=2 and vendor=amd"``.
    """

    type: str
    count: int = 1
    exclusive: Optional[bool] = None
    label: Optional[str] = None
    unit: str = ""
    count_max: Optional[int] = None
    requires: Optional[str] = None
    with_: Tuple["ResourceRequest", ...] = ()
    #: ``requires`` compiled at construction (None when unconstrained)
    predicate: ClassVar[Optional[Callable[[object], bool]]] = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise JobspecError(
                f"request count must be >= 1, got {self.count} for {self.type!r}"
            )
        if self.count_max is not None and self.count_max < self.count:
            raise JobspecError(
                f"count max {self.count_max} below min {self.count}"
                f" for {self.type!r}"
            )
        if self.type == SLOT and self.exclusive is False:
            raise JobspecError("slot subtrees are exclusive by definition")
        if self.type == SLOT and self.is_moldable:
            raise JobspecError(
                "moldable counts go on resources inside the slot, not on it"
            )
        if self.requires is not None:
            # Compile the constraint expression eagerly so malformed
            # jobspecs fail at construction, not at match time.
            from ..resource.expr import ExpressionError, compile_expression

            try:
                compiled = compile_expression(self.requires)
            except ExpressionError as exc:
                raise JobspecError(
                    f"{self.type}: invalid requires expression: {exc}"
                ) from exc
            object.__setattr__(self, "predicate", compiled)

    @property
    def is_slot(self) -> bool:
        return self.type == SLOT

    @property
    def is_moldable(self) -> bool:
        """True when the request accepts a count range (moldability, §5.5)."""
        return self.count_max is not None and self.count_max > self.count

    @property
    def max_count(self) -> int:
        """Upper bound the matcher may satisfy (equals count when fixed)."""
        return self.count if self.count_max is None else self.count_max

    def walk(self) -> Iterator["ResourceRequest"]:
        """Pre-order traversal of this request subtree."""
        yield self
        for child in self.with_:
            yield from child.walk()

    def effective_exclusive(self, inherited: bool = False) -> bool:
        """Exclusivity of this vertex given the context above it."""
        if self.exclusive is not None:
            return self.exclusive
        return inherited or self.is_slot

    # Derived once per request and kept on the instance (the fields are
    # frozen, so they cannot go stale): the matcher asks for them on every
    # attempt and a backlogged queue retries the same jobspec every cycle.
    @cached_property
    def unit_demand(self) -> Dict[str, int]:
        """Quantity per type one instance of this request needs beneath it
        (itself excluded) — what an interior pruning filter is asked for."""
        demand: Dict[str, int] = {}
        for child in self.with_:
            _accumulate(child, 1, demand)
        return demand

    @cached_property
    def scaled_children(self) -> Tuple["ResourceRequest", ...]:
        """Children with counts multiplied by this request's count: a slot
        is a grouping shape matched as that many of each child (§4.2)."""
        return tuple(
            replace(
                child,
                count=child.count * self.count,
                count_max=(
                    None
                    if child.count_max is None
                    else child.count_max * self.count
                ),
            )
            for child in self.with_
        )

    def to_dict(self) -> dict:
        """Serialise back to the canonical YAML-ready form."""
        out: dict = {"type": self.type, "count": self.count}
        if self.count_max is not None:
            out["count"] = {"min": self.count, "max": self.count_max}
        if self.requires is not None:
            out["requires"] = self.requires
        if self.exclusive is not None:
            out["exclusive"] = self.exclusive
        if self.label is not None:
            out["label"] = self.label
        if self.unit:
            out["unit"] = self.unit
        if self.with_:
            out["with"] = [child.to_dict() for child in self.with_]
        return out


def _accumulate(
    request: ResourceRequest, multiplier: int, totals: Dict[str, int]
) -> None:
    """Add ``request``'s subtree to ``totals``; counts multiply down the
    tree and slots multiply their children but add nothing themselves."""
    if not request.is_slot:
        totals[request.type] = (
            totals.get(request.type, 0) + multiplier * request.count
        )
    for child in request.with_:
        _accumulate(child, multiplier * request.count, totals)


@dataclass(frozen=True)
class Jobspec:
    """A canonical job specification.

    Attributes
    ----------
    resources:
        Top-level request vertices (usually one).
    duration:
        Requested walltime in ticks (``attributes.system.duration``).
    attributes:
        Remaining system/user attributes, verbatim.
    version:
        Jobspec language version (always 1 here).
    """

    resources: Tuple[ResourceRequest, ...]
    duration: int = 3600
    attributes: Dict = field(default_factory=dict)
    version: int = 1

    def __post_init__(self) -> None:
        if not self.resources:
            raise JobspecError("jobspec must request at least one resource")
        if self.duration < 1:
            raise JobspecError(f"duration must be >= 1, got {self.duration}")
        for root in self.resources:
            self._validate_slots(root, seen_slot=False)

    @staticmethod
    def _validate_slots(request: ResourceRequest, seen_slot: bool) -> None:
        if request.is_slot:
            if seen_slot:
                raise JobspecError("nested slot vertices are not allowed")
            if not request.with_:
                raise JobspecError("slot must contain at least one resource")
            seen_slot = True
        for child in request.with_:
            Jobspec._validate_slots(child, seen_slot)

    def walk(self) -> Iterator[ResourceRequest]:
        """Pre-order traversal over every request vertex."""
        for root in self.resources:
            yield from root.walk()

    @property
    def shape(self) -> Tuple[ResourceRequest, ...]:
        """What is asked for, without for how long: the request tree as one
        hashable value, equal for jobspecs that differ only in duration or
        attributes.  The key for anything remembered per kind of request."""
        return self.resources

    @cached_property
    def total_demand(self) -> Dict[str, int]:
        """:meth:`totals`, computed once; shared, so read-only."""
        totals: Dict[str, int] = {}
        for root in self.resources:
            _accumulate(root, 1, totals)
        return totals

    def totals(self) -> Dict[str, int]:
        """Aggregate requested quantity per resource type.

        Counts multiply down the tree (``rack:2 with node:3`` totals 6
        nodes); slots multiply their children but contribute nothing
        themselves; moldable ranges count their minimum.  No match can use
        less, so the traverser holds these totals against the pruning
        filters of the root and of its children before walking anything:
        ``allocate`` fails at once when the window cannot cover them, and
        ``allocate_orelse_reserve`` skips to the first time the root's
        filter can (§3.4).
        """
        return dict(self.total_demand)

    def to_dict(self) -> dict:
        """Serialise to the canonical YAML-ready dict form."""
        attributes = dict(self.attributes)
        system = dict(attributes.get("system", {}))
        system["duration"] = self.duration
        attributes["system"] = system
        return {
            "version": self.version,
            "resources": [r.to_dict() for r in self.resources],
            "attributes": attributes,
        }

    def summary(self) -> str:
        """One-line human description, e.g. ``node:2[slot:1[core:4]] @3600``."""

        def fmt(request: ResourceRequest) -> str:
            inner = ",".join(fmt(c) for c in request.with_)
            excl = "!" if request.effective_exclusive() else ""
            return f"{request.type}{excl}:{request.count}" + (
                f"[{inner}]" if inner else ""
            )

        body = ",".join(fmt(r) for r in self.resources)
        return f"{body} @{self.duration}"
