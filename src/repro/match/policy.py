"""Match policies: pluggable candidate scoring (paper §3.2, §3.5).

The traverser walks the resource graph and, at each matching level, asks the
policy how to rank candidate vertices — the paper's match callback with its
"user- or admin-specified scoring mechanism" (ID-based, locality-aware, or
performance-class based).  Policies never see planner internals or mutate the
graph; the separation of concerns keeps them tiny (§3.5).

Two hooks:

``key(vertex, request)``
    Sort key; lower sorts first.  This is the scoring callback.
``choose(feasible, needed, request)``
    Optional whole-set selection for policies that need a global view, such
    as the variation-aware policy (§5.2) which picks the window of nodes
    with the smallest performance-class spread.  Policies that implement it
    must set ``needs_full_feasible = True`` so the traverser materialises
    the feasible set.  Candidates are evaluated lazily, as the walk finds
    them, only under a policy that keeps discovery order (only ``first``)
    and for a request without sub-requests that is not a pool quantity fill.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..errors import MatchError
from ..jobspec import ResourceRequest
from ..resource import ResourceVertex

__all__ = [
    "CallbackPolicy",
    "MatchPolicy",
    "FirstMatch",
    "HighIdFirst",
    "LowIdFirst",
    "LocalityAware",
    "VariationAware",
    "VariationGreedy",
    "POLICIES",
    "keeps_discovery_order",
    "make_policy",
]


def keeps_discovery_order(policy: "MatchPolicy") -> bool:
    """The one test of "does this policy rank?" (the walk asks it too): no
    own ``key`` or ``order``, and no whole feasible set needed."""
    cls = type(policy)
    return (cls.key is MatchPolicy.key and cls.order is MatchPolicy.order
            and not policy.needs_full_feasible)


class MatchPolicy:
    """Base policy: candidates in discovery order, first-fit selection."""

    #: Registry name.
    name = "first"
    #: When True the traverser materialises the full feasible candidate set
    #: and calls :meth:`choose`; when False it tries them one by one in
    #: :meth:`key` order (lazily only where the module docstring says).
    needs_full_feasible = False

    def key(self, vertex: ResourceVertex, request: ResourceRequest) -> Any:
        """Sort key for candidate ordering (lower = preferred).

        None for every vertex keeps discovery order, for some a MatchError.
        """
        return None

    def order(self, candidates: Iterable, request: ResourceRequest) -> Iterable:
        """Order candidate entries (``entry.vertex`` is the vertex); those
        of a policy that keeps discovery order may be a lazy walk."""
        if keeps_discovery_order(self):
            return candidates
        keys = [self.key(c.vertex, request) for c in candidates]
        unkeyed = keys.count(None)
        if unkeyed == len(keys):
            return candidates
        if unkeyed:
            raise MatchError(f"match policy {self.name!r}: key is None for "
                             f"{unkeyed} of {len(keys)} {request.type!r} candidates")
        ranked = sorted(range(len(keys)), key=keys.__getitem__)
        return [candidates[i] for i in ranked]

    def choose(
        self,
        feasible: Sequence,
        needed: int,
        request: ResourceRequest,
    ) -> Optional[List]:
        """Return a preference-ordered list of candidate entries to try.

        Called only when ``needs_full_feasible`` is True.  May return more
        than ``needed`` entries (extras are fallbacks); returning None or a
        too-short list fails the match at this level.
        """
        return list(feasible)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} policy={self.name!r}>"


class FirstMatch(MatchPolicy):
    """Take candidates in graph discovery order (fastest)."""

    name = "first"


class HighIdFirst(MatchPolicy):
    """Prefer higher vertex ids — one of the paper's §6.3 baselines."""

    name = "high"

    def key(self, vertex: ResourceVertex, request: ResourceRequest) -> Any:
        return (-vertex.id, -vertex.uniq_id)


class LowIdFirst(MatchPolicy):
    """Prefer lower vertex ids — the paper's other §6.3 baseline."""

    name = "low"

    def key(self, vertex: ResourceVertex, request: ResourceRequest) -> Any:
        return (vertex.id, vertex.uniq_id)


class LocalityAware(MatchPolicy):
    """Pack selections along the containment hierarchy.

    Sorting candidates by their canonical containment path groups siblings
    (same node, same rack) next to each other, so multi-vertex selections
    land in as few subtrees as possible.
    """

    name = "locality"

    def key(self, vertex: ResourceVertex, request: ResourceRequest) -> Any:
        return (vertex.path("containment"), vertex.id)


class VariationAware(MatchPolicy):
    """Performance-variation-aware node selection (paper §5.2 / §6.3).

    Nodes carry a ``perf_class`` property (1 = fastest bin, Eq. 1).  The
    policy sorts candidates by class then id, and chooses the contiguous
    window of the needed size that minimises the class spread — all ranks in
    one class when possible, minimal ``max(P_j) - min(P_j)`` otherwise
    (exactly the figure of merit of Eq. 2).
    """

    name = "variation"
    needs_full_feasible = True

    def __init__(self, class_property: str = "perf_class", default_class: int = 0):
        self.class_property = class_property
        self.default_class = default_class

    def _class(self, vertex: ResourceVertex) -> int:
        return vertex.properties.get(self.class_property, self.default_class)

    def key(self, vertex: ResourceVertex, request: ResourceRequest) -> Any:
        return (self._class(vertex), vertex.id)

    def choose(
        self,
        feasible: Sequence,
        needed: int,
        request: ResourceRequest,
    ) -> Optional[List]:
        entries = sorted(feasible, key=lambda c: self.key(c.vertex, request))
        if len(entries) < needed:
            return entries  # too short; the traverser will fail the level
        if needed == 0:
            return []
        classes = [self._class(c.vertex) for c in entries]
        best_start = 0
        best_spread = classes[needed - 1] - classes[0]
        for start in range(1, len(entries) - needed + 1):
            spread = classes[start + needed - 1] - classes[start]
            if spread < best_spread:
                best_spread = spread
                best_start = start
                if spread == 0:
                    break
        window = entries[best_start : best_start + needed]
        rest = entries[:best_start] + entries[best_start + needed :]
        return window + rest


class VariationGreedy(VariationAware):
    """Ablation variant of the variation-aware policy (§5.2).

    Same class-then-id ordering, but *greedy first-fit* instead of the
    minimum-spread window: it packs jobs into the fastest free class and
    pays a class-boundary crossing whenever one class cannot hold the whole
    job.  The fom benches contrast it with the window policy to show why
    the window selection matters.
    """

    name = "variation-greedy"
    needs_full_feasible = False


class CallbackPolicy(MatchPolicy):
    """User-supplied scoring callback (the paper's pluggable match callback,
    §3.2: "a user- or admin-specified scoring mechanism").

    Parameters
    ----------
    key:
        ``key(vertex, request) -> sortable`` — lower sorts first.
    name:
        Registry-style label for diagnostics.
    choose:
        Optional ``choose(feasible, needed, request) -> list`` whole-set
        selection hook; providing one sets ``needs_full_feasible``.
    """

    def __init__(
        self,
        key: Callable[[ResourceVertex, ResourceRequest], Any],
        name: str = "callback",
        choose: Optional[Callable[[Sequence, int, ResourceRequest], Optional[List]]] = None,
    ) -> None:
        self._key = key
        self.name = name
        self._choose = choose
        self.needs_full_feasible = choose is not None

    def key(self, vertex: ResourceVertex, request: ResourceRequest) -> Any:
        return self._key(vertex, request)

    def choose(
        self,
        feasible: Sequence,
        needed: int,
        request: ResourceRequest,
    ) -> Optional[List]:
        if self._choose is None:
            return list(feasible)
        return self._choose(feasible, needed, request)


#: Policy registry: name -> zero-argument factory.
POLICIES: Dict[str, Callable[[], MatchPolicy]] = {
    "first": FirstMatch,
    "high": HighIdFirst,
    "low": LowIdFirst,
    "locality": LocalityAware,
    "variation": VariationAware,
    "variation-greedy": VariationGreedy,
}


def make_policy(name: str) -> MatchPolicy:
    """Instantiate a registered policy by name."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise MatchError(
            f"unknown match policy {name!r}; known: {sorted(POLICIES)}"
        ) from None
