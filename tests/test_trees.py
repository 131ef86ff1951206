"""Direct tests for the SP tree and its remaining-resource index, and for the
ET tree of the paper's Algorithm 1 (§4.1), which lives in repro.baselines."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ETTree
from repro.planner.rbtree import RBNode, RBTree
from repro.planner.span import ScheduledPoint
from repro.planner.trees import SPTree


def make_points(specs):
    """specs: iterable of (time, remaining) with total implied as 100."""
    return [ScheduledPoint(t, 100 - r, r) for t, r in specs]


def points_in(tree, start, end=None):
    """Points with start <= time < end (no end: all later ones), in time
    order: one ``ceiling`` descent, then ``successor`` steps."""
    point, found = tree.ceiling(start), []
    while point is not None and (end is None or point.key < end):
        found.append(point)
        point = tree.successor(point)
    return found


class TestSPTree:
    """The SP tree is an RBTree whose nodes are the scheduled points: the
    time-based questions are the tree's own find / floor / ceiling /
    successor / delete_node."""

    def test_a_point_is_its_node(self):
        tree = SPTree()
        point = ScheduledPoint(7, 2, 5, ref_count=1)
        assert isinstance(tree, RBTree) and isinstance(point, RBNode)
        assert tree.insert_node(point) is point
        assert (point.time, point.key, point.value) == (7, 7, None)
        assert (point.in_use, point.remaining, point.ref_count) == (2, 5, 1)
        assert not hasattr(tree, "_tree") and not hasattr(point, "__dict__")
        with pytest.raises(KeyError):
            tree.insert_node(ScheduledPoint(7, 0, 7))
        assert list(tree) == [point]

    def test_insert_and_get(self):
        tree = SPTree()
        points = make_points([(0, 10), (5, 3), (9, 7)])
        for point in points:
            tree.insert_node(point)
        assert len(tree) == 3
        assert tree.find(5) is points[1]
        assert tree.find(4) is None

    def test_state_at_floor_semantics(self):
        tree = SPTree()
        for point in make_points([(0, 10), (10, 5), (20, 8)]):
            tree.insert_node(point)
        assert tree.floor(0).remaining == 10
        assert tree.floor(9).remaining == 10
        assert tree.floor(10).remaining == 5
        assert tree.floor(15).remaining == 5
        assert tree.floor(99).remaining == 8

    def test_iter_range_half_open(self):
        tree = SPTree()
        for point in make_points([(0, 1), (5, 2), (10, 3), (15, 4)]):
            tree.insert_node(point)
        assert [p.time for p in points_in(tree, 5, 15)] == [5, 10]
        assert [p.time for p in points_in(tree, 1, 5)] == []
        assert [p.time for p in points_in(tree, 10)] == [10, 15]

    def test_first_at_or_after(self):
        tree = SPTree()
        for point in make_points([(3, 1), (7, 2)]):
            tree.insert_node(point)
        assert tree.ceiling(0).time == 3
        assert tree.ceiling(4).time == 7
        assert tree.ceiling(8) is None

    def test_remove(self):
        tree = SPTree()
        points = make_points([(0, 1), (5, 2)])
        for point in points:
            tree.insert_node(point)
        tree.delete_node(points[0])
        assert tree.find(0) is None
        assert len(tree) == 1
        tree.check_invariants()


class TestSPTreeIndex:
    """The (lowest, highest) remaining index and the two descents it guides."""

    def build(self, specs):
        tree = SPTree()
        for point in make_points(specs):
            tree.insert_node(point)
        return tree

    def test_off_until_asked_for(self):
        tree = self.build([(0, 10), (5, 3)])
        assert not tree.indexed
        tree.shift(0, 6, 1)
        assert not tree.indexed
        tree.index()
        assert tree.indexed
        tree.check_invariants()

    def test_descents_are_at_or_after(self):
        tree = self.build([(0, 10), (5, 3), (9, 7), (12, 2), (20, 10)])
        tree.index()
        assert tree.first_covering(0, 10).time == 0
        assert tree.first_covering(1, 10).time == 20
        assert tree.first_covering(5, 7).time == 9
        assert tree.first_covering(21, 1) is None
        assert tree.first_covering(0, 11) is None
        assert tree.first_short(0, 10).time == 5
        assert tree.first_short(6, 3).time == 12
        assert tree.first_short(13, 10) is None
        assert tree.first_short(0, 2) is None

    def test_shift_keeps_the_index_in_step(self):
        tree = self.build([(t, 10) for t in range(0, 100, 5)])
        tree.index()
        tree.shift(20, 41, 4)  # points 20..40 drop to 6
        tree.check_invariants()
        assert tree.first_short(0, 7).time == 20
        assert tree.first_covering(20, 7).time == 45
        assert [p.remaining for p in points_in(tree, 15, 50)] == [10, 6, 6, 6, 6, 6, 10]
        tree.shift(20, 41, -4)
        tree.check_invariants()
        assert tree.first_short(0, 7) is None

    def test_earliest_fit_hops_from_one_free_run_to_the_next(self):
        # free (>= 5) runs: [10, 12), [20, 23), [30, ...); (time, hops)
        tree = self.build(
            [(0, 0), (10, 5), (12, 0), (20, 9), (21, 5), (23, 1), (30, 6)]
        )
        tree.index()
        assert tree.earliest_fit(0, 2, 5) == (10, 1)
        assert tree.earliest_fit(0, 3, 5) == (20, 2)
        assert tree.earliest_fit(0, 4, 5) == (30, 3)
        assert tree.earliest_fit(11, 2, 5) == (20, 1)  # 11 itself is too late
        assert tree.earliest_fit(11, 1, 5) == (11, 0)
        assert tree.earliest_fit(0, 1, 10) == (None, 0)
        assert tree.earliest_fit(22, 1, 7) == (None, 0)


class TestETTree:
    def test_find_earliest_basic(self):
        tree = ETTree()
        # (time, remaining): request 5 satisfiable at times 2 and 9.
        for point in make_points([(2, 7), (4, 3), (9, 100)]):
            tree.insert(point)
        assert tree.find_earliest(5).time == 2
        assert tree.find_earliest(8).time == 9
        assert tree.find_earliest(3).time == 2
        assert tree.find_earliest(101) is None

    def test_duplicate_remaining_values(self):
        tree = ETTree()
        for point in make_points([(10, 5), (3, 5), (7, 5)]):
            tree.insert(point)
        assert tree.find_earliest(5).time == 3

    def test_remove_and_requery(self):
        tree = ETTree()
        points = make_points([(1, 10), (2, 10)])
        for point in points:
            tree.insert(point)
        tree.remove(points[0])
        assert tree.find_earliest(10).time == 2
        tree.check_invariants()

    def test_empty_tree(self):
        tree = ETTree()
        assert tree.find_earliest(1) is None
        assert len(tree) == 0

    def test_stale_key_removal_fails(self):
        """Removal requires the remaining value from insert time (a planner
        built on this tree re-inserts a point whenever its remaining changes)."""
        tree = ETTree()
        point = ScheduledPoint(5, 0, 10)
        tree.insert(point)
        point.remaining = 7
        with pytest.raises(KeyError):
            tree.remove(point)

    def test_random_against_bruteforce(self):
        rng = random.Random(13)
        tree = ETTree()
        alive = []
        for step in range(800):
            if alive and rng.random() < 0.4:
                point = alive.pop(rng.randrange(len(alive)))
                tree.remove(point)
            else:
                point = ScheduledPoint(step, 0, rng.randrange(0, 101))
                tree.insert(point)
                alive.append(point)
            if step % 97 == 0:
                tree.check_invariants()
                for request in (0, 1, 50, 100):
                    expected = min(
                        (p.time for p in alive if p.remaining >= request),
                        default=None,
                    )
                    got = tree.find_earliest(request)
                    assert (got.time if got else None) == expected


@given(
    st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(0, 128)),
        unique_by=lambda pair: pair[0],  # unique times
        min_size=1,
        max_size=80,
    ),
    st.integers(0, 128),
)
@settings(max_examples=80, deadline=None)
def test_property_et_find_earliest_matches_bruteforce(specs, request):
    tree = ETTree()
    points = [ScheduledPoint(t, 0, r) for t, r in specs]
    for point in points:
        tree.insert(point)
    expected = min((p.time for p in points if p.remaining >= request), default=None)
    got = tree.find_earliest(request)
    assert (got.time if got else None) == expected
    tree.check_invariants()


@given(
    st.lists(
        st.tuples(st.integers(0, 500), st.integers(0, 64)),
        unique_by=lambda pair: pair[0],
        min_size=2,
        max_size=60,
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_property_et_survives_removals(specs, rnd):
    tree = ETTree()
    points = [ScheduledPoint(t, 0, r) for t, r in specs]
    for point in points:
        tree.insert(point)
    keep = [p for p in points if rnd.random() < 0.5]
    for point in points:
        if point not in keep:
            tree.remove(point)
    for request in (0, 32, 64):
        expected = min((p.time for p in keep if p.remaining >= request), default=None)
        got = tree.find_earliest(request)
        assert (got.time if got else None) == expected


# ----------------------------------------------------------------------
# the SP tree's index against brute force
# ----------------------------------------------------------------------
index_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 300), st.integers(0, 32)),
        st.tuples(st.just("remove"), st.integers(0, 300)),
        st.tuples(st.just("shift"), st.integers(0, 300), st.integers(1, 120),
                  st.integers(-8, 8)),
        # every point moves behind the tree's back, then one pass re-indexes
        st.tuples(st.just("reindex"), st.integers(-4, 4)),
    ),
    min_size=1,
    max_size=60,
)


def _subtree_ranges(tree):
    """(lowest, highest) remaining of every subtree, recomputed from nothing."""
    nil = tree.nil

    def walk(node):
        if node is nil:
            return []
        below = walk(node.left) + [node.remaining] + walk(node.right)
        assert node.aug == (min(below), max(below)), node
        return below

    return walk(tree.root)


@given(index_ops, st.integers(0, 59))
@settings(max_examples=150, deadline=None)
def test_property_sp_index_descents_match_linear_scan(ops, index_at):
    """Random insert / remove / shift / re-index sequences: once switched on
    (at a random step), every node's range equals a recomputation and both
    descents equal a scan over the points in time order."""
    tree = SPTree()
    points = {}
    for step, op in enumerate(ops):
        kind, *args = op
        if kind == "insert" and args[0] not in points:
            points[args[0]] = ScheduledPoint(args[0], 32 - args[1], args[1])
            tree.insert_node(points[args[0]])
        elif kind == "remove" and points:
            tree.delete_node(points.pop(sorted(points)[args[0] % len(points)]))
        elif kind == "shift":
            before = {t: p.remaining for t, p in points.items()}
            tree.shift(args[0], args[0] + args[1], args[2])
            for t, p in points.items():
                inside = args[0] <= t < args[0] + args[1]
                assert p.remaining == before[t] - (args[2] if inside else 0)
        elif kind == "reindex":
            for point in points.values():
                point.remaining += args[0]
            if tree.indexed:
                tree.index()
        if step == min(index_at, len(ops) - 1):
            tree.index()
        if not tree.indexed:
            continue
        tree.check_invariants()
        _subtree_ranges(tree)
        in_order = [points[t] for t in sorted(points)]
        for time in (0, 37, 150, 299, 301):
            for request in (0, 7, 16, 33):
                later = [p for p in in_order if p.time >= time]
                covering = next((p for p in later if p.remaining >= request), None)
                short = next((p for p in later if p.remaining < request), None)
                assert tree.first_covering(time, request) is covering
                assert tree.first_short(time, request) is short
