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


# ----------------------------------------------------------------------
# the earliest-fit walk: time links first, then one descent
# ----------------------------------------------------------------------
def scan_fit(points, at, duration, request):
    """(fit, hops) by a scan over the points in time order, a hop counted
    at each covering point after a short one."""
    later = [p for p in points if p.time > at]
    before = [p for p in points if p.time <= at]
    start, hops = at, 0
    covering = before[-1].remaining >= request
    for point in later:
        if covering:
            if point.time >= start + duration:
                return start, hops
            covering = point.remaining >= request
        elif point.remaining >= request:
            start, hops, covering = point.time, hops + 1, True
    return (start if covering else None), hops


def run_calendar(rng, size, longest):
    """``size`` points at times 0, 10, 20, ...: alternating free and busy
    runs of 1 to ``longest`` points (remaining 5-8 and 0-4: a request of 5
    is covered by the free runs only)."""
    specs, free = [], rng.random() < 0.5
    while len(specs) < size:
        for _ in range(rng.randint(1, longest)):
            specs.append((10 * len(specs), rng.randint(5, 8) if free else rng.randint(0, 4)))
        free = not free
    return specs[:size]


@pytest.fixture
def descents(monkeypatch):
    """Every descent the walk makes: the point it starts from."""
    from repro.planner import trees

    starts = []
    descend = trees._descend

    def counted(tree, node, request, covering):
        starts.append(node)
        return descend(tree, node, request, covering)

    monkeypatch.setattr(trees, "_descend", counted)
    return starts


@pytest.mark.parametrize("longest", [1, 3, 40])
def test_earliest_fit_equals_a_scan_and_its_hops(longest, descents):
    """Runs shorter and longer than the link reach (8, the bit length of
    200): answers and hops equal a scan over the points.  Only runs longer
    than the reach make the walk descend."""
    rng = random.Random(longest)
    made = 0  # descents on the runs the calendar was drawn with
    for _ in range(30):
        points = [ScheduledPoint(t, 8 - r, r) for t, r in run_calendar(rng, 200, longest)]
        tree = SPTree()
        for point in points:
            tree.insert_node(point)
        tree.index()
        for _ in range(40):
            at = rng.randrange(0, 2000)
            duration = rng.randint(1, 10 * 2 * longest + 20)
            assert tree.earliest_fit(at, duration, 5) == scan_fit(points, at, duration, 5)
        made += len(descents)
        for request in (1, 3, 7, 8, 9):  # runs of other lengths
            at, duration = rng.randrange(0, 2000), rng.randint(1, 400)
            want = scan_fit(points, at, duration, request)
            assert tree.earliest_fit(at, duration, request) == want
        descents.clear()
    assert bool(made) is (longest > 8)


def test_fig6b_one_long_busy_run_costs_one_descent(descents):
    """2**14 points, a busy run of 10**4 of them after the first: the
    covering search follows ``reach`` (15) links into the run, then makes
    one descent, not one step per point."""
    size = 2**14
    tree = SPTree()
    for t in range(size):
        tree.insert_node(ScheduledPoint(t, 0, 0 if 1 <= t <= 10**4 else 8))
    tree.index()
    reach = size.bit_length()
    assert tree.earliest_fit(0, 2, 4) == (10**4 + 1, 1)
    assert len(descents) == 1
    assert 1 <= descents[0].time <= 1 + reach


def test_fig6b_the_short_search_stops_at_the_window_end(descents):
    """A free run of 10**4 points: the check of a 3-tick window reads the
    points up to its end, and nothing past it."""
    tree = SPTree()
    for t in range(10**4):
        tree.insert_node(ScheduledPoint(t, 0, 8))
    tree.index()
    assert tree.earliest_fit(0, 3, 4) == (0, 0)
    assert tree.first_short(0, 4) is None
    assert len(descents) == 1  # first_short's, past the reach: the fit made none


def test_random_updates_keep_every_index_entry_right():
    """Inserts, deletes and range charges on an indexed SP tree, and
    inserts and removals on an ET tree: ``check_invariants`` after every
    operation recomputes every node's ``aug``."""
    rng = random.Random(31)
    tree, et = SPTree(), ETTree()
    tree.index()
    points = {}
    for _ in range(1200):
        roll = rng.random()
        if points and roll < 0.35:
            point = points.pop(rng.choice(sorted(points)))
            tree.delete_node(point)
            et.remove(point)
        elif points and roll < 0.55:
            start = rng.randrange(500)
            delta = rng.randint(-2, 2)
            for time, point in points.items():
                if start <= time < start + 40:
                    et.remove(point)
            tree.shift(start, start + 40, delta)
            for time, point in points.items():
                if start <= time < start + 40:
                    et.insert(point)
        else:
            time = rng.randrange(500)
            if time not in points:
                points[time] = ScheduledPoint(time, 0, rng.randint(0, 6))
                tree.insert_node(points[time])
                et.insert(points[time])
        tree.check_invariants()
        et.check_invariants()
        _subtree_ranges(tree)
