"""Unit and property tests for the augmented red-black tree substrate."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planner.rbtree import RBTree


def make_tree(keys):
    tree = RBTree()
    for k in keys:
        tree.insert(k, f"v{k}")
    return tree


class TestBasicOperations:
    def test_empty_tree(self):
        tree = RBTree()
        assert len(tree) == 0
        assert not tree
        assert tree.minimum() is None
        assert tree.maximum() is None
        assert tree.find(1) is None
        assert list(tree) == []

    def test_single_insert_find(self):
        tree = RBTree()
        node = tree.insert(5, "five")
        assert len(tree) == 1
        assert tree.find(5) is node
        assert node.value == "five"

    def test_duplicate_key_rejected(self):
        tree = make_tree([1, 2, 3])
        with pytest.raises(KeyError):
            tree.insert(2, "again")

    def test_inorder_iteration_sorted(self):
        keys = [5, 3, 8, 1, 4, 7, 9, 2, 6]
        tree = make_tree(keys)
        assert list(tree.keys()) == sorted(keys)

    def test_min_max(self):
        tree = make_tree([10, 5, 20, 1, 15])
        assert tree.minimum().key == 1
        assert tree.maximum().key == 20

    def test_delete_by_key_returns_value(self):
        tree = make_tree([1, 2, 3])
        assert tree.delete(2) == "v2"
        assert tree.find(2) is None
        assert len(tree) == 2

    def test_delete_missing_key_raises(self):
        tree = make_tree([1])
        with pytest.raises(KeyError):
            tree.delete(42)

    def test_delete_all_then_reuse(self):
        tree = make_tree([3, 1, 2])
        for k in (1, 2, 3):
            tree.delete(k)
        assert len(tree) == 0
        tree.insert(9, "v9")
        assert tree.find(9).value == "v9"

    def test_tuple_keys(self):
        tree = RBTree()
        tree.insert((5, 1), "a")
        tree.insert((5, 0), "b")
        tree.insert((4, 9), "c")
        assert [n.key for n in tree] == [(4, 9), (5, 0), (5, 1)]


class TestNeighborQueries:
    def test_floor(self):
        tree = make_tree([10, 20, 30])
        assert tree.floor(5) is None
        assert tree.floor(10).key == 10
        assert tree.floor(15).key == 10
        assert tree.floor(30).key == 30
        assert tree.floor(99).key == 30

    def test_ceiling(self):
        tree = make_tree([10, 20, 30])
        assert tree.ceiling(5).key == 10
        assert tree.ceiling(10).key == 10
        assert tree.ceiling(21).key == 30
        assert tree.ceiling(31) is None

    def test_successor_predecessor_chain(self):
        keys = [4, 2, 6, 1, 3, 5, 7]
        tree = make_tree(keys)
        node = tree.minimum()
        seen = []
        while node is not None:
            seen.append(node.key)
            node = tree.successor(node)
        assert seen == sorted(keys)
        node = tree.maximum()
        seen = []
        while node is not None:
            seen.append(node.key)
            node = tree.predecessor(node)
        assert seen == sorted(keys, reverse=True)


class TestInvariants:
    def test_sequential_inserts_stay_balanced(self):
        tree = RBTree()
        for i in range(500):
            tree.insert(i, i)
            if i % 50 == 0:
                tree.check_invariants()
        tree.check_invariants()
        # A red-black tree of n nodes has height <= 2*log2(n+1).
        def height(node):
            if tree.is_nil(node):
                return 0
            return 1 + max(height(node.left), height(node.right))

        assert height(tree.root) <= 2 * (500).bit_length()

    def test_random_insert_delete_invariants(self):
        rng = random.Random(42)
        tree = RBTree()
        alive = set()
        for step in range(2000):
            if alive and rng.random() < 0.45:
                k = rng.choice(sorted(alive))
                tree.delete(k)
                alive.discard(k)
            else:
                k = rng.randrange(10_000)
                if k not in alive:
                    tree.insert(k, k)
                    alive.add(k)
            if step % 250 == 0:
                tree.check_invariants()
                assert sorted(alive) == list(tree.keys())
        tree.check_invariants()
        assert sorted(alive) == list(tree.keys())


def _subtree_min_value(node):
    best = node.value
    if node.left.aug is not None:
        best = min(best, node.left.aug)
    if node.right.aug is not None:
        best = min(best, node.right.aug)
    return best


class TestAugmentation:
    def test_aug_tracks_subtree_min(self):
        tree = RBTree(augment=_subtree_min_value)
        values = {}
        rng = random.Random(7)
        for i in range(300):
            v = rng.randrange(1000)
            tree.insert(i, v)
            values[i] = v
        assert tree.root.aug == min(values.values())
        tree.check_invariants()

    def test_aug_after_deletes(self):
        tree = RBTree(augment=_subtree_min_value)
        rng = random.Random(11)
        values = {}
        for i in range(200):
            v = rng.randrange(1000)
            tree.insert(i, v)
            values[i] = v
        for k in rng.sample(sorted(values), 150):
            tree.delete(k)
            del values[k]
        tree.check_invariants()
        assert tree.root.aug == min(values.values())

    def test_refresh_after_value_mutation(self):
        tree = RBTree(augment=_subtree_min_value)
        nodes = [tree.insert(i, 100 + i) for i in range(10)]
        nodes[4].value = 1
        tree.refresh(nodes[4])
        assert tree.root.aug == 1
        tree.check_invariants()


@given(st.lists(st.integers(-1000, 1000), unique=True, max_size=200))
@settings(max_examples=60, deadline=None)
def test_property_insert_iterate_sorted(keys):
    tree = make_tree(keys)
    assert list(tree.keys()) == sorted(keys)
    tree.check_invariants()


@given(
    st.lists(st.integers(0, 300), unique=True, min_size=1, max_size=120),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_property_delete_random_subset(keys, rnd):
    tree = make_tree(keys)
    to_delete = [k for k in keys if rnd.random() < 0.5]
    for k in to_delete:
        tree.delete(k)
    remaining = sorted(set(keys) - set(to_delete))
    assert list(tree.keys()) == remaining
    tree.check_invariants()


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50))))
@settings(max_examples=40, deadline=None)
def test_property_floor_ceiling_consistent(pairs):
    keys = sorted({a for a, _ in pairs})
    tree = make_tree(keys)
    for _, probe in pairs:
        floor = tree.floor(probe)
        ceil = tree.ceiling(probe)
        expected_floor = max((k for k in keys if k <= probe), default=None)
        expected_ceil = min((k for k in keys if k >= probe), default=None)
        assert (floor.key if floor else None) == expected_floor
        assert (ceil.key if ceil else None) == expected_ceil


def _subtree_max_value(node):
    best = node.value
    for aug in (node.left.aug, node.right.aug):
        if aug is not None and aug > best:
            best = aug
    return best


@pytest.mark.parametrize("augment", [_subtree_min_value, _subtree_max_value])
def test_every_insert_and_delete_leaves_every_aug_right(augment):
    """An insert or delete refreshes ``aug`` upward only until a value
    comes out unchanged; with values drawn from a small range that stop is
    hit often, and ``check_invariants`` after every operation recomputes
    every node's value against the tree."""
    rng = random.Random(23)
    tree = RBTree(augment=augment)
    alive = {}
    for _ in range(1500):
        if alive and rng.random() < 0.45:
            key = rng.choice(sorted(alive))
            tree.delete(key)
            del alive[key]
        else:
            key = rng.randrange(400)
            if key not in alive:
                alive[key] = rng.randrange(6)
                tree.insert(key, alive[key])
        tree.check_invariants()
        if alive:
            best = min if augment is _subtree_min_value else max
            assert tree.root.aug == best(alive.values())
