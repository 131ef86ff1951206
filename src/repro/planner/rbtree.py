"""Augmented red-black tree.

This is the balanced-search-tree substrate beneath the Planner (paper §4.1).
The Planner keeps one per resource vertex: the *scheduled-point* (SP) tree,
keyed by the time of each scheduled point, used for time-based queries in
``O(log N)``.  Once a planner has been asked an earliest-time question the
same tree is augmented with the range of remaining resource in each subtree
(see :mod:`repro.planner.trees`); the paper's second, *earliest-time* (ET)
tree of Algorithm 1 is kept as a reference in :mod:`repro.baselines` and is
built on this class too.

The implementation follows CLRS chapter 13 with a per-tree NIL sentinel.
Augmentation is expressed as a callback ``augment(node) -> value`` computing
the node's augmented value from ``node.value`` and the (already up-to-date)
augmented values of ``node.left`` / ``node.right``.  The tree re-runs the
callback bottom-up along every path touched by an insert, delete or rotation,
which preserves the classic ``O(log N)`` bounds for augmented queries.  It
can be given at construction or switched on later (:meth:`RBTree.set_augment`);
a tree without one makes no augmentation call at all.

Keys may be any totally-ordered values (ints, tuples, ...).  Duplicate keys
are rejected; callers that need duplicates compose a tiebreaker into the key
(the ET tree keys by ``(remaining, time)`` for exactly this reason).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

__all__ = ["RBNode", "RBTree"]

_RED = True
_BLACK = False


class RBNode:
    """A node of :class:`RBTree`.

    Exposes ``key``, ``value`` and the augmented value ``aug``.  Structure
    fields (``left``/``right``/``parent``/``red``) are maintained by the tree;
    user code should treat them as read-only.
    """

    __slots__ = ("key", "value", "red", "left", "right", "parent", "aug")

    def __init__(self, key: Any, value: Any) -> None:
        self.key = key
        self.value = value
        self.red: bool = _RED
        self.left: "RBNode" = None  # type: ignore[assignment]
        self.right: "RBNode" = None  # type: ignore[assignment]
        self.parent: "RBNode" = None  # type: ignore[assignment]
        self.aug: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        color = "R" if self.red else "B"
        return f"RBNode({self.key!r}, {self.value!r}, {color}, aug={self.aug!r})"


class RBTree:
    """A red-black tree with optional subtree augmentation.

    Parameters
    ----------
    augment:
        Optional callback computing a node's augmented value.  It receives the
        node and must combine ``node.value`` with ``node.left.aug`` and
        ``node.right.aug``; children that are the NIL sentinel can be detected
        with :meth:`is_nil` or by their ``aug`` being ``None`` (the sentinel's
        augmented value is always ``None``).
    """

    __slots__ = ("nil", "root", "_size", "_augment")

    def __init__(self, augment: Optional[Callable[[RBNode], Any]] = None) -> None:
        nil = RBNode(None, None)
        nil.red = _BLACK
        nil.left = nil.right = nil.parent = nil
        self.nil = nil
        self.root: RBNode = nil
        self._size = 0
        self._augment = augment

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def is_nil(self, node: RBNode) -> bool:
        """Return True when ``node`` is this tree's NIL sentinel."""
        return node is self.nil

    def find(self, key: Any) -> Optional[RBNode]:
        """Return the node with exactly ``key``, or None."""
        x = self.root
        while x is not self.nil:
            if key == x.key:
                return x
            x = x.left if key < x.key else x.right
        return None

    def minimum(self) -> Optional[RBNode]:
        """Return the node with the smallest key, or None when empty."""
        if self.root is self.nil:
            return None
        return self._subtree_min(self.root)

    def maximum(self) -> Optional[RBNode]:
        """Return the node with the largest key, or None when empty."""
        if self.root is self.nil:
            return None
        x = self.root
        while x.right is not self.nil:
            x = x.right
        return x

    def floor(self, key: Any) -> Optional[RBNode]:
        """Return the node with the largest key ``<= key``, or None."""
        x = self.root
        best: Optional[RBNode] = None
        while x is not self.nil:
            if x.key == key:
                return x
            if x.key < key:
                best = x
                x = x.right
            else:
                x = x.left
        return best

    def ceiling(self, key: Any) -> Optional[RBNode]:
        """Return the node with the smallest key ``>= key``, or None."""
        x = self.root
        best: Optional[RBNode] = None
        while x is not self.nil:
            if x.key == key:
                return x
            if x.key > key:
                best = x
                x = x.left
            else:
                x = x.right
        return best

    def successor(self, node: RBNode) -> Optional[RBNode]:
        """Return the in-order successor of ``node``, or None."""
        if node.right is not self.nil:
            return self._subtree_min(node.right)
        y = node.parent
        while y is not self.nil and node is y.right:
            node = y
            y = y.parent
        return None if y is self.nil else y

    def predecessor(self, node: RBNode) -> Optional[RBNode]:
        """Return the in-order predecessor of ``node``, or None."""
        if node.left is not self.nil:
            x = node.left
            while x.right is not self.nil:
                x = x.right
            return x
        y = node.parent
        while y is not self.nil and node is y.left:
            node = y
            y = y.parent
        return None if y is self.nil else y

    def __iter__(self) -> Iterator[RBNode]:
        """Iterate nodes in increasing key order (iterative, O(1) extra space)."""
        node = self.minimum()
        while node is not None:
            yield node
            node = self.successor(node)

    def keys(self) -> Iterator[Any]:
        for node in self:
            yield node.key

    def values(self) -> Iterator[Any]:
        for node in self:
            yield node.value

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> RBNode:
        """Insert ``key -> value`` and return the new node."""
        return self.insert_node(RBNode(key, value))

    def insert_node(self, z: RBNode) -> RBNode:
        """Link the fresh node ``z`` (a subclass may carry its own fields)
        in at ``z.key`` and return it.

        Raises ``KeyError`` when the key is already present (the Planner never
        stores duplicate keys; it composes tiebreakers into the key instead).
        """
        key = z.key
        y = self.nil
        x = self.root
        left = False
        while x is not self.nil:
            y = x
            if key == x.key:
                raise KeyError(f"duplicate key: {key!r}")
            left = key < x.key
            x = x.left if left else x.right
        return self._attach(z, y, left)

    def _attach(self, z: RBNode, parent: RBNode, left: bool) -> RBNode:
        """Hang the fresh node ``z`` as a leaf on the ``left`` (or right) of
        ``parent`` (the sentinel: as the root), rebalance and return it.  A
        caller that already knows that place calls this with no descent."""
        z.left = z.right = self.nil
        z.parent = parent
        if parent is self.nil:
            self.root = z
        elif left:
            parent.left = z
        else:
            parent.right = z
        self._size += 1
        if self._augment is not None:
            self._refresh_up(z)
        if parent.red:
            self._insert_fixup(z)
        elif parent is self.nil:
            z.red = _BLACK
        return z

    def delete_node(self, z: RBNode) -> None:
        """Remove ``z`` (a node previously returned by this tree) from the tree."""
        nil = self.nil
        y = z
        y_was_red = y.red
        if z.left is nil:
            x = z.right
            self._transplant(z, z.right)
            refresh_from = x.parent
        elif z.right is nil:
            x = z.left
            self._transplant(z, z.left)
            refresh_from = x.parent
        else:
            y = self._subtree_min(z.right)
            y_was_red = y.red
            x = y.right
            if y.parent is z:
                x.parent = y  # x may be nil; fixup relies on parent pointers
                refresh_from = y
            else:
                refresh_from = y.parent
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.red = z.red
        self._size -= 1
        if refresh_from is not nil and self._augment is not None:
            self._refresh_up(refresh_from)
        if not y_was_red:
            self._delete_fixup(x)
        z.left = z.right = z.parent = None  # type: ignore[assignment]

    def delete(self, key: Any) -> Any:
        """Remove the node with ``key`` and return its value; KeyError if absent."""
        node = self.find(key)
        if node is None:
            raise KeyError(key)
        value = node.value
        self.delete_node(node)
        return value

    def refresh(self, node: RBNode) -> None:
        """Recompute augmented data from ``node`` to the root.

        Call after mutating ``node.value`` in a way that changes the augmented
        value but not the key.
        """
        self._refresh_up(node)

    @property
    def augmented(self) -> bool:
        """True when the tree maintains augmented values."""
        return self._augment is not None

    def set_augment(self, augment: Callable[[RBNode], Any]) -> None:
        """Install ``augment`` and compute every node's augmented value in
        one post-order pass; mutations keep it current from here on."""
        self._augment = augment
        nil = self.nil

        def walk(node: RBNode) -> None:
            if node is not nil:
                walk(node.left)
                walk(node.right)
                node.aug = augment(node)

        walk(self.root)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _subtree_min(self, x: RBNode) -> RBNode:
        while x.left is not self.nil:
            x = x.left
        return x

    def _refresh_up(self, node: RBNode) -> None:
        if self._augment is None:
            return
        while node is not self.nil:
            node.aug = self._augment(node)
            node = node.parent

    def _left_rotate(self, x: RBNode) -> None:
        y = x.right
        x.right = y.left
        if y.left is not self.nil:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is self.nil:
            self.root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y
        if self._augment is not None:
            x.aug, y.aug = self._augment(x), self._augment(y)

    def _right_rotate(self, x: RBNode) -> None:
        y = x.left
        x.left = y.right
        if y.right is not self.nil:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is self.nil:
            self.root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y
        if self._augment is not None:
            x.aug, y.aug = self._augment(x), self._augment(y)

    def _transplant(self, u: RBNode, v: RBNode) -> None:
        if u.parent is self.nil:
            self.root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        v.parent = u.parent

    def _insert_fixup(self, z: RBNode) -> None:
        while z.parent.red:
            gp = z.parent.parent
            if z.parent is gp.left:
                y = gp.right
                if y.red:
                    z.parent.red = _BLACK
                    y.red = _BLACK
                    gp.red = _RED
                    z = gp
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._left_rotate(z)
                    z.parent.red = _BLACK
                    z.parent.parent.red = _RED
                    self._right_rotate(z.parent.parent)
            else:
                y = gp.left
                if y.red:
                    z.parent.red = _BLACK
                    y.red = _BLACK
                    gp.red = _RED
                    z = gp
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._right_rotate(z)
                    z.parent.red = _BLACK
                    z.parent.parent.red = _RED
                    self._left_rotate(z.parent.parent)
        self.root.red = _BLACK

    def _delete_fixup(self, x: RBNode) -> None:
        left_rotate, right_rotate = self._left_rotate, self._right_rotate
        while x is not self.root and not x.red:
            if x is x.parent.left:
                w = x.parent.right
                if w.red:
                    w.red = _BLACK
                    x.parent.red = _RED
                    left_rotate(x.parent)
                    w = x.parent.right
                if not w.left.red and not w.right.red:
                    w.red = _RED
                    x = x.parent
                else:
                    if not w.right.red:
                        w.left.red = _BLACK
                        w.red = _RED
                        right_rotate(w)
                        w = x.parent.right
                    w.red = x.parent.red
                    x.parent.red = _BLACK
                    w.right.red = _BLACK
                    left_rotate(x.parent)
                    x = self.root
            else:
                w = x.parent.left
                if w.red:
                    w.red = _BLACK
                    x.parent.red = _RED
                    right_rotate(x.parent)
                    w = x.parent.left
                if not w.right.red and not w.left.red:
                    w.red = _RED
                    x = x.parent
                else:
                    if not w.left.red:
                        w.right.red = _BLACK
                        w.red = _RED
                        left_rotate(w)
                        w = x.parent.left
                    w.red = x.parent.red
                    x.parent.red = _BLACK
                    w.left.red = _BLACK
                    right_rotate(x.parent)
                    x = self.root
        x.red = _BLACK

    # ------------------------------------------------------------------
    # invariant checking (used by tests; cheap enough for property tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify red-black and BST invariants; raise AssertionError on breakage."""
        nil = self.nil
        assert not self.root.red, "root must be black"
        assert not nil.red, "sentinel must be black"

        def walk(node: RBNode, lo: Any, hi: Any) -> int:
            if node is nil:
                return 1
            assert lo is None or node.key > lo, "BST order violated (left)"
            assert hi is None or node.key < hi, "BST order violated (right)"
            if node.red:
                assert not node.left.red and not node.right.red, (
                    "red node has red child"
                )
            lh = walk(node.left, lo, node.key)
            rh = walk(node.right, node.key, hi)
            assert lh == rh, "black-height mismatch"
            if self._augment is not None:
                assert node.aug == self._augment(node), "stale augmentation"
            return lh + (0 if node.red else 1)

        walk(self.root, None, None)
        count = sum(1 for _ in self)
        assert count == self._size, f"size mismatch: {count} != {self._size}"
