"""The paper's CC-table physical layout: a sorted binary tree.

Section 5 describes the implementation detail: "Counts tables are
stored as binary trees.  The unique combinations of attribute (column)
number and state (value) number specify an entry in the counts table.
Because of the way points are sorted in the tree, retrieving a vector
of counts for the states of a class correlated with a particular
attribute and its state is efficient."

No fit uses it: :class:`~repro.core.cc_table.CCTable` keeps the counts
as arrays and a scan counts a whole batch into one dense key space.
This reference copy of the original design — an unbalanced binary
search tree keyed on ``(attribute, value)``, its mutation behind a
lock — lets the tests prove layout-independence (both stores produce
identical tables) and gives the runtime sanitizer a lock-heavy path to
instrument.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.common.locks import new_lock
from repro.core.cc_table import CCTable


class _TreeNode:
    __slots__ = ("key", "vector", "left", "right")

    def __init__(self, key: tuple[str, object], n_classes: int):
        self.key = key
        self.vector = [0] * n_classes
        self.left: _TreeNode | None = None
        self.right: _TreeNode | None = None


class BinaryTreeCCStore:
    """A CC store backed by a binary search tree, as in the paper.

    Exposes the lookup/iteration surface :class:`CCTable` needs:
    ``get(key)``, ``get_or_create(key)``, ``__contains__``,
    ``__len__`` and sorted ``items()``.

    Tree *mutation* is serialised by an internal mutex so several
    counting threads may :meth:`get_or_create` concurrently (per-entry
    vector increments remain the caller's concern).  Reads
    (``get``/``items``) are deliberately lock-free — the store's users
    only read after counting finishes, matching the single-writer
    pattern documented on the guarded attributes.
    """

    def __init__(self, n_classes: int):
        self._n_classes = n_classes
        self._lock = new_lock("BinaryTreeCCStore._lock")
        #: guarded by self._lock
        self._root: _TreeNode | None = None
        #: guarded by self._lock
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: tuple[str, object]) -> bool:
        return self._find(key) is not None

    def get(self, key: tuple[str, object]) -> list[int] | None:
        """The class-count vector for ``key``, or None."""
        node = self._find(key)
        return node.vector if node is not None else None

    def get_or_create(self, key: tuple[str, object]) -> \
            tuple[list[int], bool]:
        """The vector for ``key``, inserting a zero vector if new.

        Returns ``(vector, created)``.
        """
        with self._lock:
            if self._root is None:
                self._root = _TreeNode(key, self._n_classes)
                self._size += 1
                return self._root.vector, True
            node = self._root
            while True:
                if key == node.key:
                    return node.vector, False
                if key < node.key:
                    if node.left is None:
                        node.left = _TreeNode(key, self._n_classes)
                        self._size += 1
                        return node.left.vector, True
                    node = node.left
                else:
                    if node.right is None:
                        node.right = _TreeNode(key, self._n_classes)
                        self._size += 1
                        return node.right.vector, True
                    node = node.right

    def items(self) -> Iterator[tuple[tuple[str, object], list[int]]]:
        """Yield ``(key, vector)`` in sorted key order (in-order walk)."""
        stack: list[_TreeNode] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key, node.vector
            node = node.right

    def _find(self, key: tuple[str, object]) -> _TreeNode | None:
        node = self._root
        while node is not None:
            if key == node.key:
                return node
            node = node.left if key < node.key else node.right
        return None

    @property
    def depth(self) -> int:
        """Height of the tree (0 for empty) — for diagnostics."""

        def measure(node: _TreeNode | None) -> int:
            if node is None:
                return 0
            return 1 + max(measure(node.left), measure(node.right))

        return measure(self._root)


def cc_table_via_tree_store(attributes: Sequence[str], n_classes: int,
                            rows: Iterator[Any] | Sequence[Any],
                            spec: Any) -> CCTable:
    """Build a :class:`CCTable` by counting through a tree store.

    Counts every row into a :class:`BinaryTreeCCStore` first, then
    materialises an ordinary :class:`CCTable` from the sorted entries —
    demonstrating that the physical layout is irrelevant to the
    statistics (the property tests assert equality with direct
    counting).
    """
    attributes = tuple(attributes)
    store = BinaryTreeCCStore(n_classes)
    names = spec.attribute_names
    class_index = spec.n_attributes
    n_records = 0
    for row in rows:
        n_records += 1
        values = dict(zip(names, row))
        label = row[class_index]
        for attribute in attributes:
            vector, _ = store.get_or_create((attribute, values[attribute]))
            vector[label] += 1

    cc = CCTable(attributes, n_classes)
    for (attribute, value), vector in store.items():
        for label, count in enumerate(vector):
            if count:
                cc.add_counts(attribute, value, label, count)
    cc.set_records(n_records)
    return cc
