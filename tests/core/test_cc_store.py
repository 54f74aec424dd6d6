"""Unit + property tests for the binary-tree CC store (``cc_store.py``
beside this file)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.baselines import build_cc_from_rows
from repro.datagen.dataset import DatasetSpec

from .cc_store import BinaryTreeCCStore, cc_table_via_tree_store

SPEC = DatasetSpec([3, 3], 3)

rows_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    min_size=0,
    max_size=50,
)


class TestBinaryTreeStore:
    def test_insert_and_lookup(self):
        store = BinaryTreeCCStore(2)
        vector, created = store.get_or_create(("A1", 1))
        assert created
        vector[0] += 1
        again, created = store.get_or_create(("A1", 1))
        assert not created
        assert again == [1, 0]
        assert ("A1", 1) in store
        assert ("A1", 2) not in store
        assert store.get(("A1", 2)) is None
        assert len(store) == 1

    def test_items_sorted(self):
        store = BinaryTreeCCStore(1)
        keys = [("B", 2), ("A", 1), ("B", 0), ("A", 5), ("C", 3)]
        for key in keys:
            store.get_or_create(key)
        assert [k for k, _ in store.items()] == sorted(keys)

    def test_depth_of_sorted_inserts_is_linear(self):
        # Documenting the paper's structure: an unbalanced BST degrades
        # to a list under sorted insertion (dict-backed CCTable does
        # not care — hence the default implementation).
        store = BinaryTreeCCStore(1)
        for value in range(10):
            store.get_or_create(("A", value))
        assert store.depth == 10

    def test_empty_store(self):
        store = BinaryTreeCCStore(2)
        assert len(store) == 0
        assert list(store.items()) == []
        assert store.depth == 0


class TestLayoutIndependence:
    @given(rows_strategy)
    @settings(max_examples=80)
    def test_tree_store_counts_equal_direct_counts(self, rows):
        via_tree = cc_table_via_tree_store(
            ("A1", "A2"), SPEC.n_classes, rows, SPEC
        )
        direct = build_cc_from_rows(rows, SPEC, ("A1", "A2"))
        assert via_tree == direct

    @given(rows_strategy)
    @settings(max_examples=40)
    def test_store_size_matches_pair_count(self, rows):
        store = BinaryTreeCCStore(SPEC.n_classes)
        for row in rows:
            store.get_or_create(("A1", row[0]))
            store.get_or_create(("A2", row[1]))
        direct = build_cc_from_rows(rows, SPEC, ("A1", "A2"))
        assert len(store) == direct.n_pairs
