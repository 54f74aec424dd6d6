"""Unit tests for candidate split enumeration and selection."""

from collections import Counter

import pytest

from repro.client import splits
from repro.client.baselines import build_cc_from_rows
from repro.client.criteria import InformationGain, entropy, make_criterion
from repro.client.splits import (
    CandidateSplit,
    ChildSpec,
    best_split,
    child_attributes,
)
from repro.common.errors import ClientError
from repro.core.cc_table import CCTable
from repro.core.filters import PathCondition
from repro.datagen.dataset import DatasetSpec

# The enumerators live on only in the oracle the property test
# compares against; these tests pin what that oracle enumerates.
from .reference_splits import enumerate_binary_splits, enumerate_multiway_split

SPEC = DatasetSpec([3, 2], 2)


def cc_from(rows, attributes=("A1", "A2")):
    return build_cc_from_rows(rows, SPEC, attributes)


# A data set where A1 separates classes perfectly and A2 is noise.
SEPARABLE = [
    (0, 0, 0), (0, 1, 0), (0, 0, 0),
    (1, 0, 1), (1, 1, 1),
    (2, 1, 1), (2, 0, 1),
]


class TestEnumerateBinary:
    def test_one_candidate_per_present_value(self):
        cc = cc_from(SEPARABLE)
        candidates = enumerate_binary_splits(cc, "A1")
        assert [value for value, _ in candidates] == [0, 1, 2]

    def test_children_sizes_and_counts(self):
        cc = cc_from(SEPARABLE)
        candidates = dict(enumerate_binary_splits(cc, "A1"))
        inside, outside = candidates[0]
        assert inside.condition.op == "="
        assert inside.n_rows == 3
        assert inside.class_counts == [3, 0]
        assert outside.condition.op == "<>"
        assert outside.n_rows == 4
        assert outside.class_counts == [0, 4]

    def test_single_valued_attribute_has_no_candidates(self):
        rows = [(1, 0, 0), (1, 1, 1)]
        cc = cc_from(rows)
        assert enumerate_binary_splits(cc, "A1") == []


class TestEnumerateMultiway:
    def test_child_per_value(self):
        cc = cc_from(SEPARABLE)
        children = enumerate_multiway_split(cc, "A1")
        assert len(children) == 3
        assert [c.condition.value for c in children] == [0, 1, 2]
        assert all(c.condition.op == "=" for c in children)

    def test_none_for_single_value(self):
        rows = [(1, 0, 0), (1, 1, 1)]
        assert enumerate_multiway_split(cc_from(rows), "A1") is None


class TestBestSplit:
    def test_picks_separating_attribute(self):
        cc = cc_from(SEPARABLE)
        split = best_split(cc, make_criterion("entropy"))
        assert split.attribute == "A1"
        assert split.kind == "binary"
        assert split.value == 0  # A1=0 vs rest separates perfectly

    def test_multiway_mode(self):
        cc = cc_from(SEPARABLE)
        split = best_split(cc, make_criterion("entropy"), binary=False)
        assert split.kind == "multiway"
        assert split.attribute == "A1"

    def test_no_split_when_pure(self):
        rows = [(0, 0, 1), (1, 1, 1), (2, 0, 1)]
        split = best_split(cc_from(rows), make_criterion("entropy"))
        assert split is None

    def test_min_gain_filters(self):
        # A2 barely helps here; a large min_gain rejects everything.
        rows = [(0, 0, 0), (0, 1, 1), (0, 0, 0), (0, 1, 0)]
        cc = cc_from(rows)
        weak = best_split(cc, make_criterion("entropy"), min_gain=0.0)
        assert weak is not None
        none = best_split(cc, make_criterion("entropy"), min_gain=2.0)
        assert none is None

    def test_deterministic_tie_break(self):
        # Symmetric data: A1 and A2 equally informative -> pick A1 (name
        # order), value 0 (value order).
        rows = [(0, 0, 0), (1, 1, 1)]
        cc = cc_from(rows)
        split = best_split(cc, make_criterion("entropy"))
        assert split.attribute == "A1"
        assert split.value == 0

    def test_empty_node_rejected(self):
        cc = cc_from([])
        with pytest.raises(ClientError):
            best_split(cc, make_criterion("entropy"))

    def test_gini_criterion_also_separates(self):
        split = best_split(cc_from(SEPARABLE), make_criterion("gini"))
        assert split.attribute == "A1"


class TestChildAttributes:
    def make_split(self, rows):
        cc = cc_from(rows)
        return cc, best_split(cc, make_criterion("entropy"))

    def test_eq_branch_drops_attribute(self):
        cc, split = self.make_split(SEPARABLE)
        eq_child = split.children[0]
        remaining = child_attributes(("A1", "A2"), cc, split, eq_child)
        assert remaining == ("A2",)

    def test_ne_branch_keeps_attribute_when_values_remain(self):
        cc, split = self.make_split(SEPARABLE)  # A1 has 3 values
        ne_child = split.children[1]
        remaining = child_attributes(("A1", "A2"), cc, split, ne_child)
        assert remaining == ("A1", "A2")

    def test_ne_branch_drops_attribute_when_binary_valued(self):
        rows = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
        cc = cc_from(rows)
        split = best_split(cc, make_criterion("gini"))
        # Force a split on A2 (two values) to check the drop.
        children = [
            ChildSpec(PathCondition("A2", "=", 0), 2, [1, 1]),
            ChildSpec(PathCondition("A2", "<>", 0), 2, [1, 1]),
        ]
        split = CandidateSplit("A2", "binary", 0, children, 0.1)
        remaining = child_attributes(("A1", "A2"), cc, split, children[1])
        assert remaining == ("A1",)


class TestNullPivotOrdering:
    """A NULL pivot used to sort as ``-1``, which does not compare with
    a string pivot it ties with on (score, attribute)."""

    def tied_table(self):
        cc = CCTable(["A"], 2)
        for value, label in [(None, 0), (None, 0), ("x", 1), ("x", 1)]:
            cc.count_row({"A": value}, label)
        return cc

    def test_null_and_string_pivots_tie_without_type_error(self):
        split = best_split(self.tied_table(), make_criterion("entropy"))
        assert (split.attribute, split.value) == ("A", None)  # NULL first
        assert [c.condition.op for c in split.children] == ["=", "<>"]

    def test_sort_key_orders_null_first_then_by_type(self):
        keys = [
            CandidateSplit("A", "binary", pivot, [], 1.0).sort_key()
            for pivot in ("x", 3, None, -5)
        ]
        assert [key[2][2] for key in sorted(keys)] == [None, -5, 3, "x"]


class TestWorkPerNode:
    """Counts, not timings: one node costs one array expression.

    Guards the shape of the search — every binary candidate scored by
    one call of the criterion's array form, the scalar scorer run on
    the shortlist only (each distinct count vector once) and children
    built for the winner only — against
    sliding back to a scalar score per candidate.
    """

    #: A3 repeats A1, so 8 pairs carry 5 distinct count vectors.
    ROWS = [
        (a1, a2, a1, label) for a1, a2, label in [
            (0, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1),
            (1, 1, 2), (2, 0, 2), (2, 1, 2), (2, 0, 0),
        ]
    ]

    def table(self):
        return build_cc_from_rows(self.ROWS, DatasetSpec([3, 2, 3], 3),
                                  ("A1", "A2", "A3"))

    def test_one_pass_and_only_the_winner_is_built(self, monkeypatch):
        cc = self.table()
        totals = cc.class_totals()
        distinct = {tuple(counts) for counts in cc.counts.tolist()}
        assert (cc.n_pairs, len(distinct)) == (8, 5)

        built = Counter()
        for cls in (ChildSpec, PathCondition):
            def init(self, *args, _cls=cls, **kwargs):
                built[_cls.__name__] += 1
                _cls.__init__(self, *args, **kwargs)

            monkeypatch.setattr(
                splits, cls.__name__,
                type(cls.__name__, (cls,), {"__init__": init}),
            )

        impurity_of = []

        def counting_entropy(counts):
            impurity_of.append(list(counts))
            return entropy(counts)

        monkeypatch.setattr(
            InformationGain, "impurity", staticmethod(counting_entropy)
        )
        scored = []
        array_form = InformationGain.binary_scores

        def counting_array_form(self, parent_counts, inside):
            scored.append(len(inside))
            return array_form(self, parent_counts, inside)

        monkeypatch.setattr(
            InformationGain, "binary_scores", counting_array_form
        )

        criterion = InformationGain()
        kept = splits.shortlist(cc, criterion)
        scored.clear()
        impurity_of.clear()
        split = best_split(cc, criterion)
        for child in split.children:
            child_attributes(cc.attributes, cc, split, child)
        cc.pair_count_by_attribute()

        assert split.kind == "binary"
        assert built == {"ChildSpec": 2, "PathCondition": 2}
        assert scored == [8]  # all eight candidates, one call
        # The six A1 / A3 candidates tie at the top (three distinct
        # count vectors); the two A2 ones are never re-scored.
        assert [(a, v) for a, v, _ in kept] == [
            (a, v) for a in ("A1", "A3") for v in (0, 1, 2)
        ]
        # Scalar impurities: the parent's once (the array form takes it
        # from its own rows), then two children per distinct
        # shortlisted vector.
        assert impurity_of.count(totals) == 1
        assert len(impurity_of) == 1 + 2 * 3
