"""The array-form prefilter never drops a winner.

``best_split`` scores a node's candidates in the criterion's array
form, keeps those within ``SHORTLIST_MARGIN`` of the best and lets the
*scalar* scorer decide among them.  The array form may round
differently (``np.log2`` is not ``math.log2``), so what has to hold is:
every candidate whose scalar score is the scalar maximum is on the
shortlist — for all four criteria, both split families, tiny tables
where exact ties are the rule, and counts up to 2**40 where rounding is
largest.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.criteria import GiniGain, InformationGain, make_criterion
from repro.client.splits import SHORTLIST_MARGIN, best_split, shortlist
from repro.core.cc_table import CCTable

from .reference_splits import REFERENCE_CRITERIA
from .test_splits_oracle import cc_tables

pytest.importorskip("numpy")


@st.composite
def scaled_tables(draw):
    """A small table with every count multiplied by one big factor:
    candidates that tie exactly keep tying in exact arithmetic, while
    each one's float rounding goes its own way."""
    small = draw(cc_tables())
    factor = draw(st.sampled_from([1, 3, 2 ** 20 + 1, 2 ** 34, 10 ** 11]))
    return scaled(small, factor)


def scaled(small, factor):
    cc = CCTable(small.attributes, small.n_classes)
    for attribute, value, label, count in small.rows():
        cc.add_counts(attribute, value, label, count * factor)
    cc.set_records(small.records * factor)
    return cc


@st.composite
def big_tables(draw):
    """Independent counts up to 2**40 per (value, class): attribute
    one's vectors are drawn, the others re-split the same totals."""
    n_classes = draw(st.integers(2, 5))
    n_attributes = draw(st.integers(1, 3))
    count = st.integers(0, 2 ** 40)
    first = draw(st.lists(
        st.lists(count, min_size=n_classes, max_size=n_classes),
        min_size=2, max_size=4,
    ))
    totals = [sum(column) for column in zip(*first)]
    cc = CCTable([f"A{i}" for i in range(n_attributes)], n_classes)
    for value, vector in enumerate(first):
        for label, n in enumerate(vector):
            cc.add_counts("A0", value, label, n)
    for attribute in cc.attributes[1:]:
        n_values = draw(st.integers(2, 4))
        for label, total in enumerate(totals):
            weights = draw(st.lists(
                st.integers(0, 1000), min_size=n_values, max_size=n_values
            ))
            shares = [total * w // max(sum(weights), 1) for w in weights]
            shares[-1] += total - sum(shares)
            for value, n in enumerate(shares):
                cc.add_counts(attribute, value, label, n)
    cc.set_records(sum(totals))
    return cc


def scalar_scores(cc, criterion, binary):
    """``(attribute, pivot) -> score`` of every candidate the search
    considers, by the scalar scorer alone."""
    totals = cc.class_totals()
    score_of = criterion.scorer(totals)
    scores = {}
    for attribute in cc.attributes:
        values = cc.values_of(attribute)
        if not binary:
            if len(values) >= 2:
                scores[attribute, None] = score_of(
                    [cc.vector(attribute, value) for value in values]
                )
            continue
        for value in values:
            inside = cc.vector(attribute, value)
            if 0 < sum(inside) < cc.records:
                outside = [t - i for t, i in zip(totals, inside)]
                scores[attribute, value] = score_of((inside, outside))
    return scores


def check(cc, name, binary):
    if cc.records == 0:
        return
    criterion = make_criterion(name)
    scores = scalar_scores(cc, criterion, binary)
    kept = shortlist(cc, criterion, binary)
    listed = {(attribute, value) for attribute, value, _ in kept}
    assert len(listed) == len(kept) and listed <= set(scores)
    if not scores:
        assert kept == []
        return
    best = max(scores.values())
    # Every scalar maximum — and with room to spare, everything within
    # a tenth of the margin of it.
    for candidate, score in scores.items():
        if score >= best - SHORTLIST_MARGIN / 10:
            assert candidate in listed, (candidate, score, best)
    # So the search, which only re-scores the shortlist, finds what
    # scoring every candidate through the scalar scorer finds.
    split = best_split(cc, criterion, binary=binary)
    if best > 1e-12:
        assert split.score == best
        assert scores[split.attribute, split.value] == best
    else:
        assert split is None


FAMILIES = pytest.mark.parametrize(
    "binary", [True, False], ids=["binary", "multiway"]
)
CRITERIA = pytest.mark.parametrize("name", sorted(REFERENCE_CRITERIA))


@FAMILIES
@CRITERIA
@given(cc=st.one_of(cc_tables(), scaled_tables()))
@settings(max_examples=120, deadline=None)
def test_scalar_maxima_of_small_and_scaled_tables_are_shortlisted(
        name, binary, cc):
    check(cc, name, binary)


@FAMILIES
@CRITERIA
@given(cc=big_tables())
@settings(max_examples=80, deadline=None)
def test_scalar_maxima_of_tables_with_huge_counts_are_shortlisted(
        name, binary, cc):
    check(cc, name, binary)


@CRITERIA
def test_array_form_agrees_with_the_scalar_scorer_to_rounding(name):
    # 2**40 rows a side, every count moved by one: the scores differ
    # from the 9th digit on, the two forms from the 15th.
    big = 2 ** 40
    cc = CCTable(["A"], 3)
    for value, vector in enumerate(
            [(big, big + 1, 5), (big + 1, big, 7), (big - 1, big - 1, 3)]):
        for label, n in enumerate(vector):
            cc.add_counts("A", value, label, n)
    cc.set_records(sum(cc.class_totals()))
    criterion = make_criterion(name)
    totals = cc.class_totals()
    approx = criterion.binary_scores(totals, cc.counts).tolist()
    score_of = criterion.scorer(totals)
    for row, counts in enumerate(cc.counts.tolist()):
        exact = score_of((counts, [t - c for t, c in zip(totals, counts)]))
        assert abs(approx[row] - exact) < SHORTLIST_MARGIN / 1e4


@pytest.mark.parametrize("base", [InformationGain, GiniGain])
def test_a_subclass_that_overrides_scorer_is_prefiltered_by_it(base):
    # docs/api.md: a custom criterion overrides ``scorer`` and nothing
    # else.  This one prefers the candidate entropy and Gini like least,
    # so inheriting their array form would drop its maximum.
    class Contrary(base):
        def scorer(self, parent_counts):
            score_of = super().scorer(parent_counts)
            return lambda children_counts: 2.0 - score_of(children_counts)

    cc = CCTable(["A", "B"], 2)
    for attribute, vectors in [("A", [(9, 1), (1, 9)]),
                               ("B", [(6, 4), (4, 6)])]:
        for value, vector in enumerate(vectors):
            for label, n in enumerate(vector):
                cc.add_counts(attribute, value, label, n)
    cc.set_records(20)
    assert best_split(cc, base()).attribute == "A"
    criterion = Contrary()
    scores = scalar_scores(cc, criterion, binary=True)
    assert {a for a, _, _ in shortlist(cc, criterion)} == {"B"}
    split = best_split(cc, criterion)
    assert split.attribute == "B" and split.score == max(scores.values())
