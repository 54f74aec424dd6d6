"""The single-pass split search against its predecessor, bit for bit.

``reference_splits`` is the parent commit's search: every candidate's
children materialised, each scored with the parent impurity recomputed,
the minimum taken under ``CandidateSplit.sort_key``.  The property
draws CC tables biased toward tiny nodes, where exact score ties — the
only place the two could pick differently — are the common case.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.criteria import make_criterion
from repro.client.splits import best_split
from repro.core.cc_table import CCTable

from . import reference_splits
from .reference_splits import REFERENCE_CRITERIA

#: Not in sorted order, and "A10" < "A2": attribute ties are broken by
#: name, not by position in the table.
ATTRIBUTES = ("A2", "A10", "B", "A1")

#: Per-attribute value domains: int, str, either with NULL, and mixed.
DOMAINS = (
    (0, 1, 2), (-3, 7), ("a", "b", "c"), (None, 0, 1), (None, "x", "y"),
    (None, 1, "x", -1),
)


@st.composite
def cc_tables(draw):
    n_classes = draw(st.integers(2, 10))
    attributes = draw(st.permutations(ATTRIBUTES))[:draw(st.integers(1, 4))]
    domains = [draw(st.sampled_from(DOMAINS)) for _ in attributes]
    max_rows = draw(st.sampled_from([4, 8, 60]))
    rows = draw(st.lists(
        st.tuples(st.integers(0, n_classes - 1),
                  *(st.sampled_from(domain) for domain in domains)),
        min_size=1, max_size=max_rows,
    ))
    cc = CCTable(attributes, n_classes)
    for label, *values in rows:
        cc.count_row(dict(zip(attributes, values)), label)
    return cc


def split_facts(split):
    if split is None:
        return None
    return (
        split.attribute, split.kind, split.value, split.score,
        [(c.condition, c.n_rows, c.class_counts) for c in split.children],
    )


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "multiway"])
@pytest.mark.parametrize("name", sorted(REFERENCE_CRITERIA))
@given(cc=cc_tables(), min_gain=st.sampled_from([0.0, 0.05]))
@settings(max_examples=150, deadline=None)
def test_same_split_same_children_same_score(name, binary, cc, min_gain):
    expected = reference_splits.best_split(
        cc, REFERENCE_CRITERIA[name], binary=binary, min_gain=min_gain
    )
    actual = best_split(
        cc, make_criterion(name), binary=binary, min_gain=min_gain
    )
    # Scores compare with ==: the arithmetic per candidate is the
    # reference's, operation for operation.
    assert split_facts(actual) == split_facts(expected)


@pytest.mark.parametrize("name", sorted(REFERENCE_CRITERIA))
@given(cc=cc_tables())
@settings(max_examples=50, deadline=None)
def test_score_is_the_bound_scorer(name, cc):
    criterion = make_criterion(name)
    parent = cc.class_totals()
    for attribute in cc.attributes:
        children = [cc.vector(attribute, v) for v in cc.values_of(attribute)]
        score = criterion.score(parent, children)
        assert score == criterion.scorer(parent)(children)
        assert score == REFERENCE_CRITERIA[name].score(parent, children)
