"""A batch's split search against the per-table reference, bit for bit.

``best_splits`` scores every binary candidate of a whole batch of CC
tables in one array-form call, shortlists each table with a segmented
max over the concatenated rows and lets the scalar scorer decide per
table.  Whatever the batch holds around a table — tables cut from one
``BatchCounts`` (views of shared arrays) beside buffered ones, a table
without pairs, a table whose every pair holds all of its rows, counts
up to 2**40 — that table's split must be the one
``reference_splits.best_split`` finds for it alone: same kind,
attribute, pivot, children and ``score``, compared with ``==``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.criteria import SplitCriterion, make_criterion
from repro.client.splits import best_split, best_splits
from repro.common.errors import ClientError
from repro.core.cc_table import BatchCounts, CCTable
from repro.sqlengine.columnar import np

from . import reference_splits
from .reference_splits import REFERENCE_CRITERIA
from .test_shortlist import scaled
from .test_splits_oracle import ATTRIBUTES, DOMAINS, split_facts

pytest.importorskip("numpy")


class ErrorDecrease(SplitCriterion):
    """A criterion that defines ``scorer`` only (misclassification
    error decrease, ties galore), searched through the default array
    form; it refuses a partition with an empty side, which no search
    may ask it to score."""

    name = "error_decrease"

    def scorer(self, parent_counts):
        total = sum(parent_counts)
        errors = total - max(parent_counts)

        def score(children_counts):
            assert all(sum(counts) for counts in children_counts)
            return (errors - sum(sum(c) - max(c) for c in children_counts)
                    ) / total

        return score


CRITERIA = {name: make_criterion(name) for name in REFERENCE_CRITERIA}
CRITERIA[ErrorDecrease.name] = ErrorDecrease()


def reference(cc, name, binary, min_gain):
    # The reference scores through ``criterion.score``, which a custom
    # criterion inherits: ``scorer(parent)(children)``.
    criterion = REFERENCE_CRITERIA.get(name, CRITERIA[name])
    return reference_splits.best_split(cc, criterion, binary, min_gain)


@st.composite
def tables(draw, n_classes):
    attributes = draw(st.permutations(ATTRIBUTES))[:draw(st.integers(1, 4))]
    domains = [draw(st.sampled_from(DOMAINS)) for _ in attributes]
    rows = draw(st.lists(
        st.tuples(st.integers(0, n_classes - 1),
                  *(st.sampled_from(domain) for domain in domains)),
        min_size=1, max_size=draw(st.sampled_from([4, 8, 40])),
    ))
    if draw(st.integers(0, 5)) == 0:
        # Every attribute single-valued: every pair holds every row.
        rows = [(label, *rows[0][1:]) for label, *_ in rows]
    cc = CCTable(attributes, n_classes)
    for label, *values in rows:
        cc.count_row(dict(zip(attributes, values)), label)
    factor = draw(st.sampled_from([1, 1, 1, 3, 2 ** 34 + 1, 2 ** 40]))
    return cc if factor == 1 else scaled(cc, factor)


def without_pairs(n_classes, records):
    cc = CCTable((), n_classes)
    cc.set_records(records)
    return cc


def cut(buffered, n_classes):
    """Twins of ``buffered`` cut from one BatchCounts, as a scan cuts a
    batch: one payload, the columns in ``ATTRIBUTES`` order, values
    coded in first-met order."""
    batch = BatchCounts(len(buffered), len(ATTRIBUTES), n_classes)
    distinct = {column: [] for column in range(len(ATTRIBUTES))}
    prefix, index, counts = [], [], []
    for slot, cc in enumerate(buffered):
        vectors = {}
        for attribute, value, label, count in cc.rows():
            vectors.setdefault((attribute, value), [0] * n_classes)
            vectors[attribute, value][label] = count
        for (attribute, value), vector in vectors.items():
            column = ATTRIBUTES.index(attribute)
            if value not in distinct[column]:
                distinct[column].append(value)
            prefix.append(slot * len(ATTRIBUTES) + column)
            index.append((column, distinct[column].index(value)))
            counts.append(vector)
    offsets = np.cumsum([0] + [len(distinct[c]) for c in distinct])
    CCTable.merge_block(
        batch, np.array([cc.records for cc in buffered]),
        np.array([cc.class_totals() for cc in buffered]).reshape(-1, n_classes),
        np.array(prefix, dtype=np.int64),
        np.array([offsets[c] + i for c, i in index], dtype=np.int64),
        np.array(counts, dtype=np.int64).reshape(-1, n_classes),
        list(distinct.items()),
    )
    return batch.tables([cc.attributes for cc in buffered], ATTRIBUTES)


@st.composite
def batches(draw):
    """A batch of one class count: buffered tables, some swapped for
    twins cut from one BatchCounts, and tables without pairs anywhere,
    the middle and the end included."""
    n_classes = draw(st.integers(2, 6))
    batch = draw(st.lists(tables(n_classes), min_size=1, max_size=6))
    twins = cut(batch, n_classes)
    for at in draw(st.sets(st.integers(0, len(batch) - 1))):
        assert twins[at] == batch[at]
        batch[at] = twins[at]
    for _ in range(draw(st.integers(0, 2))):
        batch.insert(draw(st.integers(0, len(batch))),
                     without_pairs(n_classes, draw(st.integers(1, 9))))
    return batch


FAMILIES = pytest.mark.parametrize(
    "binary", [True, False], ids=["binary", "multiway"]
)


@FAMILIES
@pytest.mark.parametrize("name", sorted(CRITERIA))
@given(batch=batches(), min_gain=st.sampled_from([0.0, 0.05, -0.5]))
@settings(max_examples=120, deadline=None)
def test_each_table_of_a_batch_splits_as_the_reference(
        name, binary, batch, min_gain):
    found = best_splits(batch, CRITERIA[name], binary, min_gain)
    assert len(found) == len(batch)
    for cc, split in zip(batch, found):
        assert split_facts(split) == split_facts(
            reference(cc, name, binary, min_gain)
        )


@FAMILIES
@pytest.mark.parametrize("name", sorted(CRITERIA))
@given(cc=tables(3), min_gain=st.sampled_from([0.0, 0.05]))
@settings(max_examples=60, deadline=None)
def test_a_one_table_batch_is_best_split(name, binary, cc, min_gain):
    expected = split_facts(reference(cc, name, binary, min_gain))
    (split,) = best_splits([cc], CRITERIA[name], binary, min_gain)
    assert split_facts(split) == expected
    assert split_facts(
        best_split(cc, CRITERIA[name], binary, min_gain)
    ) == expected


def test_an_empty_batch_and_an_empty_node():
    assert best_splits([], CRITERIA["entropy"]) == []
    with pytest.raises(ClientError, match="empty node"):
        best_splits([without_pairs(2, 3), CCTable(("A1",), 2)],
                    CRITERIA["entropy"])
