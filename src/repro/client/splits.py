"""Candidate split enumeration and selection, from CC tables alone.

Two split families, matching the paper's experiments:

* **binary** value-vs-rest splits (``A = v`` / ``A <> v``) — the form
  the experiments grow ("only binary trees were grown from the data"),
* **multiway** complete splits (one child per present value).

The search reads a batch of nodes' counts as the 2-D arrays the CC
tables hold them in (``CCTable.counts``): every binary candidate is
scored in the criterion's *array* form, one vector expression per batch,
and that score is only a prefilter — the candidates within
:data:`SHORTLIST_MARGIN` of their node's maximum are re-scored by the
*scalar* scorer, whose values alone decide (the few multiway candidates,
one per attribute, go to it directly).  Tie-breaking is fully
deterministic — (score, attribute name, value) — which is what makes
the middleware-grown tree provably identical to an in-memory reference
grower: both call this module on equal CC tables.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import sub
from typing import Any, Iterable, Optional

from ..common.errors import ClientError
from ..core.cc_table import CCTable, value_sort_key
from ..core.filters import PathCondition
from ..sqlengine.columnar import np
from .criteria import SplitCriterion, row_sums

#: Scores within this tolerance are considered tied (floating point).
SCORE_EPSILON = 1e-12

#: How far below the best *array* score a candidate is still re-scored
#: by the scalar scorer.  Scores are at most ``log2(n_classes)`` and the
#: two forms differ by float rounding (~1e-15), so this is >= 1e5 times
#: any such difference: the prefilter cannot drop a scalar maximum.
SHORTLIST_MARGIN = 1e-9


class ChildSpec:
    """One would-be child: edge condition plus exact statistics."""

    __slots__ = ("condition", "n_rows", "class_counts")

    def __init__(self, condition: PathCondition, n_rows: int,
                 class_counts: Iterable[int]) -> None:
        self.condition = condition
        self.n_rows = n_rows
        self.class_counts = list(class_counts)

    def __repr__(self) -> str:
        c = self.condition
        return (
            f"ChildSpec({c.attribute} {c.op} {c.value}, rows={self.n_rows})"
        )


class CandidateSplit:
    """A scored candidate partition of a node's data."""

    __slots__ = ("attribute", "kind", "value", "children", "score")

    def __init__(self, attribute: str, kind: str, value: Any,
                 children: list[ChildSpec], score: float) -> None:
        self.attribute = attribute
        self.kind = kind  # "binary" or "multiway"
        self.value = value  # the pivot value for binary splits, else None
        self.children = children
        self.score = score

    def sort_key(self) -> tuple[float, str, tuple[bool, str, Any]]:
        """Orders candidates best-first, deterministically."""
        return (-self.score, self.attribute, value_sort_key(self.value))

    def __repr__(self) -> str:
        return (
            f"CandidateSplit({self.attribute}, {self.kind}, "
            f"value={self.value}, score={self.score:.4f})"
        )


def _shortlists(tables: list[CCTable], criterion: SplitCriterion,
                binary: bool) -> list[list[tuple[Any, list[Any]]]]:
    """Per table, the candidates that can hold its best score: ``(row,
    class counts)`` binary, ``(attribute, children's counts)`` multiway
    (all kept).  A table keeps the binary ones within
    :data:`SHORTLIST_MARGIN` of its own array maximum."""
    if not binary:
        return [[(attribute, cc.vectors_of(attribute))
                 for attribute in cc.attributes
                 if cc.cardinality(attribute) >= 2] for cc in tables]
    counts = [cc.counts for cc in tables]
    lengths = np.array([len(block) for block in counts])
    owner = np.repeat(np.arange(len(tables)), lengths)
    inside = np.concatenate(counts)
    records = np.array([cc.records for cc in tables]).repeat(lengths)
    parents = np.array([cc.class_totals() for cc in tables])
    parents = parents.repeat(lengths, axis=0)
    sizes = row_sums(inside)
    # A pair holding no row or every row leaves one side empty: no split.
    valid = (sizes > 0) & (sizes < records)
    scores = np.where(valid, criterion.binary_scores(parents, inside), -np.inf)
    # reduceat gives an empty segment the element at its index, not
    # -inf: the tables without pairs (they own no row) are left out.
    starts = np.cumsum(lengths) - lengths
    best = np.zeros(len(tables))
    best[lengths > 0] = np.maximum.reduceat(scores, starts[lengths > 0])
    keep = np.flatnonzero(valid & (scores >= best[owner] - SHORTLIST_MARGIN))
    shortlists: list[list[tuple[Any, list[Any]]]] = [[] for _ in tables]
    for table, row, vector in zip(owner[keep].tolist(),
                                  (keep - starts[owner[keep]]).tolist(),
                                  inside[keep].tolist()):
        shortlists[table].append((row, vector))
    return shortlists


def shortlist(cc: CCTable, criterion: SplitCriterion, binary: bool = True,
              ) -> list[tuple[str, Any, list[list[int]]]]:
    """One table's shortlist (see :func:`best_splits`):
    ``(attribute, pivot value or None, children's class counts)``."""
    totals = cc.class_totals()
    return [
        (*cc.pair(ident), [counts, list(map(sub, totals, counts))])
        if binary else (ident, None, counts)
        for ident, counts in _shortlists([cc], criterion, binary)[0]
    ]


def _decide(cc: CCTable, criterion: SplitCriterion,
            kept: list[tuple[Any, list[Any]]], binary: bool,
            threshold: float) -> Optional[CandidateSplit]:
    """The scalar scorer's choice among one table's shortlist."""
    totals = cc.class_totals()
    score_of = criterion.scorer(totals)
    best_score = threshold
    tied: list[tuple[Any, list[Any]]] = []
    #: Each distinct count vector is scored once (a binary candidate's
    #: inside fixes its outside).
    scores: dict[Any, float] = {}
    for candidate in kept:
        ident, counts = candidate
        key = tuple(counts) if binary else ident
        if key not in scores:
            scores[key] = score_of(
                [counts, list(map(sub, totals, counts))] if binary else counts
            )
        score = scores[key]
        if score >= best_score and score > threshold:
            if score > best_score:
                best_score, tied = score, []
            tied.append(candidate)
    if not tied:
        return None
    if not binary:
        attribute, children = min(tied, key=lambda item: item[0])
        value, edges = None, [("=", v) for v in cc.values_of(attribute)]
    else:
        if len(tied) > 1:
            # The least (attribute, value), naming the tied rows of the
            # least-named column only.
            names, bounds = cc.pair_columns()
            columns = [bisect_right(bounds, row) - 1 for row, _ in tied]
            first = min(columns, key=names.__getitem__)
            tied = [item for item, column in zip(tied, columns)
                    if column == first]
        row, inside = tied[0] if len(tied) == 1 else min(
            tied, key=lambda item: value_sort_key(cc.pair(item[0])[1])
        )
        attribute, value = cc.pair(row)
        edges = [("=", value), ("<>", value)]
        children = [inside, list(map(sub, totals, inside))]
    children = [
        ChildSpec(PathCondition(attribute, op, pivot), sum(counts), counts)
        for (op, pivot), counts in zip(edges, children)
    ]
    return CandidateSplit(attribute, "binary" if binary else "multiway",
                          value, children, best_score)


def best_splits(tables: Iterable[CCTable], criterion: SplitCriterion,
                binary: bool = True, min_gain: float = 0.0,
                ) -> list[Optional[CandidateSplit]]:
    """Each table's highest-scoring split, or None if no score is
    strictly above ``min_gain`` (0.0 rejects zero-gain splits).

    Array scores of the whole batch in one call -> each table's
    shortlist -> the scalar scorer on it, each distinct count vector
    once -> the least (attribute name, value) tied at the best score.
    Only scalar scores decide; only the winners' children are built.
    """
    tables = list(tables)
    if any(cc.records == 0 for cc in tables):
        raise ClientError("cannot split an empty node")
    threshold = min_gain + SCORE_EPSILON
    return [
        _decide(cc, criterion, kept, binary, threshold)
        for cc, kept in zip(tables, _shortlists(tables, criterion, binary))
    ] if tables else []


def best_split(cc: CCTable, criterion: SplitCriterion, binary: bool = True,
               min_gain: float = 0.0) -> Optional[CandidateSplit]:
    """One table's best split: :func:`best_splits` of a batch of one."""
    return best_splits([cc], criterion, binary, min_gain)[0]


def child_attributes(parent_attributes: Iterable[str],
                     parent_cc: CCTable, split: CandidateSplit,
                     child: ChildSpec) -> tuple[str, ...]:
    """Attributes still informative at ``child`` after ``split``.

    An attribute is dropped once the path fixes its value: the branch
    taken on a complete split, the ``=`` branch of a binary split, and
    the ``<>`` branch when only two values existed at the parent (the
    exclusion pins the remaining one).
    """
    condition = child.condition
    attribute = split.attribute
    if condition.op == "=":
        drop = True
    else:
        drop = parent_cc.cardinality(attribute) <= 2
    if not drop:
        return tuple(parent_attributes)
    return tuple(a for a in parent_attributes if a != attribute)
