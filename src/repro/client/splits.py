"""Candidate split enumeration and selection, from CC tables alone.

Two split families, matching the paper's experiments:

* **binary** value-vs-rest splits (``A = v`` / ``A <> v``) — the form
  the experiments grow ("only binary trees were grown from the data"),
* **multiway** complete splits (one child per present value).

The search reads a node's counts as the one 2-D array the CC table
holds them in (``CCTable.counts``): every binary candidate is scored in
the criterion's *array* form, one vector expression per node, and that
score is only a prefilter — the candidates within
:data:`SHORTLIST_MARGIN` of its maximum are re-scored by the *scalar*
scorer, whose values alone decide (the few multiway candidates, one per
attribute, go to it directly).  Tie-breaking is fully
deterministic — (score, attribute name, value) — which is what makes
the middleware-grown tree provably identical to an in-memory reference
grower: both call this module on equal CC tables.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..common.errors import ClientError
from ..core.cc_table import CCTable, value_sort_key
from ..core.filters import PathCondition
from ..sqlengine.columnar import np
from .criteria import SplitCriterion

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


def shortlist(cc: CCTable, criterion: SplitCriterion, binary: bool = True,
              ) -> list[tuple[str, Any, list[list[int]]]]:
    """The candidates that can hold the best score:
    ``(attribute, pivot value or None, children's class counts)``.

    All binary candidates of the node are scored in the criterion's
    array form, one call on the table's count rows (``inside``;
    ``outside`` is ``totals - inside``), and those within
    :data:`SHORTLIST_MARGIN` of the maximum are kept.  The array form
    is within float rounding of the scalar scorer, so every candidate
    whose *scalar* score is the scalar maximum is in the list.  The
    multiway candidates — one per attribute, nothing to do in one
    expression — are all listed, unscored.
    """
    if not binary:
        return [
            (attribute, None, cc.vectors_of(attribute))
            for attribute in cc.attributes
            if cc.cardinality(attribute) >= 2
        ]
    totals = cc.class_totals()
    inside = cc.counts
    sizes = inside.sum(axis=1)
    # A pair holding no row or every row leaves one side empty.
    rows = np.flatnonzero((sizes > 0) & (sizes < cc.records))
    if not rows.size:
        return []
    scores = criterion.binary_scores(totals, inside[rows])
    rows = rows[scores >= scores.max() - SHORTLIST_MARGIN]
    kept = inside[rows]
    return [
        (*cc.pair(row), [counts, rest])
        for row, counts, rest in zip(
            rows.tolist(), kept.tolist(), (totals - kept).tolist()
        )
    ]


def best_split(cc: CCTable, criterion: SplitCriterion,
               binary: bool = True,
               min_gain: float = 0.0) -> Optional[CandidateSplit]:
    """The highest-scoring candidate split, or None if none qualifies.

    ``min_gain`` filters out splits whose score is not strictly above
    it (0.0 rejects zero-gain splits, which would loop forever).

    One flow for every criterion and both families: array scores ->
    :func:`shortlist` (every multiway candidate is on it) -> the scalar
    scorer on the shortlist, each distinct count vector once -> the
    candidates tied at the best scalar score ->
    :meth:`CandidateSplit.sort_key`.  Only the scalar scores decide, so
    the split and its ``score`` are what scoring every candidate
    through the scalar scorer would give; only the winner's children
    are built.
    """
    if cc.records == 0:
        raise ClientError("cannot split an empty node")
    score_of = criterion.scorer(cc.class_totals())
    best_score = threshold = min_gain + SCORE_EPSILON
    kind = "binary" if binary else "multiway"
    #: The candidates at best_score, each with its children's counts.
    tied: list[tuple[CandidateSplit, list[list[int]]]] = []
    #: Equal count vectors score equally: each distinct one is scored once.
    scores: dict[tuple[tuple[int, ...], ...], float] = {}
    for attribute, value, children in shortlist(cc, criterion, binary):
        key = tuple(map(tuple, children))
        score = scores.get(key)
        if score is None:
            score = scores[key] = score_of(children)
        if score >= best_score and score > threshold:
            if score > best_score:
                best_score, tied = score, []
            tied.append(
                (CandidateSplit(attribute, kind, value, [], score), children)
            )
    if not tied:
        return None
    split, children = min(tied, key=lambda item: item[0].sort_key())
    if binary:
        edges = [("=", split.value), ("<>", split.value)]
    else:
        edges = [("=", value) for value in cc.values_of(split.attribute)]
    split.children = [
        ChildSpec(PathCondition(split.attribute, op, value), sum(counts),
                  counts)
        for (op, value), counts in zip(edges, children)
    ]
    return split


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
