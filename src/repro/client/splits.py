"""Candidate split enumeration and selection, from CC tables alone.

Two split families, matching the paper's experiments:

* **binary** value-vs-rest splits (``A = v`` / ``A <> v``) — the form
  the experiments grow ("only binary trees were grown from the data"),
* **multiway** complete splits (one child per present value).

Tie-breaking is fully deterministic — (score, attribute name, value) —
which is what makes the middleware-grown tree provably identical to an
in-memory reference grower: both call this module on identical CC
tables.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..common.errors import ClientError
from ..core.cc_table import CCTable, value_sort_key
from ..core.filters import PathCondition
from .criteria import SplitCriterion

#: Scores within this tolerance are considered tied (floating point).
SCORE_EPSILON = 1e-12


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


def best_split(cc: CCTable, criterion: SplitCriterion,
               binary: bool = True,
               min_gain: float = 0.0) -> Optional[CandidateSplit]:
    """The highest-scoring candidate split, or None if none qualifies.

    ``min_gain`` filters out splits whose score is not strictly above
    it (0.0 rejects zero-gain splits, which would loop forever).

    One pass over the CC table keeps the best score and the candidates
    tied at it; :meth:`CandidateSplit.sort_key` picks among those and
    only the winner's children are built.
    """
    records = cc.records
    if records == 0:
        raise ClientError("cannot split an empty node")
    totals = cc.class_totals()
    score_of = criterion.scorer(totals)
    best_score = threshold = min_gain + SCORE_EPSILON
    kind = "binary" if binary else "multiway"
    tied: list[CandidateSplit] = []  # the candidates at best_score
    #: Equal count vectors score equally: each distinct one is scored once.
    scores: dict[tuple[int, ...], float] = {}
    view = cc.by_attribute()
    for attribute, vectors in view.items():
        if binary:
            for value, inside in vectors.items():
                if not 0 < sum(inside) < records:
                    continue  # one side would be empty
                key = tuple(inside)
                score = scores.get(key)
                if score is None:
                    outside = [t - i for t, i in zip(totals, inside)]
                    score = scores[key] = score_of((inside, outside))
                if score >= best_score and score > threshold:
                    if score > best_score:
                        best_score, tied = score, []
                    tied.append(
                        CandidateSplit(attribute, kind, value, [], score)
                    )
        elif len(vectors) >= 2:
            score = score_of([vectors[v] for v in cc.values_of(attribute)])
            if score >= best_score and score > threshold:
                if score > best_score:
                    best_score, tied = score, []
                tied.append(CandidateSplit(attribute, kind, None, [], score))
    if not tied:
        return None
    split = min(tied, key=CandidateSplit.sort_key)
    vectors = view[split.attribute]
    if binary:
        inside = vectors[split.value]
        outside = [t - i for t, i in zip(totals, inside)]
        edges = [("=", split.value, inside), ("<>", split.value, outside)]
    else:
        edges = [("=", v, vectors[v]) for v in cc.values_of(split.attribute)]
    split.children = [
        ChildSpec(PathCondition(split.attribute, op, value), sum(counts),
                  counts)
        for op, value, counts in edges
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
