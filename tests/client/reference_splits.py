"""The split search as it stood before the single-pass rewrite (71f6ea9).

Kept verbatim as the oracle for ``test_splits_oracle``: the enumerators
that materialise every candidate's children, ``best_split`` that scores
each through ``criterion.score`` and takes the minimum under
``CandidateSplit.sort_key``, and the four criteria with the parent
impurity recomputed per candidate.  Only the imports differ from the
original: the data classes and impurity functions come from ``src``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.client.criteria import entropy, gini
from repro.client.splits import SCORE_EPSILON, CandidateSplit, ChildSpec
from repro.common.errors import ClientError
from repro.core.filters import PathCondition

if TYPE_CHECKING:
    from repro.core.cc_table import CCTable


class SplitCriterion:
    """Interface: higher scores are better; <= 0 means "do not split"."""

    name = "abstract"

    def score(self, parent_counts: Sequence[int],
              children_counts: Sequence[Sequence[int]]) -> float:
        """Score a partition given parent and per-child class counts."""
        raise NotImplementedError


class InformationGain(SplitCriterion):
    """ID3's information gain: H(parent) - Σ w_i · H(child_i)."""

    name = "entropy"

    def score(self, parent_counts: Sequence[int],
              children_counts: Sequence[Sequence[int]]) -> float:
        total = sum(parent_counts)
        if total == 0:
            return 0.0
        remainder = 0.0
        for counts in children_counts:
            weight = sum(counts) / total
            remainder += weight * entropy(counts)
        return entropy(parent_counts) - remainder


class GainRatio(SplitCriterion):
    """C4.5's gain ratio: information gain / split information."""

    name = "gain_ratio"

    def __init__(self) -> None:
        self._gain = InformationGain()

    def score(self, parent_counts: Sequence[int],
              children_counts: Sequence[Sequence[int]]) -> float:
        gain = self._gain.score(parent_counts, children_counts)
        if gain <= 0.0:
            return 0.0
        sizes = [sum(counts) for counts in children_counts]
        split_info = entropy(sizes)
        if split_info <= 0.0:
            return 0.0
        return gain / split_info


class GiniGain(SplitCriterion):
    """CART's impurity decrease: G(parent) - Σ w_i · G(child_i)."""

    name = "gini"

    def score(self, parent_counts: Sequence[int],
              children_counts: Sequence[Sequence[int]]) -> float:
        total = sum(parent_counts)
        if total == 0:
            return 0.0
        remainder = 0.0
        for counts in children_counts:
            weight = sum(counts) / total
            remainder += weight * gini(counts)
        return gini(parent_counts) - remainder


class ChiSquare(SplitCriterion):
    """CHAID-style chi-square association, normalised to [0, 1].

    The score is Cramér's V squared: χ² / (N · (min(r, c) − 1)) over
    the children × classes contingency table, so it is comparable to
    the other criteria under the same ``min_gain`` semantics — 0 means
    the partition is independent of the class, 1 a perfect association.
    """

    name = "chi2"

    def score(self, parent_counts: Sequence[int],
              children_counts: Sequence[Sequence[int]]) -> float:
        total = sum(parent_counts)
        if total == 0:
            return 0.0
        class_totals = [0] * len(parent_counts)
        for counts in children_counts:
            for label, count in enumerate(counts):
                class_totals[label] += count
        child_totals = [sum(counts) for counts in children_counts]

        statistic = 0.0
        for counts, child_total in zip(children_counts, child_totals):
            if child_total == 0:
                continue
            for label, observed in enumerate(counts):
                expected = child_total * class_totals[label] / total
                if expected > 0:
                    deviation = observed - expected
                    statistic += deviation * deviation / expected

        live_rows = sum(1 for t in child_totals if t)
        live_cols = sum(1 for t in class_totals if t)
        dof_scale = min(live_rows, live_cols) - 1
        if dof_scale <= 0:
            return 0.0
        return statistic / (total * dof_scale)


def enumerate_binary_splits(
    cc: "CCTable", attribute: str
) -> list[tuple[Any, list[ChildSpec]]]:
    """All value-vs-rest splits of ``attribute`` with two non-empty sides."""
    totals = cc.class_totals()
    candidates: list[tuple[Any, list[ChildSpec]]] = []
    for value in cc.values_of(attribute):
        inside = cc.vector(attribute, value)
        n_inside = sum(inside)
        n_outside = cc.records - n_inside
        if n_inside == 0 or n_outside == 0:
            continue
        outside = [t - i for t, i in zip(totals, inside)]
        children = [
            ChildSpec(PathCondition(attribute, "=", value), n_inside, inside),
            ChildSpec(
                PathCondition(attribute, "<>", value), n_outside, outside
            ),
        ]
        candidates.append((value, children))
    return candidates


def enumerate_multiway_split(
    cc: "CCTable", attribute: str
) -> Optional[list[ChildSpec]]:
    """The complete split of ``attribute`` (one child per value), or None."""
    values = cc.values_of(attribute)
    if len(values) < 2:
        return None
    children: list[ChildSpec] = []
    for value in values:
        counts = cc.vector(attribute, value)
        children.append(
            ChildSpec(PathCondition(attribute, "=", value), sum(counts), counts)
        )
    return children


def best_split(cc: "CCTable", criterion: SplitCriterion,
               binary: bool = True,
               min_gain: float = 0.0) -> Optional[CandidateSplit]:
    """The highest-scoring candidate split, or None if none qualifies.

    ``min_gain`` filters out splits whose score is not strictly above
    it (0.0 rejects zero-gain splits, which would loop forever).
    """
    if cc.records == 0:
        raise ClientError("cannot split an empty node")
    parent_counts = cc.class_totals()
    candidates: list[CandidateSplit] = []
    for attribute in cc.attributes:
        if binary:
            for value, children in enumerate_binary_splits(cc, attribute):
                score = criterion.score(
                    parent_counts, [c.class_counts for c in children]
                )
                if score > min_gain + SCORE_EPSILON:
                    candidates.append(
                        CandidateSplit(attribute, "binary", value, children,
                                       score)
                    )
        else:
            children = enumerate_multiway_split(cc, attribute)
            if children is None:
                continue
            score = criterion.score(
                parent_counts, [c.class_counts for c in children]
            )
            if score > min_gain + SCORE_EPSILON:
                candidates.append(
                    CandidateSplit(attribute, "multiway", None, children,
                                   score)
                )
    if not candidates:
        return None
    return min(candidates, key=CandidateSplit.sort_key)


REFERENCE_CRITERIA: dict[str, SplitCriterion] = {
    cls.name: cls()
    for cls in (InformationGain, GainRatio, GiniGain, ChiSquare)
}
