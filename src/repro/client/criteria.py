"""Splitting criteria, computed from CC tables only (Section 2.2).

Every criterion scores a partition of a node's records from the class
distributions of the would-be children — which the CC table provides
exactly — so no criterion ever touches data.  The paper's experiments
use "the standard entropy measure used in ID3, C4.5, and CART"; Gini
and gain ratio are provided for the broader family the scheme supports.
"""

from __future__ import annotations

from math import log2
from typing import Callable, Sequence, Union

from ..common.errors import ClientError


def entropy(counts: Sequence[float]) -> float:
    """Shannon entropy (bits) of a class-count vector."""
    total = sum(counts)
    if total == 0:
        return 0.0
    result = 0.0
    for count in counts:
        if count:
            p = count / total
            result -= p * log2(p)
    return result


def gini(counts: Sequence[float]) -> float:
    """Gini impurity of a class-count vector."""
    total = sum(counts)
    if total == 0:
        return 0.0
    return 1.0 - sum((count / total) ** 2 for count in counts)


#: A criterion with the parent bound: per-child class counts -> score.
Scorer = Callable[[Sequence[Sequence[int]]], float]


class SplitCriterion:
    """Interface: higher scores are better; <= 0 means "do not split".

    A criterion implements :meth:`scorer` only.  The split search binds
    a node's class counts once and scores every candidate through the
    returned callable, so what depends on the parent alone (its
    impurity, its size) is computed once per node.
    """

    name = "abstract"

    def scorer(self, parent_counts: Sequence[int]) -> Scorer:
        """Bind the parent: returns ``children_counts -> score``, which
        reads the per-child class-count vectors without modifying them."""
        raise NotImplementedError

    def score(self, parent_counts: Sequence[int],
              children_counts: Sequence[Sequence[int]]) -> float:
        """Score one partition given parent and per-child class counts."""
        return self.scorer(parent_counts)(children_counts)


class _ImpurityDecrease(SplitCriterion):
    """I(parent) - Σ w_i · I(child_i) for the impurity measure ``I``."""

    impurity = staticmethod(entropy)

    def scorer(self, parent_counts: Sequence[int]) -> Scorer:
        total = sum(parent_counts)
        if total == 0:
            return lambda children_counts: 0.0
        impurity = self.impurity
        parent_impurity = impurity(parent_counts)

        def score(children_counts: Sequence[Sequence[int]]) -> float:
            remainder = 0.0
            for counts in children_counts:
                remainder += sum(counts) / total * impurity(counts)
            return parent_impurity - remainder

        return score


class InformationGain(_ImpurityDecrease):
    """ID3's information gain: H(parent) - Σ w_i · H(child_i)."""

    name = "entropy"


class GiniGain(_ImpurityDecrease):
    """CART's impurity decrease: G(parent) - Σ w_i · G(child_i)."""

    name = "gini"
    impurity = staticmethod(gini)


class GainRatio(SplitCriterion):
    """C4.5's gain ratio: information gain / split information."""

    name = "gain_ratio"

    def scorer(self, parent_counts: Sequence[int]) -> Scorer:
        gain_of = InformationGain().scorer(parent_counts)

        def score(children_counts: Sequence[Sequence[int]]) -> float:
            gain = gain_of(children_counts)
            if gain <= 0.0:
                return 0.0
            split_info = entropy([sum(counts) for counts in children_counts])
            if split_info <= 0.0:
                return 0.0
            return gain / split_info

        return score


class ChiSquare(SplitCriterion):
    """CHAID-style chi-square association, normalised to [0, 1].

    The score is Cramér's V squared: χ² / (N · (min(r, c) − 1)) over
    the children × classes contingency table, so it is comparable to
    the other criteria under the same ``min_gain`` semantics — 0 means
    the partition is independent of the class, 1 a perfect association.
    """

    name = "chi2"

    def scorer(self, parent_counts: Sequence[int]) -> Scorer:
        total = sum(parent_counts)
        if total == 0:
            return lambda children_counts: 0.0
        n_classes = len(parent_counts)

        def score(children_counts: Sequence[Sequence[int]]) -> float:
            class_totals = [0] * n_classes
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

        return score


_CRITERIA: dict[str, type[SplitCriterion]] = {
    cls.name: cls
    for cls in (InformationGain, GainRatio, GiniGain, ChiSquare)
}


def make_criterion(name: Union[str, SplitCriterion]) -> SplitCriterion:
    """Instantiate a criterion by name ('entropy', 'gain_ratio', 'gini')."""
    if isinstance(name, SplitCriterion):
        return name
    try:
        return _CRITERIA[name]()
    except KeyError:
        raise ClientError(
            f"unknown criterion {name!r}; choose from {sorted(_CRITERIA)}"
        ) from None
