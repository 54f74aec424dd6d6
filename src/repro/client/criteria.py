"""Splitting criteria, computed from CC tables only (Section 2.2).

Every criterion scores a partition of a node's records from the class
distributions of the would-be children — which the CC table provides
exactly — so no criterion ever touches data.  The paper's experiments
use "the standard entropy measure used in ID3, C4.5, and CART"; Gini
and gain ratio are provided for the broader family the scheme supports.

A criterion has two forms.  :meth:`SplitCriterion.scorer` is the
*scalar* form and the only one that decides anything: its value is a
split's score, compared with ``==``.  :meth:`SplitCriterion.binary_scores`
is the *array* form the split search prefilters with — all value-vs-rest
candidates of a batch of nodes in one call, one vector expression for
each criterion here — and may differ from the scalar form in the last
bits (``np.log2`` is not ``math.log2``), which is why the search
re-scores everything near its maximum through the scalar form.  The
default array form *is* the scalar one, evaluated per distinct row, so
a criterion that only implements ``scorer`` is searched by the same
flow.
"""

from __future__ import annotations

from math import log2
from typing import Any, Callable, Sequence, Union

from ..common.errors import ClientError
from ..sqlengine.columnar import np


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


def row_sums(matrix: Any) -> Any:
    """Row sums as a matrix-vector product: faster than sum(axis=1)."""
    return matrix @ np.ones(matrix.shape[1], dtype=matrix.dtype)


def _xlog2x(values: Any) -> Any:
    values = values.astype(np.float64)
    return values * np.log2(np.maximum(values, 1.0))


def _entropy_mass(counts: Any, sizes: Any) -> Any:
    """``n * entropy(row)`` for every row of ``counts`` (``int64``, row
    sums ``sizes``): ``n log2 n - sum(c log2 c)``, ``v log2 v`` read from
    a table of ``0..max`` when that is shorter than ``counts``."""
    top = int(sizes.max(initial=0))
    xlog2x = (_xlog2x(np.arange(top + 1)).take if top < counts.size
              else _xlog2x)
    return xlog2x(sizes) - row_sums(xlog2x(counts))


def _gini_mass(counts: Any, sizes: Any) -> Any:
    """``n * gini(row)`` for every row of ``counts`` (row sums
    ``sizes``): ``n - sum(c * c) / n``, an empty row weighing zero."""
    counts = counts.astype(np.float64)
    return sizes - row_sums(counts * counts) / np.maximum(sizes, 1.0)


#: A criterion with the parent bound: per-child class counts -> score.
Scorer = Callable[[Sequence[Sequence[int]]], float]


class SplitCriterion:
    """Interface: higher scores are better; <= 0 means "do not split".

    A criterion implements :meth:`scorer` only.  The split search binds
    a node's class counts once and scores candidates through the
    returned callable, so what depends on the parent alone (its
    impurity, its size) is computed once per node.
    """

    name = "abstract"

    def scorer(self, parent_counts: Sequence[int]) -> Scorer:
        """Bind the parent: returns ``children_counts -> score``, which
        reads the per-child class-count vectors without modifying them."""
        raise NotImplementedError

    def binary_scores(self, parents: Any, inside: Any) -> Any:
        """The array form: a float array scoring, for every row of
        ``inside`` (2-D ``int64``, one candidate per row), the binary
        partition ``(row, parent - row)``.  ``parents`` is one parent's
        class counts, every row's (1-D), or one parent row per row of
        ``inside`` (2-D): the split search scores a whole batch of
        nodes in one call.

        May differ from the scalar scorer's value by float rounding —
        far less than ``splits.SHORTLIST_MARGIN`` — and decides nothing
        by itself.  This default binds the scalar scorer once per
        distinct parent and asks it once per distinct row; a row that
        leaves a side empty (ignored by the search) scores 0.
        """
        scorers: dict[tuple[int, ...], Scorer] = {}
        scores: dict[tuple[tuple[int, ...], ...], float] = {}
        out = np.empty(len(inside), dtype=np.float64)
        for i, (parent, row) in enumerate(zip(
                np.broadcast_to(parents, inside.shape).tolist(),
                inside.tolist())):
            key = (tuple(parent), tuple(row))
            if key not in scores:
                outside = [t - c for t, c in zip(parent, row)]
                if key[0] not in scorers:
                    scorers[key[0]] = self.scorer(parent)
                scores[key] = (scorers[key[0]]((row, outside))
                               if any(row) and any(outside) else 0.0)
            out[i] = scores[key]
        return out

    def score(self, parent_counts: Sequence[int],
              children_counts: Sequence[Sequence[int]]) -> float:
        """Score one partition given parent and per-child class counts."""
        return self.scorer(parent_counts)(children_counts)


class _ImpurityDecrease(SplitCriterion):
    """I(parent) - Σ w_i · I(child_i) for the impurity measure ``I``.

    ``mass`` is ``impurity``'s array form — rows of class counts and
    their sizes -> each row's impurity times its size — or None for
    none; a subclass that replaces one replaces the other with it.
    """

    impurity = staticmethod(entropy)
    mass: Any = None

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

    def binary_scores(self, parents: Any, inside: Any) -> Any:
        mass_of = self.mass
        # The expression below spells *this* class's scorer: a subclass
        # that overrides ``scorer`` is prefiltered by its own instead.
        if mass_of is None or type(self).scorer is not _ImpurityDecrease.scorer:
            return super().binary_scores(parents, inside)
        # An empty parent scores 0, as the scalar scorer does.
        parents = np.broadcast_to(parents, inside.shape)
        totals, sides = row_sums(parents), row_sums(inside)
        return (mass_of(parents, totals) - mass_of(inside, sides)
                - mass_of(parents - inside, totals - sides)
                ) / np.maximum(totals, 1)


class InformationGain(_ImpurityDecrease):
    """ID3's information gain: H(parent) - Σ w_i · H(child_i)."""

    name = "entropy"
    mass = staticmethod(_entropy_mass)


class GiniGain(_ImpurityDecrease):
    """CART's impurity decrease: G(parent) - Σ w_i · G(child_i)."""

    name = "gini"
    impurity = staticmethod(gini)
    mass = staticmethod(_gini_mass)


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

    def binary_scores(self, parents: Any, inside: Any) -> Any:
        if type(self).scorer is not GainRatio.scorer:
            return super().binary_scores(parents, inside)
        gain = InformationGain().binary_scores(parents, inside)
        parents = np.broadcast_to(parents, inside.shape)
        sides, totals = row_sums(inside), row_sums(parents)
        sizes = np.stack((sides, totals - sides), axis=1)
        split_info = _entropy_mass(sizes, totals) / np.maximum(totals, 1)
        # Below 0.01, dividing would take the gain's rounding (< 1e-13)
        # near the margin: the scalar form scores those rows.
        shaky = split_info < 0.01
        scores = np.where(gain > 0.0,
                          gain / np.where(shaky, 1.0, split_info), 0.0)
        scores[shaky] = super().binary_scores(parents[shaky], inside[shaky])
        return scores


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

    def binary_scores(self, parents: Any, inside: Any) -> Any:
        if type(self).scorer is not ChiSquare.scorer:
            return super().binary_scores(parents, inside)
        # Two children deviate from expectation by opposite amounts, so
        # chi2 / N = N * sum(deviation**2 / class total) / (n_in n_out).
        parents = np.broadcast_to(parents, inside.shape).astype(np.float64)
        totals, sides = row_sums(parents), row_sums(inside.astype(np.float64))
        expected = sides[:, None] * parents / np.maximum(totals, 1)[:, None]
        share = row_sums((inside - expected) ** 2 / np.maximum(parents, 1))
        live = ((sides > 0) & (sides < totals)
                & (np.count_nonzero(parents, axis=1) > 1))
        return np.where(live, share * totals
                        / np.maximum(sides * (totals - sides), 1), 0.0)


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
