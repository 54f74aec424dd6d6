"""Naive Bayes over the middleware.

The paper notes that "other classification algorithms such as Naive
Bayes can also plug-in to this architecture": Naive Bayes is driven by
exactly one CC table — the root's — since
``P(A = v | C = c)`` is ``count(A, v, c) / count(c)``.  This client
issues that single request and never touches data.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional, Sequence

from ..common.errors import ClientError, NotFittedError
from ..core.estimators import root_cc_pairs
from ..core.requests import CountsRequest

if TYPE_CHECKING:
    from ..core.cc_table import CCTable
    from ..core.middleware import Middleware
    from ..datagen.dataset import DatasetSpec


class NaiveBayesClassifier:
    """Multinomial Naive Bayes with Laplace smoothing."""

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha < 0:
            raise ClientError("smoothing alpha must be non-negative")
        self.alpha = alpha
        self._spec: Optional["DatasetSpec"] = None
        self._log_priors: Optional[list[float]] = None
        #: (attribute, value, class) -> log probability
        self._log_likelihoods: Optional[dict[tuple[str, Any, int],
                                            float]] = None
        self._class_counts: Optional[list[int]] = None
        self._attributes: tuple[str, ...] = ()

    def fit(self, middleware: "Middleware") -> "NaiveBayesClassifier":
        """Request the root CC table and derive the model; returns self."""
        spec = middleware.spec
        attributes = tuple(
            name for name in spec.attribute_names
            if spec.cardinality(name) >= 2
        )
        n_rows = middleware.server.table(middleware.table_name).row_count
        request = CountsRequest(
            node_id="nb-root",
            lineage=("nb-root",),
            conditions=(),
            attributes=attributes,
            n_rows=n_rows,
            est_cc_pairs=root_cc_pairs(spec, attributes),
        )
        middleware.queue_request(request)
        (result,) = middleware.process_next_batch()
        self._build_model(spec, attributes, result.cc)
        return self

    def fit_from_cc(self, spec: "DatasetSpec",
                    cc: "CCTable") -> "NaiveBayesClassifier":
        """Build the model from an existing root CC table (offline path)."""
        self._build_model(spec, cc.attributes, cc)
        return self

    def _build_model(self, spec: "DatasetSpec",
                     attributes: Iterable[str], cc: "CCTable") -> None:
        totals = cc.class_totals()
        n = cc.records
        if n == 0:
            raise ClientError("cannot fit Naive Bayes on an empty table")
        alpha = self.alpha
        n_classes = spec.n_classes

        self._log_priors = [
            math.log((totals[c] + alpha) / (n + alpha * n_classes))
            for c in range(n_classes)
        ]
        # One read of the counts; math.log per cell, as np.log may differ
        # in the last ulp and flip a tied prediction.
        vectors = {cc.pair(row): v for row, v in enumerate(cc.counts.tolist())}
        unseen = [0] * n_classes  # a pair the table lacks never co-occurred
        likelihoods: dict[tuple[str, Any, int], float] = {}
        for attribute in attributes:
            card = spec.cardinality(attribute)
            for value in range(card):
                vector = vectors.get((attribute, value), unseen)
                for c in range(n_classes):
                    likelihoods[(attribute, value, c)] = math.log(
                        (vector[c] + alpha) / (totals[c] + alpha * card)
                    )
        self._log_likelihoods = likelihoods
        self._class_counts = totals
        self._spec = spec
        self._attributes = tuple(attributes)

    # -- prediction ---------------------------------------------------------

    def _require_fitted(self) -> None:
        if self._log_priors is None:
            raise NotFittedError("call fit() before predicting")

    def predict_values(self,
                       values_by_attribute: Mapping[str, Any]) -> int:
        """Most probable class for an attribute dict."""
        self._require_fitted()
        assert self._log_priors is not None
        assert self._log_likelihoods is not None
        best_class = 0
        best_score = -math.inf
        lookup = self._log_likelihoods
        for c, prior in enumerate(self._log_priors):
            score = prior
            for attribute in self._attributes:
                value = values_by_attribute[attribute]
                term = lookup.get((attribute, value, c))
                if term is not None:
                    score += term
            if score > best_score:
                best_score = score
                best_class = c
        return best_class

    def predict_row(self, row: Sequence[Any]) -> int:
        self._require_fitted()
        assert self._spec is not None
        values = dict(zip(self._spec.attribute_names, row))
        return self.predict_values(values)

    def predict(self, rows: Iterable[Sequence[Any]]) -> list[int]:
        return [self.predict_row(row) for row in rows]

    def accuracy(self, rows: Iterable[Sequence[Any]]) -> float:
        data = list(rows)
        if not data:
            raise ClientError("cannot score an empty data set")
        hits = sum(1 for row in data if self.predict_row(row) == row[-1])
        return hits / len(data)

    def class_log_prior(self, c: int) -> float:
        self._require_fitted()
        assert self._log_priors is not None
        return self._log_priors[c]

    def __repr__(self) -> str:
        if self._log_priors is None:
            return "NaiveBayesClassifier(unfitted)"
        return (
            f"NaiveBayesClassifier(classes={len(self._log_priors)}, "
            f"alpha={self.alpha})"
        )
