"""Unit tests for the Naive Bayes middleware client."""

import math

import pytest

from repro.client.baselines import build_cc_from_rows
from repro.client.naive_bayes import NaiveBayesClassifier
from repro.common.errors import ClientError, NotFittedError
from repro.core.config import MiddlewareConfig
from repro.core.middleware import Middleware
from repro.datagen.dataset import DatasetSpec
from repro.datagen.loader import load_dataset
from repro.sqlengine.database import SQLServer

SPEC = DatasetSpec([2, 2], 2)

# Class 0 strongly prefers A1=0, class 1 prefers A1=1; A2 is noise.
EASY_ROWS = (
    [(0, 0, 0)] * 20
    + [(0, 1, 0)] * 18
    + [(1, 0, 0)] * 2
    + [(1, 0, 1)] * 20
    + [(1, 1, 1)] * 18
    + [(0, 1, 1)] * 2
)


@pytest.fixture
def server():
    server = SQLServer()
    load_dataset(server, "data", SPEC, EASY_ROWS)
    return server


class TestFit:
    def test_fit_via_middleware_single_batch(self, server):
        with Middleware(server, "data", SPEC) as mw:
            model = NaiveBayesClassifier().fit(mw)
            assert mw.pending == 0
        assert mw.stats.batches == 1  # one CC request is all NB needs

    def test_predictions_follow_evidence(self, server):
        with Middleware(server, "data", SPEC) as mw:
            model = NaiveBayesClassifier().fit(mw)
        assert model.predict_values({"A1": 0, "A2": 0}) == 0
        assert model.predict_values({"A1": 1, "A2": 1}) == 1

    def test_accuracy_beats_chance(self, server):
        with Middleware(server, "data", SPEC) as mw:
            model = NaiveBayesClassifier().fit(mw)
        assert model.accuracy(EASY_ROWS) > 0.9

    def test_fit_from_cc_offline(self):
        cc = build_cc_from_rows(EASY_ROWS, SPEC, ("A1", "A2"))
        model = NaiveBayesClassifier().fit_from_cc(SPEC, cc)
        assert model.predict_row((0, 0, 0)) == 0

    def test_log_likelihoods_are_math_log_of_each_vector(self):
        # The model reads the table's counts once; every cell must still
        # be math.log of that (attribute, value)'s own vector, bit for
        # bit, including A1 = 3, a value the table never saw.
        spec = DatasetSpec([4, 2], 2)
        rows = [(0, 0, 0), (0, 1, 0), (1, 0, 1), (2, 0, 1), (2, 1, 0)]
        cc = build_cc_from_rows(rows, spec, ("A1", "A2"))
        model = NaiveBayesClassifier(alpha=0.5).fit_from_cc(spec, cc)
        totals = cc.class_totals()
        for (attribute, value, c), log_p in model._log_likelihoods.items():
            card = spec.cardinality(attribute)
            expected = math.log((cc.vector(attribute, value)[c] + 0.5)
                                / (totals[c] + 0.5 * card))
            assert log_p == expected
        assert len(model._log_likelihoods) == (4 + 2) * 2


class TestSmoothing:
    def test_unseen_value_does_not_crash(self, server):
        with Middleware(server, "data", SPEC) as mw:
            model = NaiveBayesClassifier(alpha=1.0).fit(mw)
        # Probability lookups for in-range values always exist thanks to
        # smoothing over the full cardinality.
        assert model.predict_values({"A1": 1, "A2": 0}) in (0, 1)

    def test_priors_sum_to_one(self, server):
        import math

        with Middleware(server, "data", SPEC) as mw:
            model = NaiveBayesClassifier().fit(mw)
        total = sum(
            math.exp(model.class_log_prior(c)) for c in range(2)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ClientError):
            NaiveBayesClassifier(alpha=-1)

    def test_empty_table_rejected(self):
        cc = build_cc_from_rows([], SPEC, ("A1", "A2"))
        with pytest.raises(ClientError):
            NaiveBayesClassifier().fit_from_cc(SPEC, cc)


class TestUnfitted:
    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            NaiveBayesClassifier().predict_values({"A1": 0})

    def test_repr(self):
        assert "unfitted" in repr(NaiveBayesClassifier())
