"""Unit tests for the census-like workload."""

import hashlib

import pytest

from repro.common.errors import DataGenerationError
from repro.datagen.census import (
    CENSUS_ATTRIBUTES,
    CensusConfig,
    census_spec,
    generate_census_dataset,
    generate_census_rows,
)


class TestSpec:
    def test_attribute_profile(self):
        spec = census_spec()
        assert spec.n_attributes == len(CENSUS_ATTRIBUTES)
        assert spec.n_classes == 2
        assert spec.class_name == "income"
        assert spec.cardinality("education") == 16
        assert spec.cardinality("sex") == 2


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs", [{"n_rows": 0}, {"label_noise": -0.1}, {"label_noise": 1.5}]
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(DataGenerationError):
            CensusConfig(**kwargs)


class TestGeneration:
    def rows(self, **overrides):
        config = CensusConfig(n_rows=2000, seed=5, **overrides)
        return list(generate_census_rows(config))

    def test_row_count(self):
        assert len(self.rows()) == 2000

    def test_rows_valid(self):
        spec = census_spec()
        for row in self.rows()[:200]:
            spec.validate_row(row)

    def test_deterministic(self):
        assert self.rows() == self.rows()

    def test_both_classes_present(self):
        labels = {row[-1] for row in self.rows()}
        assert labels == {0, 1}

    def test_education_correlates_with_income(self):
        spec = census_spec()
        edu = spec.attribute_names.index("education")
        rows = self.rows(label_noise=0.0)
        high = [r for r in rows if r[edu] >= 13]
        low = [r for r in rows if r[edu] <= 5]
        assert high and low
        rate_high = sum(r[-1] for r in high) / len(high)
        rate_low = sum(r[-1] for r in low) / len(low)
        assert rate_high > rate_low + 0.2

    def test_noise_flips_labels(self):
        clean = self.rows(label_noise=0.0)
        noisy = self.rows(label_noise=0.3)
        differing = sum(
            1 for a, b in zip(clean, noisy) if a[:-1] == b[:-1] and a[-1] != b[-1]
        )
        assert differing > 0

    def test_marital_correlates_with_age(self):
        spec = census_spec()
        age = spec.attribute_names.index("age_bracket")
        marital = spec.attribute_names.index("marital_status")
        rows = self.rows()
        young_married = [
            r for r in rows if r[age] <= 1 and r[marital] == 1
        ]
        older_married = [
            r for r in rows if r[age] >= 3 and r[marital] == 1
        ]
        young = [r for r in rows if r[age] <= 1]
        older = [r for r in rows if r[age] >= 3]
        assert len(older_married) / len(older) > len(young_married) / len(young)


#: sha256 of ``repr(rows)`` for 5,000 rows, recorded at commit fa89e44
#: (the per-draw ``sum(weights)`` walk, dict-per-person generator).
GOLDEN_ROWS = {
    (0.0, 0): "9e768d0ccfbe9f25aefe9139557205ed5ace65cc655f4c3ac3beca6be6f7bb82",
    (0.0, 1): "d2a8f573854d463e50f6a82d4cb57e02bee6a74c22a7839fbe0a633555fa4994",
    (0.0, 7): "e860a65290b2144d474804e626ad458b4fba83193c191d64517079e1e9eb9d59",
    (0.0, 12345):
        "ace3307fb5fd2810dfff062c57b110c61dc3bc8e43dfd71842ed7b51976144e5",
    (0.05, 0): "4a055f87673402bf0f09ae8ef0bfb18e6c2199de0d06d30a4707e238d5248cb4",
    (0.05, 1): "34828ce9848f3b3776b2916b59e453cbd14d99b8d9a499ee329cb856b0dfdda8",
    (0.05, 7): "e559b58351c6101a61d75bd64493bd33e7604ac61af321e46655dfa88157dbb3",
    (0.05, 12345):
        "b755e9ee9ad84e96508d5deab5c73cdb6e754d60df8906ca51b4c9813b8f677b",
}


class TestGolden:
    @pytest.mark.parametrize("label_noise, seed", sorted(GOLDEN_ROWS))
    def test_rows_bit_identical_to_recorded(self, label_noise, seed):
        rows = list(generate_census_rows(CensusConfig(
            n_rows=5000, label_noise=label_noise, seed=seed,
        )))
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == GOLDEN_ROWS[(label_noise, seed)]


class TestConvenience:
    def test_generate_dataset_tuple(self):
        spec, rows = generate_census_dataset(CensusConfig(n_rows=50, seed=1))
        assert spec.class_name == "income"
        assert len(rows) == 50
