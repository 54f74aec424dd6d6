"""Synthetic census-like data (substitute for the U.S. Census data set).

The paper's third data set is a large public U.S. Census database, used
only to confirm that conclusions from synthetic data carry over to "a
real database".  We cannot ship that data, so this generator produces a
categorical data set with the same character: demographic-style
attributes of mixed cardinality, strong cross-attribute correlations,
and a binary income class driven by a noisy rule over several
attributes — so the induced tree is realistic (deep in places, heavily
pruned by purity in others) rather than uniformly random.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

from ..common.errors import DataGenerationError
from .dataset import DatasetSpec

#: (name, cardinality) for each attribute, loosely modelled on the UCI
#: Adult extract of the Census database.
CENSUS_ATTRIBUTES = (
    ("age_bracket", 9),        # 17-25, 26-30, ... 65+
    ("workclass", 8),
    ("education", 16),
    ("marital_status", 7),
    ("occupation", 14),
    ("relationship", 6),
    ("race", 5),
    ("sex", 2),
    ("hours_bracket", 5),
    ("native_region", 10),
    ("capital_gain_bracket", 4),
)


@dataclass(frozen=True)
class CensusConfig:
    """Knobs of the census-like workload."""

    n_rows: int = 30_000
    label_noise: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_rows < 1:
            raise DataGenerationError("n_rows must be positive")
        if not 0.0 <= self.label_noise <= 1.0:
            raise DataGenerationError("label_noise must be within [0, 1]")


def census_spec() -> DatasetSpec:
    """Dataset spec of the census-like table (binary income class)."""
    names = [name for name, _ in CENSUS_ATTRIBUTES]
    cards = [card for _, card in CENSUS_ATTRIBUTES]
    return DatasetSpec(cards, 2, attribute_names=names, class_name="income")


def generate_census_rows(
    config: CensusConfig,
) -> Iterator[tuple[int, ...]]:
    """Yield census-like rows (attribute codes + income label)."""
    rng = random.Random(config.seed)
    for _ in range(config.n_rows):
        person = _sample_person(rng)
        label = _income_label(person)
        if config.label_noise and rng.random() < config.label_noise:
            label = 1 - label
        yield person + (label,)


def generate_census_dataset(
    config: CensusConfig,
) -> "tuple[DatasetSpec, list[tuple[int, ...]]]":
    """Convenience: ``(spec, rows)`` for the census-like workload."""
    return census_spec(), list(generate_census_rows(config))


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------


class _Weighted:
    """A categorical distribution, sampled with one ``rng.random()``.

    The running totals are summed once, here, in the order a linear
    walk over ``weights`` would add them, so :meth:`draw` returns the
    index that walk would stop at for the same draw.
    """

    __slots__ = ("total", "cumulative")

    def __init__(self, weights: Sequence[float]) -> None:
        self.total = sum(weights)
        self.cumulative = list(accumulate(weights, initial=0.0))[1:]
        # A draw that rounds up to the total still lands on the last index.
        self.cumulative[-1] = math.inf

    def draw(self, rng: random.Random) -> int:
        return bisect_right(self.cumulative, rng.random() * self.total)


_AGE = _Weighted([8, 14, 14, 13, 12, 11, 10, 10, 8])
_OCCUPATION_HIGH_EDU = _Weighted([1, 1, 2, 2, 2, 8, 9, 9, 4, 4, 2, 2, 2, 2])
_OCCUPATION_LOW_EDU = _Weighted([8, 9, 8, 7, 6, 2, 1, 1, 3, 3, 5, 5, 4, 4])
_MARITAL_YOUNG = _Weighted([70, 12, 8, 4, 3, 2, 1])
_MARITAL_OLDER = _Weighted([18, 48, 12, 8, 6, 5, 3])
_RELATIONSHIP_MARRIED = _Weighted([40, 18, 14, 12, 9, 7])
_RELATIONSHIP_OTHER = _Weighted([10, 5, 28, 25, 18, 14])
_WORKCLASS = _Weighted([60, 8, 7, 7, 6, 5, 4, 3])
_RACE = _Weighted([72, 10, 9, 5, 4])
_SEX = _Weighted([52, 48])
_HOURS_SELF_EMPLOYED = _Weighted([5, 10, 30, 30, 25])
_HOURS_OTHER = _Weighted([8, 15, 52, 17, 8])
_REGION = _Weighted([55, 10, 8, 6, 5, 4, 4, 3, 3, 2])
_CAPITAL = _Weighted([84, 8, 5, 3])


def _sample_person(rng: random.Random) -> tuple[int, ...]:
    """Sample one correlated synthetic person, in
    :data:`CENSUS_ATTRIBUTES` order."""
    age = _AGE.draw(rng)
    # Education correlates with age (young people cap out lower).
    edu_top = 10 if age == 0 else 16
    education = min(int(rng.triangular(0, edu_top, edu_top * 0.6)), 15)
    # Occupation correlates with education.
    if education >= 12:
        occupation = _OCCUPATION_HIGH_EDU.draw(rng)
    else:
        occupation = _OCCUPATION_LOW_EDU.draw(rng)
    # Marital status correlates with age.
    marital = (_MARITAL_YOUNG if age <= 1 else _MARITAL_OLDER).draw(rng)
    relationship = (
        _RELATIONSHIP_MARRIED if marital == 1 else _RELATIONSHIP_OTHER
    ).draw(rng)
    workclass = _WORKCLASS.draw(rng)
    race = _RACE.draw(rng)
    sex = _SEX.draw(rng)
    # Hours correlate with workclass (self-employed work longer).
    hours = (
        _HOURS_SELF_EMPLOYED if workclass in (1, 2) else _HOURS_OTHER
    ).draw(rng)
    region = _REGION.draw(rng)
    capital = _CAPITAL.draw(rng)
    return (age, workclass, education, marital, occupation, relationship,
            race, sex, hours, region, capital)


def _income_label(person: tuple[int, ...]) -> int:
    """Noisy rule mapping demographics to a binary income class."""
    (age, _workclass, education, marital, occupation, _relationship,
     _race, sex, hours, _region, capital) = person
    score = 0.0
    score += 0.9 * min(education, 14) / 14.0
    score += 0.5 * (age >= 3)
    score += 0.6 * (marital == 1)
    score += 0.5 * (occupation in (5, 6, 7))
    score += 0.4 * (hours >= 3)
    score += 0.8 * (capital >= 2)
    score += 0.15 * (sex == 0)
    return 1 if score >= 1.8 else 0
