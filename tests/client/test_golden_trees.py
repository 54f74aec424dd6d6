"""Whole-tree goldens recorded at the commit before the single-pass
split search (71f6ea9): identity is pinned against history, not only
against the code under test.

To re-record (only when a change is *meant* to move the trees), run
``PYTHONPATH=src python -m tests.client.test_golden_trees``.
"""

import hashlib
import random

import pytest

from repro.client.baselines import grow_in_memory
from repro.client.growth import GrowthPolicy
from repro.datagen.agrawal import (
    AgrawalConfig,
    agrawal_spec,
    generate_agrawal_rows,
)
from repro.datagen.census import (
    CensusConfig,
    census_spec,
    generate_census_rows,
)
from repro.datagen.random_tree import RandomTreeConfig, build_random_tree

from ..conftest import tree_signature

CRITERIA = ("entropy", "gain_ratio", "gini", "chi2")


def _agrawal():
    config = AgrawalConfig(function=2, n_rows=1500, noise=0.05, seed=3)
    return agrawal_spec(), list(generate_agrawal_rows(config))


def _census():
    return census_spec(), list(
        generate_census_rows(CensusConfig(n_rows=1200, seed=5))
    )


def _random_tree():
    concept = build_random_tree(RandomTreeConfig(
        n_attributes=12, values_per_attribute=4, n_classes=6,
        n_leaves=60, cases_per_leaf=8, seed=2,
    ))
    return concept.spec, concept.materialize(random.Random(9))


FIXTURES = {
    "agrawal": _agrawal, "census": _census, "random_tree": _random_tree,
}

#: (fixture, criterion, binary) -> (nodes, sha256 of the structural
#: signature), as grown by ``grow_in_memory`` at 71f6ea9.
GOLDEN = {
    ("agrawal", "entropy", True): (
        429, "59843a90a0cb0017e6defb803b883264e87fd408bf147ca63ba2ff5f02c1ce61",
    ),
    ("agrawal", "entropy", False): (
        684, "4a83fa764fd08303394429dcc3b2149bbf8594aaf45e7c6d1e8bc98651d72172",
    ),
    ("agrawal", "gain_ratio", True): (
        519, "2489d367bd10dc922942f40d5ce415e5a8a13df61450a23ebfceb26719dfe6f2",
    ),
    ("agrawal", "gain_ratio", False): (
        625, "1fe7c37aba7f2a52bd646ed61e6d3f5b1ce26ab016fe43453f7c5d5aa7a0aa13",
    ),
    ("agrawal", "gini", True): (
        465, "41356dc8511ef4cea6313e2c40e2e9e7149c5bc0b1dc04445a742fb1da6d528c",
    ),
    ("agrawal", "gini", False): (
        684, "4a83fa764fd08303394429dcc3b2149bbf8594aaf45e7c6d1e8bc98651d72172",
    ),
    ("agrawal", "chi2", True): (
        465, "41356dc8511ef4cea6313e2c40e2e9e7149c5bc0b1dc04445a742fb1da6d528c",
    ),
    ("agrawal", "chi2", False): (
        683, "6ff3c4396d5a62fc004e524d82cf255e4ddcfb9db92df3bd8d1ab0c3d1cd209e",
    ),
    ("census", "entropy", True): (
        333, "3cac4ca0f83513dc17f8f9008740fb814b3691c6d70ea05e90bf43f421086572",
    ),
    ("census", "entropy", False): (
        718, "cb5813aada6f9cee29750f4a08ea4dd53fb60ea5d75952901a5f9e16af008358",
    ),
    ("census", "gain_ratio", True): (
        403, "7fe7406469a809d29a4969a2553c88d26926f036f318d3dad430c983827e0bb6",
    ),
    ("census", "gain_ratio", False): (
        632, "d89f8252488c82a14367db2da8705fa7ffcac6e3f5abdb6cfb485db1dca00c9b",
    ),
    ("census", "gini", True): (
        337, "f2c84ce678fd7b9a12cb1435991c9f2c1b480097af55aa162bce3311a9620f10",
    ),
    ("census", "gini", False): (
        703, "247839391eba79d4975fd18ad4174e56aa35c0c69fa788f69a2ef6754597538c",
    ),
    ("census", "chi2", True): (
        337, "078a5c02fc5958157bfe9b91113048d44df756d1cf100829a7640f4702f9b072",
    ),
    ("census", "chi2", False): (
        705, "9572aae7197a2d1c4419a4683a96e41d37048c04b0a32d1689b1d993ca5e4b66",
    ),
    ("random_tree", "entropy", True): (
        299, "191806042ba46799f3ddbc44e592df572555bb520940c6525454132a8dca0530",
    ),
    ("random_tree", "entropy", False): (
        325, "feed9fd936505ebea2e33fbad2bbeb7a488c8e318689acda4a01f0dbee9335c5",
    ),
    ("random_tree", "gain_ratio", True): (
        323, "197237dbc19c9ceba50c262be8f35106f50342d31a9e874911f20e1e9b08e113",
    ),
    ("random_tree", "gain_ratio", False): (
        304, "cc54c43710befaadca50374438ad1d233ee0523e410e8baa705bba2e58dd9288",
    ),
    ("random_tree", "gini", True): (
        383, "f2b17015c074a61691691d08e102acce4c5413134c132675de5af94a7a6cd503",
    ),
    ("random_tree", "gini", False): (
        379, "e5207dce594070dab4462f4bd7a56c9e8585cdbb36ab353e7749381209b07726",
    ),
    ("random_tree", "chi2", True): (
        301, "07be27b9c24f925bed678ae361f1c753dc79bdc46ec1a7d67fc8a7675f113f5c",
    ),
    ("random_tree", "chi2", False): (
        366, "a6278c0565449b4af3b85f5e36a0457091e69b09427a9f838d3248303dc5edcc",
    ),
}


def _grow(fixture, criterion, binary):
    spec, rows = FIXTURES[fixture]()
    tree = grow_in_memory(
        rows, spec, GrowthPolicy(criterion=criterion, binary_splits=binary)
    )
    digest = hashlib.sha256(repr(tree_signature(tree.root)).encode())
    return tree.n_nodes, digest.hexdigest()


@pytest.mark.parametrize("fixture, criterion, binary", sorted(GOLDEN))
def test_tree_matches_parent_commit(fixture, criterion, binary):
    assert _grow(fixture, criterion, binary) == GOLDEN[
        (fixture, criterion, binary)
    ]


if __name__ == "__main__":
    for name in FIXTURES:
        for criterion_name in CRITERIA:
            for binary_splits in (True, False):
                key = (name, criterion_name, binary_splits)
                print(f"    {key!r}: {_grow(*key)!r},")
