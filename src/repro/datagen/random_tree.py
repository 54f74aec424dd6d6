"""Data from random generating trees (paper Section 5.1.1).

A random decision tree is grown first; rows are then sampled so that
classifying the data reproduces the generating tree.  The knobs mirror
the paper's generator:

* ``n_leaves`` — tree size,
* ``complete_splits`` — split on every value of the chosen attribute
  (paper default) vs. binary value-vs-other splits,
* ``skew`` — 0 grows a balanced bushy tree, 1 a long lop-sided path
  (the Fig. 8a workload),
* ``cases_per_leaf`` with a standard deviation,
* per-attribute cardinalities with a standard deviation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Optional, Union

from ..common.errors import DataGenerationError
from .dataset import DatasetSpec

#: Branch label for the residual ("A = other") branch of a binary split.
OTHER = "other"

#: A branch is labelled by a value code or by :data:`OTHER`.
BranchValue = Union[int, str]

#: attr -> ("fixed", value) or ("excluded", frozenset of values).
Constraints = dict[str, tuple[str, Any]]


@dataclass(frozen=True)
class RandomTreeConfig:
    """Knobs of the generating-tree workload (paper defaults)."""

    n_attributes: int = 25
    values_per_attribute: int = 4
    values_stddev: float = 0.0
    n_classes: int = 10
    n_leaves: int = 500
    cases_per_leaf: int = 950
    cases_stddev: float = 0.0
    complete_splits: bool = True
    skew: float = 0.0
    class_noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_leaves < 1:
            raise DataGenerationError("n_leaves must be positive")
        if not 0.0 <= self.skew <= 1.0:
            raise DataGenerationError("skew must be within [0, 1]")
        if not 0.0 <= self.class_noise <= 1.0:
            raise DataGenerationError("class_noise must be within [0, 1]")
        if self.cases_per_leaf < 0:
            raise DataGenerationError("cases_per_leaf must be non-negative")


class GenNode:
    """One node of a generating tree."""

    __slots__ = ("attribute", "branches", "label", "depth", "constraints",
                 "splittable")

    def __init__(self, depth: int, constraints: Constraints) -> None:
        self.attribute: Optional[str] = None
        #: list of (branch_value_or_OTHER, child); None while a leaf.
        self.branches: Optional[list[tuple[BranchValue, GenNode]]] = None
        self.label: Optional[int] = None
        self.depth = depth
        self.constraints = constraints
        #: Attributes with two or more values left under
        #: ``constraints`` (which never change), computed on first use.
        self.splittable: Optional[list[str]] = None

    @property
    def is_leaf(self) -> bool:
        return self.attribute is None


class GeneratingTree:
    """A sampled decision tree plus the row sampler driven by it."""

    def __init__(self, spec: DatasetSpec, root: GenNode,
                 leaves: list[GenNode],
                 config: RandomTreeConfig) -> None:
        self.spec = spec
        self.root = root
        self.leaves = leaves
        self.config = config

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @property
    def depth(self) -> int:
        return max(leaf.depth for leaf in self.leaves)

    def expected_rows(self) -> int:
        """Expected data-set row count (exact when cases_stddev == 0)."""
        return self.n_leaves * self.config.cases_per_leaf

    def classify(self, row_values: Mapping[str, int]) -> int:
        """Label assigned by the generating tree to an attribute dict."""
        node = self.root
        while not node.is_leaf:
            # is_leaf means attribute is None; inner nodes always
            # carry both the attribute and their branch list.
            assert node.attribute is not None and node.branches is not None
            value = row_values[node.attribute]
            chosen: Optional[GenNode] = None
            other: Optional[GenNode] = None
            for branch_value, child in node.branches:
                if branch_value == OTHER:
                    other = child
                elif branch_value == value:
                    chosen = child
                    break
            matched = chosen if chosen is not None else other
            if matched is None:
                raise DataGenerationError(
                    "generating tree has no branch for value "
                    f"{value!r} of {row_values}"
                )
            node = matched
        assert node.label is not None  # assigned by build_random_tree
        return node.label

    def generate_rows(
        self, rng: Optional[random.Random] = None
    ) -> Iterator[tuple[int, ...]]:
        """Yield data rows (tuples of codes, class last)."""
        rng = rng or random.Random(self.config.seed + 1)
        spec = self.spec
        config = self.config
        for leaf in self.leaves:
            count = _case_count(rng, config)
            for _ in range(count):
                row = _sample_row(rng, spec, leaf.constraints)
                assert leaf.label is not None  # set when the tree was built
                label = leaf.label
                if config.class_noise and rng.random() < config.class_noise:
                    label = rng.randrange(spec.n_classes)
                yield tuple(row) + (label,)

    def materialize(
        self, rng: Optional[random.Random] = None
    ) -> list[tuple[int, ...]]:
        """All rows as a list (convenience for tests and loading)."""
        return list(self.generate_rows(rng))


def build_random_tree(config: RandomTreeConfig) -> GeneratingTree:
    """Grow a generating tree according to ``config``."""
    rng = random.Random(config.seed)
    cards = _attribute_cardinalities(rng, config)
    spec = DatasetSpec(cards, config.n_classes)

    root = GenNode(0, {})
    leaves: list[GenNode] = [root]
    # Expand until the leaf target is met or no leaf can be split further.
    while len(leaves) < config.n_leaves:
        index = _pick_expandable(rng, leaves, spec, config)
        if index is None:
            break
        node = leaves.pop(index)
        _split_node(rng, node, spec, config)
        assert node.branches is not None  # _split_node just set them
        leaves.extend(child for _, child in node.branches)

    for leaf in leaves:
        leaf.label = rng.randrange(config.n_classes)
    return GeneratingTree(spec, root, leaves, config)


def generate_random_tree_dataset(
    config: RandomTreeConfig,
) -> "tuple[GeneratingTree, list[tuple[int, ...]]]":
    """Convenience: build the tree and return ``(tree, rows)``."""
    tree = build_random_tree(config)
    return tree, tree.materialize()


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------


def _attribute_cardinalities(rng: random.Random,
                             config: RandomTreeConfig) -> list[int]:
    """Sample per-attribute cardinalities (min 2)."""
    cards: list[int] = []
    for _ in range(config.n_attributes):
        if config.values_stddev > 0:
            card = int(round(rng.gauss(
                config.values_per_attribute, config.values_stddev
            )))
        else:
            card = config.values_per_attribute
        cards.append(max(2, card))
    return cards


def _case_count(rng: random.Random, config: RandomTreeConfig) -> int:
    """Sample the number of cases for one leaf."""
    if config.cases_stddev > 0:
        return max(0, int(round(rng.gauss(
            config.cases_per_leaf, config.cases_stddev
        ))))
    return config.cases_per_leaf


def _allowed_values(spec: DatasetSpec, constraints: Constraints,
                    attribute: str) -> list[int]:
    """Values ``attribute`` may still take under ``constraints``."""
    card = spec.cardinality(attribute)
    constraint = constraints.get(attribute)
    if constraint is None:
        return list(range(card))
    kind, payload = constraint
    if kind == "fixed":
        return [payload]
    return [v for v in range(card) if v not in payload]


def _splittable_attributes(spec: DatasetSpec,
                           node: GenNode) -> list[str]:
    """Attributes with at least two remaining values at ``node``
    (worked out once per node: a leaf is asked on every round)."""
    if node.splittable is None:
        node.splittable = [
            name for name in spec.attribute_names
            if len(_allowed_values(spec, node.constraints, name)) >= 2
        ]
    return node.splittable


def _pick_expandable(rng: random.Random, leaves: list[GenNode],
                     spec: DatasetSpec,
                     config: RandomTreeConfig) -> Optional[int]:
    """Index of the next leaf to expand, honouring ``skew``.

    skew=0 expands the shallowest leaf (breadth-first, bushy tree);
    skew=1 expands the deepest (one long path).  Intermediate values
    mix the two policies.  Returns ``None`` if no leaf is splittable.
    """
    candidates = [
        i for i, leaf in enumerate(leaves)
        if _splittable_attributes(spec, leaf)
    ]
    if not candidates:
        return None
    deepest = rng.random() < config.skew
    if deepest:
        return max(candidates, key=lambda i: (leaves[i].depth, i))
    return min(candidates, key=lambda i: (leaves[i].depth, i))


def _split_node(rng: random.Random, node: GenNode, spec: DatasetSpec,
                config: RandomTreeConfig) -> None:
    """Split ``node`` on a random still-splittable attribute."""
    attribute = rng.choice(_splittable_attributes(spec, node))
    allowed = _allowed_values(spec, node.constraints, attribute)
    node.attribute = attribute
    branches: list[tuple[BranchValue, GenNode]] = []
    if config.complete_splits:
        for value in allowed:
            constraints = dict(node.constraints)
            constraints[attribute] = ("fixed", value)
            branches.append((value, GenNode(node.depth + 1, constraints)))
    else:
        value = rng.choice(allowed)
        fixed = dict(node.constraints)
        fixed[attribute] = ("fixed", value)
        branches.append((value, GenNode(node.depth + 1, fixed)))

        excluded = dict(node.constraints)
        previous = excluded.get(attribute)
        already: set[int] = (
            set(previous[1])
            if previous is not None and previous[0] == "excluded"
            else set()
        )
        excluded[attribute] = ("excluded", frozenset(already | {value}))
        branches.append((OTHER, GenNode(node.depth + 1, excluded)))
    node.branches = branches


def _sample_row(rng: random.Random, spec: DatasetSpec,
                constraints: Constraints) -> list[int]:
    """Sample attribute codes consistent with a leaf's constraints."""
    row: list[int] = []
    for name in spec.attribute_names:
        allowed = _allowed_values(spec, constraints, name)
        row.append(allowed[0] if len(allowed) == 1 else rng.choice(allowed))
    return row
