"""Shared tree-growth logic: Algorithm Grow driven by CC tables.

Both the middleware-driven classifier and the in-memory reference
grower call :func:`partition_node` with a node and its CC table, so a
tree grown either way is *identical* given identical data — the
property the paper relies on ("this approach does not affect the
decision tree that is finally produced").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

from ..common.errors import ClientError
from .criteria import SplitCriterion, make_criterion
from .splits import best_split, child_attributes
from .tree import DecisionTree, NodeState, TreeNode

if TYPE_CHECKING:
    from ..core.cc_table import CCTable


@dataclass
class GrowthPolicy:
    """Stopping rules and split preferences of one growth run."""

    #: A criterion instance, or its registry name (normalised by
    #: ``__post_init__``).
    criterion: Union[str, SplitCriterion] = field(
        default_factory=lambda: make_criterion("entropy")
    )
    #: Grow binary value-vs-rest splits (the paper's experiments) or
    #: complete multiway splits.
    binary_splits: bool = True
    #: Stop at this depth (None = unbounded; the paper grows full trees).
    max_depth: int | None = None
    #: Nodes with fewer records become leaves.
    min_rows: int = 2
    #: Required score improvement for a split to be accepted.
    min_gain: float = 0.0

    def __post_init__(self) -> None:
        self.criterion = make_criterion(self.criterion)
        if self.min_rows < 1:
            raise ClientError("min_rows must be at least 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ClientError("max_depth must be non-negative")


def is_terminal_before_counting(node: TreeNode,
                                policy: GrowthPolicy) -> bool:
    """Stopping rules decidable from inherited statistics alone.

    Children get exact sizes and class distributions from the parent's
    CC table, so purity / size / depth checks need no counting — such
    nodes become leaves without ever being requested (Algorithm Grow's
    step 4 before the recursive call).
    """
    if node.is_pure:
        return True
    if node.n_rows is not None and node.n_rows < policy.min_rows:
        return True
    if policy.max_depth is not None and node.depth >= policy.max_depth:
        return True
    if not node.attributes:
        return True
    return False


def partition_node(tree: DecisionTree, node: TreeNode, cc: "CCTable",
                   policy: GrowthPolicy) -> list[TreeNode]:
    """Partition one counted node; returns children needing counts.

    ``cc`` is the node's CC table.  The node either becomes a leaf (no
    acceptable split) or is partitioned; children that are terminal by
    inherited statistics are marked leaves immediately, the rest are
    returned for counting.
    """
    if node.class_counts is None:
        # The root learns its class distribution from its own CC table.
        node.class_counts = cc.class_totals()
        node.n_rows = cc.records
    if cc.records != node.n_rows:
        raise ClientError(
            f"CC table for node {node.node_id} counted {cc.records} rows, "
            f"expected {node.n_rows}"
        )

    if is_terminal_before_counting(node, policy):
        node.mark_leaf()
        return []

    assert isinstance(policy.criterion, SplitCriterion)  # __post_init__
    split = best_split(
        cc,
        policy.criterion,
        binary=policy.binary_splits,
        min_gain=policy.min_gain,
    )
    if split is None:
        node.mark_leaf()
        return []

    node.split_attribute = split.attribute
    node.split_kind = split.kind
    node.state = NodeState.PARTITIONED

    to_count: list[TreeNode] = []
    for child_spec in split.children:
        attributes = child_attributes(
            node.attributes, cc, split, child_spec
        )
        child = tree.add_child(
            node,
            child_spec.condition,
            child_spec.n_rows,
            child_spec.class_counts,
            attributes,
        )
        if is_terminal_before_counting(child, policy):
            child.mark_leaf()
        else:
            to_count.append(child)
    return to_count
