"""Shared tree-growth logic: Algorithm Grow driven by CC tables.

The middleware-driven classifier calls :func:`partition_nodes` with a
scan's batch of nodes and their CC tables; the in-memory reference
grower calls :func:`partition_node`, the same code for one node.  A
tree grown either way is *identical* given identical data — the
property the paper relies on ("this approach does not affect the
decision tree that is finally produced").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence, Union

from ..common.errors import ClientError
from .criteria import SplitCriterion, make_criterion
from .splits import best_splits, child_attributes
# Bound only for the e2e tracer's patch table (ROADMAP item 1(c)).
from .splits import best_split  # noqa: F401
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


def partition_nodes(tree: DecisionTree,
                    counted: Sequence[tuple[TreeNode, "CCTable"]],
                    policy: GrowthPolicy) -> list[list[TreeNode]]:
    """Partition a batch of counted ``(node, CC table)`` pairs; returns,
    per node in order, the children that need counts.

    A node becomes a leaf (terminal, or no acceptable split) or is
    partitioned, its children terminal by inherited statistics marked
    leaves at once.  One :func:`best_splits` call serves the batch.
    """
    searched: list[tuple[TreeNode, CCTable]] = []
    for node, cc in counted:
        if node.class_counts is None:
            # The root learns its class distribution from its own table.
            node.class_counts = cc.class_totals()
            node.n_rows = cc.records
        if cc.records != node.n_rows:
            raise ClientError(
                f"CC table for node {node.node_id} counted {cc.records} "
                f"rows, expected {node.n_rows}"
            )
        if is_terminal_before_counting(node, policy):
            node.mark_leaf()
        else:
            searched.append((node, cc))

    assert isinstance(policy.criterion, SplitCriterion)  # __post_init__
    found = best_splits([cc for _, cc in searched], policy.criterion,
                        binary=policy.binary_splits, min_gain=policy.min_gain)
    to_count: dict[int, list[TreeNode]] = {}
    for (node, cc), split in zip(searched, found):
        if split is None:
            node.mark_leaf()
            continue
        node.split_attribute = split.attribute
        node.split_kind = split.kind
        node.state = NodeState.PARTITIONED
        for spec in split.children:
            child = tree.add_child(
                node, spec.condition, spec.n_rows, spec.class_counts,
                child_attributes(node.attributes, cc, split, spec),
            )
            if is_terminal_before_counting(child, policy):
                child.mark_leaf()
            else:
                to_count.setdefault(node.node_id, []).append(child)
    return [to_count.get(node.node_id, []) for node, _ in counted]


def partition_node(tree: DecisionTree, node: TreeNode, cc: "CCTable",
                   policy: GrowthPolicy) -> list[TreeNode]:
    """Partition one counted node: :func:`partition_nodes` of one."""
    return partition_nodes(tree, [(node, cc)], policy)[0]
