"""The middleware-driven decision-tree classifier (the paper's client).

Implements the client side of Figure 3:

1. queue a counts request for every active node,
2. wait for the middleware to fulfil *some* of them (the middleware
   decides the order),
3. consume the CC tables, partition those nodes, and queue requests
   for the new active children,
4. repeat until no active nodes remain.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from ..common.errors import NotFittedError
from ..core.estimators import estimate_cc_pairs, root_cc_pairs
from ..core.filters import PathCondition
from ..core.requests import CountsRequest, Family
from .criteria import SplitCriterion
from .growth import GrowthPolicy, partition_nodes
# Bound only for the e2e tracer's patch table (ROADMAP item 1(c)).
from .growth import partition_node  # noqa: F401
from .tree import DecisionTree, TreeNode

if TYPE_CHECKING:
    from ..core.middleware import Middleware
    from ..datagen.dataset import DatasetSpec


class DecisionTreeClassifier:
    """Decision-tree induction over a SQL table via the middleware."""

    def __init__(self, criterion: Union[str, SplitCriterion] = "entropy",
                 binary_splits: bool = True,
                 max_depth: Optional[int] = None, min_rows: int = 2,
                 min_gain: float = 0.0) -> None:
        self.policy = GrowthPolicy(
            criterion=criterion,
            binary_splits=binary_splits,
            max_depth=max_depth,
            min_rows=min_rows,
            min_gain=min_gain,
        )
        self.tree_: Optional[DecisionTree] = None

    # -- fitting ---------------------------------------------------------

    def fit(self, middleware: "Middleware") -> "DecisionTreeClassifier":
        """Grow the full tree through ``middleware``; returns self."""
        spec = middleware.spec
        tree = DecisionTree(spec)
        root = tree.root
        root.n_rows = middleware.server.table(middleware.table_name).row_count

        middleware.queue_request(self._root_request(root, spec))
        for results in middleware.serve():
            counted = []
            for result in results:
                node = tree.nodes[result.node_id]
                node.location_tag = result.source.tag
                counted.append((node, result.cc))
            batch = partition_nodes(tree, counted, self.policy)
            for (node, cc), children in zip(counted, batch):
                if not children:
                    continue
                parent_cards = cc.pair_count_by_attribute()
                # All children, so the largest may be derived from cc.
                family = Family(node.node_id, cc,
                                tuple(c.node_id for c in node.children))
                for child in children:
                    middleware.queue_request(
                        self._child_request(child, node, parent_cards, family)
                    )
        self.tree_ = tree
        return self

    def _root_request(self, root: TreeNode,
                      spec: "DatasetSpec") -> CountsRequest:
        assert root.n_rows is not None  # set by fit() before queueing
        return CountsRequest(
            node_id=root.node_id,
            lineage=root.lineage(),
            conditions=(),
            attributes=root.attributes,
            n_rows=root.n_rows,
            est_cc_pairs=root_cc_pairs(spec, root.attributes),
        )

    def _child_request(self, child: TreeNode, parent: TreeNode,
                       parent_cards: Mapping[str, int],
                       family: Family) -> CountsRequest:
        assert child.n_rows is not None and parent.n_rows is not None
        est_pairs = estimate_cc_pairs(
            child.n_rows,
            parent.n_rows,
            parent_cards,
            child.attributes,
        )
        return CountsRequest(
            node_id=child.node_id,
            lineage=child.lineage(),
            conditions=child.path_conditions(),
            attributes=child.attributes,
            n_rows=child.n_rows,
            est_cc_pairs=est_pairs,
            family=family,
        )

    # -- prediction -------------------------------------------------------

    @property
    def tree(self) -> DecisionTree:
        if self.tree_ is None:
            raise NotFittedError("call fit() before using the model")
        return self.tree_

    def predict_row(self, row: Sequence[Any]) -> int:
        return self.tree.predict_row(row)

    def predict(self, rows: Iterable[Sequence[Any]]) -> list[int]:
        return self.tree.predict(rows)

    def accuracy(self, rows: Iterable[Sequence[Any]]) -> float:
        return self.tree.accuracy(rows)

    def rules(
        self,
    ) -> list[tuple[list[PathCondition], int, Optional[int]]]:
        return self.tree.rules()

    def __repr__(self) -> str:
        if self.tree_ is None:
            return "DecisionTreeClassifier(unfitted)"
        return (
            f"DecisionTreeClassifier(nodes={self.tree_.n_nodes}, "
            f"leaves={self.tree_.n_leaves}, depth={self.tree_.depth})"
        )
