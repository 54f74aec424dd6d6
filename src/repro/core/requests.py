"""The client/middleware interface of Figure 3: request and result queues.

The client queues one :class:`CountsRequest` per active tree node; the
middleware schedules batches, fulfils them, and posts
:class:`CountsResult` objects.  Requests carry everything the scheduler
needs — lineage (for staging locality, Rule 2), the exact data size
(known from the parent's CC table), and the estimated CC size — so the
middleware never has to inspect client data structures.  A child's
:class:`Family` carries its parent's CC table, from which (minus its
siblings') the largest child of a family sharing a batch is derived.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence, Union

from ..common.errors import MiddlewareError
from .filters import path_predicate

#: Opaque node identifier; the decision-tree client uses ints,
#: hand-written drivers and tests use strings.
NodeId = Union[int, str]


@dataclass(eq=False)
class Family:
    """One split, shared by its children's requests: the parent's id
    and CC table, and every child's id (leaves included).  The first
    scan holding any child drops the table: it derives there or never."""

    parent_id: NodeId
    parent_cc: Any
    child_ids: tuple[NodeId, ...]


class CountsRequest:
    """A request to build the CC table for one active node."""

    __slots__ = (
        "node_id",
        "lineage",
        "conditions",
        "attributes",
        "n_rows",
        "est_cc_pairs",
        "family",
        "_predicate",
    )

    def __init__(self, node_id: NodeId, lineage: Sequence[NodeId],
                 conditions: Iterable[Any],
                 attributes: Iterable[str], n_rows: int,
                 est_cc_pairs: int, family: Optional[Family] = None):
        """
        :param node_id: opaque, hashable node identifier.
        :param lineage: node ids from the root down to *this node
            inclusive*; staging locality checks test membership in it.
        :param conditions: the node's path conditions
            (:class:`~repro.core.filters.PathCondition` sequence).
        :param attributes: attribute names still present at the node.
        :param n_rows: exact data size |n| (from the parent's CC table).
        :param est_cc_pairs: estimated (attribute, value) pair count of
            the node's CC table (Section 4.2.1).
        :param family: the split this node is a child of, or None
            (the node is counted whatever shares its batch).
        """
        if not lineage or lineage[-1] != node_id:
            raise MiddlewareError("lineage must end with the node itself")
        if n_rows < 0:
            raise MiddlewareError("n_rows must be non-negative")
        if est_cc_pairs < 0:
            raise MiddlewareError("est_cc_pairs must be non-negative")
        self.node_id = node_id
        self.lineage = tuple(lineage)
        self.conditions = tuple(conditions)
        self.attributes = tuple(attributes)
        self.n_rows = int(n_rows)
        self.est_cc_pairs = int(est_cc_pairs)
        self.family = family
        self._predicate: Any = None

    @property
    def predicate(self) -> Any:
        """The AND of the path conditions as a SQL expression (TRUE
        for the root).  Built on first read: only a pushed-filter
        SERVER scan and the §4.1.1 SQL fallback ever ask."""
        if self._predicate is None:
            self._predicate = path_predicate(self.conditions)
        return self._predicate

    @property
    def is_root(self) -> bool:
        return not self.conditions or len(self.lineage) == 1

    def descends_from(self, node_id: NodeId) -> bool:
        """True if ``node_id`` is this node or one of its ancestors."""
        return node_id in self.lineage

    def __repr__(self) -> str:
        return (
            f"CountsRequest(node={self.node_id!r}, rows={self.n_rows}, "
            f"est_pairs={self.est_cc_pairs})"
        )


class CountsResult:
    """A fulfilled request: the node's CC table plus provenance."""

    __slots__ = ("node_id", "cc", "source", "used_sql_fallback")

    def __init__(self, node_id: NodeId, cc: Any, source: Any,
                 used_sql_fallback: bool = False):
        self.node_id = node_id
        self.cc = cc
        #: Where the data was read from: a DataLocation value.
        self.source = source
        #: True when the scan ran out of CC memory and this node was
        #: recounted with the lazy SQL path (Section 4.1.1).
        self.used_sql_fallback = used_sql_fallback

    def __repr__(self) -> str:
        return (
            f"CountsResult(node={self.node_id!r}, records={self.cc.records}, "
            f"source={self.source}, fallback={self.used_sql_fallback})"
        )


class RequestQueue:
    """FIFO of pending :class:`CountsRequest` with membership checks."""

    def __init__(self) -> None:
        self._queue: deque[CountsRequest] = deque()
        self._ids: set[NodeId] = set()

    def put(self, request: CountsRequest) -> None:
        if request.node_id in self._ids:
            raise MiddlewareError(
                f"node {request.node_id!r} already has a pending request"
            )
        self._queue.append(request)
        self._ids.add(request.node_id)

    def remove(self, requests: Iterable[CountsRequest]) -> None:
        """Remove specific requests (the scheduled batch)."""
        batch_ids = {r.node_id for r in requests}
        missing = batch_ids - self._ids
        if missing:
            raise MiddlewareError(f"requests not pending: {sorted(missing)}")
        self._queue = deque(
            r for r in self._queue if r.node_id not in batch_ids
        )
        self._ids -= batch_ids

    def pending(self) -> list[CountsRequest]:
        """Snapshot of pending requests in arrival order."""
        return list(self._queue)

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)
