"""The CC (counts) table — the paper's sufficient statistic.

For one tree node, the CC table holds, for every attribute ``A`` still
present at the node and every value ``v`` it takes in the node's data,
the vector of co-occurrence counts with each class value
(Section 2.2's 4-column ``(attr_name, value, class, count)`` table).

The paper stores CC tables as binary trees sorted so that "retrieving a
vector of counts for the states of a class correlated with a particular
attribute and its state is efficient".  Here each ``(attribute, value)``
pair maps to a dense per-class count vector, giving the same O(1)
vector retrieval; iteration is explicitly sorted.

Memory accounting: one ``(attribute, value)`` pair costs
``PAIR_KEY_BYTES + BYTES_PER_COUNT * n_classes`` simulated bytes, and
every size the scheduler reasons about is expressed in *pairs*.
"""

from __future__ import annotations

from operator import add
from typing import Any, Iterable, Mapping, Sequence

from ..common.errors import MiddlewareError

#: Simulated bytes for one (attribute, value) key.
PAIR_KEY_BYTES = 8
#: Simulated bytes for one class counter.
BYTES_PER_COUNT = 4


def bytes_for_pairs(n_pairs: int, n_classes: int) -> int:
    """Simulated size of a CC table with ``n_pairs`` (attr, value) pairs."""
    return n_pairs * (PAIR_KEY_BYTES + BYTES_PER_COUNT * n_classes)


def value_sort_key(value: Any) -> tuple[bool, str, Any]:
    """Deterministic ordering for possibly-None attribute values.

    NULL sorts first, then values grouped by type, so NULL and
    mixed-type values are never compared with each other directly.
    """
    return (value is not None, str(type(value)), value)


class CCTable:
    """Co-occurrence counts of (attribute, value) with the class."""

    __slots__ = ("attributes", "n_classes", "_vectors", "_records",
                 "_class_totals", "_view")

    def __init__(self, attributes: Iterable[str], n_classes: int) -> None:
        if n_classes < 1:
            raise MiddlewareError("CC table needs at least one class")
        self.attributes = tuple(attributes)
        self.n_classes = n_classes
        #: (attribute, value) -> list of class counts
        self._vectors: dict[tuple[str, Any], list[int]] = {}
        self._records = 0
        self._class_totals: list[int] = [0] * n_classes
        #: The cached :meth:`by_attribute` view and its pair count.
        self._view: tuple[int, dict[str, dict[Any, list[int]]]] = (-1, {})

    # -- updates ---------------------------------------------------------

    def count_row(self, values_by_attribute: Mapping[str, Any],
                  class_label: int) -> int:
        """Count one record.

        ``values_by_attribute`` maps attribute name -> value for (at
        least) every attribute in :attr:`attributes`.  Returns the
        number of *new* (attribute, value) pairs this record created,
        which callers use to grow their memory reservation.
        """
        if not 0 <= class_label < self.n_classes:
            # Unchecked, a label of -1 would count as the last class.
            raise MiddlewareError(f"class label {class_label} out of range")
        vectors = self._vectors
        new_pairs = 0
        for attribute in self.attributes:
            key = (attribute, values_by_attribute[attribute])
            vector = vectors.get(key)
            if vector is None:
                vector = [0] * self.n_classes
                vectors[key] = vector
                new_pairs += 1
            vector[class_label] += 1
        self._records += 1
        self._class_totals[class_label] += 1
        return new_pairs

    def would_add_pairs(
        self, values_by_attribute: Mapping[str, Any]
    ) -> int:
        """How many new pairs counting this record would create."""
        vectors = self._vectors
        return sum(
            1
            for attribute in self.attributes
            if (attribute, values_by_attribute[attribute]) not in vectors
        )

    def add_counts(self, attribute: str, value: Any, class_label: int,
                   count: int) -> None:
        """Bulk-add ``count`` co-occurrences (SQL result ingestion).

        Does *not* touch the record total — callers deriving a CC table
        from a SQL result set must call :meth:`set_records` (the record
        count equals the per-attribute sum, validated there).
        """
        if attribute not in self.attributes:
            raise MiddlewareError(f"unexpected attribute {attribute!r}")
        if not 0 <= class_label < self.n_classes:
            raise MiddlewareError(f"class label {class_label} out of range")
        key = (attribute, value)
        vector = self._vectors.get(key)
        if vector is None:
            vector = [0] * self.n_classes
            self._vectors[key] = vector
        vector[class_label] += count
        self._class_totals[class_label] += count

    def set_records(self, n_records: int) -> None:
        """Declare the record total after bulk ingestion.

        Class totals were accumulated once per attribute during
        ingestion; this rescales them back to per-record counts and
        validates consistency.
        """
        n_attributes = len(self.attributes)
        if n_attributes and self._records == 0:
            rescaled: list[int] = []
            for total in self._class_totals:
                if total % n_attributes:
                    raise MiddlewareError(
                        "inconsistent bulk counts: class total "
                        f"{total} not divisible by {n_attributes} attributes"
                    )
                rescaled.append(total // n_attributes)
            if sum(rescaled) != n_records:
                raise MiddlewareError(
                    f"bulk counts sum to {sum(rescaled)} records, "
                    f"expected {n_records}"
                )
            self._class_totals = rescaled
        self._records = n_records

    # -- reads ------------------------------------------------------------

    @property
    def records(self) -> int:
        """Number of records counted (|S| at the node)."""
        return self._records

    @property
    def n_pairs(self) -> int:
        """Number of distinct (attribute, value) pairs."""
        return len(self._vectors)

    @property
    def size_bytes(self) -> int:
        """Simulated memory footprint."""
        return bytes_for_pairs(self.n_pairs, self.n_classes)

    def class_totals(self) -> list[int]:
        """Per-class record counts at this node (a copy)."""
        return list(self._class_totals)

    def vector(self, attribute: str, value: Any) -> list[int]:
        """Class-count vector for ``(attribute, value)`` (a copy).

        Unseen pairs return a zero vector — a value absent from the
        node's data simply never co-occurred.
        """
        vector = self._vectors.get((attribute, value))
        if vector is None:
            return [0] * self.n_classes
        return list(vector)

    def by_attribute(self) -> Mapping[str, Mapping[Any, Sequence[int]]]:
        """The table grouped per attribute: ``attribute -> {value: counts}``.

        Every attribute of the node is present (in :attr:`attributes`
        order); values come in first-counted order.  Built in one pass
        over the pairs and kept: pairs are only ever added and the view
        shares the live count vectors (read-only for callers), so it is
        current for as long as it holds every pair of the table.
        """
        n_pairs, view = self._view
        if n_pairs != len(self._vectors):
            view = {attribute: {} for attribute in self.attributes}
            for (attribute, value), vector in self._vectors.items():
                view[attribute][value] = vector
            self._view = (len(self._vectors), view)
        return view

    def values_of(self, attribute: str) -> list[Any]:
        """Sorted values ``attribute`` takes in the node's data.

        NULL-safe: a None value (possible when mining tables loaded
        with validation off) sorts first.
        """
        return sorted(self.by_attribute().get(attribute, ()),
                      key=value_sort_key)

    def cardinality(self, attribute: str) -> int:
        """``card(n, A)`` — distinct values of ``attribute`` at the node."""
        return len(self.by_attribute().get(attribute, ()))

    def pair_count_by_attribute(self) -> dict[str, int]:
        """Mapping attribute -> cardinality (for estimators)."""
        return {
            attribute: len(vectors)
            for attribute, vectors in self.by_attribute().items()
        }

    def rows(self) -> list[tuple[str, Any, int, int]]:
        """The 4-column table, sorted: (attr_name, value, class, count).

        Zero counts are omitted, as a SQL GROUP BY would.
        """
        out: list[tuple[str, Any, int, int]] = []
        ordered = sorted(
            self._vectors.items(),
            key=lambda item: (item[0][0], value_sort_key(item[0][1])),
        )
        for (attribute, value), vector in ordered:
            for class_label, count in enumerate(vector):
                if count:
                    out.append((attribute, value, class_label, count))
        return out

    def merge(self, other: CCTable) -> CCTable:
        """Fold ``other``'s counts into this table (same shape required).

        CC tables are purely additive: counts built over disjoint row
        partitions merge *exactly*, and merging is commutative and
        associative, so per-worker partials from a parallel scan can be
        absorbed in any completion order and still equal the serial
        count.  This is the contract the parallel scan executor (and
        :meth:`merged`) relies on.  Returns ``self``.
        """
        if (other.attributes != self.attributes
                or other.n_classes != self.n_classes):
            raise MiddlewareError("cannot merge CC tables of different shape")
        for (attribute, value), vector in other._vectors.items():
            mine = self._vectors.get((attribute, value))
            if mine is None:
                self._vectors[(attribute, value)] = list(vector)
            else:
                for class_label, count in enumerate(vector):
                    mine[class_label] += count
        self._records += other._records
        for class_label, count in enumerate(other._class_totals):
            self._class_totals[class_label] += count
        return self

    def merge_block(self, n_records: int, class_totals: Sequence[int],
                    blocks: Iterable[tuple[str, Sequence[Any],
                                           Sequence[list[int]]]]) -> None:
        """Fold one vectorized partial: pre-aggregated count blocks.

        The counting kernel returns, per attribute, the distinct values
        it saw and their per-class count vectors (zero vectors already
        omitted).  Folding them is the same additive merge as
        :meth:`merge`, just without materializing a partial
        :class:`CCTable` per partition.  The blocks are consumed: a
        pair new to this table adopts the block's freshly built vector
        instead of copying it.
        """
        vectors = self._vectors
        for attribute, values, counts in blocks:
            for value, vector in zip(values, counts):
                mine = vectors.get((attribute, value))
                if mine is None:
                    vectors[(attribute, value)] = vector
                else:
                    # In place: ``by_attribute`` views share the list.
                    mine[:] = map(add, mine, vector)
        self._records += n_records
        for class_label, count in enumerate(class_totals):
            self._class_totals[class_label] += count

    @classmethod
    def merged(cls, attributes: Iterable[str], n_classes: int,
               partials: Iterable[CCTable]) -> CCTable:
        """Sum of additive partial tables (the parallel-scan merge).

        Builds one table of the given shape and folds every partial
        in; by the :meth:`merge` contract the result is independent of
        the order of ``partials``.
        """
        total = cls(attributes, n_classes)
        for partial in partials:
            total.merge(partial)
        return total

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CCTable)
            and self.attributes == other.attributes
            and self.n_classes == other.n_classes
            and self._records == other._records
            and self._vectors == other._vectors
        )

    def __repr__(self) -> str:
        return (
            f"CCTable(records={self._records}, pairs={self.n_pairs}, "
            f"attributes={len(self.attributes)})"
        )
