"""Node-path predicates and filter push-down (paper Section 4.3.1).

Each tree node carries the conjunction of edge conditions on its path
from the root (``S`` in the paper).  When a batch of nodes
``n_1..n_k`` is serviced by a server scan, the middleware generates the
disjunction ``S_1 OR ... OR S_k`` and pushes it into the cursor's WHERE
clause, so only rows relevant to *some* node in the batch are
transmitted — avoiding SLIQ/SPRINT's record tagging of server data.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from ..common.errors import MiddlewareError
from ..sqlengine.expr import TRUE, all_of, any_of, eq, ne

#: The two edge-condition operators produced by tree splits.
CONDITION_OPS = ("=", "<>")


class PathCondition:
    """One edge condition: ``attribute = value`` or ``attribute <> value``.

    Binary splits produce ``=`` on the chosen branch and ``<>`` on the
    "other" branch; complete (multiway) splits produce ``=`` only.
    """

    __slots__ = ("attribute", "op", "value")

    def __init__(self, attribute: str, op: str, value: object):
        if op not in CONDITION_OPS:
            raise MiddlewareError(f"unsupported edge condition op: {op!r}")
        self.attribute = attribute
        self.op = op
        self.value = value

    def to_expr(self) -> Any:
        """The condition as a SQL engine expression."""
        if self.op == "=":
            return eq(self.attribute, self.value)
        return ne(self.attribute, self.value)

    def matches(self, value: object) -> bool:
        """Evaluate the condition against a concrete attribute value."""
        if self.op == "=":
            return value == self.value
        return value != self.value

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PathCondition)
            and (self.attribute, self.op, self.value)
            == (other.attribute, other.op, other.value)
        )

    def __hash__(self) -> int:
        return hash((self.attribute, self.op, self.value))

    def __repr__(self) -> str:
        return f"PathCondition({self.attribute} {self.op} {self.value})"


def path_predicate(conditions: Iterable[PathCondition]) -> Any:
    """AND of a node's path conditions (TRUE for the root)."""
    return all_of([condition.to_expr() for condition in conditions])


class RoutingKernel:
    """Attribute-indexed row routing for one batched scan (the path route).

    The per-row matcher loop evaluates every node's path conjunction
    against every record — O(nodes × conditions) closure calls per row.
    This kernel compiles the batch once into per-attribute dispatch
    tables: each node occupies one bit of a candidate mask, and each
    attribute that appears in *any* node's path maps the attribute's
    row value to the mask of nodes still viable given that value.
    Routing a row is then one dict probe per constrained attribute
    (O(tree depth)), intersecting masks; the vector kernel does it a
    column at a time (``vector_kernel.route_masks``).

    A ``filtered`` kernel's rows are those its batch's pushed filter
    ``S_1 OR ... OR S_k`` keeps: some slot's path, under SQL's NULLs.

    The mask construction handles the full condition algebra the tree
    clients emit: repeated ``<>`` conditions on one attribute (the
    "other" branch of successive binary splits on the same attribute),
    an ``=`` combined with ``<>`` on the same attribute, and nodes with
    no condition on a probed attribute (always viable there).
    """

    __slots__ = ("_probes", "_full_mask", "n_slots", "filtered",
                 "constrained", "none_slots")

    def __init__(self, condition_sets: Iterable[Sequence[PathCondition]],
                 attr_index: Mapping[str, int], filtered: bool = False):
        """Compile the kernel.

        :param condition_sets: one sequence of :class:`PathCondition`
            per routing slot (node), in slot order.
        :param attr_index: mapping attribute name -> row tuple index.
        :param filtered: the scan counts the rows this batch's pushed
            filter keeps.
        """
        compiled = [tuple(conditions) for conditions in condition_sets]
        self.n_slots = len(compiled)
        self._full_mask = (1 << self.n_slots) - 1
        self.filtered = filtered
        #: Slots with a None literal: SQL's ``= NULL`` holds for no row.
        self.none_slots = 0

        # Per attribute: slot -> (set of required values, set of
        # excluded values).  A slot with several distinct required
        # values can never match (contradictory path); it simply never
        # enters any mask for that attribute.
        by_attr: dict[str, dict[int, tuple[set[object], set[object]]]] = {}
        for slot, conditions in enumerate(compiled):
            for condition in conditions:
                constrained = by_attr.get(condition.attribute)
                if constrained is None:
                    constrained = by_attr[condition.attribute] = {}
                pair = constrained.get(slot)
                if pair is None:
                    pair = constrained[slot] = (set(), set())
                pair[condition.op != "="].add(condition.value)
                if condition.value is None:
                    self.none_slots |= 1 << slot

        probes = []
        for attribute, constrained in by_attr.items():
            # Slots unconstrained on this attribute are viable for
            # every value, and so are slots with only exclusions for
            # any value outside their exclusion set: ``default``, the
            # mask of every value no condition names.  Each named
            # value starts from it, and only the constrained slots'
            # own conditions are visited — a ``<>``-only slot leaves
            # the values it excludes, an ``=`` slot joins the one value
            # it requires — so the work follows the conditions, not
            # attributes x values x slots.
            default = self._full_mask
            for slot, (eq_values, _) in constrained.items():
                if eq_values:
                    default &= ~(1 << slot)
            table: dict[object, int] = dict.fromkeys(
                (value for pair in constrained.values()
                 for values in pair for value in values),
                default,
            )
            for slot, (eq_values, ne_values) in constrained.items():
                if not eq_values:
                    for value in ne_values:
                        table[value] &= ~(1 << slot)
                elif len(eq_values) == 1:
                    (value,) = eq_values
                    if value not in ne_values:
                        table[value] |= 1 << slot
            probes.append((attr_index[attribute], table, default))
        self._probes = tuple(probes)
        #: Per probe, the slots its attribute constrains: a NULL cell
        #: fails them all in SQL.
        self.constrained = tuple(sum(1 << slot for slot in constrained)
                                 for constrained in by_attr.values())

    @property
    def n_probes(self) -> int:
        """Dispatch tables consulted per row (≤ distinct path attrs)."""
        return len(self._probes)

    @property
    def probes(self) -> tuple[tuple[int, dict[object, int], int], ...]:
        """The compiled dispatch tables: ``(row_index, table, default)``.

        Exposed for the vectorized kernel, which evaluates each probe
        column-at-a-time instead of row-at-a-time.
        """
        return self._probes

    @property
    def full_mask(self) -> int:
        """Mask with every slot's bit set (the routing starting point)."""
        return self._full_mask


def batch_filter(predicates: Iterable[Any]) -> Any | None:
    """The pushed-down disjunction ``S_1 OR ... OR S_k``.

    Returns ``None`` (no WHERE clause) when any predicate is TRUE —
    pushing ``... OR (1=1)`` would be pointless.
    """
    predicates = list(predicates)
    if not predicates:
        raise MiddlewareError("cannot build a filter for an empty batch")
    if any(p is TRUE or p == TRUE for p in predicates):
        return None
    return any_of(predicates)
