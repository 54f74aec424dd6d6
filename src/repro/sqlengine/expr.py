"""Predicate and scalar expression trees.

This AST is shared by three consumers:

* the SQL parser produces it for WHERE clauses,
* the executor compiles it into a fast row-level callable,
* the middleware builds node-path filters from it directly
  (Section 4.3.1) and renders them back to SQL for server execution.

Expressions are immutable.  ``compile_predicate`` turns an expression
into a closure over column positions so a scan evaluates it with tuple
indexing only — no per-row dictionary building.

NULL semantics are simplified: any comparison involving ``None`` is
false.  The mining workloads never generate NULLs; the rule exists so
the engine is total.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from .lexer import quote_identifier
from .types import Row, SQLValue

if TYPE_CHECKING:
    from .schema import TableSchema

#: A compiled expression: evaluates one row tuple to a value (scalar
#: expressions) or a truth value (predicates).
RowFunc = Callable[[Row], Any]

COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")

_OP_FUNCS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def sql_literal(value: object) -> str:
    """Render a Python value as a SQL literal."""
    if value is None:
        return "NULL"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


class Expr:
    """Base class for all expression nodes."""

    def columns(self) -> set[str]:
        """Set of column names this expression references."""
        raise NotImplementedError

    def to_sql(self) -> str:
        """Render this expression as SQL text."""
        raise NotImplementedError

    def compile(self, schema: "TableSchema") -> RowFunc:
        """Return ``callable(row_tuple) -> value`` for rows of ``schema``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_sql()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expr) or type(self) is not type(other):
            return False
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> tuple[object, ...]:
        raise NotImplementedError


class Literal(Expr):
    """A constant value."""

    __slots__ = ("value",)

    def __init__(self, value: SQLValue) -> None:
        self.value = value

    def columns(self):
        return set()

    def to_sql(self):
        return sql_literal(self.value)

    def compile(self, schema):
        value = self.value
        return lambda row: value

    def _key(self):
        # 1 and 1.0 are different literals (they render, and pass the
        # vector count, differently) although Python equates them; so
        # are 1 and True.
        return (type(self.value), self.value)


class ColumnRef(Expr):
    """A reference to a column by name."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def columns(self):
        return {self.name}

    def to_sql(self):
        return quote_identifier(self.name)

    def compile(self, schema):
        index = schema.index_of(self.name)
        return lambda row: row[index]

    def _key(self):
        return (self.name,)


class Comparison(Expr):
    """A binary comparison between two scalar expressions."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator: {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def columns(self):
        return self.left.columns() | self.right.columns()

    def to_sql(self):
        return f"{self.left.to_sql()} {self.op} {self.right.to_sql()}"

    def compile(self, schema):
        left = self.left.compile(schema)
        right = self.right.compile(schema)
        func = _OP_FUNCS[self.op]

        def evaluate(row: Row) -> bool:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return False
            return func(a, b)

        return evaluate

    def _key(self):
        return (self.op, self.left, self.right)


class InList(Expr):
    """``expr IN (v1, v2, ...)`` against literal values."""

    __slots__ = ("operand", "values")

    def __init__(self, operand: Expr,
                 values: Iterable[SQLValue]) -> None:
        self.operand = operand
        self.values = tuple(values)
        if not self.values:
            raise ValueError("IN list must not be empty")

    def columns(self):
        return self.operand.columns()

    def to_sql(self):
        rendered = ", ".join(sql_literal(v) for v in self.values)
        return f"{self.operand.to_sql()} IN ({rendered})"

    def compile(self, schema):
        operand = self.operand.compile(schema)
        values = frozenset(self.values)

        def evaluate(row: Row) -> bool:
            v = operand(row)
            return v is not None and v in values

        return evaluate

    def _key(self):
        return (self.operand, self.values)


class And(Expr):
    """Conjunction of one or more predicates."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[Expr]) -> None:
        self.parts = tuple(parts)
        if not self.parts:
            raise ValueError("AND needs at least one operand")

    def columns(self):
        names = set()
        for part in self.parts:
            names |= part.columns()
        return names

    def to_sql(self):
        return " AND ".join(_parenthesize(p) for p in self.parts)

    def compile(self, schema):
        compiled = [p.compile(schema) for p in self.parts]

        def evaluate(row: Row) -> bool:
            return all(c(row) for c in compiled)

        return evaluate

    def _key(self):
        return (self.parts,)


class Or(Expr):
    """Disjunction of one or more predicates."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[Expr]) -> None:
        self.parts = tuple(parts)
        if not self.parts:
            raise ValueError("OR needs at least one operand")

    def columns(self):
        names = set()
        for part in self.parts:
            names |= part.columns()
        return names

    def to_sql(self):
        return " OR ".join(_parenthesize(p) for p in self.parts)

    def compile(self, schema):
        compiled = [p.compile(schema) for p in self.parts]

        def evaluate(row: Row) -> bool:
            return any(c(row) for c in compiled)

        return evaluate

    def _key(self):
        return (self.parts,)


class Not(Expr):
    """Negation of a predicate."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def columns(self):
        return self.operand.columns()

    def to_sql(self):
        return f"NOT {_parenthesize(self.operand)}"

    def compile(self, schema):
        operand = self.operand.compile(schema)
        return lambda row: not operand(row)

    def _key(self):
        return (self.operand,)


class TrueExpr(Expr):
    """Constant true — the predicate of an unfiltered scan."""

    __slots__ = ()

    def columns(self):
        return set()

    def to_sql(self):
        return "1 = 1"

    def compile(self, schema):
        return lambda row: True

    def _key(self):
        return ()


TRUE = TrueExpr()


def _parenthesize(expr: Expr) -> str:
    """Wrap composite operands in parens so rendered SQL re-parses."""
    if isinstance(expr, (And, Or, Not)):
        return f"({expr.to_sql()})"
    return expr.to_sql()


# ---------------------------------------------------------------------------
# Convenience constructors (used heavily by the middleware and tests)
# ---------------------------------------------------------------------------


def col(name: str) -> ColumnRef:
    """Shorthand for :class:`ColumnRef`."""
    return ColumnRef(name)


def lit(value: SQLValue) -> Literal:
    """Shorthand for :class:`Literal`."""
    return Literal(value)


def eq(column_name: str, value: SQLValue) -> Comparison:
    """``column = value`` with a literal right-hand side."""
    return Comparison("=", ColumnRef(column_name), Literal(value))


def ne(column_name: str, value: SQLValue) -> Comparison:
    """``column <> value`` with a literal right-hand side."""
    return Comparison("<>", ColumnRef(column_name), Literal(value))


def all_of(parts: Iterable[Expr]) -> Expr:
    """AND of ``parts``; collapses 0 parts to TRUE and 1 part to itself."""
    parts = [p for p in parts if not isinstance(p, TrueExpr)]
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return And(parts)


def any_of(parts: Iterable[Expr]) -> Expr:
    """OR of ``parts``; collapses a single part to itself."""
    parts = list(parts)
    if not parts:
        raise ValueError("any_of needs at least one part")
    if any(isinstance(p, TrueExpr) for p in parts):
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return Or(parts)


def compile_predicate(expr: Optional[Expr],
                      schema: "TableSchema") -> RowFunc:
    """Compile ``expr`` (or None, meaning TRUE) against ``schema``."""
    if expr is None:
        expr = TRUE
    return expr.compile(schema)
