"""Statement-level AST produced by the SQL parser.

Expression-level nodes live in :mod:`repro.sqlengine.expr`; this module
adds the statement shapes: SELECT (WHERE / GROUP BY / aggregates /
ORDER BY / LIMIT / INTO / inner JOIN), UNION ALL chains, CREATE TABLE,
CREATE INDEX, INSERT VALUES, DELETE, DROP TABLE and DROP INDEX.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from .expr import Expr
from .lexer import quote_identifier as _q
from .types import SQLValue


class Statement:
    """Base class for all statements."""

    def to_sql(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_sql()!r})"


#: Aggregate function names the engine supports.
AGGREGATE_FUNCS: tuple[str, ...] = ("COUNT", "SUM", "MIN", "MAX", "AVG")


class SelectItem:
    """One projection in a SELECT list.

    ``expression`` is an :class:`~repro.sqlengine.expr.Expr` or an
    :class:`Aggregate`; ``alias`` is the optional AS name.
    """

    __slots__ = ("expression", "alias")

    def __init__(self, expression: Union[Expr, "Aggregate"],
                 alias: Optional[str] = None) -> None:
        self.expression = expression
        self.alias = alias

    @property
    def is_aggregate(self) -> bool:
        return isinstance(self.expression, Aggregate)

    @property
    def output_name(self) -> str:
        """Column name this item produces in the result set."""
        if self.alias:
            return self.alias
        if isinstance(self.expression, Aggregate):
            return self.expression.func.lower()
        from .expr import ColumnRef

        if isinstance(self.expression, ColumnRef):
            return self.expression.name
        return "expr"

    def to_sql(self) -> str:
        rendered = self.expression.to_sql()
        if self.alias:
            return f"{rendered} AS {_q(self.alias)}"
        return rendered

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SelectItem)
            and self.expression == other.expression
            and self.alias == other.alias
        )

    def __repr__(self) -> str:
        return f"SelectItem({self.to_sql()})"


class Aggregate:
    """An aggregate call: COUNT(*), COUNT(x), SUM/MIN/MAX/AVG(x).

    ``operand`` is an :class:`~repro.sqlengine.expr.Expr`, or a
    :class:`Star` for ``COUNT(*)``.
    """

    __slots__ = ("func", "operand")

    def __init__(self, func: str, operand: Union[Expr, "Star"]) -> None:
        func = func.upper()
        if func not in AGGREGATE_FUNCS:
            raise ValueError(f"unknown aggregate function: {func!r}")
        if isinstance(operand, Star) and func != "COUNT":
            raise ValueError(f"{func}(*) is not valid SQL")
        self.func = func
        self.operand = operand

    @property
    def is_count_star(self) -> bool:
        return self.func == "COUNT" and isinstance(self.operand, Star)

    def to_sql(self) -> str:
        return f"{self.func}({self.operand.to_sql()})"

    def columns(self) -> set[str]:
        if isinstance(self.operand, Star):
            return set()
        return self.operand.columns()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Aggregate)
            and self.func == other.func
            and self.operand == other.operand
        )

    def __hash__(self) -> int:
        return hash((self.func, str(self.operand)))

    def __repr__(self) -> str:
        return f"Aggregate({self.to_sql()})"


class CountStar(Aggregate):
    """The ``COUNT(*)`` aggregate (convenience subclass)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("COUNT", Star())


class Star:
    """The ``*`` projection."""

    __slots__ = ()

    def to_sql(self) -> str:
        return "*"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Star)

    def __hash__(self) -> int:
        return hash("*")

    def __repr__(self) -> str:
        return "Star()"


class JoinClause(Statement):
    """``FROM left [alias] JOIN right [alias] ON l.col = r.col``.

    Only inner equi-joins are supported.  Within a join query, every
    column reference is *qualified* — ``alias.column`` — and the joined
    row's columns are named that way too.
    """

    def __init__(self, left_table: str, left_alias: Optional[str],
                 right_table: str, right_alias: Optional[str],
                 left_column: str, right_column: str) -> None:
        self.left_table = left_table
        self.left_alias = left_alias or left_table
        self.right_table = right_table
        self.right_alias = right_alias or right_table
        if self.left_alias == self.right_alias:
            raise ValueError("join sides need distinct aliases")
        self.left_column = left_column    # qualified, e.g. "a.x"
        self.right_column = right_column  # qualified, e.g. "b.y"

    def to_sql(self) -> str:
        left = _q(self.left_table)
        if self.left_alias != self.left_table:
            left += f" {_q(self.left_alias)}"
        right = _q(self.right_table)
        if self.right_alias != self.right_table:
            right += f" {_q(self.right_alias)}"
        return (
            f"{left} JOIN {right} "
            f"ON {_q(self.left_column)} = {_q(self.right_column)}"
        )


class Select(Statement):
    """``SELECT items FROM table [WHERE] [GROUP BY] [ORDER BY] [LIMIT]``.

    ``items`` is a list of :class:`SelectItem`, or the single value
    :class:`Star` for ``SELECT *``.  ``table`` is a table name, or a
    :class:`JoinClause` for a two-table inner join.  ``group_by`` is a
    list of column names.  ``order_by`` is a list of
    ``(output_column, ascending)`` pairs over the *output* columns.
    ``into`` names a table to materialise results into.
    """

    def __init__(self, items: Union[list[SelectItem], Star],
                 table: Union[str, JoinClause],
                 where: Optional[Expr] = None,
                 group_by: Optional[Iterable[str]] = None,
                 into: Optional[str] = None,
                 order_by: Optional[Iterable[tuple[str, bool]]] = None,
                 limit: Optional[int] = None) -> None:
        if where is not None and not isinstance(where, Expr):
            raise TypeError("where must be an Expr or None")
        if limit is not None and limit < 0:
            raise ValueError("LIMIT must be non-negative")
        self.items = items
        self.table = table
        self.where = where
        self.group_by = list(group_by) if group_by else []
        self.order_by = list(order_by) if order_by else []
        self.limit = limit
        self.into = into

    @property
    def is_join(self) -> bool:
        return isinstance(self.table, JoinClause)

    def to_sql(self) -> str:
        if isinstance(self.items, Star):
            projection = "*"
        else:
            projection = ", ".join(item.to_sql() for item in self.items)
        parts = [f"SELECT {projection}"]
        if self.into:
            parts.append(f"INTO {_q(self.into)}")
        source = (
            self.table.to_sql() if isinstance(self.table, JoinClause)
            else _q(self.table)
        )
        parts.append(f"FROM {source}")
        if self.where is not None:
            parts.append(f"WHERE {self.where.to_sql()}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(map(_q, self.group_by)))
        if self.order_by:
            rendered = ", ".join(
                f"{_q(name)} {'ASC' if ascending else 'DESC'}"
                for name, ascending in self.order_by
            )
            parts.append(f"ORDER BY {rendered}")
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


class UnionAll(Statement):
    """Two or more SELECTs combined with UNION ALL.

    The paper's per-node CC query is exactly this shape: one GROUP BY
    branch per attribute, all over the same table with the same WHERE.
    The executor charges each branch as its own scan — the "optimizer
    cannot exploit the commonality" behaviour the paper measured.
    """

    def __init__(self, selects: Iterable[Select]) -> None:
        selects = list(selects)
        if len(selects) < 2:
            raise ValueError("UNION ALL needs at least two branches")
        self.selects = selects

    def to_sql(self) -> str:
        return " UNION ALL ".join(s.to_sql() for s in self.selects)


class CreateTable(Statement):
    """``CREATE TABLE name (col type, ...)``."""

    def __init__(self, table: str,
                 columns: Iterable[tuple[str, str]]) -> None:
        self.table = table
        self.columns = list(columns)  # [(name, type_name)]

    def to_sql(self) -> str:
        cols = ", ".join(f"{_q(n)} {t}" for n, t in self.columns)
        return f"CREATE TABLE {_q(self.table)} ({cols})"


class InsertValues(Statement):
    """``INSERT INTO name [(cols)] VALUES (...), (...)``."""

    def __init__(self, table: str, columns: Optional[Iterable[str]],
                 rows: Iterable[Sequence[SQLValue]]) -> None:
        self.table = table
        self.columns = list(columns) if columns else None
        self.rows = [tuple(r) for r in rows]
        if not self.rows:
            raise ValueError("INSERT needs at least one row")

    def to_sql(self) -> str:
        cols = (
            f" ({', '.join(map(_q, self.columns))})" if self.columns else ""
        )
        from .expr import sql_literal

        rows = ", ".join(
            "(" + ", ".join(sql_literal(v) for v in row) + ")"
            for row in self.rows
        )
        return f"INSERT INTO {_q(self.table)}{cols} VALUES {rows}"


class DropTable(Statement):
    """``DROP TABLE name``."""

    def __init__(self, table: str) -> None:
        self.table = table

    def to_sql(self) -> str:
        return f"DROP TABLE {_q(self.table)}"


class DeleteRows(Statement):
    """``DELETE FROM name [WHERE ...]``."""

    def __init__(self, table: str, where: Optional[Expr] = None) -> None:
        if where is not None and not isinstance(where, Expr):
            raise TypeError("where must be an Expr or None")
        self.table = table
        self.where = where

    def to_sql(self) -> str:
        sql = f"DELETE FROM {_q(self.table)}"
        if self.where is not None:
            sql += f" WHERE {self.where.to_sql()}"
        return sql


class CreateIndex(Statement):
    """``CREATE INDEX name ON table (column) [USING hash|range]``."""

    def __init__(self, name: str, table: str, column: str,
                 kind: str = "hash") -> None:
        self.name = name
        self.table = table
        self.column = column
        self.kind = kind

    def to_sql(self) -> str:
        sql = (
            f"CREATE INDEX {_q(self.name)} ON {_q(self.table)} "
            f"({_q(self.column)})"
        )
        if self.kind != "hash":
            sql += f" USING {self.kind}"
        return sql


class DropIndex(Statement):
    """``DROP INDEX name``."""

    def __init__(self, name: str) -> None:
        self.name = name

    def to_sql(self) -> str:
        return f"DROP INDEX {_q(self.name)}"


class Explain(Statement):
    """``EXPLAIN <statement>`` — run it, report the access-path plan.

    The wrapped statement executes for real (EXPLAIN ANALYZE style) so
    the report can show actual meter charges next to the estimates.
    """

    def __init__(self, statement: Statement) -> None:
        if isinstance(statement, Explain):
            raise ValueError("EXPLAIN cannot wrap another EXPLAIN")
        self.statement = statement

    def to_sql(self) -> str:
        return f"EXPLAIN {self.statement.to_sql()}"
