"""Recursive-descent parser for the SQL subset.

Grammar (informal)::

    statement   := [EXPLAIN] bare_statement
    bare_statement := select_union | create | insert | delete | drop
    select_union:= select (UNION [ALL] select)*
    select      := SELECT items [INTO ident] FROM from_clause
                   [WHERE or_expr] [GROUP BY name (, name)*]
                   [ORDER BY name [ASC|DESC] (, ...)*] [LIMIT int]
    from_clause := table_ref [[INNER] JOIN table_ref ON name '=' name]
    table_ref   := ident [AS? ident]
    items       := '*' | item (',' item)*
    item        := (AGG '(' ('*' | scalar) ')' | or_expr) [AS? ident]
    create      := CREATE (TABLE ident '(' coldefs ')'
                          | INDEX ident ON ident '(' ident ')'
                            [USING (hash | range)])
    insert      := INSERT INTO ident ['(' idents ')'] VALUES rows
    delete      := DELETE FROM ident [WHERE or_expr]
    drop        := DROP (TABLE | INDEX) ident
    or_expr     := and_expr (OR and_expr)*
    and_expr    := not_expr (AND not_expr)*
    not_expr    := NOT not_expr | primary_pred
    primary_pred:= '(' or_expr ')'
                 | scalar (cmp_op scalar | [NOT] IN '(' literal,+ ')')
    scalar      := name | literal | '(' scalar ')'
    name        := ident ['.' ident]        -- qualified in join queries

Everything the middleware emits (Section 2.3's UNION query, filter
push-down SELECTs, SELECT INTO for temp tables) round-trips through
this parser, and tests verify ``parse(sql).to_sql()`` re-parses.

The parser reads :func:`lexer.scan`'s ``(kind, value)`` pairs.  A
WHERE clause spelled exactly like one earlier in the statement — the
CC query repeats its node's condition in every branch — is not parsed
again: the branches share one (immutable) expression.
"""

from __future__ import annotations

from typing import Optional, Union, cast

from ..common.errors import SQLSyntaxError
from . import lexer
from .lexer import EOF, IDENT, KEYWORD, NUMBER, OP, PUNCT, STRING, Lexeme
from .ast_nodes import (
    AGGREGATE_FUNCS,
    Aggregate,
    Statement,
    JoinClause,
    CreateIndex,
    DeleteRows,
    CreateTable,
    DropIndex,
    DropTable,
    Explain,
    InsertValues,
    Select,
    SelectItem,
    Star,
    UnionAll,
)
from .indexes import INDEX_KINDS
from .expr import (
    ColumnRef,
    Expr,
    Comparison,
    InList,
    Literal,
    Not,
    all_of,
    any_of,
)
from .types import SQLValue


def parse(sql: str) -> Statement:
    """Parse one statement; raises :class:`SQLSyntaxError` on bad input."""
    return _Parser(sql).parse_statement()


class _Parser:
    def __init__(self, sql: str) -> None:
        self._text = sql
        self._tokens, self._positions = lexer.scan(sql)
        self._pos = 0
        #: WHERE clauses parsed so far: (their lexemes and the one that
        #: ended them, their text, the expression).
        self._wheres: list[tuple[list[Lexeme], str, Expr]] = []

    # -- token plumbing ----------------------------------------------------

    def _peek(self) -> Lexeme:
        return self._tokens[self._pos]

    def _at(self) -> int:
        """The next token's offset in the text."""
        return self._positions[self._pos]

    def _advance(self) -> Lexeme:
        token = self._tokens[self._pos]
        if token[0] != EOF:
            self._pos += 1
        return token

    def _accept(self, kind: str,
                value: lexer.TokenValue = None) -> Optional[Lexeme]:
        """Consume and return the next token if it is ``kind`` (with
        ``value``, if given); else None."""
        token = self._tokens[self._pos]
        if token[0] != kind or (value is not None and token[1] != value):
            return None
        if kind != EOF:
            self._pos += 1
        return token

    def _expect(self, kind: str, value: lexer.TokenValue = None) -> Lexeme:
        token = self._accept(kind, value)
        if token is None:
            wanted = value if value is not None else kind
            raise self._unexpected(f"expected {wanted}")
        return token

    def _expect_ident(self) -> str:
        kind, value = self._tokens[self._pos]
        if kind == IDENT:
            self._pos += 1
            return cast(str, value)
        raise self._unexpected("expected identifier")

    def _unexpected(self, what: str,
                    at: Optional[int] = None) -> SQLSyntaxError:
        """``what, found <token>`` about the token at index ``at`` (by
        default the next one)."""
        if at is None:
            at = self._pos
        return SQLSyntaxError(
            f"{what}, found {self._tokens[at][1]!r}", self._positions[at]
        )

    # -- statements ---------------------------------------------------------

    def parse_statement(self) -> Statement:
        statement: Statement
        if self._peek() == (KEYWORD, "EXPLAIN"):
            at = self._at()
            self._advance()
            try:
                statement = Explain(self._parse_bare_statement())
            except ValueError as exc:  # nested EXPLAIN is unreachable here
                raise SQLSyntaxError(str(exc), at) from None
        else:
            statement = self._parse_bare_statement()
        self._accept(PUNCT, ";")
        kind, value = self._peek()
        if kind != EOF:
            raise SQLSyntaxError(
                f"trailing input after statement: {value!r}", self._at()
            )
        return statement

    def _parse_bare_statement(self) -> Statement:
        token = self._peek()
        if token == (KEYWORD, "SELECT"):
            return self._parse_select_union()
        if token == (KEYWORD, "CREATE"):
            return self._parse_create()
        if token == (KEYWORD, "INSERT"):
            return self._parse_insert()
        if token == (KEYWORD, "DROP"):
            return self._parse_drop()
        if token == (KEYWORD, "DELETE"):
            return self._parse_delete()
        raise SQLSyntaxError(
            f"unexpected start of statement: {token[1]!r}", self._at()
        )

    def _parse_select_union(self) -> Union[Select, UnionAll]:
        selects = [self._parse_select()]
        while self._accept(KEYWORD, "UNION"):
            # Plain UNION (dedupe) is treated as UNION ALL: the paper's CC
            # branches are disjoint by construction, so semantics agree.
            self._accept(KEYWORD, "ALL")
            selects.append(self._parse_select())
        if len(selects) == 1:
            return selects[0]
        return UnionAll(selects)

    def _parse_select(self) -> Select:
        self._expect(KEYWORD, "SELECT")
        self._accept(KEYWORD, "DISTINCT")  # tolerated, counts differ
        items = self._parse_items()
        into: Optional[str] = None
        if self._accept(KEYWORD, "INTO"):
            into = self._expect_ident()
        self._expect(KEYWORD, "FROM")
        table = self._parse_from()
        where: Optional[Expr] = None
        if self._accept(KEYWORD, "WHERE"):
            where = self._parse_where()
        group_by: list[str] = []
        if self._accept(KEYWORD, "GROUP"):
            self._expect(KEYWORD, "BY")
            group_by.append(self._parse_name())
            while self._accept(PUNCT, ","):
                group_by.append(self._parse_name())
        order_by: list[tuple[str, bool]] = []
        if self._accept(KEYWORD, "ORDER"):
            self._expect(KEYWORD, "BY")
            order_by.append(self._parse_order_item())
            while self._accept(PUNCT, ","):
                order_by.append(self._parse_order_item())
        limit: Optional[int] = None
        if self._accept(KEYWORD, "LIMIT"):
            at = self._at()
            kind, value = self._peek()
            if kind != NUMBER or not isinstance(value, int):
                raise SQLSyntaxError("LIMIT expects an integer", at)
            self._advance()
            limit = value
            if limit < 0:
                raise SQLSyntaxError("LIMIT must be non-negative", at)
        return Select(items, table, where=where, group_by=group_by,
                      into=into, order_by=order_by, limit=limit)

    def _parse_order_item(self) -> tuple[str, bool]:
        name = self._parse_name()
        ascending = True
        if self._accept(KEYWORD, "DESC"):
            ascending = False
        else:
            self._accept(KEYWORD, "ASC")
        return (name, ascending)

    def _parse_name(self) -> str:
        """An identifier, optionally qualified (``alias.column``)."""
        name = self._expect_ident()
        if self._accept(PUNCT, "."):
            name = f"{name}.{self._expect_ident()}"
        return name

    def _parse_from(self) -> Union[str, JoinClause]:
        """The FROM clause: a table name or a two-table inner join."""
        left_table, left_alias = self._parse_table_ref()
        is_join = False
        if self._accept(KEYWORD, "INNER"):
            self._expect(KEYWORD, "JOIN")
            is_join = True
        elif self._accept(KEYWORD, "JOIN"):
            is_join = True
        if not is_join:
            if left_alias is not None:
                raise SQLSyntaxError(
                    "table aliases are only supported in JOIN queries",
                    self._at(),
                )
            return left_table
        right_table, right_alias = self._parse_table_ref()
        self._expect(KEYWORD, "ON")
        left_column = self._parse_name()
        self._expect(OP, "=")
        right_column = self._parse_name()
        try:
            return JoinClause(
                left_table, left_alias, right_table, right_alias,
                left_column, right_column,
            )
        except ValueError as exc:
            raise SQLSyntaxError(str(exc), self._at()) from None

    def _parse_table_ref(self) -> tuple[str, Optional[str]]:
        """``name [AS] [alias]`` — returns (name, alias-or-None)."""
        name = self._expect_ident()
        alias: Optional[str] = None
        if self._accept(KEYWORD, "AS"):
            alias = self._expect_ident()
        elif self._peek()[0] == IDENT:
            alias = self._expect_ident()
        return name, alias

    def _parse_items(self) -> Union[list[SelectItem], Star]:
        if self._accept(PUNCT, "*"):
            return Star()
        items = [self._parse_item()]
        while self._accept(PUNCT, ","):
            items.append(self._parse_item())
        return items

    def _parse_item(self) -> SelectItem:
        at = self._at()
        kind, value = self._peek()
        expression: Union[Expr, Aggregate]
        if kind == KEYWORD and value in AGGREGATE_FUNCS:
            self._advance()
            func = cast(str, value)
            self._expect(PUNCT, "(")
            operand: Union[Expr, Star]
            if self._accept(PUNCT, "*"):
                operand = Star()
            else:
                operand = self._parse_scalar()
            self._expect(PUNCT, ")")
            try:
                expression = Aggregate(func, operand)
            except ValueError as exc:
                raise SQLSyntaxError(str(exc), at) from None
        else:
            expression = self._parse_scalar()
        alias: Optional[str] = None
        if self._accept(KEYWORD, "AS"):
            alias = self._expect_ident()
        elif self._peek()[0] == IDENT:
            alias = self._expect_ident()
        return SelectItem(expression, alias)

    def _parse_create(self) -> Union[CreateTable, CreateIndex]:
        self._expect(KEYWORD, "CREATE")
        if self._accept(KEYWORD, "INDEX"):
            name = self._expect_ident()
            self._expect(KEYWORD, "ON")
            table = self._expect_ident()
            self._expect(PUNCT, "(")
            column = self._expect_ident()
            self._expect(PUNCT, ")")
            kind = "hash"
            if self._accept(KEYWORD, "USING"):
                at = self._at()
                kind = self._expect_ident().lower()
                if kind not in INDEX_KINDS:
                    raise SQLSyntaxError(
                        f"unknown index kind {kind!r} "
                        f"(expected one of {', '.join(INDEX_KINDS)})",
                        at,
                    )
            return CreateIndex(name, table, column, kind=kind)
        self._expect(KEYWORD, "TABLE")
        table = self._expect_ident()
        self._expect(PUNCT, "(")
        columns = [self._parse_column_def()]
        while self._accept(PUNCT, ","):
            columns.append(self._parse_column_def())
        self._expect(PUNCT, ")")
        return CreateTable(table, columns)

    def _parse_column_def(self) -> tuple[str, str]:
        name = self._expect_ident()
        type_name = self._expect_ident()
        return (name, type_name)

    def _parse_insert(self) -> InsertValues:
        self._expect(KEYWORD, "INSERT")
        self._expect(KEYWORD, "INTO")
        table = self._expect_ident()
        columns: Optional[list[str]] = None
        if self._accept(PUNCT, "("):
            columns = [self._expect_ident()]
            while self._accept(PUNCT, ","):
                columns.append(self._expect_ident())
            self._expect(PUNCT, ")")
        self._expect(KEYWORD, "VALUES")
        rows = [self._parse_value_row()]
        while self._accept(PUNCT, ","):
            rows.append(self._parse_value_row())
        return InsertValues(table, columns, rows)

    def _parse_value_row(self) -> list[SQLValue]:
        self._expect(PUNCT, "(")
        values = [self._parse_literal_value()]
        while self._accept(PUNCT, ","):
            values.append(self._parse_literal_value())
        self._expect(PUNCT, ")")
        return values

    def _parse_delete(self) -> DeleteRows:
        self._expect(KEYWORD, "DELETE")
        self._expect(KEYWORD, "FROM")
        table = self._expect_ident()
        where: Optional[Expr] = None
        if self._accept(KEYWORD, "WHERE"):
            where = self._parse_where()
        return DeleteRows(table, where)

    def _parse_drop(self) -> Union[DropIndex, DropTable]:
        self._expect(KEYWORD, "DROP")
        if self._accept(KEYWORD, "INDEX"):
            return DropIndex(self._expect_ident())
        self._expect(KEYWORD, "TABLE")
        return DropTable(self._expect_ident())

    # -- predicates ----------------------------------------------------------

    def _parse_where(self) -> Expr:
        """A WHERE clause's predicate, or an earlier one's again when
        the lexemes from here through the one that ended it (the parse
        reads no further) and their text are the same (lexemes alone
        equate 5 and 5.0)."""
        start = self._pos
        at = self._positions[start]
        for lexemes, text, where in self._wheres:
            end = start + len(lexemes)
            if (self._tokens[start:end] == lexemes
                    and self._positions[end - 1] - at == len(text)
                    and self._text.startswith(text, at)):
                self._pos = end - 1
                return where
        where = self._parse_or()
        end = self._pos
        self._wheres.append((
            self._tokens[start:end + 1],
            self._text[at:self._positions[end]],
            where,
        ))
        return where

    def _parse_or(self) -> Expr:
        parts = [self._parse_and()]
        while self._accept(KEYWORD, "OR"):
            parts.append(self._parse_and())
        return any_of(parts) if len(parts) > 1 else parts[0]

    def _parse_and(self) -> Expr:
        parts = [self._parse_not()]
        while self._accept(KEYWORD, "AND"):
            parts.append(self._parse_not())
        return all_of(parts) if len(parts) > 1 else parts[0]

    def _parse_not(self) -> Expr:
        if self._accept(KEYWORD, "NOT"):
            return Not(self._parse_not())
        return self._parse_primary_pred()

    def _parse_primary_pred(self) -> Expr:
        if self._peek() == (PUNCT, "("):
            # Could be a parenthesised predicate or a parenthesised scalar
            # followed by a comparison; backtrack handles both.
            saved = self._pos
            self._advance()
            try:
                inner = self._parse_or()
                self._expect(PUNCT, ")")
            except SQLSyntaxError:
                self._pos = saved
            else:
                if not self._at_comparison():
                    return inner
                self._pos = saved
        left = self._parse_scalar()
        after_left = self._pos
        kind, op = self._peek()
        if kind == OP:
            self._advance()
            right = self._parse_scalar()
            return Comparison(cast(str, op), left, right)
        negated = bool(self._accept(KEYWORD, "NOT"))
        if self._accept(KEYWORD, "IN"):
            self._expect(PUNCT, "(")
            values = [self._parse_literal_value()]
            while self._accept(PUNCT, ","):
                values.append(self._parse_literal_value())
            self._expect(PUNCT, ")")
            membership = InList(left, values)
            return Not(membership) if negated else membership
        raise self._unexpected("expected comparison or IN", after_left)

    def _at_comparison(self) -> bool:
        token = self._peek()
        return token[0] == OP or token == (KEYWORD, "IN")

    def _parse_scalar(self) -> Expr:
        token = self._peek()
        kind = token[0]
        if kind == IDENT:
            return ColumnRef(self._parse_name())
        if kind == NUMBER or kind == STRING:
            self._advance()
            return Literal(token[1])
        if token == (KEYWORD, "NULL"):
            self._advance()
            return Literal(None)
        if token == (PUNCT, "("):
            self._advance()
            inner = self._parse_scalar()
            self._expect(PUNCT, ")")
            return inner
        raise self._unexpected("expected a scalar expression")

    def _parse_literal_value(self) -> SQLValue:
        token = self._peek()
        kind = token[0]
        if kind == NUMBER or kind == STRING:
            self._advance()
            return token[1]
        if token == (KEYWORD, "NULL"):
            self._advance()
            return None
        raise self._unexpected("expected a literal")
