"""Unit tests for the SQL parser."""

import pytest

from repro.common.errors import SQLSyntaxError
from repro.sqlengine import lexer
from repro.sqlengine.ast_nodes import (
    Aggregate,
    CountStar,
    CreateIndex,
    CreateTable,
    DeleteRows,
    DropIndex,
    DropTable,
    InsertValues,
    JoinClause,
    Select,
    SelectItem,
    Star,
    Statement,
    UnionAll,
)
from repro.sqlengine.expr import (
    And,
    ColumnRef,
    Comparison,
    InList,
    Literal,
    Not,
    Or,
    eq,
)
from repro.sqlengine.parser import parse


class TestSelect:
    def test_select_star(self):
        statement = parse("SELECT * FROM t")
        assert isinstance(statement, Select)
        assert isinstance(statement.items, Star)
        assert statement.table == "t"
        assert statement.where is None
        assert statement.group_by == []

    def test_select_columns_with_aliases(self):
        statement = parse("SELECT a AS x, b y, 7 AS seven FROM t")
        names = [item.output_name for item in statement.items]
        assert names == ["x", "y", "seven"]

    def test_where_comparison(self):
        statement = parse("SELECT * FROM t WHERE a = 3")
        assert isinstance(statement.where, Comparison)
        assert statement.where.to_sql() == "a = 3"

    def test_where_precedence_and_over_or(self):
        statement = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
        assert isinstance(statement.where, Or)
        left, right = statement.where.parts
        assert isinstance(left, Comparison)
        assert isinstance(right, And)

    def test_where_parenthesised_or(self):
        statement = parse("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3")
        assert isinstance(statement.where, And)
        assert isinstance(statement.where.parts[0], Or)

    def test_where_not(self):
        statement = parse("SELECT * FROM t WHERE NOT a = 1")
        assert isinstance(statement.where, Not)

    def test_where_in_list(self):
        statement = parse("SELECT * FROM t WHERE a IN (1, 2, 3)")
        assert isinstance(statement.where, InList)
        assert statement.where.values == (1, 2, 3)

    def test_where_not_in(self):
        statement = parse("SELECT * FROM t WHERE a NOT IN (1, 2)")
        assert isinstance(statement.where, Not)
        assert isinstance(statement.where.operand, InList)

    def test_group_by(self):
        statement = parse(
            "SELECT a, COUNT(*) AS n FROM t GROUP BY a"
        )
        assert statement.group_by == ["a"]
        aggregate = statement.items[1].expression
        assert isinstance(aggregate, Aggregate)
        assert aggregate.is_count_star

    def test_group_by_multiple(self):
        statement = parse("SELECT a, b, COUNT(*) FROM t GROUP BY a, b")
        assert statement.group_by == ["a", "b"]

    def test_select_into(self):
        statement = parse("SELECT a INTO t2 FROM t")
        assert statement.into == "t2"

    def test_string_literal_projection(self):
        statement = parse("SELECT 'A1' AS attr_name, a FROM t")
        assert statement.items[0].expression.value == "A1"

    def test_trailing_semicolon_ok(self):
        assert isinstance(parse("SELECT * FROM t;"), Select)


class TestUnion:
    def test_union_all(self):
        statement = parse(
            "SELECT a, COUNT(*) FROM t GROUP BY a "
            "UNION ALL SELECT b, COUNT(*) FROM t GROUP BY b"
        )
        assert isinstance(statement, UnionAll)
        assert len(statement.selects) == 2

    def test_plain_union_treated_as_union_all(self):
        statement = parse(
            "SELECT a FROM t UNION SELECT b FROM t"
        )
        assert isinstance(statement, UnionAll)

    def test_paper_cc_query_shape(self):
        sql = (
            "Select 'A1' as attr_name, A1 as value, class, count(*) "
            "From Data_table Where node_cond = 1 Group By class, A1 "
            "UNION "
            "Select 'A2' as attr_name, A2 as value, class, count(*) "
            "From Data_table Where node_cond = 1 Group By class, A2"
        )
        statement = parse(sql)
        assert isinstance(statement, UnionAll)
        first = statement.selects[0]
        assert first.group_by == ["class", "A1"]
        assert first.items[0].alias == "attr_name"

    def test_a_repeated_where_is_parsed_once(self):
        statement = parse(
            "SELECT a FROM t WHERE a = 1 AND b <> 'x' GROUP BY a "
            "UNION ALL SELECT b FROM t WHERE a = 1 AND b <> 'x' GROUP BY b "
            "UNION ALL SELECT c FROM t WHERE a = 1 AND b <> 'x'"
        )
        first, second, third = (s.where for s in statement.selects)
        assert first is second
        assert third == first  # ended by EOF, not GROUP: parsed anew
        assert first == And([eq("a", 1), Comparison(
            "<>", ColumnRef("b"), Literal("x"))])
        assert [s.group_by for s in statement.selects] == [["a"], ["b"], []]

    @pytest.mark.parametrize("other, where", [
        ("a = 1.0", Comparison("=", ColumnRef("a"), Literal(1.0))),
        ("a = 1 OR b = 2", Or([eq("a", 1), eq("b", 2)])),
        ("a = 12", eq("a", 12)),
        ("[a] = 1", eq("a", 1)),
        ("a =  1", eq("a", 1)),
    ])
    def test_a_where_that_differs_is_parsed_anew(self, other, where):
        statement = parse(
            f"SELECT a FROM t WHERE a = 1 GROUP BY a "
            f"UNION ALL SELECT a FROM t WHERE {other} GROUP BY a"
        )
        first, second = (s.where for s in statement.selects)
        assert first == eq("a", 1)
        assert second == where
        assert second is not first


class TestDDLAndDML:
    def test_create_table(self):
        statement = parse("CREATE TABLE t (a INT, s VARCHAR)")
        assert isinstance(statement, CreateTable)
        assert statement.columns == [("a", "INT"), ("s", "VARCHAR")]

    def test_insert_values(self):
        statement = parse(
            "INSERT INTO t VALUES (1, 'x'), (2, 'y')"
        )
        assert isinstance(statement, InsertValues)
        assert statement.rows == [(1, "x"), (2, "y")]
        assert statement.columns is None

    def test_insert_with_columns(self):
        statement = parse("INSERT INTO t (a, s) VALUES (1, NULL)")
        assert statement.columns == ["a", "s"]
        assert statement.rows == [(1, None)]

    def test_drop_table(self):
        statement = parse("DROP TABLE t")
        assert isinstance(statement, DropTable)
        assert statement.table == "t"


class TestErrors:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT",
            "SELECT * FROM",
            "SELECT * t",
            "SELECT * FROM t WHERE",
            "SELECT * FROM t GROUP a",
            "FROB the data",
            "SELECT * FROM t extra garbage",
            "INSERT INTO t VALUES",
            "CREATE TABLE t",
            "SELECT a, FROM t",
            "SELECT * FROM t WHERE a IN ()",
        ],
    )
    def test_malformed_statements_raise(self, sql):
        with pytest.raises(SQLSyntaxError):
            parse(sql)

    @pytest.mark.parametrize("sql, message", [
        ("SELECT * FROM t WHERE a 5",
         "expected comparison or IN, found 5 (at offset 24)"),
        ("SELECT * FROM t WHERE a NOT 5",
         "expected comparison or IN, found 'NOT' (at offset 24)"),
        ("SELECT * FROM t ORDER BY 5",
         "expected identifier, found 5 (at offset 25)"),
        ("SELECT 1 FROM t; 2",
         "trailing input after statement: 2 (at offset 17)"),
        ("SELECT * FROM t LIMIT 1.5",
         "LIMIT expects an integer (at offset 22)"),
        ("SELECT * FROM", "expected identifier, found None (at offset 13)"),
        ("CREATE INDEX i ON t (a) USING btree",
         "unknown index kind 'btree' (expected one of hash, range) "
         "(at offset 30)"),
        ("SELECT x FROM t WHERE a = 1 GROUP BY x UNION ALL "
         "SELECT x FROM t WHERE a = 1 GROUP x",
         "expected BY, found 'x' (at offset 83)"),
    ])
    def test_messages_name_the_token_and_its_offset(self, sql, message):
        with pytest.raises(SQLSyntaxError) as info:
            parse(sql)
        assert str(info.value) == message


class TestRoundTrip:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM t",
            "SELECT a AS x, COUNT(*) AS n FROM t WHERE a = 1 GROUP BY a",
            "SELECT * FROM t WHERE (a = 1 AND b <> 2) OR c IN (3, 4)",
            "SELECT a INTO t2 FROM t WHERE NOT (a = 1)",
            "CREATE TABLE t (a INT, s VARCHAR)",
            "INSERT INTO t VALUES (1, 'a''b')",
            "DROP TABLE t",
        ],
    )
    def test_to_sql_reparses_identically(self, sql):
        statement = parse(sql)
        rendered = statement.to_sql()
        again = parse(rendered)
        assert again.to_sql() == rendered

    @pytest.mark.parametrize("keyword", sorted(lexer.KEYWORDS))
    def test_keyword_identifiers_round_trip(self, keyword):
        # Agrawal's class column is called `group`: any identifier
        # position must survive to_sql() -> parse() unchanged.
        name = keyword.lower()
        statements = [
            Select(
                [SelectItem(ColumnRef(name), name),
                 SelectItem(CountStar(), "n")],
                name, where=eq(name, 1), group_by=[name, "b"],
                order_by=[(name, False)], into=name, limit=3,
            ),
            Select(
                [SelectItem(ColumnRef(f"{name}.{name}"), "x")],
                JoinClause("t", name, name, "o", f"{name}.{name}",
                           f"o.{name}"),
            ),
            UnionAll([Select(Star(), name), Select(Star(), "t")]),
            CreateTable(name, [(name, "INT"), ("b", "VARCHAR")]),
            InsertValues(name, [name, "b"], [(1, "x")]),
            DeleteRows(name, eq(name, 1)),
            DropTable(name),
            CreateIndex(name, name, name, kind="range"),
            DropIndex(name),
        ]
        for statement in statements:
            assert _same(parse(statement.to_sql()), statement), (
                statement.to_sql()
            )


def _same(left, right):
    """Structural equality of two statement trees."""
    if isinstance(left, Statement):
        return type(left) is type(right) and _same(vars(left), vars(right))
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(
            _same(value, right[key]) for key, value in left.items()
        )
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(
            _same(a, b) for a, b in zip(left, right)
        )
    return left == right
