"""Property-based tests for the SQL engine (hypothesis)."""

import sqlite3
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.sql_counting import cc_statement
from repro.sqlengine.ast_nodes import (
    Aggregate,
    CountStar,
    Select,
    SelectItem,
    UnionAll,
)
from repro.sqlengine.database import SQLServer
from repro.sqlengine.executor import (
    ResultSet,
    _grouped_select,
    _materialize_into,
    _order_and_limit,
)
from repro.sqlengine.expr import (
    And,
    ColumnRef,
    Comparison,
    InList,
    Literal,
    Not,
    Or,
    compile_predicate,
    eq,
    ne,
)
from repro.sqlengine.heap import HeapTable
from repro.sqlengine.parser import parse
from repro.sqlengine.planner import fetch_candidates, plan_access_path
from repro.sqlengine.schema import TableSchema

SCHEMA = TableSchema.of(("a", "int"), ("b", "int"), ("c", "int"))

values = st.integers(min_value=-5, max_value=5)
columns = st.sampled_from(["a", "b", "c"])
operators = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])


def scalars():
    return st.one_of(
        columns.map(ColumnRef),
        values.map(Literal),
    )


def predicates(max_depth=3):
    base = st.one_of(
        st.builds(Comparison, operators, scalars(), scalars()),
        st.builds(
            InList,
            columns.map(ColumnRef),
            st.lists(values, min_size=1, max_size=4),
        ),
    )
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.lists(inner, min_size=1, max_size=3).map(And),
            st.lists(inner, min_size=1, max_size=3).map(Or),
            inner.map(Not),
        ),
        max_leaves=8,
    )


rows_strategy = st.lists(
    st.tuples(values, values, values), min_size=0, max_size=40
)


class TestExpressionProperties:
    @given(predicates())
    @settings(max_examples=150)
    def test_to_sql_reparses_to_equivalent_predicate(self, predicate):
        sql = f"SELECT * FROM t WHERE {predicate.to_sql()}"
        reparsed = parse(sql).where
        original = compile_predicate(predicate, SCHEMA)
        again = compile_predicate(reparsed, SCHEMA)
        for row in [(-1, 0, 1), (2, 2, 2), (5, -5, 3), (0, 0, 0)]:
            assert original(row) == again(row)

    @given(predicates(), st.tuples(values, values, values))
    @settings(max_examples=150)
    def test_not_inverts(self, predicate, row):
        positive = compile_predicate(predicate, SCHEMA)
        negative = compile_predicate(Not(predicate), SCHEMA)
        assert positive(row) != negative(row)

    @given(st.lists(predicates(max_depth=1), min_size=1, max_size=3),
           st.tuples(values, values, values))
    @settings(max_examples=100)
    def test_and_or_duality(self, parts, row):
        conj = compile_predicate(And(parts), SCHEMA)(row)
        disj = compile_predicate(Or(parts), SCHEMA)(row)
        evaluated = [compile_predicate(p, SCHEMA)(row) for p in parts]
        assert conj == all(evaluated)
        assert disj == any(evaluated)


class TestHeapProperties:
    @given(rows_strategy)
    @settings(max_examples=60)
    def test_scan_returns_inserted_rows_in_order(self, rows):
        table = HeapTable("t", SCHEMA, page_bytes=48)  # 4 rows/page
        for row in rows:
            table.insert(row)
        assert list(table.scan_rows()) == rows
        assert table.row_count == len(rows)

    @given(rows_strategy)
    @settings(max_examples=60)
    def test_fetch_by_tid_round_trips(self, rows):
        table = HeapTable("t", SCHEMA, page_bytes=48)
        tids = [table.insert(row) for row in rows]
        for tid, row in zip(tids, rows):
            assert table.fetch(tid) == row


class TestExecutorProperties:
    @given(rows_strategy, columns)
    @settings(max_examples=60, deadline=None)
    def test_group_by_counts_match_python(self, rows, column):
        server = SQLServer()
        server.create_table("t", SCHEMA)
        server.bulk_load("t", rows)
        statement = Select(
            [
                SelectItem(ColumnRef(column), "v"),
                SelectItem(CountStar(), "n"),
            ],
            "t",
            group_by=[column],
        )
        result = server.execute(statement)
        index = SCHEMA.index_of(column)
        expected = {}
        for row in rows:
            expected[row[index]] = expected.get(row[index], 0) + 1
        assert dict(result.rows) == expected

    @given(rows_strategy, predicates(max_depth=1))
    @settings(max_examples=60, deadline=None)
    def test_where_matches_compiled_predicate(self, rows, predicate):
        server = SQLServer()
        server.create_table("t", SCHEMA)
        server.bulk_load("t", rows)
        sql = f"SELECT * FROM t WHERE {predicate.to_sql()}"
        result = server.execute(sql)
        check = compile_predicate(predicate, SCHEMA)
        assert result.rows == [tuple(r) for r in rows if check(r)]

    @given(rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_aggregates_match_python(self, rows):
        server = SQLServer()
        server.create_table("t", SCHEMA)
        server.bulk_load("t", rows)
        result = server.execute(
            "SELECT COUNT(*) AS n, SUM(b) AS s, MIN(b) AS lo, "
            "MAX(b) AS hi FROM t"
        )
        values = [r[1] for r in rows]
        expected = (
            len(rows),
            sum(values) if values else None,
            min(values) if values else None,
            max(values) if values else None,
        )
        assert result.rows == [expected]

    @given(rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_grouped_sum_partitions_global_sum(self, rows):
        server = SQLServer()
        server.create_table("t", SCHEMA)
        server.bulk_load("t", rows)
        grouped = server.execute(
            "SELECT a, SUM(b) AS s FROM t GROUP BY a"
        )
        total = sum(s for _, s in grouped.rows)
        assert total == sum(r[1] for r in rows)

    @given(rows_strategy, st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_order_by_limit_prefix_of_sorted(self, rows, limit):
        server = SQLServer()
        server.create_table("t", SCHEMA)
        server.bulk_load("t", rows)
        result = server.execute(
            f"SELECT a, b, c FROM t ORDER BY b ASC, a ASC LIMIT {limit}"
        )
        ordered = sorted(rows, key=lambda r: (r[1], r[0]))
        got = sorted(result.rows, key=lambda r: (r[1], r[0]))
        assert got == [tuple(r) for r in ordered[:limit]]

    @given(rows_strategy, st.integers(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_index_and_scan_agree(self, rows, value):
        plain = SQLServer()
        plain.create_table("t", SCHEMA)
        plain.bulk_load("t", rows)
        indexed = SQLServer()
        indexed.create_table("t", SCHEMA)
        indexed.bulk_load("t", rows)
        indexed.execute("CREATE INDEX ix ON t (a)")
        sql = f"SELECT * FROM t WHERE a = {value}"
        assert sorted(plain.execute(sql).rows) == sorted(
            indexed.execute(sql).rows
        )


# ---------------------------------------------------------------------------
# Differential oracle for grouped counts: whichever aggregate
# implementation the executor picks must return the rows (in order)
# and move the meter exactly as `_grouped_select` over the planned
# fetch does, and agree with sqlite3 on the result multiset.
# ---------------------------------------------------------------------------

ORACLE_SCHEMA = TableSchema.of(
    ("a", "int"), ("b", "int"), ("c", "int"), ("s", "varchar")
)
#: 28-byte rows on 64-byte pages: two rows a page, so a narrow index
#: probe beats the sequential scan and the planner really chooses it.
ORACLE_PAGE_BYTES = 64

_ints = st.sampled_from([-7, -1, 0, 1, 2, 3, 2 ** 40])
_strings = st.sampled_from(["x", "y", "zed"])


def _maybe_null(strategy, nullable):
    return st.one_of(st.none(), strategy) if nullable else strategy


@st.composite
def oracle_tables(draw):
    """Rows, the positions to tombstone, and an optional index."""
    nullable = draw(st.tuples(*[st.sampled_from([False, False, True])] * 4))
    row = st.tuples(
        _maybe_null(_ints, nullable[0]), _maybe_null(_ints, nullable[1]),
        _maybe_null(_ints, nullable[2]), _maybe_null(_strings, nullable[3]),
    )
    rows = draw(st.lists(row, min_size=1, max_size=30))
    dead = draw(st.sets(st.integers(0, max(0, len(rows) - 1)), max_size=8))
    index = draw(st.sampled_from([
        None, ("a", "hash"), ("c", "hash"), ("c", "range"),
    ]))
    return rows, sorted(d for d in dead if d < len(rows)), index


def _leaf(draw):
    column = draw(st.sampled_from(["a", "b", "c", "s"]))
    if column == "s":
        # Text against text only: sqlite coerces across affinities.
        op = draw(st.sampled_from(["=", "<>"]))
        return Comparison(op, ColumnRef("s"), Literal(draw(_strings)))
    # 99 matches no row; 1.0 equals the stored integer 1.
    literal = draw(st.one_of(_ints, st.sampled_from([99, 1.0])))
    shape = draw(st.sampled_from(["=", "=", "<>", "<>", "<", "in"]))
    if shape == "in":
        return InList(ColumnRef(column), [literal, draw(_ints)])
    return Comparison(shape, ColumnRef(column), Literal(literal))


def _where(draw):
    n_leaves = draw(st.integers(0, 3))
    if not n_leaves:
        return None
    leaves = [_leaf(draw) for _ in range(n_leaves)]
    if n_leaves == 1:
        return leaves[0]
    return draw(st.sampled_from([And, Or]))(leaves)


@st.composite
def oracle_statements(draw):
    """Grouped SELECTs of the CC shape and just outside it."""
    group_by = draw(st.lists(
        st.sampled_from(["a", "b", "s"]), min_size=1, max_size=3, unique=True,
    ))
    items = [SelectItem(ColumnRef(name), f"g_{name}") for name in group_by]
    items.append(SelectItem(CountStar(), "n"))
    if draw(st.booleans()):
        items.insert(0, SelectItem(Literal("k"), "label"))
    if draw(st.sampled_from([False, False, False, True])):
        items.append(SelectItem(Aggregate("SUM", ColumnRef("c")), "total"))
    items = draw(st.permutations(items))

    where = _where(draw)

    names = [item.output_name for item in items]
    order_by = draw(st.lists(
        st.tuples(st.sampled_from(names), st.booleans()),
        max_size=2, unique_by=lambda pair: pair[0],
    ))
    limit = draw(st.one_of(st.none(), st.integers(0, 4)))
    into = draw(st.sampled_from([None, None, "out"]))
    return Select(list(items), "t", where=where, group_by=group_by,
                  into=into, order_by=order_by, limit=limit)


def _oracle_server(rows, dead, index):
    server = SQLServer(page_bytes=ORACLE_PAGE_BYTES)
    table = server.create_table("t", ORACLE_SCHEMA)
    tids = [table.insert(row) for row in rows]
    if index is not None:
        column, kind = index
        server.database.indexes.create("ix", table, column, kind=kind)
    for position in dead:
        table.delete(tids[position])
    return server


def _row_path(server, statement):
    """`_execute_select` as it was before it could choose: the planned
    fetch feeding `_grouped_select`, then the shared tail."""
    meter, model, database = server.meter, server.model, server.database
    meter.charge("query_overhead", model.query_overhead)
    table = database.table(statement.table)
    plan = plan_access_path(statement.where, table, database, model)
    candidates = (
        row for _tid, row in fetch_candidates(plan, table, meter, model)
    )
    predicate = compile_predicate(statement.where, table.schema)
    result = _grouped_select(
        statement, table.schema, candidates, predicate, meter, model
    )
    result = _order_and_limit(statement, result)
    if statement.into:
        _materialize_into(statement.into, result, database, meter, model)
        return ResultSet(result.columns, [])
    meter.charge("transfer", model.transfer_per_row * len(result.rows),
                 events=len(result.rows))
    return result


def _sqlite_rows(live_rows, statement):
    """The statement's full (un-LIMITed, un-INTOed) answer per sqlite3."""
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute(
            "CREATE TABLE t (a INTEGER, b INTEGER, c INTEGER, s TEXT)"
        )
        connection.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", live_rows)
        plain = Select(statement.items, "t", where=statement.where,
                       group_by=statement.group_by)
        return [tuple(row) for row in connection.execute(plain.to_sql())]
    finally:
        connection.close()


def _cc_branch(column, label, where=None, count=True):
    """One branch of the CC query's shape, grouped on (label, column)."""
    aggregate = CountStar() if count else Aggregate("SUM", ColumnRef("c"))
    items = [
        SelectItem(Literal(column), "attr_name"),
        SelectItem(ColumnRef(column), "value"),
        SelectItem(ColumnRef(label), "class_label"),
        SelectItem(aggregate, "cnt"),
    ]
    return Select(items, "t", where=where, group_by=[label, column])


@st.composite
def oracle_unions(draw):
    """UNION ALLs of 2-3 CC-shaped branches (one in four SUMs instead
    of counting).  The branches share one WHERE — the same object, or
    an equal one parsed from its text — or each draws its own."""
    shared = draw(st.sampled_from(["object", "copy", "own"]))
    first = _where(draw)
    branches = []
    for _ in range(draw(st.integers(2, 3))):
        column, label = draw(st.permutations(["a", "b", "c", "s"]))[:2]
        if shared == "own":
            where = _where(draw)
        elif shared == "copy" and first is not None:
            where = parse(f"SELECT * FROM t WHERE {first.to_sql()}").where
        else:
            where = first
        count = draw(st.sampled_from([True, True, True, False]))
        branches.append(_cc_branch(column, label, where, count))
    return UnionAll(branches)


def _count_by(*group_by, where=None):
    items = [SelectItem(ColumnRef(name)) for name in group_by]
    return Select(items + [SelectItem(CountStar(), "n")], "t", where=where,
                  group_by=group_by)


class TestGroupedCountOracle:
    @given(oracle_tables(), oracle_statements())
    @example(([], [], None), _count_by("a"))  # a table never written to
    @example(([(1, 2, 3, "x")] * 3, [0, 1, 2], None), _count_by("a", "b"))
    @example(([(0, 1, 2, "x"), (2 ** 40, -7, 2, "y")] * 2, [], None),
             _count_by("b", "a", where=ne("c", 99)))
    @example(([(1, 2, 3, "x"), (2, 2, 3, "x")], [], None),  # 1 = 1.0
             _count_by("b", where=Comparison("=", ColumnRef("a"),
                                             Literal(1.0))))
    @settings(max_examples=300, deadline=None)
    def test_rows_order_and_meter_match_the_row_path_and_sqlite(
        self, table_spec, statement
    ):
        rows, dead, index = table_spec
        actual_server = _oracle_server(rows, dead, index)
        expected_server = _oracle_server(rows, dead, index)

        actual = actual_server.execute(statement)
        expected = _row_path(expected_server, statement)

        assert actual.columns == expected.columns
        assert actual.rows == expected.rows
        for row in actual.rows:  # no numpy scalars leak out
            assert all(type(v) in (int, str, type(None)) for v in row)
        assert actual_server.meter.charges == expected_server.meter.charges
        assert actual_server.meter.counts == expected_server.meter.counts

        answer = actual.rows
        if statement.into:
            made = actual_server.table("out")
            twin = expected_server.table("out")
            assert made.schema == twin.schema
            answer = list(made.scan_rows())
            assert answer == list(twin.scan_rows())

        live = list(actual_server.table("t").scan_rows())
        reference = Counter(_sqlite_rows(live, statement))
        if statement.limit is None:
            assert Counter(answer) == reference
        else:
            assert len(answer) == min(statement.limit, sum(reference.values()))
            assert not Counter(answer) - reference

    @given(oracle_tables(), oracle_unions())
    @example(  # the production statement (`cc_statement`), 200 rows
        ([(i % 3, (i * 7) % 5, i % 2, "xyz"[i % 3]) for i in range(200)],
         [3, 50, 51], None),
        cc_statement("t", ["a", "b", "s"], "c", Or([eq("a", 1), ne("b", 0)])),
    )
    @example(([(1, 2, 3, "x"), (2, 2, 3, "x")], [], None),  # 1 = 1.0
             UnionAll([_cc_branch("a", "b", where=eq("a", 1)),
                       _cc_branch("b", "a", where=Comparison(
                           "=", ColumnRef("a"), Literal(1.0)))]))
    @example(([(i % 3, i % 2, i, "xy"[i % 2]) for i in range(30)], [4],
              ("a", "hash")),
             UnionAll([_cc_branch(column, "a", where=eq("a", 2))
                       for column in ("b", "s", "c")]))
    @settings(max_examples=200, deadline=None)
    def test_union_matches_the_row_path_branch_by_branch_and_sqlite(
        self, table_spec, statement
    ):
        """Branches that share a WHERE share its plan and mask, never
        its charges: m branches are m scans, each charged as the row
        path charges it alone."""
        rows, dead, index = table_spec
        actual_server = _oracle_server(rows, dead, index)
        expected_server = _oracle_server(rows, dead, index)

        actual = actual_server.execute(statement)
        expected_rows = []
        for branch in statement.selects:
            expected_rows.extend(_row_path(expected_server, branch).rows)

        assert actual.rows == expected_rows
        for row in actual.rows:
            assert all(type(v) in (int, str, type(None)) for v in row)
        overhead = expected_server.model.query_overhead
        others = len(statement.selects) - 1  # one statement, not m
        charges = dict(expected_server.meter.charges)
        charges["query_overhead"] -= others * overhead
        assert actual_server.meter.charges == charges
        counts = dict(expected_server.meter.counts)
        counts["query_overhead"] -= others
        assert actual_server.meter.counts == counts

        live = list(actual_server.table("t").scan_rows())
        reference = Counter()
        for branch in statement.selects:
            reference.update(_sqlite_rows(live, branch))
        assert Counter(actual.rows) == reference
