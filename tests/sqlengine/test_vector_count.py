"""The vectorised ``COUNT(*) ... GROUP BY`` path: when it runs, how the
table's columnar encoding tracks the live rows, and what bounds its
memory.  (That it answers exactly as the row path does is the
differential oracle's job — test_sql_properties.py.)"""

import tracemalloc
from collections import Counter

import pytest

pytest.importorskip("numpy")

from repro.common.errors import CatalogError  # noqa: E402
from repro.sqlengine import columnar  # noqa: E402
from repro.sqlengine.columnar import ColumnarPartition  # noqa: E402
from repro.sqlengine import executor  # noqa: E402
from repro.sqlengine.database import SQLServer  # noqa: E402
from repro.sqlengine.executor import execute_statement  # noqa: E402
from repro.sqlengine.parser import parse  # noqa: E402
from repro.sqlengine.schema import TableSchema  # noqa: E402

COUNT_AB = "SELECT a, b, COUNT(*) AS n FROM t GROUP BY a, b"


def make_server(rows, name="t"):
    server = SQLServer()
    server.create_table(name, TableSchema.of(("a", "int"), ("b", "int")))
    server.bulk_load(name, rows)
    return server


def aggregate_line(server, sql):
    """EXPLAIN's ``Aggregate:`` line (EXPLAIN runs the statement)."""
    lines = [row[0] for row in server.execute("EXPLAIN " + sql)]
    (line,) = [text for text in lines if text.startswith("Aggregate: ")]
    return line


def counted(server, sql=COUNT_AB):
    """The statement's answer, asserted to come from the vector path."""
    assert aggregate_line(server, sql).startswith("Aggregate: vector")
    return server.execute(sql).rows


def expected(rows):
    return [key + (n,) for key, n in sorted(Counter(rows).items())]


@pytest.fixture
def encodes(monkeypatch):
    """Counts full-table encodes (``ColumnarPartition.from_rows``)."""
    calls = []
    original = ColumnarPartition.from_rows.__func__

    def counting(cls, rows):
        calls.append(len(rows))
        return original(cls, rows)

    monkeypatch.setattr(ColumnarPartition, "from_rows", classmethod(counting))
    return calls


class TestEncodingTracksTheLiveRows:
    rows = [(i % 3, i % 2) for i in range(40)]

    def test_encoded_once_per_version_and_only_when_used(self, encodes):
        server = make_server(self.rows)
        server.execute("SELECT a, SUM(b) FROM t GROUP BY a")
        server.execute("SELECT * FROM t WHERE a = 1")
        assert encodes == []  # neither statement qualifies
        for _ in range(3):
            assert counted(server) == expected(self.rows)
        assert encodes == [40]
        server.execute("INSERT INTO t VALUES (7, 7)")
        assert encodes == [40]  # DML does not pay for the encoding
        counted(server)
        assert encodes == [40, 41]

    def test_after_insert(self):
        server = make_server(self.rows)
        assert counted(server) == expected(self.rows)
        server.execute("INSERT INTO t VALUES (9, 9), (0, 0)")
        assert counted(server) == expected(self.rows + [(9, 9), (0, 0)])

    def test_after_delete_leaves_tombstones_out(self):
        server = make_server(self.rows)
        assert counted(server) == expected(self.rows)
        server.execute("DELETE FROM t WHERE a = 1")
        assert counted(server) == expected(
            [row for row in self.rows if row[0] != 1]
        )
        server.execute("DELETE FROM t")
        assert server.execute(COUNT_AB).rows == []

    def test_select_into_table_dropped_and_rebuilt(self):
        server = make_server(self.rows)
        sql = "SELECT a, b, COUNT(*) AS n FROM tmp GROUP BY a, b"
        server.execute("SELECT a, b INTO tmp FROM t WHERE a <> 0")
        assert counted(server, sql) == expected(
            [row for row in self.rows if row[0] != 0]
        )
        server.execute("DROP TABLE tmp")
        with pytest.raises(CatalogError):
            server.execute(sql)
        server.execute("SELECT a, b INTO tmp FROM t WHERE a = 0")
        assert counted(server, sql) == expected(
            [row for row in self.rows if row[0] == 0]
        )

    def test_drop_and_create_same_name_same_row_count(self):
        """Both tables end at the same ``version``; only the table
        object tells them apart."""
        server = make_server(self.rows)
        assert counted(server) == expected(self.rows)
        first_version = server.table("t").version
        other = [(a + 10, b + 10) for a, b in self.rows]
        server.execute("DROP TABLE t")
        server.create_table("t", TableSchema.of(("a", "int"), ("b", "int")))
        server.bulk_load("t", other)
        assert server.table("t").version == first_version
        assert counted(server) == expected(other)


class TestBounds:
    def test_sparse_values_allocate_by_rows_not_by_range(self):
        rows = [((i % 2) * 2 ** 40, 0) for i in range(1000)]
        server = make_server(rows)
        counted(server)  # encode outside the measured region
        tracemalloc.start()
        try:
            result = counted(server)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result == [(0, 0, 500), (2 ** 40, 0, 500)]
        # A histogram over the value range would be 8 TiB.
        assert peak < 1024 * 1024

    def test_extreme_values_do_not_overflow_the_composite_key(self):
        big = 2 ** 62
        rows = [(big if i % 2 else -big, -big if i % 3 else big)
                for i in range(60)]
        assert counted(make_server(rows)) == expected(rows)

    def test_many_wide_group_columns(self):
        """Seven columns of 500 distinct values: the product of the
        widths passes 2**62, the number of groups stays 500."""
        names = "abcdefg"
        server = SQLServer()
        server.create_table(
            "t", TableSchema.of(*[(name, "int") for name in names])
        )
        rows = [tuple((i * (k + 1)) % 500 for k in range(7))
                for i in range(1000)]
        server.bulk_load("t", rows)
        listed = ", ".join(names)
        sql = f"SELECT {listed}, COUNT(*) AS n FROM t GROUP BY {listed}"
        assert counted(server, sql) == expected(rows)


class TestRowPathFallbacks:
    rows = [(i % 3, i % 2) for i in range(40)]

    def test_without_numpy_the_row_path_answers(self, monkeypatch):
        server = make_server(self.rows)
        monkeypatch.setattr(columnar, "np", None)
        assert server.execute(COUNT_AB).rows == expected(self.rows)
        assert aggregate_line(server, COUNT_AB) == \
            "Aggregate: row (numpy is not installed)"

    @pytest.mark.parametrize("sql, reason", [
        ("SELECT a, SUM(b) FROM t GROUP BY a", "SUM(b) is not COUNT(*)"),
        ("SELECT COUNT(*) FROM t", "no GROUP BY"),
        ("SELECT a, COUNT(*) FROM t WHERE b < 1 GROUP BY a",
         "WHERE is more than =/<> column-vs-literal under AND/OR"),
        ("SELECT a, COUNT(*) FROM t WHERE b = 1.0 GROUP BY a",
         "WHERE compares against a float literal"),
        ("SELECT t.a, COUNT(*) FROM t JOIN u ON t.a = u.a GROUP BY t.a",
         "the FROM clause is a join"),
    ])
    def test_first_obstacle_is_reported(self, sql, reason):
        server = make_server(self.rows)
        server.create_table("u", TableSchema.of(("a", "int")))
        server.bulk_load("u", [(1,), (2,)])
        assert aggregate_line(server, sql) == f"Aggregate: row ({reason})"

    def test_null_and_text_group_columns(self):
        server = SQLServer()
        server.create_table("t", TableSchema.of(
            ("a", "int"), ("b", "int"), ("s", "varchar"),
        ))
        server.bulk_load("t", [(1, 5, "x"), (None, 5, "y"), (1, 6, "x")])
        assert aggregate_line(
            server, "SELECT a, COUNT(*) FROM t GROUP BY a"
        ) == "Aggregate: row (group column 'a' holds NULLs)"
        assert aggregate_line(
            server, "SELECT s, COUNT(*) FROM t GROUP BY s"
        ) == "Aggregate: row (group column 's' is not all integers)"
        # NULLs and text in *filter* columns are no obstacle.
        assert counted(
            server,
            "SELECT b, COUNT(*) FROM t WHERE a <> 2 AND s = 'x' GROUP BY b",
        ) == [(5, 1), (6, 1)]

    def test_plain_select_reports_no_aggregate(self):
        server = make_server(self.rows)
        lines = [row[0] for row in server.execute("EXPLAIN SELECT * FROM t")]
        assert not any(line.startswith("Aggregate") for line in lines)

    def test_union_reports_each_choice_with_its_branch_count(self):
        server = make_server(self.rows)
        lines = [row[0] for row in server.execute(
            "EXPLAIN SELECT a, COUNT(*) FROM t GROUP BY a "
            "UNION ALL SELECT b, COUNT(*) FROM t GROUP BY b "
            "UNION ALL SELECT b, MAX(a) FROM t GROUP BY b"
        )]
        assert [line for line in lines if line.startswith("Aggregate")] == [
            "Aggregate: vector (COUNT(*) over the table's columnar "
            "encoding) x2 branches",
            "Aggregate: row (MAX(a) is not COUNT(*))",
        ]


class TestBranchesShareTheirWhere:
    """A UNION's branches under one WHERE are planned and masked once;
    each is still its own metered scan with its own choice."""

    rows = [(i % 3, i % 2) for i in range(40)]
    shared = (
        "SELECT a, COUNT(*) FROM t WHERE b <> 1 GROUP BY a "
        "UNION ALL SELECT b, COUNT(*) FROM t WHERE b <> 1 GROUP BY b "
        "UNION ALL SELECT a, COUNT(*) FROM t WHERE b <> 1 GROUP BY a"
    )

    def test_explain_lists_one_choice_per_branch(self):
        server = make_server(self.rows)
        lines = [row[0] for row in server.execute("EXPLAIN " + self.shared)]
        assert [line for line in lines if line.startswith("Aggregate")] == [
            "Aggregate: vector (COUNT(*) over the table's columnar "
            "encoding) x3 branches",
        ]
        choices = []
        execute_statement(parse(self.shared), server.database, server.meter,
                          server.model, choices)
        assert len(choices) == 3

    def test_planned_once_per_distinct_where(self, monkeypatch):
        server = make_server(self.rows)
        planned = []
        original = executor.plan_access_path

        def counting(where, *args, **kwargs):
            planned.append(where)
            return original(where, *args, **kwargs)

        monkeypatch.setattr(executor, "plan_access_path", counting)
        before = server.meter.counts.get("server_io", 0)
        server.execute(self.shared)
        assert len(planned) == 1
        pages = server.table("t").pages_touched()
        assert server.meter.counts["server_io"] - before == 3 * pages
        server.execute(self.shared.replace("WHERE b <> 1 GROUP BY b",
                                           "WHERE b = 1 GROUP BY b"))
        assert len(planned) == 3  # a new statement, two WHEREs

    def test_equal_but_differently_typed_literals_are_not_shared(self):
        server = make_server(self.rows)
        lines = [row[0] for row in server.execute(
            "EXPLAIN SELECT a, COUNT(*) FROM t WHERE b = 1 GROUP BY a "
            "UNION ALL SELECT a, COUNT(*) FROM t WHERE b = 1.0 GROUP BY a"
        )]
        assert [line for line in lines if line.startswith("Aggregate")] == [
            "Aggregate: vector (COUNT(*) over the table's columnar "
            "encoding)",
            "Aggregate: row (WHERE compares against a float literal)",
        ]
