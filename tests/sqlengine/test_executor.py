"""Unit tests for statement execution (and its cost charges)."""

import pytest

from repro.common.errors import CatalogError, SQLError
from repro.sqlengine.database import SQLServer
from repro.sqlengine.schema import TableSchema


@pytest.fixture
def server():
    server = SQLServer()
    server.create_table(
        "t", TableSchema.of(("a", "int"), ("b", "int"), ("c", "int"))
    )
    server.bulk_load(
        "t",
        [
            (1, 10, 0),
            (1, 20, 1),
            (2, 10, 0),
            (2, 20, 1),
            (2, 30, 1),
        ],
    )
    return server


class TestPlainSelect:
    def test_select_star(self, server):
        result = server.execute("SELECT * FROM t")
        assert result.columns == ["a", "b", "c"]
        assert len(result) == 5

    def test_select_columns(self, server):
        result = server.execute("SELECT b, a FROM t WHERE a = 1")
        assert result.columns == ["b", "a"]
        assert result.rows == [(10, 1), (20, 1)]

    def test_where_filters(self, server):
        result = server.execute("SELECT * FROM t WHERE b >= 20 AND c = 1")
        assert len(result) == 3

    def test_literal_projection(self, server):
        result = server.execute("SELECT 'x' AS tag, a FROM t WHERE a = 2")
        assert result.rows[0] == ("x", 2)

    def test_missing_table(self, server):
        with pytest.raises(CatalogError):
            server.execute("SELECT * FROM ghost")

    def test_missing_column(self, server):
        with pytest.raises(CatalogError):
            server.execute("SELECT zz FROM t")

    def test_mixed_aggregate_and_column_rejected(self, server):
        with pytest.raises(SQLError):
            server.execute("SELECT a, COUNT(*) FROM t")


class TestGroupBy:
    def test_group_count(self, server):
        result = server.execute(
            "SELECT a, COUNT(*) AS n FROM t GROUP BY a"
        )
        assert result.rows == [(1, 2), (2, 3)]

    def test_group_by_two_columns_sorted(self, server):
        result = server.execute(
            "SELECT c, a, COUNT(*) AS n FROM t GROUP BY c, a"
        )
        assert result.rows == [(0, 1, 1), (0, 2, 1), (1, 1, 1), (1, 2, 2)]

    def test_group_with_where(self, server):
        result = server.execute(
            "SELECT a, COUNT(*) AS n FROM t WHERE b = 10 GROUP BY a"
        )
        assert result.rows == [(1, 1), (2, 1)]

    def test_literal_in_grouped_select(self, server):
        result = server.execute(
            "SELECT 'attr_a' AS attr_name, a, COUNT(*) AS n FROM t GROUP BY a"
        )
        assert result.rows[0] == ("attr_a", 1, 2)

    def test_non_grouped_column_rejected(self, server):
        with pytest.raises(SQLError):
            server.execute("SELECT b, COUNT(*) FROM t GROUP BY a")

    def test_star_with_group_by_rejected(self, server):
        with pytest.raises(SQLError):
            server.execute("SELECT * FROM t GROUP BY a")


class TestUnionAll:
    def test_concatenates_branches(self, server):
        result = server.execute(
            "SELECT a, COUNT(*) FROM t GROUP BY a "
            "UNION ALL SELECT c, COUNT(*) FROM t GROUP BY c"
        )
        assert len(result) == 4

    def test_mismatched_widths_rejected(self, server):
        with pytest.raises(SQLError):
            server.execute("SELECT a FROM t UNION ALL SELECT a, b FROM t")

    def test_mismatched_widths_rejected_before_any_branch_is_metered(
        self, server
    ):
        for sql in (
            "SELECT a, COUNT(*) FROM t GROUP BY a "
            "UNION ALL SELECT a, b, COUNT(*) FROM t GROUP BY a, b",
            "SELECT a, b FROM t UNION ALL SELECT * FROM t",
        ):
            server.meter.reset()
            with pytest.raises(SQLError):
                server.execute(sql)
            charged = {c: v for c, v in server.meter.charges.items() if v}
            assert charged == {"query_overhead": server.model.query_overhead}
            assert sum(server.meter.counts.values()) == 1

    def test_star_branch_width_is_the_schema_width(self, server):
        result = server.execute(
            "SELECT a, b, c FROM t WHERE a = 1 UNION ALL SELECT * FROM t"
        )
        assert len(result) == 2 + 5

    def test_each_branch_pays_its_own_scan(self, server):
        server.meter.reset()
        server.execute("SELECT a, COUNT(*) FROM t GROUP BY a")
        single = server.meter.charges["server_io"]
        server.meter.reset()
        server.execute(
            "SELECT a, COUNT(*) FROM t GROUP BY a "
            "UNION ALL SELECT b, COUNT(*) FROM t GROUP BY b "
            "UNION ALL SELECT c, COUNT(*) FROM t GROUP BY c"
        )
        assert server.meter.charges["server_io"] == pytest.approx(3 * single)


class TestSelectInto:
    def test_materialises_table(self, server):
        server.execute("SELECT a, b INTO t2 FROM t WHERE c = 1")
        result = server.execute("SELECT * FROM t2")
        assert result.columns == ["a", "b"]
        assert len(result) == 3

    def test_charges_temp_table_not_transfer(self, server):
        server.meter.reset()
        server.execute("SELECT a INTO t3 FROM t")
        assert server.meter.charges["temp_table"] > 0
        assert server.meter.charges["transfer"] == 0

    def test_type_inference_varchar(self, server):
        server.execute("SELECT 'x' AS tag, a INTO t4 FROM t")
        table = server.table("t4")
        assert table.schema.column("tag").type.value == "VARCHAR"
        assert table.schema.column("a").type.value == "INT"


class TestDDLAndDML:
    def test_create_insert_select(self, server):
        server.execute("CREATE TABLE u (x INT, name VARCHAR)")
        server.execute("INSERT INTO u VALUES (1, 'a'), (2, 'b')")
        result = server.execute("SELECT * FROM u WHERE x = 2")
        assert result.rows == [(2, "b")]

    def test_insert_with_column_order(self, server):
        server.execute("CREATE TABLE v (x INT, y INT)")
        server.execute("INSERT INTO v (y, x) VALUES (10, 1)")
        assert server.execute("SELECT * FROM v").rows == [(1, 10)]

    def test_partial_insert_rejected(self, server):
        server.execute("CREATE TABLE w (x INT, y INT)")
        with pytest.raises(SQLError):
            server.execute("INSERT INTO w (x) VALUES (1)")

    def test_drop_table(self, server):
        server.execute("CREATE TABLE gone (x INT)")
        server.execute("DROP TABLE gone")
        with pytest.raises(CatalogError):
            server.execute("SELECT * FROM gone")


class TestCostCharging:
    def test_every_statement_pays_overhead(self, server):
        server.meter.reset()
        server.execute("SELECT * FROM t")
        server.execute("SELECT * FROM t")
        assert server.meter.charges["query_overhead"] == pytest.approx(
            2 * server.model.query_overhead
        )

    def test_transfer_proportional_to_result(self, server):
        server.meter.reset()
        server.execute("SELECT * FROM t WHERE a = 1")
        small = server.meter.charges["transfer"]
        server.meter.reset()
        server.execute("SELECT * FROM t")
        assert server.meter.charges["transfer"] > small

    def test_scan_cost_independent_of_filter(self, server):
        server.meter.reset()
        server.execute("SELECT * FROM t WHERE a = 999")
        filtered = server.meter.charges["server_io"]
        server.meter.reset()
        server.execute("SELECT * FROM t")
        assert server.meter.charges["server_io"] == filtered


class TestResultSet:
    def test_as_dicts(self, server):
        result = server.execute("SELECT a, b FROM t WHERE b = 30")
        assert result.as_dicts() == [{"a": 2, "b": 30}]

    def test_column_index(self, server):
        result = server.execute("SELECT a, b FROM t")
        assert result.column_index("b") == 1
        with pytest.raises(CatalogError):
            result.column_index("zz")
