"""Unit tests for server-side auxiliary structures (§4.3.3 a/b)."""

import pytest

from repro.sqlengine import tempstructs
from repro.sqlengine.database import SQLServer
from repro.sqlengine.expr import all_of, eq
from repro.sqlengine.schema import TableSchema
from repro.sqlengine.tempstructs import TIDList, copy_subset_to_table


@pytest.fixture
def server():
    server = SQLServer()
    server.create_table("t", TableSchema.of(("a", "int"), ("b", "int")))
    server.bulk_load("t", [(i % 4, i) for i in range(40)])
    return server


class TestCopySubset:
    def test_copies_matching_rows(self, server):
        name = copy_subset_to_table(server, "t", eq("a", 1))
        table = server.table(name)
        assert table.row_count == 10
        assert all(row[0] == 1 for row in table.scan_rows())

    def test_uses_fresh_temp_name(self, server):
        name = copy_subset_to_table(server, "t", eq("a", 1))
        assert name.startswith("#subset_")

    def test_explicit_name(self, server):
        name = copy_subset_to_table(server, "t", eq("a", 1), new_name="sub")
        assert name == "sub"
        assert server.database.has_table("sub")

    def test_charges_scan_and_writes(self, server):
        server.meter.reset()
        copy_subset_to_table(server, "t", eq("a", 1))
        assert server.meter.charges["server_io"] > 0
        assert server.meter.charges["temp_table"] == pytest.approx(
            10 * server.model.temp_table_row_write
        )

    def test_compiles_the_predicate_once(self, server, monkeypatch):
        # Once per build, not once per source row.
        calls = []
        compile_predicate = tempstructs.compile_predicate

        def counting(predicate, schema):
            calls.append(predicate)
            return compile_predicate(predicate, schema)

        monkeypatch.setattr(tempstructs, "compile_predicate", counting)
        name = copy_subset_to_table(server, "t", eq("a", 1))
        assert server.table(name).row_count == 10
        assert len(calls) == 1


class TestTIDList:
    def test_captures_matching_tids(self, server):
        tids = TIDList(server, "t", eq("a", 2))
        assert len(tids) == 10

    def test_fetch_refilters(self, server):
        tids = TIDList(server, "t", eq("a", 2))
        rows = list(tids.fetch(all_of([eq("a", 2), eq("b", 6)])))
        assert rows == [(2, 6)]

    def test_fetch_without_filter_returns_all(self, server):
        tids = TIDList(server, "t", eq("a", 0))
        assert len(list(tids.fetch())) == 10

    def test_fetch_charges_join_per_tid(self, server):
        tids = TIDList(server, "t", eq("a", 2))
        server.meter.reset()
        list(tids.fetch(eq("b", 6)))
        assert server.meter.charges["tid_join"] == pytest.approx(
            10 * server.model.tid_join_row
        )
        # Only the one qualifying row is transferred.
        assert server.meter.charges["transfer"] == pytest.approx(
            server.model.transfer_per_row
        )
