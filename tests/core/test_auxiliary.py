"""Unit tests for the server-access strategies (§4.3.3)."""

import pytest

from repro.common.errors import MiddlewareError
from repro.core.auxiliary import (
    KeysetStrategy,
    PlainScanStrategy,
    TempTableStrategy,
    TIDJoinStrategy,
    make_strategy,
)
from repro.sqlengine.database import SQLServer
from repro.sqlengine.expr import all_of, eq
from repro.sqlengine.schema import TableSchema


@pytest.fixture
def server():
    server = SQLServer()
    server.create_table("t", TableSchema.of(("a", "int"), ("b", "int")))
    # 100 rows, a in 0..9 -> each a-value selects 10%.
    server.bulk_load("t", [(i % 10, i) for i in range(100)])
    return server


ALL_STRATEGIES = ["scan", "temp_table", "tid_join", "keyset"]


class TestFactory:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_known_names(self, server, name):
        strategy = make_strategy(name, server, "t")
        assert strategy is not None

    def test_unknown_name_rejected(self, server):
        with pytest.raises(MiddlewareError):
            make_strategy("btree", server, "t")


class TestRowCorrectness:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_same_rows_as_plain_scan(self, server, name):
        predicate = eq("a", 3)
        plain = sorted(
            PlainScanStrategy(server, "t").rows(predicate, 10)
        )
        strategy = make_strategy(name, server, "t", build_threshold=0.2)
        got = sorted(strategy.rows(predicate, 10))
        assert got == plain
        strategy.close()

    @pytest.mark.parametrize("name", ["temp_table", "tid_join", "keyset"])
    def test_narrowing_fetches_after_build(self, server, name):
        strategy = make_strategy(name, server, "t", build_threshold=0.2)
        wide = eq("a", 3)
        list(strategy.rows(wide, 10))  # builds the structure
        assert strategy.has_structure
        narrow = all_of([eq("a", 3), eq("b", 63)])
        rows = list(strategy.rows(narrow, 1))
        assert rows == [(3, 63)]
        strategy.close()


class TestBuildThreshold:
    def test_no_build_above_threshold(self, server):
        strategy = TempTableStrategy(server, "t", build_threshold=0.05)
        list(strategy.rows(eq("a", 3), 10))  # 10% > 5% threshold
        assert not strategy.has_structure
        strategy.close()

    def test_build_at_or_below_threshold(self, server):
        strategy = TIDJoinStrategy(server, "t", build_threshold=0.1)
        list(strategy.rows(eq("a", 3), 10))
        assert strategy.has_structure
        strategy.close()

    def test_bad_threshold_rejected(self, server):
        with pytest.raises(MiddlewareError):
            KeysetStrategy(server, "t", build_threshold=0.0)


class TestCosts:
    def test_temp_table_build_charges(self, server):
        strategy = TempTableStrategy(server, "t", build_threshold=0.2)
        server.meter.reset()
        list(strategy.rows(eq("a", 3), 10))
        assert server.meter.charges["temp_table"] > 0
        strategy.close()

    def test_free_build_refunds_construction(self, server):
        charged = TempTableStrategy(server, "t", build_threshold=0.2)
        server.meter.reset()
        list(charged.rows(eq("a", 3), 10))
        with_build = server.meter.total
        charged.close()

        free = TempTableStrategy(
            server, "t", build_threshold=0.2, free_build=True
        )
        server.meter.reset()
        list(free.rows(eq("a", 3), 10))
        without_build = server.meter.total
        free.close()
        assert without_build < with_build

    def test_structure_scan_cheaper_than_full_scan_per_fetch(self, server):
        # After building, a keyset fetch reads only the keyset — cheaper
        # than a full-table page scan for the same rows.
        strategy = KeysetStrategy(
            server, "t", build_threshold=0.2, free_build=True
        )
        list(strategy.rows(eq("a", 3), 10))
        server.meter.reset()
        list(strategy.rows(eq("a", 3), 10))
        structure_cost = server.meter.total
        strategy.close()

        server.meter.reset()
        list(PlainScanStrategy(server, "t").rows(eq("a", 3), 10))
        plain_cost = server.meter.total
        assert structure_cost < plain_cost


class TestTeardown:
    def test_temp_table_dropped_on_close(self, server):
        strategy = TempTableStrategy(server, "t", build_threshold=0.2)
        list(strategy.rows(eq("a", 3), 10))
        temp_names = [
            n for n in server.database.table_names() if n.startswith("#")
        ]
        assert temp_names
        strategy.close()
        assert not any(
            n.startswith("#") for n in server.database.table_names()
        )

    def test_keyset_cursor_closed(self, server):
        strategy = KeysetStrategy(server, "t", build_threshold=0.2)
        list(strategy.rows(eq("a", 3), 10))
        cursor = strategy._structure
        strategy.close()
        assert not cursor.is_open
