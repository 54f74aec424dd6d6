"""A TID-list, keyset or index plan gathers its rows out of the
server's encoding: once the strategy has built its structure and the
table version is encoded, ``plan_columnar(...).encode()`` reads no
heap row, and it yields exactly the rows the metered stream
(``strategy.rows``) yields."""

import pytest

pytest.importorskip("numpy")

from repro.core.auxiliary import make_strategy  # noqa: E402
from repro.sqlengine.database import SQLServer  # noqa: E402
from repro.sqlengine.expr import Comparison, col, eq, lit  # noqa: E402
from repro.sqlengine.heap import HeapTable  # noqa: E402
from repro.sqlengine.schema import TableSchema  # noqa: E402


@pytest.fixture
def server():
    # 1,000 rows over many pages, a in 0..9, b unique; every seventh
    # row deleted so the gather has tombstones to skip.
    server = SQLServer(page_bytes=1024)
    server.create_table("t", TableSchema.of(("a", "int"), ("b", "int")))
    server.bulk_load("t", [(i % 10, i) for i in range(1000)])
    table = server.table("t")
    for tid, row in list(table.scan()):
        if row[1] % 7 == 0:
            table.delete(tid)
    server.execute("CREATE INDEX ix_b ON t (b) USING range")
    return server


@pytest.mark.parametrize("name, threshold, predicate, relevant, path", [
    ("tid_join", 0.2, eq("a", 3), 86, "tid_join"),
    ("keyset", 0.2, eq("a", 3), 86, "keyset"),
    # A threshold no batch meets: auto's cheapest path is the index.
    ("auto", 0.0001, Comparison("<", col("b"), lit(40)), 34, "index"),
])
def test_plan_encodes_without_reading_a_heap_row(
        server, monkeypatch, name, threshold, predicate, relevant, path):
    strategy = make_strategy(name, server, "t", build_threshold=threshold)
    strategy.plan_columnar(predicate, relevant)  # builds the structure
    assert strategy.last_choice.path == path
    expected = list(strategy.rows(predicate, relevant))
    server.table("t").columnar()  # the version's one encoding

    def no_heap_read(*args, **kwargs):
        raise AssertionError("the plan read a heap row")

    for reader in ("scan", "scan_rows", "fetch", "fetch_or_none"):
        monkeypatch.setattr(HeapTable, reader, no_heap_read)
    encoding = strategy.plan_columnar(predicate, relevant).encode()
    assert strategy.last_choice.path == path
    assert list(encoding.rows()) == expected
    strategy.close()
