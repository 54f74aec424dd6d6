"""Figure 8a: increasing attribute values on a long lop-sided tree.

Paper setup: a 10 MB data set from a long lop-sided generating tree,
attribute cardinality swept upwards, comparing a plain cursor scan (no
caching) against a "file based data store" that reads all data from a
middleware file instead of the RDBMS.

Paper shapes to reproduce:
* both curves rise with attribute cardinality (bigger CC tables,
  bushier frontiers, more scans);
* the paper's stated mechanism — "During early part of the execution
  [the file] seems like a good idea because reading from the file is
  faster than reading from the cursor.  However, as the scope of
  interesting data decreases pulling data from the server becomes
  faster than reading from the middleware file (server can utilize the
  WHERE clause to limit records)" — i.e. a per-scan crossover: a scan
  needing a large fraction of the data is cheaper from the file, a
  scan needing a small fraction is cheaper from the filtered cursor.
  The second table sweeps the active fraction and locates it.
"""

from _workloads import random_tree_workbench

from repro.bench.harness import mb, series_table, write_report
from repro.core.config import MiddlewareConfig
from repro.core.filters import PathCondition, path_predicate

ATTRIBUTE_VALUES = [2, 4, 8, 16]
DATA_MB = 10
RAM_MB = 8

#: Active-set fractions for the crossover micro-experiment.
FRACTIONS = [1.0, 0.5, 0.25, 0.1, 0.05, 0.02]


def workbench_for(values_per_attribute):
    return random_tree_workbench(
        DATA_MB,
        n_leaves=60,
        n_attributes=10,
        values_per_attribute=values_per_attribute,
        skew=1.0,                 # the paper's "long lop-sided tree"
        complete_splits=False,
        seed=80,
    )


def run_sweep():
    cursor = []
    file_store = []
    for values in ATTRIBUTE_VALUES:
        bench = workbench_for(values)
        cursor.append(
            bench.run_middleware(
                MiddlewareConfig.no_staging(mb(RAM_MB)),
                label=f"cursor v={values}",
            )
        )
        file_store.append(
            bench.run_middleware(
                MiddlewareConfig.file_only(mb(RAM_MB), split_threshold=0.0),
                label=f"file v={values}",
            )
        )
    return cursor, file_store


def run_crossover():
    """Per-scan cost of serving an active fraction f from each store."""
    bench = workbench_for(4)
    server = bench.server
    table = server.table(bench.table_name)
    n_rows = table.row_count

    # A singleton middleware file holding the whole data set.
    from repro.core.staging import StagingManager
    from repro.common.memory import MemoryBudget

    staging = StagingManager(
        bench.spec, server.meter, server.model, MemoryBudget(10**9)
    )
    staged = staging.open_file("root")
    staged.append_rows(table.scan_rows())
    staged.seal()

    cursor_costs = []
    file_costs = []
    for fraction in FRACTIONS:
        # Use a synthetic row-id-free filter: first attribute quantile.
        # Row codes are uniform, so A1 IN (subset) approximates f.
        # Simpler and exact: fetch the first f*n rows via a predicate
        # over the class column is not possible — instead measure with
        # the real mechanism: a pushed predicate that the server
        # evaluates, selecting ~f of rows.
        wanted = max(1, int(n_rows * fraction))
        predicate = _prefix_predicate(table, wanted)

        snap = server.meter.snapshot()
        with server.open_cursor(bench.table_name, predicate) as cur:
            matched = sum(1 for _ in cur.rows())
        cursor_costs.append(server.meter.total_since(snap))

        snap = server.meter.snapshot()
        check = predicate.compile(table.schema) if predicate else None
        for row in staged.scan():
            if check is not None:
                check(row)
        file_costs.append(server.meter.total_since(snap))
    staging.close()
    return cursor_costs, file_costs


def _prefix_predicate(table, wanted):
    """A predicate matching roughly the first ``wanted`` rows' profile.

    Built from the most selective attribute-value combination whose
    frequency is closest to the target fraction.
    """
    from repro.sqlengine.expr import all_of, eq

    rows = list(table.scan_rows())
    n = len(rows)
    conditions = []
    remaining = rows
    while len(remaining) > wanted and len(conditions) < len(table.schema) - 1:
        index = len(conditions)
        value = remaining[0][index]
        conditions.append(eq(table.schema.columns[index].name, value))
        remaining = [r for r in remaining if r[index] == value]
    return all_of(conditions) if conditions else None


def bench_fig8a_attr_values(benchmark):
    (cursor, file_store), (cursor_scan, file_scan) = benchmark.pedantic(
        lambda: (run_sweep(), run_crossover()), rounds=1, iterations=1
    )

    text = series_table(
        "Figure 8a: cost vs attribute values (lop-sided tree, 10 MB)",
        "attribute values",
        ATTRIBUTE_VALUES,
        [
            ("cursor scan (no caching)", cursor),
            ("file based data store", file_store),
        ],
    )
    crossover_rows = [
        [f, c, s]
        for f, c, s in zip(FRACTIONS, cursor_scan, file_scan)
    ]
    from repro.common.text import render_table

    crossover_text = render_table(
        ["active fraction", "cursor scan", "file scan"],
        crossover_rows,
        title=(
            "Figure 8a (detail): one scan serving an active fraction — "
            "the WHERE-clause crossover"
        ),
    )
    write_report("fig8a_attr_values", text + "\n\n" + crossover_text)

    costs_cursor = [r.cost for r in cursor]
    costs_file = [r.cost for r in file_store]

    # Same trees from both stores; both curves rise with cardinality.
    for a, b in zip(cursor, file_store):
        assert a.tree_nodes == b.tree_nodes
    assert costs_file == sorted(costs_file)
    assert costs_cursor == sorted(costs_cursor)

    # The paper's crossover: reading everything favours the file, a
    # small active set favours the filtered server cursor.
    assert file_scan[0] < cursor_scan[0]          # full scan: file wins
    assert cursor_scan[-1] < file_scan[-1]        # tiny active: cursor wins
    # The file-scan cost is flat (always reads the whole file) while
    # the cursor's falls with the active fraction.
    assert max(file_scan) <= min(file_scan) * 1.05
    assert cursor_scan[-1] < cursor_scan[0]
