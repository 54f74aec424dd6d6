"""Naive Bayes through the middleware: one scan, full stop.

The paper's architecture claim (§1, §3.1): any classifier driven by
sufficient statistics can plug in.  Naive Bayes is the extreme case —
its entire model is the *root's* CC table, so fitting costs exactly
one server scan regardless of anything else.  This bench quantifies
the contrast with tree growth on the same table.
"""

from repro.bench.harness import Workbench, mb, rows_for_mb, write_report
from repro.client.naive_bayes import NaiveBayesClassifier
from repro.common.text import render_table
from repro.core.config import MiddlewareConfig
from repro.core.middleware import Middleware
from repro.datagen.dataset import uniform_spec
from repro.datagen.random_tree import RandomTreeConfig, build_random_tree

DATA_MB = [5, 10, 20]
RAM_MB = 32


def run_all():
    target_spec = uniform_spec(25, 4, 10)  # the default generator schema
    rows_out = []
    for size in DATA_MB:
        generating = build_random_tree(
            RandomTreeConfig(
                n_leaves=50,
                cases_per_leaf=max(1, rows_for_mb(target_spec, size) // 50),
                seed=61,
            )
        )
        bench = Workbench(generating.spec, generating.materialize())

        bench.meter.reset()
        with Middleware(
            bench.server, "data", bench.spec,
            MiddlewareConfig(memory_bytes=mb(RAM_MB)),
        ) as mw:
            model = NaiveBayesClassifier().fit(mw)
            nb_cost = bench.meter.total
            nb_scans = mw.stats.batches
        nb_accuracy = model.accuracy(
            bench.server.table("data").scan_rows()
        )

        tree_run = bench.run_middleware(
            MiddlewareConfig(memory_bytes=mb(RAM_MB)), label="tree"
        )
        rows_out.append(
            [size, nb_cost, nb_scans, round(nb_accuracy, 3), tree_run.cost]
        )
    return rows_out


def bench_naive_bayes(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    text = render_table(
        ["data (MB)", "NB cost", "NB scans", "NB train acc", "tree cost"],
        rows,
        title="Naive Bayes plug-in: one CC request vs full tree growth",
    )
    write_report("naive_bayes_plugin", text)

    for size, nb_cost, nb_scans, nb_accuracy, tree_cost in rows:
        assert nb_scans == 1          # the whole model is one scan
        assert nb_cost < tree_cost    # and far cheaper than tree growth
        assert nb_accuracy > 0.2      # better than the 10-class chance
