"""No numpy scalar leaves a CC table.

Counts live in ``int64`` arrays from the kernel to the split decision,
but everything a table hands out — and everything built from it: child
specs, tree nodes, schedule records — is a plain ``int`` or a list of
them.  ``np.int64(3) == 3`` is true, so the golden trees would not
notice a leak; ``json.dumps``, ``repr`` (the benchmark's tree digest)
and the persisted model would.
"""

import dataclasses
import json

import pytest

pytest.importorskip("numpy")

from repro.client.baselines import (  # noqa: E402
    build_cc_from_rows,
    grow_in_memory,
)
from repro.client.criteria import make_criterion  # noqa: E402
from repro.client.decision_tree import DecisionTreeClassifier  # noqa: E402
from repro.client.export import (  # noqa: E402
    in_database_accuracy,
    predict_in_database,
    tree_to_sql,
)
from repro.client.growth import GrowthPolicy  # noqa: E402
from repro.client.serialize import (  # noqa: E402
    load_tree,
    save_tree,
    tree_from_dict,
    tree_to_dict,
)
from repro.client.splits import best_split  # noqa: E402
from repro.core.config import MiddlewareConfig  # noqa: E402
from repro.core.middleware import Middleware  # noqa: E402
from repro.core.requests import CountsRequest  # noqa: E402
from repro.core.sql_counting import counts_via_sql  # noqa: E402
from repro.sqlengine.parser import parse  # noqa: E402

from ..conftest import tree_signature  # noqa: E402

#: Small chunks: every scan folds several partitions.
CONFIGS = {
    "inline": dict(scan_workers=1, scan_chunk_rows=8),
    "threads": dict(scan_workers=2, scan_chunk_rows=16),
}


def assert_plain(value, where):
    """``value`` is built from exact ``int`` / ``float`` / ``str`` /
    ``bool`` / ``None`` and lists, tuples and dicts of those."""
    if isinstance(value, (list, tuple)):
        for item in value:
            assert_plain(item, where)
    elif isinstance(value, dict):
        for key, item in value.items():
            assert_plain(key, where)
            assert_plain(item, where)
    else:
        assert type(value) in (int, float, str, bool, type(None)), (
            where, type(value)
        )


def kernel_table(server, spec, rows):
    config = MiddlewareConfig(**CONFIGS["inline"])
    with Middleware(server, "data", spec, config) as mw:
        mw.queue_request(CountsRequest(
            node_id=0, lineage=(0,), conditions=(),
            attributes=spec.attribute_names, n_rows=len(rows),
            est_cc_pairs=64,
        ))
        (result,) = mw.process_next_batch()
        assert len(mw.trace[0].worker_seconds) > 1  # several partitions
    return result.cc


BUILDERS = {
    "kernel": kernel_table,
    "count_row": lambda server, spec, rows: build_cc_from_rows(
        rows, spec, spec.attribute_names
    ),
    "add_counts": lambda server, spec, rows: counts_via_sql(
        server, "data", spec, spec.attribute_names
    ),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_every_table_read_is_plain(builder, loaded_server):
    server, spec, rows = loaded_server
    cc = BUILDERS[builder](server, spec, rows)
    assert cc == BUILDERS["count_row"](server, spec, rows)
    attribute = spec.attribute_names[0]
    value = cc.values_of(attribute)[0]
    reads = {
        "records": cc.records,
        "n_pairs": cc.n_pairs,
        "size_bytes": cc.size_bytes,
        "class_totals": cc.class_totals(),
        "vector": cc.vector(attribute, value),
        "unseen vector": cc.vector(attribute, "never"),
        "vectors_of": cc.vectors_of(attribute),
        "rows": cc.rows(),
        "pair_count_by_attribute": cc.pair_count_by_attribute(),
        "cardinality": cc.cardinality(attribute),
        "values_of": cc.values_of(attribute),
        "pair": cc.pair(cc.n_pairs - 1),
    }
    for name, read in reads.items():
        assert_plain(read, name)
    json.dumps(reads)
    for binary in (True, False):
        split = best_split(cc, make_criterion("entropy"), binary=binary)
        assert type(split.score) is float
        for child in split.children:
            assert_plain([child.n_rows, child.class_counts,
                          child.condition.value], "ChildSpec")


@pytest.mark.parametrize("executor", sorted(CONFIGS))
def test_a_tree_fitted_through_the_middleware_is_plain_and_persists(
        executor, loaded_server, tmp_path):
    server, spec, rows = loaded_server
    config = MiddlewareConfig(memory_bytes=20_000, **CONFIGS[executor])
    with Middleware(server, "data", spec, config) as mw:
        tree = DecisionTreeClassifier().fit(mw).tree
        records = list(mw.trace)
    reference = grow_in_memory(rows, spec, GrowthPolicy())
    assert tree_signature(tree.root) == tree_signature(reference.root)

    for node in tree.nodes.values():
        assert_plain([node.n_rows, node.class_counts], f"node {node.node_id}")
    assert {record.mode for record in records} > {"SERVER"}
    for record in records:
        fields = dataclasses.asdict(record)
        assert_plain(fields, f"record {record.sequence}")
        json.dumps(fields)

    # serialize: through JSON text and through a file.
    payload = json.loads(json.dumps(tree_to_dict(tree)))
    assert payload == tree_to_dict(reference)
    assert tree_signature(tree_from_dict(payload).root) == tree_signature(
        tree.root
    )
    path = tmp_path / "model.json"
    save_tree(tree, path)
    assert tree_signature(load_tree(path).root) == tree_signature(tree.root)

    # export: the scoring statement parses and scores like the client.
    sql = tree_to_sql(tree, "data")
    assert sql == tree_to_sql(reference, "data")
    parse(sql)
    assert len(predict_in_database(server, "data", tree)) == len(rows)
    assert in_database_accuracy(server, "data", tree) == pytest.approx(
        tree.accuracy(rows)
    )
