"""Quickstart: grow a decision tree over a SQL table via the middleware.

Generates a synthetic data set from a known random decision tree
(paper §5.1.1), loads it into the bundled SQL engine, grows a
classifier through the scalable-classification middleware, and prints
the model, its rules and the simulated I/O cost.

Run:  python examples/quickstart.py
"""

from repro import (
    DecisionTreeClassifier,
    Middleware,
    MiddlewareConfig,
    RandomTreeConfig,
    SQLServer,
    build_random_tree,
    load_dataset,
)


def main():
    # 1. A workload with a known ground-truth tree.
    generating = build_random_tree(
        RandomTreeConfig(
            n_attributes=8,
            values_per_attribute=3,
            n_classes=4,
            n_leaves=15,
            cases_per_leaf=40,
            seed=7,
        )
    )
    rows = generating.materialize()
    print(f"generated {len(rows)} rows from a "
          f"{generating.n_leaves}-leaf ground-truth tree")

    # 2. Load it into the SQL server as a plain table.
    server = SQLServer()
    load_dataset(server, "training_data", generating.spec, rows)

    # 3. Grow the classifier through the middleware.
    config = MiddlewareConfig(memory_bytes=256 * 1024)
    with Middleware(server, "training_data", generating.spec, config) as mw:
        model = DecisionTreeClassifier(criterion="entropy").fit(mw)
        stats = mw.stats

    # 4. Inspect the result.
    tree = model.tree
    print(f"\ngrown tree: {tree.n_nodes} nodes, {tree.n_leaves} leaves, "
          f"depth {tree.depth}")
    print(f"training accuracy: {model.accuracy(rows):.3f}")
    print(f"simulated cost: {server.meter.total:,.1f} units "
          f"({stats.batches} scans: "
          f"{dict((k.name, v) for k, v in stats.scans_by_mode.items())})")

    print("\ntop of the tree (S=server, I=file, L=memory data locations):")
    print(tree.render(max_depth=2))

    print("\nfirst three decision rules:")
    for conditions, label, support in model.rules()[:3]:
        path = " AND ".join(
            f"{c.attribute} {c.op} {c.value}" for c in conditions
        ) or "(always)"
        print(f"  IF {path} THEN class={label}  [{support} rows]")


if __name__ == "__main__":
    main()
