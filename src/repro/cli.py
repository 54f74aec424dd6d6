"""Command-line interface: generate → fit → evaluate → predict.

Usage::

    python -m repro generate --workload census --rows 5000 --out data.csv
    python -m repro fit data.csv --out model.json --render-depth 2
    python -m repro evaluate data.csv --folds 5
    python -m repro predict model.json data.csv --out scored.csv

Data files are header-bearing CSVs of integer attribute codes with the
class label in the last (or ``--class-column``) column — the format
``generate`` emits and ``import_csv`` loads.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Any, Iterable, Sequence

from .client.decision_tree import DecisionTreeClassifier
from .client.evaluation import cross_validate, evaluate
from .client.growth import GrowthPolicy
from .client.serialize import load_tree, save_tree
from .common.errors import ReproError
from .core.config import AUX_STRATEGIES, MiddlewareConfig
from .core.middleware import Middleware
from .datagen.census import CensusConfig, census_spec, generate_census_rows
from .datagen.dataset import DatasetSpec
from .datagen.gaussians import GaussianMixture, GaussianMixtureConfig
from .datagen.loader import load_dataset
from .datagen.random_tree import RandomTreeConfig, build_random_tree
from .sqlengine.database import SQLServer


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return int(args.handler(args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Scalable classification over SQL databases (ICDE 1999 "
            "reproduction)"
        ),
    )
    commands = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    generate = commands.add_parser(
        "generate", help="generate a synthetic data set as CSV"
    )
    generate.add_argument(
        "--workload",
        choices=("random-tree", "gaussian", "census"),
        default="random-tree",
    )
    generate.add_argument("--rows", type=int, default=5000,
                          help="approximate row count")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output CSV path")
    generate.set_defaults(handler=_cmd_generate)

    fit = commands.add_parser(
        "fit", help="grow a decision tree over a CSV data set"
    )
    fit.add_argument("data", help="input CSV (integer codes + class)")
    fit.add_argument("--class-column", default=None,
                     help="class column name (default: last column)")
    fit.add_argument("--criterion", default="entropy",
                     choices=("entropy", "gain_ratio", "gini", "chi2"))
    fit.add_argument("--max-depth", type=int, default=None)
    fit.add_argument("--min-rows", type=int, default=2)
    fit.add_argument("--memory", type=int, default=256 * 1024,
                     help="middleware memory budget in simulated bytes "
                          "(default: 256 KiB)")
    fit.add_argument("--no-staging", action="store_true",
                     help="disable file and memory staging")
    fit.add_argument("--file-split-threshold", type=float, default=None,
                     help="file-split trigger in [0, 1]: a file scan "
                          "whose active nodes cover at most this "
                          "fraction writes fresh per-node files "
                          "(default: 0.5)")
    fit.add_argument("--file-budget-bytes", type=int, default=None,
                     help="cap on total staged-file bytes "
                          "(default: unlimited)")
    fit.add_argument("--no-push-filters", action="store_true",
                     help="keep batch filter expressions out of server "
                          "scans (route every row in the middleware)")
    fit.add_argument("--aux-strategy", choices=AUX_STRATEGIES,
                     default=None,
                     help="server-access strategy for partial scans "
                          "(default: scan)")
    fit.add_argument("--aux-build-threshold", type=float, default=None,
                     help="relevant-row fraction in (0, 1] below which "
                          "the auxiliary strategy builds its structure "
                          "(default: 0.1)")
    fit.add_argument("--aux-free-build", action="store_true",
                     help="do not charge auxiliary-structure builds to "
                          "the simulated cost meter")
    fit.add_argument("--staging-dir", default=None,
                     help="directory for staging files (default: a "
                          "private temp directory)")
    fit.add_argument("--scan-chunk-rows", type=int, default=None,
                     help="rows per scan chunk, the unit scan partitions "
                          "are sized in: 8 chunks inline, at least one "
                          "behind a pool (default: 1024)")
    fit.add_argument("--scan-workers", type=int, default=None,
                     help="workers for scans longer than one "
                          "partition (default: $REPRO_SCAN_WORKERS or "
                          "1 = the calling thread alone, no pool)")
    fit.add_argument("--scan-pool", choices=("thread", "process"),
                     default=None,
                     help="worker pool kind for parallel scans "
                          "(default: thread)")
    fit.add_argument("--scan-cache-bytes", type=int, default=None,
                     help="byte budget for the columnar encodings a "
                          "session keeps on top of the server's one "
                          "per table version (default: 128 MiB; 0 "
                          "keeps none: a SERVER scan still slices the "
                          "server's encoding, a MEMORY scan its set, "
                          "and a staged file is encoded a block at a "
                          "time)")
    fit.add_argument("--no-scan-use-planner", action="store_true",
                     help="strip the index candidate from the auto "
                          "strategy's access-path planner (the blind "
                          "baseline; fixed strategies ignore this)")
    fit.add_argument("--out", default=None, help="write the model as JSON")
    fit.add_argument("--render-depth", type=int, default=None,
                     help="print the tree down to this depth")
    fit.add_argument("--trace", action="store_true",
                     help="print the per-scan execution trace")
    fit.set_defaults(handler=_cmd_fit)

    evaluate_cmd = commands.add_parser(
        "evaluate", help="k-fold cross-validation on a CSV data set"
    )
    evaluate_cmd.add_argument("data")
    evaluate_cmd.add_argument("--class-column", default=None)
    evaluate_cmd.add_argument("--criterion", default="entropy",
                              choices=("entropy", "gain_ratio", "gini",
                                       "chi2"))
    evaluate_cmd.add_argument("--folds", type=int, default=5)
    evaluate_cmd.add_argument("--max-depth", type=int, default=None)
    evaluate_cmd.add_argument("--seed", type=int, default=0)
    evaluate_cmd.set_defaults(handler=_cmd_evaluate)

    predict = commands.add_parser(
        "predict", help="score a CSV data set with a saved model"
    )
    predict.add_argument("model", help="model JSON from `fit --out`")
    predict.add_argument("data", help="CSV to score")
    predict.add_argument("--out", default=None,
                         help="write predictions as CSV")
    predict.set_defaults(handler=_cmd_predict)

    return parser


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    rows: Iterable[tuple[int, ...]]
    if args.workload == "census":
        spec = census_spec()
        rows = generate_census_rows(
            CensusConfig(n_rows=args.rows, seed=args.seed)
        )
    elif args.workload == "gaussian":
        per_class = max(1, args.rows // 5)
        mixture = GaussianMixture(
            GaussianMixtureConfig(
                n_dimensions=10,
                n_classes=5,
                samples_per_class=per_class,
                seed=args.seed,
            )
        )
        spec = mixture.spec()
        rows = mixture.generate_rows()
    else:
        leaves = max(2, args.rows // 50)
        generating = build_random_tree(
            RandomTreeConfig(
                n_leaves=leaves,
                cases_per_leaf=max(1, args.rows // leaves),
                seed=args.seed,
            )
        )
        spec = generating.spec
        rows = generating.generate_rows()

    count = _write_csv(args.out, spec, rows)
    print(f"wrote {count} rows x {spec.n_attributes} attributes "
          f"to {args.out}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    spec, rows = _read_csv_dataset(args.data, args.class_column)
    server = SQLServer()
    load_dataset(server, "data", spec, rows)

    scan_options: dict[str, Any] = {}
    # Only forward scan flags the user actually set, so the config's
    # own defaults (including $REPRO_SCAN_WORKERS) apply.
    if args.scan_chunk_rows is not None:
        scan_options["scan_chunk_rows"] = args.scan_chunk_rows
    if args.scan_workers is not None:
        scan_options["scan_workers"] = args.scan_workers
    if args.scan_pool is not None:
        scan_options["scan_pool"] = args.scan_pool
    if args.scan_cache_bytes is not None:
        scan_options["scan_cache_bytes"] = args.scan_cache_bytes
    if args.no_scan_use_planner:
        scan_options["scan_use_planner"] = False
    if args.file_split_threshold is not None:
        scan_options["file_split_threshold"] = args.file_split_threshold
    if args.file_budget_bytes is not None:
        scan_options["file_budget_bytes"] = args.file_budget_bytes
    if args.no_push_filters:
        scan_options["push_filters"] = False
    if args.aux_strategy is not None:
        scan_options["aux_strategy"] = args.aux_strategy
    if args.aux_build_threshold is not None:
        scan_options["aux_build_threshold"] = args.aux_build_threshold
    if args.aux_free_build:
        scan_options["aux_free_build"] = True
    if args.staging_dir is not None:
        scan_options["staging_dir"] = args.staging_dir
    if args.no_staging:
        config = MiddlewareConfig.no_staging(args.memory, **scan_options)
    else:
        config = MiddlewareConfig(memory_bytes=args.memory, **scan_options)
    classifier = DecisionTreeClassifier(
        criterion=args.criterion,
        max_depth=args.max_depth,
        min_rows=args.min_rows,
    )
    with Middleware(server, "data", spec, config) as middleware:
        classifier.fit(middleware)
        report = middleware.report()
        stats = middleware.stats

    tree = classifier.tree
    print(f"fitted tree: {tree.n_nodes} nodes, {tree.n_leaves} leaves, "
          f"depth {tree.depth}")
    print(f"training accuracy: {classifier.accuracy(rows):.4f}")
    print(f"simulated cost: {server.meter.total:,.1f} "
          f"({stats.batches} scans)")
    if args.trace:
        print(report)
    if args.render_depth is not None:
        print(tree.render(max_depth=args.render_depth))
    if args.out:
        save_tree(tree, args.out)
        print(f"model saved to {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    spec, rows = _read_csv_dataset(args.data, args.class_column)
    policy = GrowthPolicy(criterion=args.criterion,
                          max_depth=args.max_depth)
    scores = cross_validate(rows, spec, policy=policy, k=args.folds,
                            seed=args.seed)
    mean = sum(scores) / len(scores)
    rendered = ", ".join(f"{s:.3f}" for s in scores)
    print(f"{args.folds}-fold accuracies: {rendered}")
    print(f"mean accuracy: {mean:.4f}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    tree = load_tree(args.model)
    spec, rows = _read_csv_dataset(
        args.data, None, expected_spec=tree.spec
    )
    predictions = tree.predict(rows)

    if args.out:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                spec.attribute_names + [spec.class_name, "predicted"]
            )
            for row, label in zip(rows, predictions):
                writer.writerow(list(row) + [label])
        print(f"wrote {len(rows)} predictions to {args.out}")

    report = evaluate(tree, rows, spec.n_classes)
    print(report)
    return 0


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------


def _write_csv(path: str, spec: DatasetSpec,
               rows: Iterable[tuple[int, ...]]) -> int:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(spec.attribute_names + [spec.class_name])
        count = 0
        for row in rows:
            writer.writerow(row)
            count += 1
    return count


def _read_csv_dataset(
    path: str,
    class_column: str | None,
    expected_spec: DatasetSpec | None = None,
) -> tuple[DatasetSpec, list[tuple[int, ...]]]:
    """Load a codes CSV into ``(spec, rows)`` with the class last."""
    from .common.errors import ClientError

    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = [name.strip() for name in next(reader)]
        except StopIteration:
            raise ClientError(f"{path!r} is empty") from None
        try:
            raw = [[int(v) for v in row] for row in reader if row]
        except ValueError:
            raise ClientError(
                f"{path!r} must contain integer attribute codes; "
                "discretise numeric data first"
            ) from None

    if class_column is None:
        class_column = header[-1]
    if class_column not in header:
        raise ClientError(f"no column named {class_column!r} in {path!r}")
    class_position = header.index(class_column)
    attribute_names = [n for n in header if n != class_column]

    rows: list[tuple[int, ...]] = []
    for values in raw:
        attributes = [
            v for i, v in enumerate(values) if i != class_position
        ]
        rows.append(tuple(attributes) + (values[class_position],))

    if expected_spec is not None:
        if expected_spec.attribute_names != attribute_names:
            raise ClientError(
                "CSV columns do not match the model's attributes"
            )
        return expected_spec, rows

    if not rows:
        raise ClientError(f"{path!r} has no data rows")
    cards: list[int] = []
    for i in range(len(attribute_names)):
        cards.append(max(2, max(row[i] for row in rows) + 1))
    n_classes = max(2, max(row[-1] for row in rows) + 1)
    spec = DatasetSpec(cards, n_classes, attribute_names=attribute_names,
                       class_name=class_column)
    for row in rows:
        spec.validate_row(row)
    return spec, rows
