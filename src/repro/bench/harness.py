"""Shared benchmark harness.

Every benchmark in ``benchmarks/`` reproduces one table or figure from
the paper's Section 5.  The harness gives them a common vocabulary:

* **scaling** — paper sizes (MB of data, MB of middleware memory) are
  mapped to simulated bytes through :data:`SCALE`, preserving every
  ratio the scheduler and staging logic depend on;
* **Workbench** — loads a data set into a fresh SQL server once and
  runs classifier configurations against it, resetting the cost meter
  between runs so each run reports its own simulated cost;
* **reporting** — aligned text tables of the same series the paper
  plots, written to ``benchmarks/results/`` and printed.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from ..client.baselines import extract_all_fit, sql_counting_fit
from ..client.decision_tree import DecisionTreeClassifier
from ..client.growth import GrowthPolicy
from ..client.tree import DecisionTree
from ..common.cost import CostMeter, CostModel
from ..common.text import render_table
from ..core.config import MiddlewareConfig
from ..core.middleware import Middleware
from ..datagen.dataset import DatasetSpec
from ..datagen.loader import load_dataset
from ..sqlengine.database import SQLServer
from ..sqlengine.types import SQLValue

#: Paper-size → simulation scale factor.  All experiments shrink the
#: paper's data sets and memory budgets by the same factor, so every
#: decision the scheduler takes is driven by the same ratios.
SCALE = 0.01

#: One paper megabyte, in real bytes, before scaling.
_MB = 1024 * 1024


def mb(paper_megabytes: float) -> int:
    """Paper megabytes → simulated bytes at :data:`SCALE`."""
    return max(1, int(paper_megabytes * _MB * SCALE))


def rows_for_mb(spec: DatasetSpec, paper_megabytes: float) -> int:
    """Rows forming a data set of the given (paper) size."""
    return spec.rows_for_bytes(mb(paper_megabytes))


@dataclass
class RunResult:
    """Outcome of growing one tree under one configuration."""

    label: str
    cost: float
    wall_seconds: float
    tree_nodes: int
    tree_leaves: int
    tree_depth: int
    scans: dict[str, int] = field(default_factory=dict)
    rows_seen: int = 0
    sql_fallbacks: int = 0
    breakdown: dict[str, float] = field(default_factory=dict)
    #: Persistent scan-pool observability (middleware runs only):
    #: executors created, kernel installs, scans served, total setup
    #: seconds.
    pool: dict[str, float] = field(default_factory=dict)
    #: The fitted classifier (middleware runs only).
    classifier: Optional[DecisionTreeClassifier] = None

    def __repr__(self) -> str:
        return f"RunResult({self.label!r}, cost={self.cost:.1f})"


class Workbench:
    """One loaded data set; many metered classifier runs against it."""

    def __init__(self, spec: DatasetSpec,
                 rows: Iterable[Sequence[SQLValue]],
                 table_name: str = "data",
                 model: Optional[CostModel] = None) -> None:
        self.spec = spec
        self.table_name = table_name
        self.model = model or CostModel()
        self.meter = CostMeter()
        self.server = SQLServer(model=self.model, meter=self.meter)
        loaded = list(rows)
        load_dataset(self.server, table_name, spec, loaded)
        self.n_rows = len(loaded)

    def run_middleware(self, config: MiddlewareConfig,
                       policy: Optional[GrowthPolicy] = None,
                       label: str = "middleware") -> RunResult:
        """Grow a tree through the middleware; returns a RunResult."""
        policy = policy or GrowthPolicy()
        classifier = DecisionTreeClassifier(
            criterion=policy.criterion,
            binary_splits=policy.binary_splits,
            max_depth=policy.max_depth,
            min_rows=policy.min_rows,
            min_gain=policy.min_gain,
        )
        self.meter.reset()
        started = time.perf_counter()
        with Middleware(
            self.server, self.table_name, self.spec, config
        ) as middleware:
            classifier.fit(middleware)
            stats = middleware.stats
            scans = {
                location.name: count
                for location, count in stats.scans_by_mode.items()
            }
            result = RunResult(
                label=label,
                cost=self.meter.total,
                wall_seconds=time.perf_counter() - started,
                tree_nodes=classifier.tree.n_nodes,
                tree_leaves=classifier.tree.n_leaves,
                tree_depth=classifier.tree.depth,
                scans=scans,
                rows_seen=stats.rows_seen,
                sql_fallbacks=stats.sql_fallbacks,
                breakdown=dict(self.meter.breakdown()),
            )
            pool = middleware.scan_pool
            if pool is not None:
                result.pool = {
                    "pools_created": pool.pools_created,
                    "kernels_installed": pool.kernels_installed,
                    "scans_served": pool.scans_served,
                    "setup_seconds": stats.pool_setup_seconds,
                }
        result.classifier = classifier
        return result

    def run_sql_counting(self, policy: Optional[GrowthPolicy] = None,
                         label: str = "sql counting") -> RunResult:
        """Grow via the per-node UNION baseline; returns a RunResult."""
        policy = policy or GrowthPolicy()
        self.meter.reset()
        started = time.perf_counter()
        tree = sql_counting_fit(
            self.server, self.table_name, self.spec, policy
        )
        return self._baseline_result(tree, label, started)

    def run_extract_all(self, policy: Optional[GrowthPolicy] = None,
                        label: str = "extract all") -> RunResult:
        """Grow via the extract-everything baseline; returns a RunResult."""
        policy = policy or GrowthPolicy()
        self.meter.reset()
        started = time.perf_counter()
        tree = extract_all_fit(
            self.server, self.table_name, self.spec, policy
        )
        return self._baseline_result(tree, label, started)

    def _baseline_result(self, tree: DecisionTree, label: str,
                         started: float) -> RunResult:
        return RunResult(
            label=label,
            cost=self.meter.total,
            wall_seconds=time.perf_counter() - started,
            tree_nodes=tree.n_nodes,
            tree_leaves=tree.n_leaves,
            tree_depth=tree.depth,
            breakdown=dict(self.meter.breakdown()),
        )


def series_table(title: str, x_header: str, xs: Sequence[Any],
                 series: Sequence[tuple[str, Sequence[RunResult]]]) -> str:
    """Render one paper chart: an aligned table plus an ASCII plot.

    ``series`` is ``[(name, [RunResult, ...]), ...]`` aligned with
    ``xs``.
    """
    from .charts import ascii_chart

    headers = [x_header] + [name for name, _ in series]
    rows = []
    for i, x in enumerate(xs):
        row: list[Any] = [x] + [runs[i].cost for _, runs in series]
        rows.append(row)
    table = render_table(headers, rows, title=title)
    chart = ascii_chart(
        list(xs),
        [(name, [run.cost for run in runs]) for name, runs in series],
    )
    return table + "\n\n" + chart


def results_dir() -> str:
    """The benchmarks/results directory (created on demand)."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )))
    path = os.path.join(here, "benchmarks", "results")
    os.makedirs(path, exist_ok=True)
    return path


def write_report(name: str, text: str) -> str:
    """Print a report and persist it under benchmarks/results/."""
    print()
    print(text)
    path = os.path.join(results_dir(), f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path


def update_bench_json(section: str, payload: dict[str, Any],
                      filename: str = "BENCH_scan.json") -> str:
    """Merge one benchmark's machine-readable results into a shared
    JSON file under benchmarks/results/.

    The file is one JSON object with one key per benchmark
    (``section``), so successive benchmarks — and successive PRs —
    accumulate a perf trajectory that tooling can diff, while a rerun
    of one benchmark only replaces its own section.  Corrupt or
    missing files are replaced rather than fatal.
    """
    path = os.path.join(results_dir(), filename)
    data: dict[str, Any] = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                data = json.load(handle)
            if not isinstance(data, dict):
                data = {}
        except (ValueError, OSError):
            data = {}
    data[section] = payload
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
