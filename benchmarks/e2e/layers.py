"""Per-layer metrics of one traced fit.

Inputs are the fit's spans (``trace.py``) plus the counters the
program already publishes: ``Middleware.stats``, the
``Middleware.trace`` scan records, ``server.meter`` and the session's
``scan_cache`` / ``scan_pool``.  Layer = module name; ``*_s`` metrics
are seconds.  Every metric is emitted for every workload — zero where
the layer did not run — so BENCHMARK.json can list one fixed set.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable

from trace import ROOT_SPAN, Span

#: The cost categories these workloads charge (``common.cost``).
COST_CATEGORIES = (
    "server_io", "transfer", "groupby", "query_overhead", "cursor",
    "file_read", "file_write", "memory_read", "memory_load",
)

TIERS = ("server", "file", "memory")


@dataclass
class SessionProbe:
    """Program counters copied off a live ``Middleware`` session."""

    stats: Any = None
    records: list[Any] = field(default_factory=list)
    pool_kind: str = ""
    pools_created: int = 0
    kernels_installed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_resident_bytes: int = 0

    def observe(self, session: Any) -> None:
        """Read the session's counters (call before it closes)."""
        self.stats = session.stats
        self.records = list(session.trace)
        pool = session.scan_pool
        if pool is not None:
            self.pool_kind = pool.kind
            self.pools_created = pool.pools_created
            self.kernels_installed = pool.kernels_installed
        cache = session.execution.scan_cache
        if cache is not None:
            self.cache_hits = cache.hits
            self.cache_misses = cache.misses
            self.cache_resident_bytes = cache.resident_bytes


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[Span], probe: SessionProbe, meter: Any,
                  tree: Any) -> dict[str, float]:
    """Every per-layer metric except the ``trace.*`` run-level ones."""
    busy: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    size: dict[str, int] = defaultdict(int)
    for span in spans:
        busy[span.name] += span.duration
        self_s[span.name] += span.self_s
        calls[span.name] += 1
        size[span.name] += span.size

    m: dict[str, float] = {}

    # -- sqlengine -----------------------------------------------------
    m["sqlengine.parser.parse_s"] = busy["sqlengine.parser.parse"]
    m["sqlengine.parser.statements"] = calls["sqlengine.parser.parse"]
    m["sqlengine.planner.plan_s"] = busy["sqlengine.planner.plan"]
    m["sqlengine.planner.plans"] = calls["sqlengine.planner.plan"]
    m["sqlengine.executor.execute_s"] = self_s["sqlengine.executor.execute"]
    m["sqlengine.executor.statements"] = calls["sqlengine.executor.execute"]
    # HeapTable.scan feeds only the executor's access paths here (no
    # index, no keyset cursor in any workload).
    m["sqlengine.executor.rows_examined_per_result_row"] = _ratio(
        size["sqlengine.heap.scan_tids"], size["sqlengine.executor.execute"]
    )
    m["sqlengine.cursors.scan_s"] = busy["sqlengine.cursors.scan"]
    m["sqlengine.cursors.opened"] = calls["sqlengine.cursors.open"]
    m["sqlengine.cursors.rows_transmitted"] = meter.counts["transfer"]
    m["sqlengine.heap.scan_s"] = (
        busy["sqlengine.heap.scan"] + busy["sqlengine.heap.scan_tids"]
    )
    m["sqlengine.heap.pages_read"] = meter.counts["server_io"]
    m["sqlengine.columnar.encode_s"] = busy["sqlengine.columnar.encode"]
    m["sqlengine.columnar.encoded_bytes"] = size["sqlengine.columnar.encode"]
    m["sqlengine.columnar.decode_s"] = busy["sqlengine.columnar.decode"]

    # -- core ----------------------------------------------------------
    stats = probe.stats
    records = probe.records
    m["core.middleware.batch_s"] = busy["core.middleware.batch"]
    m["core.middleware.self_s"] = (
        self_s["core.middleware.open"] + self_s["core.middleware.batch"]
        + self_s["core.middleware.close"]
    )
    m["core.scheduler.plan_s"] = busy["core.scheduler.plan"]
    m["core.scheduler.batches"] = stats.batches if stats else 0
    m["core.scheduler.nodes_per_batch"] = _mean(
        len(record.batch) for record in records
    )
    m["core.execution.run_s"] = busy["core.execution.run"]
    m["core.execution.self_s"] = self_s["core.execution.run"]
    m["core.execution.rows_seen"] = stats.rows_seen if stats else 0
    m["core.execution.rows_routed"] = stats.rows_routed if stats else 0
    m["core.execution.routed_per_seen"] = _ratio(
        m["core.execution.rows_routed"], m["core.execution.rows_seen"]
    )
    tier_units: dict[str, float] = {}
    for tier in TIERS:
        scans = [r for r in records if r.mode.lower() == tier]
        m[f"core.execution.scans_{tier}"] = len(scans)
        m[f"core.execution.scan_s_{tier}"] = sum(
            r.wall_seconds for r in scans
        )
        tier_units[tier] = sum(r.cost for r in scans)
    m["core.execution.parallel_scans"] = stats.parallel_scans if stats else 0
    m["core.execution.deferrals"] = stats.deferrals if stats else 0
    m["core.execution.sql_fallbacks"] = stats.sql_fallbacks if stats else 0
    # Process workers run outside the wrappers: use the seconds they
    # report back through ScanStats instead.
    m["core.vector_kernel.count_s"] = (
        stats.worker_seconds_total if probe.pool_kind == "process"
        else busy["core.vector_kernel.count"]
    )
    m["core.vector_kernel.partitions"] = calls["core.scan_pool.submit"]
    m["core.cc_table.merge_s"] = busy["core.cc_table.merge"]
    m["core.scan_pool.setup_s"] = busy["core.scan_pool.setup"]
    m["core.scan_pool.pools_created"] = probe.pools_created
    m["core.scan_pool.kernels_installed"] = probe.kernels_installed
    m["core.shm.ship_s"] = busy["core.shm.ship"]
    m["core.columnar_cache.hits"] = probe.cache_hits
    m["core.columnar_cache.misses"] = probe.cache_misses
    m["core.columnar_cache.hit_ratio"] = _ratio(
        probe.cache_hits, probe.cache_hits + probe.cache_misses
    )
    m["core.columnar_cache.resident_bytes"] = probe.cache_resident_bytes
    m["core.columnar_cache.encode_s_saved"] = (
        stats.encode_seconds_saved if stats else 0.0
    )
    cached = [r for r in records if r.cached]
    m["core.columnar_cache.cold_scan_s"] = _mean(
        r.wall_seconds for r in cached if not r.cache_hit
    )
    m["core.columnar_cache.warm_scan_s"] = _mean(
        r.wall_seconds for r in cached if r.cache_hit
    )
    m["core.staging.write_s"] = busy["core.staging.write"]
    m["core.staging.rows_written"] = meter.counts["file_write"]
    m["core.staging.files_written"] = stats.files_written if stats else 0
    m["core.staging.read_s"] = busy["core.staging.read"]
    m["core.staging.rows_read"] = meter.counts["file_read"]
    m["core.staging.memory_sets_loaded"] = (
        stats.memory_sets_loaded if stats else 0
    )

    # -- client ----------------------------------------------------------
    m["client.decision_tree.self_s"] = self_s["client.decision_tree.fit"]
    m["client.growth.partition_s"] = busy["client.growth.partition"]
    m["client.splits.best_split_s"] = busy["client.splits.best_split"]
    m["client.splits.calls"] = calls["client.splits.best_split"]
    m["client.tree.nodes"] = tree.n_nodes
    m["client.tree.depth"] = tree.depth

    # -- common.cost -----------------------------------------------------
    for category in COST_CATEGORIES:
        m[f"common.cost.units.{category}"] = meter.charges[category]
    tier_wall = {tier: m[f"core.execution.scan_s_{tier}"] for tier in TIERS}
    if not records:
        # No middleware: every unit was charged by SQL statements.
        tier_wall["server"] = busy["sqlengine.executor.execute"]
        tier_units["server"] = meter.total
    for tier in TIERS:
        m[f"common.cost.s_per_kunit.{tier}"] = _ratio(
            tier_wall[tier], tier_units[tier] / 1000.0
        )
    return m


def coverage(spans: list[Span]) -> float:
    """Σ self times on the coordinator thread ÷ the root span.

    1.0 when every span on the root's thread nests properly inside it;
    anything else means a wrapper leaked a span across a generator or
    thread boundary and the self-time arithmetic cannot be trusted.
    """
    root = next(span for span in spans if span.name == ROOT_SPAN)
    total = sum(span.self_s for span in spans if span.thread == root.thread)
    return _ratio(total, root.duration)
