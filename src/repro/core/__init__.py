"""The scalable classification middleware (the paper's contribution)."""

from .auxiliary import (
    KeysetStrategy,
    predicate_covers,
    predicate_disjuncts,
    PlainScanStrategy,
    ServerAccessStrategy,
    TempTableStrategy,
    TIDJoinStrategy,
    make_strategy,
)
from .cc_table import BYTES_PER_COUNT, PAIR_KEY_BYTES, CCTable, bytes_for_pairs
from .config import AUX_STRATEGIES, MiddlewareConfig
from .estimators import (
    estimate_cc_pairs,
    exact_child_rows_for_other,
    exact_child_rows_for_value,
    root_cc_pairs,
)
from .execution import ExecutionModule
from .filters import PathCondition, RoutingKernel, batch_filter, path_predicate
from .middleware import Middleware
from .requests import CountsRequest, CountsResult, RequestQueue
from .scan_pool import ScanWorkerPool
from .scheduler import Schedule, Scheduler
from .sql_counting import CC_COLUMNS, cc_statement, counts_via_sql
from .staging import DataLocation, StagedFile, StagingManager
from .trace import ExecutionTrace, ScheduleRecord

__all__ = [
    "AUX_STRATEGIES",
    "BYTES_PER_COUNT",
    "CCTable",
    "CC_COLUMNS",
    "CountsRequest",
    "CountsResult",
    "DataLocation",
    "ExecutionModule",
    "ExecutionTrace",
    "ScheduleRecord",
    "KeysetStrategy",
    "Middleware",
    "MiddlewareConfig",
    "PAIR_KEY_BYTES",
    "PathCondition",
    "PlainScanStrategy",
    "RequestQueue",
    "RoutingKernel",
    "ScanWorkerPool",
    "Schedule",
    "Scheduler",
    "ServerAccessStrategy",
    "StagedFile",
    "StagingManager",
    "TIDJoinStrategy",
    "TempTableStrategy",
    "batch_filter",
    "bytes_for_pairs",
    "cc_statement",
    "counts_via_sql",
    "estimate_cc_pairs",
    "exact_child_rows_for_other",
    "exact_child_rows_for_value",
    "make_strategy",
    "predicate_covers",
    "predicate_disjuncts",
    "path_predicate",
    "root_cc_pairs",
]
