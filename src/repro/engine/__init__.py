"""Unified solver engine: shared preprocessing + component-parallel execution.

Every solve path in the package — IPPV, the exact decomposition, and the
Greedy / LDSflow / LTDS baselines — runs through this engine::

    from repro.engine import solve

    report = solve(graph=g, pattern=3, k=5, solver="ippv", jobs=4)
    for s in report.subgraphs:
        print(s.density, sorted(s.vertices))

The engine enumerates pattern instances once, splits the graph into
connected components, bounds each component with the clique-core rules,
skips components that provably cannot reach the top-k, and solves the rest
— serially with a dynamic early stop, or on a local process pool when
``jobs > 1`` and more than one component is left — before merging through
a deterministic global ordering.  Output is bit-identical for every
``jobs`` value.
"""

from .executors import ExecutorUnavailable
from .cache import PreprocessCache, cache_for, cache_key, resolve_cache_dir
from .incremental import (
    DeltaStats,
    IncrementalSession,
    IncrementalSolveStats,
    json_report_signature,
    report_signature,
)
from .preprocess import cold_preprocess, preprocess
from .request import (
    PreparedComponent,
    PreprocessStats,
    SolveReport,
    SolveRequest,
    merge_key,
)
from .runtime import prepare_request, solve, solve_prepared
from .solvers import (
    SolverSpec,
    available_solvers,
    get_solver,
    register_solver,
    unregister_solver,
)

__all__ = [
    "preprocess",
    "cold_preprocess",
    "PreprocessCache",
    "cache_for",
    "cache_key",
    "resolve_cache_dir",
    "PreparedComponent",
    "PreprocessStats",
    "SolveReport",
    "SolveRequest",
    "DeltaStats",
    "IncrementalSession",
    "IncrementalSolveStats",
    "json_report_signature",
    "report_signature",
    "merge_key",
    "prepare_request",
    "solve",
    "solve_prepared",
    "SolverSpec",
    "available_solvers",
    "get_solver",
    "register_solver",
    "unregister_solver",
    "ExecutorUnavailable",
]
