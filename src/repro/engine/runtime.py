"""Component-parallel execution runtime with a deterministic global merge.

The runtime turns a :class:`SolveRequest` into a :class:`SolveReport`:

1. Validate the request against the solver's :class:`SolverSpec`.
2. Run the shared preprocessing (enumerate, split, bound — see
   :mod:`repro.engine.preprocess`).
3. **Upper-bound component skipping** (exact solvers with finite ``k``): a
   component whose density cap ``c_max`` is *strictly* below the guaranteed
   top-1 density of at least ``k`` other components can contribute nothing
   to the global top-k, so it is never solved.  The decision depends only on
   the precomputed bounds — never on execution order — which keeps every
   backend's output bit-identical.
4. Execute one task per component.  The backend is derived from
   ``jobs``: a local ``process`` pool when ``jobs > 1`` and more than one
   component task is left, ``serial`` otherwise (see
   :mod:`repro.engine.executors`).  If the pool's infrastructure fails
   (the platform cannot spawn processes, payloads will not pickle) the
   runtime re-runs the batch serially and records why in
   ``SolveReport.fallback_reason`` — the output is identical either way.
   Solver exceptions are *not* infrastructure: they re-raise as
   :class:`EngineError` on both backends.
5. Merge: concatenate the per-component subgraphs, sort with the same
   deterministic key the IPPV driver uses, truncate to ``k``.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import List, Optional, Tuple

from ..errors import EngineError
from ..kernels import resolve_kernel
from ..lhcds.ippv import DenseSubgraph, LhCDSResult, StageTimings
from ..lhcds.verify import VerificationStats, merge_verification_stats
from .executors import (
    EngineTask,
    ExecutionOutcome,
    ExecutorUnavailable,
    ProcessExecutor,
    SerialExecutor,
    TaskBatch,
)
from .executors.base import KIND_CACHED, KIND_SOLVE
from .preprocess import preprocess
from .request import (
    PreparedComponent,
    PreprocessStats,
    SolveReport,
    SolveRequest,
    merge_key,
)
from .solvers import SolverSpec, get_solver


def _select_components(
    components: List[PreparedComponent],
    spec: SolverSpec,
    k: Optional[int],
) -> Tuple[List[PreparedComponent], int]:
    """Apply upper-bound component skipping; return (to solve, skipped count).

    Sound only for exact top-k solvers: each component is guaranteed to
    contribute at least one subgraph of density >= its lower bound, so a
    component strictly dominated by k others can never reach the top-k, even
    on density ties (the domination is strict).
    """
    if not spec.exact or k is None or len(components) <= 1:
        return components, 0
    lowers = sorted((c.lower_bound for c in components), reverse=True)
    selected: List[PreparedComponent] = []
    for comp in components:
        # Components with a guaranteed density strictly above this cap.
        # A component's own lower bound never exceeds its own upper bound,
        # so it can never count itself.
        dominating = 0
        for value in lowers:
            if value > comp.upper_bound:
                dominating += 1
            else:
                break
        if dominating < k:
            selected.append(comp)
    return selected, len(components) - len(selected)


def _run_batch(batch: TaskBatch) -> Tuple[ExecutionOutcome, str, Optional[str]]:
    """Run a batch, falling back to serial when the process pool fails.

    ``batch.jobs > 1`` selects the process pool.  Returns ``(outcome,
    backend that actually ran, fallback reason)``.
    """
    if batch.jobs <= 1:
        return SerialExecutor().run(batch), "serial", None
    try:
        return ProcessExecutor().run(batch), "process", None
    except ExecutorUnavailable as exc:
        reason = f"process backend unavailable, ran serial: {exc}"
        serial_batch = dataclasses.replace(batch, jobs=1)
        return SerialExecutor().run(serial_batch), "serial", reason


def prepare_request(
    request: Optional[SolveRequest] = None, **options
) -> Tuple[SolveRequest, SolverSpec]:
    """Normalise a request: build/replace, validate, and pin the kernel.

    Accepts either a prebuilt :class:`SolveRequest` or its keyword
    arguments.  The kernel backend is resolved once (explicit request, then
    ``REPRO_KERNEL``, then the stdlib default) and the concrete name pinned
    on the request: component tasks shipped to pool workers then compute on
    this kernel regardless of the worker's own environment.  Every kernel
    is bit-identical, so this only keeps the report honest about what ran.
    Idempotent, and shared by :func:`solve` and the incremental session
    (which must pin the kernel *before* its own enumeration).
    """
    if request is None:
        request = SolveRequest(**options)
    elif options:
        request = dataclasses.replace(request, **options)
    if request.graph.num_vertices == 0:
        raise EngineError("cannot solve an empty graph")
    spec = get_solver(request.solver)
    spec.validate(request)
    kernel_used = resolve_kernel(request.kernel).name
    if request.kernel != kernel_used:
        request = dataclasses.replace(request, kernel=kernel_used)
    return request, spec


def solve(request: Optional[SolveRequest] = None, **options) -> SolveReport:
    """Solve a request through the registered solver and merge the results.

    Accepts either a prebuilt :class:`SolveRequest` or its keyword arguments
    (``solve(graph=g, pattern=3, k=5, solver="exact")``).
    """
    request, spec = prepare_request(request, **options)
    start = time.perf_counter()
    components, stats = preprocess(
        request,
        prune_stats=request.prune_stats and not spec.internal_prune,
        # The clique-core stage only pays off when something consumes it:
        # bound-based component skipping (exact solvers) or the solver's own
        # pruning (IPPV).  Approximate solvers like Greedy skip it.
        compute_bounds=spec.exact or spec.internal_prune,
    )
    return solve_prepared(request, components, stats, start=start)


def solve_prepared(
    request: SolveRequest,
    components: List[PreparedComponent],
    stats: PreprocessStats,
    *,
    result_cache=None,
    start: Optional[float] = None,
) -> SolveReport:
    """Execute and merge over already-prepared components.

    This is the back half of :func:`solve` — everything after
    preprocessing — exposed so callers that maintain their own prepared
    state (the incremental session) run the exact same selection,
    execution, and merge code as a cold solve.

    ``result_cache``, when given, must provide ``get(component)`` returning
    a cached per-component :class:`LhCDSResult` (or ``None``) and
    ``put(component, result)``.  Cached components are injected as
    ``cached-result`` tasks into the normal batch, so both backends —
    including the serial early stop — make byte-identical decisions to a
    cold run; newly solved components are recorded back into the cache.
    """
    request, spec = prepare_request(request)
    if start is None:
        start = time.perf_counter()
    components, skipped = _select_components(components, spec, request.k)
    stats.num_skipped_components = skipped

    # The backend follows from the worker count capped to the component
    # tasks, never from cache state: more than one worker means the pool.
    jobs = request.jobs if request.jobs > 0 else (os.cpu_count() or 1)
    jobs = max(1, min(jobs, len(components)))
    early_stop_k = request.k if spec.exact and request.k is not None else None

    tasks: List[EngineTask] = []
    cached_results: List[Optional[LhCDSResult]] = []
    for comp in components:
        cached = result_cache.get(comp) if result_cache is not None else None
        cached_results.append(cached)
        if cached is not None:
            tasks.append(
                EngineTask(
                    id=f"cached-c{comp.index}",
                    kind=KIND_CACHED,
                    solver=spec.name,
                    payload=(cached,),
                    upper_bound=comp.upper_bound,
                )
            )
        else:
            tasks.append(
                EngineTask(
                    id=f"solve-c{comp.index}",
                    kind=KIND_SOLVE,
                    solver=spec.name,
                    payload=(comp, request.for_component(comp.subgraph)),
                    upper_bound=comp.upper_bound,
                )
            )

    tick = time.perf_counter()
    jobs_used = 1
    executor_used = "serial"
    fallback_reason: Optional[str] = None
    task_results: List[Optional[LhCDSResult]] = []
    if tasks:
        batch = TaskBatch(tasks=tasks, jobs=jobs, early_stop_k=early_stop_k)
        outcome, executor_used, fallback_reason = _run_batch(batch)
        jobs_used = outcome.jobs_used
        stats.num_early_stopped_components = outcome.early_stopped
        task_results = outcome.results

    if result_cache is not None:
        for position, comp in enumerate(components):
            result = task_results[position]
            if cached_results[position] is None and result is not None:
                result_cache.put(comp, result)

    results: List[LhCDSResult] = [r for r in task_results if r is not None]
    solve_seconds = time.perf_counter() - tick

    # ------------------------------------------------------------------
    # deterministic merge
    # ------------------------------------------------------------------
    subgraphs: List[DenseSubgraph] = []
    timings = StageTimings(enumeration=stats.enumeration_seconds)
    verification = VerificationStats()
    candidates_examined = 0
    refinements = 0
    exact_splits = 0
    for result in results:
        subgraphs.extend(result.subgraphs)
        t = result.timings
        timings.seq_kclist += t.seq_kclist
        timings.decomposition += t.decomposition
        timings.prune += t.prune
        timings.verification += t.verification
        timings.enumeration += t.enumeration
        merge_verification_stats(verification, result.verification)
        candidates_examined += result.candidates_examined
        refinements += result.refinements
        exact_splits += result.exact_splits

    subgraphs.sort(key=merge_key)
    if request.k is not None:
        subgraphs = subgraphs[: request.k]
    timings.total = time.perf_counter() - start

    return SolveReport(
        subgraphs=subgraphs,
        timings=timings,
        verification=verification,
        candidates_examined=candidates_examined,
        refinements=refinements,
        exact_splits=exact_splits,
        solver=spec.name,
        pattern_name=request.pattern.name,
        h=request.h,
        k=request.k,
        jobs=request.jobs,
        jobs_used=jobs_used,
        executor=executor_used,
        fallback_reason=fallback_reason,
        kernel=request.kernel,
        preprocessing=stats,
        solve_seconds=solve_seconds,
    )
