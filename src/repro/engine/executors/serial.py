"""In-process serial execution with the dynamic early stop."""

from __future__ import annotations

import heapq
from typing import Any, List, Optional

from ...lhcds.ippv import LhCDSResult
from .base import ExecutionOutcome, TaskBatch, execute_or_raise


class SerialExecutor:
    """Run tasks one after another in the calling process.

    For exact top-k batches ordered by decreasing density cap (the order
    the preprocessing emits), the executor keeps the running k best
    verified densities in a min-heap; once the k-th best *strictly*
    exceeds the next task's cap, no later task can place in the global
    top-k — not even on ties — so the remainder is skipped.  The process
    pool solves every task instead, and the runtime's deterministic merge
    discards exactly the dominated subgraphs, so output is bit-identical
    either way.
    """

    def run(self, batch: TaskBatch) -> ExecutionOutcome:
        k = batch.early_stop_k
        results: List[Optional[Any]] = [None] * len(batch.tasks)
        topk: List = []  # min-heap of the k best densities found so far
        for position, task in enumerate(batch.tasks):
            if (
                k is not None
                and task.upper_bound is not None
                and len(topk) >= k
                and topk[0] > task.upper_bound
            ):
                return ExecutionOutcome(
                    results=results,
                    jobs_used=1,
                    early_stopped=len(batch.tasks) - position,
                )
            result = execute_or_raise(task)
            results[position] = result
            if k is not None and isinstance(result, LhCDSResult):
                for subgraph in result.subgraphs:
                    heapq.heappush(topk, subgraph.density)
                    if len(topk) > k:
                        heapq.heappop(topk)
        return ExecutionOutcome(results=results, jobs_used=1)
