"""Process-pool execution: the one parallel backend.

Tasks are pickled to worker processes (payloads are slim by design: one
component's subgraph, restricted instances, and bounds — never the host
graph).  Failure handling is the reference implementation of the protocol's
two-channel contract:

* the pool itself failing — the platform cannot spawn processes, a worker
  is OOM-killed (``BrokenProcessPool``), the payload will not pickle —
  raises :class:`~repro.engine.executors.base.ExecutorUnavailable`, which
  the runtime answers with a serial re-run (surfaced, never silent);
* a solver raising *inside* a worker travels back as a
  :class:`~repro.engine.executors.base.TaskFailure` envelope and re-raises
  as :class:`~repro.errors.EngineError` — a worker-side solver bug is a
  bug, not a reason to quietly retry serially.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .base import (
    ExecutionOutcome,
    ExecutorUnavailable,
    TaskBatch,
    run_task_enveloped,
    unwrap_envelope,
)


#: The exceptions that mean "the worker pool's infrastructure failed" (as
#: opposed to a task raising).
POOL_INFRA_EXCEPTIONS = (OSError, BrokenProcessPool, pickle.PicklingError)


class ProcessExecutor:
    """Run tasks on a local :class:`~concurrent.futures.ProcessPoolExecutor`."""

    def run(self, batch: TaskBatch) -> ExecutionOutcome:
        jobs = max(batch.jobs, 1)
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                # map() yields in submission order: deterministic downstream.
                envelopes = list(pool.map(run_task_enveloped, batch.tasks))
        except POOL_INFRA_EXCEPTIONS as exc:
            raise ExecutorUnavailable(
                f"process pool unavailable ({type(exc).__name__}: {exc})"
            ) from exc
        return ExecutionOutcome(
            results=[unwrap_envelope(envelope) for envelope in envelopes],
            jobs_used=jobs,
        )
