"""Executor protocol: tasks, batches, outcomes, and the worker entry point.

An executor turns a :class:`TaskBatch` — an ordered list of independent
:class:`EngineTask`\\ s, one per prepared component — into an
:class:`ExecutionOutcome` whose results align one-to-one with the submitted
tasks.  The runtime builds the batches; the two backends only decide
*where* the tasks run:

* ``serial`` — in-process, in order, with the dynamic early stop;
* ``process`` — a local :class:`~concurrent.futures.ProcessPoolExecutor`.

Two failure channels are kept strictly apart:

* **Infrastructure failures** (the platform cannot spawn processes, task
  payloads cannot be pickled, a worker dies) raise
  :class:`ExecutorUnavailable`; the runtime reacts by re-running the batch
  on the ``serial`` backend and surfaces the reason in
  ``SolveReport.fallback_reason``.  Output is identical either way.
* **Task failures** (the solver itself raised) travel back as
  :class:`TaskFailure` envelopes — pickle-safe even when the original
  exception is not — and are re-raised as :class:`~repro.errors.EngineError`
  by both backends.  A solver bug is never silently retried.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, List, Optional, Tuple

from ...errors import EngineError
from ..solvers import get_solver

#: Task kinds understood by :func:`execute_task`.
KIND_SOLVE = "solve"
KIND_CACHED = "cached-result"


@dataclass
class EngineTask:
    """One unit of work, self-describing and picklable.

    ``payload`` is kind-specific:

    * ``solve`` — ``(component, scoped_request)``;
    * ``cached-result`` — ``(result,)``, a precomputed per-component
      :class:`~repro.lhcds.ippv.LhCDSResult` injected by the incremental
      session.  Executing it just returns the payload, so both backends —
      including the serial early stop, which sees the same densities in the
      same order — make byte-identical decisions to a cold run.
    """

    id: str
    kind: str
    solver: str
    payload: Tuple
    #: Density cap for the serial early stop; ``None`` = always run.
    upper_bound: Optional[Fraction] = None


@dataclass
class TaskBatch:
    """An ordered list of independent tasks plus scheduling context."""

    tasks: List[EngineTask]
    #: Workers the backend should use (already capped to the task count).
    jobs: int = 1
    #: For exact top-k batches ordered by decreasing ``upper_bound``: once
    #: the running k-th best density strictly exceeds the next task's cap,
    #: the remainder cannot place and may be skipped.  Only the serial
    #: backend honours it; the process pool solves every task (the
    #: deterministic merge discards the same subgraphs either way).
    early_stop_k: Optional[int] = None


@dataclass
class ExecutionOutcome:
    """Per-task results (aligned with the batch; ``None`` = early-stopped)."""

    results: List[Optional[Any]]
    jobs_used: int = 1
    early_stopped: int = 0


@dataclass
class TaskFailure:
    """A pickle-safe record of an exception raised while executing a task."""

    task_id: str
    error_type: str
    message: str
    traceback_text: str = ""

    def raise_as_engine_error(self) -> None:
        raise EngineError(
            f"task {self.task_id!r} failed in the worker: "
            f"{self.error_type}: {self.message}\n{self.traceback_text}".rstrip()
        )


class ExecutorUnavailable(EngineError):
    """The backend's infrastructure failed; the runtime should fall back."""


# ----------------------------------------------------------------------
# task execution (shared by both backends)
# ----------------------------------------------------------------------
def execute_task(task: EngineTask) -> Any:
    """Run one task to completion; exceptions propagate to the caller."""
    if task.kind == KIND_CACHED:
        (result,) = task.payload
        return result
    if task.kind == KIND_SOLVE:
        component, request = task.payload
        return get_solver(task.solver).solve(component, request)
    raise EngineError(f"unknown task kind {task.kind!r}")


def run_task_enveloped(task: EngineTask) -> Tuple[str, Any]:
    """Worker-side wrapper: ``("ok", result)`` or ``("error", TaskFailure)``.

    Keeping the failure as data (never a pickled exception object) means
    worker-side solver bugs cross the process boundary intact and are
    re-raised as :class:`EngineError` on the coordinator side — they cannot
    be mistaken for infrastructure failures.
    """
    try:
        return ("ok", execute_task(task))
    except Exception as exc:  # noqa: BLE001 — the envelope is the boundary
        return (
            "error",
            TaskFailure(
                task_id=task.id,
                error_type=type(exc).__name__,
                message=str(exc),
                traceback_text=traceback.format_exc(limit=8),
            ),
        )


def unwrap_envelope(envelope: Tuple[str, Any]) -> Any:
    """Return the result of an envelope, re-raising failures as EngineError."""
    status, value = envelope
    if status == "ok":
        return value
    value.raise_as_engine_error()


def execute_or_raise(task: EngineTask) -> Any:
    """In-process execution with the same EngineError wrapping as workers."""
    try:
        return execute_task(task)
    except EngineError:
        raise
    except Exception as exc:  # noqa: BLE001 — normalised boundary
        raise EngineError(
            f"task {task.id!r} failed: {type(exc).__name__}: {exc}"
        ) from exc
