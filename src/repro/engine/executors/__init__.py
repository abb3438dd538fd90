"""Execution backends for the engine runtime.

Two backends run a batch of component tasks: ``serial`` (in order, with
the dynamic early stop) and ``process`` (a local process pool).  The
runtime derives the backend from ``jobs`` and guarantees bit-identical
output whichever one runs the components.
"""

from __future__ import annotations

from .base import (
    EngineTask,
    ExecutionOutcome,
    ExecutorUnavailable,
    TaskBatch,
    TaskFailure,
    execute_task,
    run_task_enveloped,
)
from .process import ProcessExecutor
from .serial import SerialExecutor

__all__ = [
    "EngineTask",
    "ExecutionOutcome",
    "ExecutorUnavailable",
    "TaskBatch",
    "TaskFailure",
    "execute_task",
    "run_task_enveloped",
    "SerialExecutor",
    "ProcessExecutor",
]
