"""Outside-in tracing: wrap the program's public functions in spans.

Nothing here edits the program.  :func:`install` replaces each function or
method named in :data:`TARGETS` with a wrapper that records a span (name,
start, end, parent, request id, pid) into an in-memory :class:`Recorder`,
then calls the original.  Functions imported by name into other ``repro``
modules are replaced there too, and the benchmark calls the program through
module attributes (``engine.solve``), so every caller goes through the
wrapper.  An untraced run never calls :func:`install`.  Only functions that
some workload reaches are wrapped.

Spans recorded in forked worker processes are appended to a file per worker
after each task (a worker has no other way home); the parent merges them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional


# ----------------------------------------------------------------------
# count hooks: (recorder, call args, result)
# ----------------------------------------------------------------------
def _runtime(rec: "Recorder", args: tuple, report: Any) -> None:
    rec.count("engine.runtime.early_stopped",
              report.preprocessing.num_early_stopped_components)
    rec.count("lhcds.ippv.candidates", report.candidates_examined)
    rec.count("lhcds.ippv.exact_splits", report.exact_splits)
    rec.count("lhcds.ippv.refinements", report.refinements)
    rec.count("lhcds.ippv.reported", len(report.subgraphs))


def _cache_fetch(rec: "Recorder", args: tuple, result: Any) -> None:
    rec.count("engine.cache.hits", result is not None)


def _tasks(rec: "Recorder", args: tuple, outcome: Any) -> None:
    rec.count("engine.executors.tasks", len(args[1].tasks))


def _flush(rec: "Recorder", args: tuple, result: Any) -> None:
    if rec.pid != rec.main_pid:
        rec.flush_worker()


def _reuse(rec: "Recorder", args: tuple, result: Any) -> None:
    stats = args[0].last_solve_stats
    rec.count("engine.incremental.components_total", stats.components_total)
    rec.count("engine.incremental.components_reused", stats.components_reused)


def _groups(rec: "Recorder", args: tuple, result: Any) -> None:
    rec.count("lhcds.stable_groups.groups", len(result[0]))


def _keep(rec: "Recorder", args: tuple, result: Any) -> None:
    rec.count("lhcds.prune.groups_in", len(args[2]))
    rec.count("lhcds.prune.groups_kept", len(result))


def _instances(rec: "Recorder", args: tuple, result: Any) -> None:
    rec.count("cliques.enumerate.instances", result.num_instances)


#: (span name, module, attribute path, hook).  The span name is the layer the
#: per-layer metrics report; hooks record counts where the work happens.
TARGETS: List[tuple] = [
    ("engine.runtime", "repro.engine.runtime", "solve", None),
    ("engine.runtime", "repro.engine.runtime", "solve_prepared", _runtime),
    ("engine.preprocess", "repro.engine.preprocess", "preprocess", None),
    ("engine.preprocess", "repro.engine.preprocess", "cold_preprocess", None),
    ("engine.cache.fetch", "repro.engine.cache", "PreprocessCache.fetch", _cache_fetch),
    ("engine.cache.store", "repro.engine.cache", "PreprocessCache.store", None),
    ("engine.executors.run", "repro.engine.executors.serial", "SerialExecutor.run", _tasks),
    ("engine.executors.run", "repro.engine.executors.process", "ProcessExecutor.run", _tasks),
    ("engine.executors.task", "repro.engine.executors.base", "run_task_enveloped", _flush),
    ("engine.incremental.apply_delta", "repro.engine.incremental",
     "IncrementalSession.apply_delta", None),
    ("engine.incremental.solve", "repro.engine.incremental", "IncrementalSession.solve",
     _reuse),
    ("server.http", "repro.server.app", "SolveRequestHandler.do_POST", None),
    ("server.service.solve", "repro.server.service", "SolveService.solve", None),
    ("server.service.apply_delta", "repro.server.service", "SolveService.apply_delta", None),
    ("server.service.solve_incremental", "repro.server.service",
     "SolveService.solve_incremental", None),
    ("lhcds.ippv", "repro.lhcds.ippv", "IPPV.run", None),
    ("lhcds.seq_kclist", "repro.lhcds.seq_kclist", "seq_kclist_plus_plus", None),
    ("kernels.fw_distribute", "repro.kernels.stdlib_backend", "StdlibKernel.fw_distribute",
     None),
    ("lhcds.decomposition", "repro.lhcds.decomposition", "tentative_decomposition", None),
    ("lhcds.stable_groups", "repro.lhcds.stable_groups", "derive_stable_groups", _groups),
    ("lhcds.prune", "repro.lhcds.prune", "prune_candidates", _keep),
    ("lhcds.prune", "repro.lhcds.prune", "prune_invalid_vertices", None),
    ("lhcds.verify", "repro.lhcds.verify", "is_densest", None),
    ("lhcds.verify", "repro.lhcds.verify", "verify_fast", None),
    ("densest.exact", "repro.densest.exact", "maximal_densest_subset", None),
    ("flow.network", "repro.flow.network", "build_compact_network", None),
    ("flow.network", "repro.flow.network", "solve_compact_network", None),
    ("flow.max_flow", "repro.flow.dinic", "MaxFlowNetwork.max_flow", None),
    ("flow.max_flow", "repro.flow.dinic", "MaxFlowNetwork.min_cut_source_side", None),
    ("kernels.max_flow", "repro.kernels.stdlib_backend", "StdlibKernel.max_flow", None),
    ("cores.clique_core", "repro.cores.clique_core", "clique_core_numbers", None),
    ("lhcds.bounds", "repro.lhcds.bounds", "initialize_bounds", None),
    ("instances.restrict", "repro.instances", "InstanceSet.restrict", None),
    ("instances.count_within", "repro.instances", "InstanceSet.count_within", None),
    ("graph.induced_subgraph", "repro.graph.graph", "Graph.induced_subgraph", None),
    ("graph.components", "repro.graph.components", "connected_components", None),
    ("cliques.enumerate", "repro.cliques.kclist", "clique_instances", _instances),
]

#: Every span name, in report order.
LAYERS: List[str] = list(dict.fromkeys(target[0] for target in TARGETS))

#: Request header carrying the benchmark's request id into the server.
REQUEST_ID_HEADER = "X-Request-Id"


class Recorder:
    """In-memory spans and counters for one process (reset in forked children)."""

    def __init__(self, worker_dir: Optional[str] = None) -> None:
        self.worker_dir = worker_dir
        #: The process that installed the wrappers; forked workers differ.
        self.main_pid = os.getpid()
        #: Cleared by :meth:`stop`; the wrappers then call straight through.
        self.active = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._start_process()
        os.register_at_fork(after_in_child=self._start_process)

    def _start_process(self) -> None:
        self.pid = os.getpid()
        self.spans: List[tuple] = []
        #: Counts per request id ("" outside any request), then per key.
        self.counters: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._ids = itertools.count((self.pid << 32) + 1)
        self._local = threading.local()

    @property
    def request_id(self) -> Optional[str]:
        return getattr(self._local, "rid", None)

    @request_id.setter
    def request_id(self, rid: Optional[str]) -> None:
        self._local.rid = rid

    def count(self, key: str, value: float = 1, rid: Optional[str] = None) -> None:
        rid = rid if rid is not None else (self.request_id or "")
        with self._lock:
            self.counters[rid][key] += value

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            local = recorder._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span_id = next(recorder._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (name, start, end, span_id, parent, getattr(local, "rid", None),
                     recorder.pid)
                )
            if hook is not None:
                hook(recorder, args, result)
            return result

        return traced

    def stop(self) -> None:
        """Stop recording; what was recorded stays."""
        self.active = False

    def flush_worker(self) -> None:
        """Append this worker's spans and counters to its file, then forget them."""
        if self.worker_dir is None:
            return
        path = os.path.join(self.worker_dir, f"worker-{self.pid}.jsonl")
        with self._lock:
            spans, counters = self.spans, self.counters
            self.spans, self.counters = [], defaultdict(lambda: defaultdict(float))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"spans": spans, "counters": counters}) + "\n")

    def collect_workers(self) -> None:
        """Merge the spans and counters every worker of this run flushed."""
        if self.worker_dir is None:
            return
        for entry in sorted(os.listdir(self.worker_dir)):
            if not (entry.startswith("worker-") and entry.endswith(".jsonl")):
                continue
            path = os.path.join(self.worker_dir, entry)
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    record = json.loads(line)
                    self.spans.extend(tuple(span) for span in record["spans"])
                    for rid, counts in record["counters"].items():
                        for key, value in counts.items():
                            self.count(key, value, rid)
            os.remove(path)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": self.pid, "spans": self.spans,
                       "counters": dict(self.counters)}, handle)


def _set_request_id(recorder: Recorder, fn: Callable) -> Callable:
    """Wrap an HTTP handler so its spans carry the client's request id."""

    @functools.wraps(fn)
    def handler(self, *args, **kwargs):
        recorder.request_id = self.headers.get(REQUEST_ID_HEADER)
        try:
            return fn(self, *args, **kwargs)
        finally:
            recorder.request_id = None

    return handler


def install(recorder: Recorder) -> None:
    """Wrap every target; name-imported copies in ``repro.*`` modules too."""
    # Import every target first, so the scan below sees all name-imports.
    for _, module_name, _, _ in TARGETS:
        importlib.import_module(module_name)
    for name, module_name, path, hook in TARGETS:
        module = sys.modules[module_name]
        if "." in path:
            class_name, attr = path.split(".")
            cls = getattr(module, class_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(recorder.wrap(name, raw.__func__, hook)))
                continue
            wrapped = recorder.wrap(name, raw, hook)
            if name == "server.http":
                wrapped = _set_request_id(recorder, wrapped)
            setattr(cls, attr, wrapped)
            continue
        original = getattr(module, path)
        wrapped = recorder.wrap(name, original, hook)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and \
                    getattr(other, path, None) is original:
                setattr(other, path, wrapped)
