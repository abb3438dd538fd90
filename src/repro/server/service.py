"""The resident solve service: named graphs + warm artifacts, no sockets.

:class:`SolveService` is the HTTP-free core of ``python -m repro.server``:
it owns the registry of named graphs, funnels every solve through the
engine with a shared cache directory (so the preprocess artifacts stay
warm in :mod:`repro.engine.cache`'s memory layer between requests), keeps
per-graph :class:`~repro.engine.incremental.IncrementalSession`\\ s alive
under :class:`~repro.graph.delta.GraphDelta` streams, and keeps the
counters the ``/v1/stats`` endpoint reports.  Keeping it free of
``http.server`` types makes the full solve surface testable in-process.

Request validation is centralised here: every endpoint body goes through
:func:`validate_keys` against one of the public key sets (:data:`SOLVE_KEYS`,
:data:`SESSION_SOLVE_KEYS`, :data:`DELTA_KEYS`, :data:`REGISTER_KEYS`), so
an unknown key is rejected with the accepted keys enumerated in the error
detail, and the delta/session endpoints accept exactly the same
solver/kernel keys as ``/v1/solve``.

Solves and delta applications are serialized by an internal lock: warm
artifacts and sessions are *shared* objects, and the instance-set scratch
counters they contain are not safe under concurrent restriction.
Registration and read-only introspection stay concurrent.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..datasets.registry import dataset_abbreviations, get_spec, load_dataset
from ..engine import (
    IncrementalSession,
    SolveRequest,
    available_solvers,
    cache_for,
    get_solver,
    solve,
)
from ..engine.cache import pattern_identity
from ..errors import ReproError
from ..graph.delta import GraphDelta
from ..graph.graph import Graph
from ..kernels import available_kernels, describe_kernel
from ..patterns.base import Pattern
from ..patterns.clique import CliquePattern
from ..patterns.registry import get_pattern

#: Default machine-readable error code per HTTP status (override per raise).
_DEFAULT_CODES = {
    400: "bad_request",
    404: "not_found",
    409: "conflict",
    413: "payload_too_large",
}


class ServiceError(ReproError):
    """A request the service cannot honour (maps to an HTTP 4xx).

    Carries the three fields of the v1 error envelope: a stable
    machine-readable ``code``, the human ``message``, and an optional
    structured ``detail`` (e.g. the accepted keys on validation failures).
    """

    def __init__(
        self,
        message: str,
        status: int = 400,
        *,
        code: Optional[str] = None,
        detail: Any = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code or _DEFAULT_CODES.get(status, "bad_request")
        self.detail = detail


#: Solve keys forwarded verbatim into :class:`SolveRequest`.
_REQUEST_FIELDS = (
    "k",
    "solver",
    "jobs",
    "kernel",
    "iterations",
    "verification",
    "prune",
    "prune_stats",
)

#: Every key ``POST /v1/solve`` understands.
SOLVE_KEYS = frozenset(_REQUEST_FIELDS) | {"graph", "dataset", "pattern", "h"}
#: Every key ``POST /v1/graphs/{name}/solve`` understands: the full
#: solver/kernel surface of ``/v1/solve``, minus the graph selector (the
#: path names the graph).
SESSION_SOLVE_KEYS = frozenset(_REQUEST_FIELDS) | {"pattern", "h"}
#: Every key ``POST /v1/graphs/{name}/deltas`` understands.
DELTA_KEYS = frozenset(GraphDelta.json_keys())
#: Every key ``POST /v1/graphs`` understands.
REGISTER_KEYS = frozenset({"name", "dataset", "edges", "vertices", "replace"})

#: Backwards-compatible alias (pre-v1 internal name).
_SOLVE_KEYS = SOLVE_KEYS


def validate_keys(payload: Any, accepted: frozenset, *, what: str = "request") -> None:
    """The one request-body validator every endpoint shares.

    Rejects non-object bodies and unknown keys; the error detail enumerates
    both the offending and the accepted keys so clients can self-correct
    without consulting the docs (``GET /v1/spec`` serves the same sets).
    """
    if not isinstance(payload, dict):
        raise ServiceError(
            f"{what} body must be a JSON object", code="invalid_body"
        )
    unknown = sorted(set(payload) - accepted)
    if unknown:
        raise ServiceError(
            f"unknown {what} key(s): {', '.join(unknown)}",
            code="unknown_key",
            detail={"unknown": unknown, "accepted": sorted(accepted)},
        )


class SolveService:
    """Named graphs plus warm preprocess/session state behind a solve API.

    Lock ordering: ``_solve_lock`` outer, ``_registry_lock`` inner — every
    method that needs both acquires them in that order, so the pair cannot
    deadlock.  The :data:`GUARDED_BY` manifest below is machine-checked by
    repro-lint rule CC01: mutating a listed field outside a
    ``with self.<lock>:`` block fails the lint gate.
    """

    GUARDED_BY = {
        "_graphs": "_registry_lock",
        "_records": "_registry_lock",
        "_counters": "_registry_lock",
        "_sessions": "_solve_lock",
    }

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self._graphs: Dict[str, Graph] = {}
        self._records: Dict[str, Dict[str, Any]] = {}
        self._registry_lock = threading.Lock()
        self._solve_lock = threading.Lock()
        #: Live incremental sessions, keyed (graph name, pattern identity).
        self._sessions: Dict[Tuple[str, str], IncrementalSession] = {}
        self._counters: Dict[str, int] = {"solves": 0, "deltas": 0, "errors": 0}
        self._started = time.time()
        if cache_dir is None:
            # A private directory keeps the cache on (memory layer included)
            # even when the operator did not ask for a persistent one.
            self._tempdir: Optional[tempfile.TemporaryDirectory] = (
                tempfile.TemporaryDirectory(prefix="repro-server-cache-")
            )
            cache_dir = self._tempdir.name
        else:
            self._tempdir = None
            os.makedirs(cache_dir, exist_ok=True)
        self.cache_dir = cache_dir

    # ------------------------------------------------------------------
    # graph registry
    # ------------------------------------------------------------------
    def register_graph(
        self,
        name: str,
        *,
        dataset: Optional[str] = None,
        edges: Optional[List[List[Any]]] = None,
        vertices: Optional[List[Any]] = None,
        replace: bool = False,
    ) -> Dict[str, Any]:
        """Register a named graph from a dataset abbreviation or an edge list."""
        if not name or not isinstance(name, str):
            raise ServiceError("graph name must be a non-empty string")
        if (dataset is None) == (edges is None and vertices is None):
            raise ServiceError(
                "register exactly one source: 'dataset', or 'edges'/'vertices'"
            )
        if dataset is not None:
            try:
                graph = load_dataset(dataset)
                source = get_spec(dataset).name
            except ReproError as exc:
                raise ServiceError(str(exc)) from exc
        else:
            try:
                graph = Graph(
                    edges=[(u, v) for u, v in (edges or [])],
                    vertices=vertices,
                )
            except (ReproError, TypeError, ValueError) as exc:
                raise ServiceError(f"bad edge list: {exc}") from exc
            source = "inline"
        # The registry swap and the session purge must be one atomic step
        # under the solve lock: if the swap happened first, a concurrent
        # session solve could pair the *new* registry graph with a session
        # still bound to the *old* graph object and serve stale results.
        with self._solve_lock:
            with self._registry_lock:
                if name in self._graphs and not replace:
                    raise ServiceError(
                        f"graph {name!r} is already registered", status=409
                    )
                replacing = name in self._graphs
                self._graphs[name] = graph
                self._records[name] = {
                    "name": name,
                    "source": source,
                    "vertices": graph.num_vertices,
                    "edges": graph.num_edges,
                    "registered_at": time.time(),
                    "solves": 0,
                    "deltas": 0,
                }
                record = dict(self._records[name])
            if replacing:
                # Sessions hold the *old* graph object; a replacement starts
                # the delta history over, so their warm state must not
                # survive.
                for key in [k for k in self._sessions if k[0] == name]:
                    del self._sessions[key]
        return record

    def register_from_payload(self, payload: Any) -> Dict[str, Any]:
        """Validate and apply one ``POST /v1/graphs`` body."""
        validate_keys(payload, REGISTER_KEYS, what="register")
        return self.register_graph(
            payload.get("name", ""),
            dataset=payload.get("dataset"),
            edges=payload.get("edges"),
            vertices=payload.get("vertices"),
            replace=bool(payload.get("replace", False)),
        )

    def graphs(self) -> List[Dict[str, Any]]:
        """Registered graphs, sorted by name."""
        with self._registry_lock:
            return [dict(self._records[name]) for name in sorted(self._records)]

    def _named_graph(self, name: str) -> Graph:
        with self._registry_lock:
            graph = self._graphs.get(name)
        if graph is None:
            raise ServiceError(f"unknown graph {name!r}", status=404)
        return graph

    def _resolve_graph(self, payload: Dict[str, Any]) -> tuple:
        name = payload.get("graph")
        dataset = payload.get("dataset")
        if (name is None) == (dataset is None):
            raise ServiceError("name exactly one of 'graph' or 'dataset'")
        if name is not None:
            return name, self._named_graph(name)
        # Dataset solves lazily register the graph under its abbreviation,
        # so repeat queries stay warm exactly like registered graphs.
        key = str(dataset)
        with self._registry_lock:
            graph = self._graphs.get(key)
        if graph is None:
            try:
                self.register_graph(key, dataset=key, replace=True)
            except ServiceError:
                raise
            with self._registry_lock:
                graph = self._graphs[key]
        return key, graph

    @staticmethod
    def _resolve_pattern(payload: Dict[str, Any]) -> Pattern:
        """The pattern selector shared by the solve and session endpoints."""
        if payload.get("pattern") is not None:
            try:
                return get_pattern(str(payload["pattern"]))
            except ReproError as exc:
                raise ServiceError(str(exc), code="unknown_pattern") from exc
        try:
            return CliquePattern(int(payload.get("h", 3)))
        except (ReproError, TypeError, ValueError) as exc:
            raise ServiceError(f"bad 'h': {exc}", code="bad_pattern") from exc

    @staticmethod
    def _request_options(payload: Dict[str, Any]) -> Dict[str, Any]:
        """The :class:`SolveRequest` fields present in a validated payload."""
        return {
            field: payload[field] for field in _REQUEST_FIELDS if field in payload
        }

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Run one solve described by a JSON payload; return the JSON report.

        The payload carries the full :class:`SolveRequest` surface plus the
        graph selector (``graph`` = registered name, or ``dataset``) and the
        pattern selector (``pattern`` name, or ``h``).  The response embeds
        the engine report plus a per-request preprocess-vs-solve timing
        split and the cache verdict, so warm-path amortization is
        observable per call.
        """
        validate_keys(payload, SOLVE_KEYS, what="solve")
        name, graph = self._resolve_graph(payload)
        pattern = self._resolve_pattern(payload)
        options = self._request_options(payload)
        try:
            request = SolveRequest(
                graph=graph, pattern=pattern, cache_dir=self.cache_dir, **options
            )
        except (ReproError, TypeError, ValueError) as exc:
            raise ServiceError(
                f"bad solve request: {exc}", code="bad_solve_request"
            ) from exc
        start = time.perf_counter()
        with self._solve_lock:
            try:
                report = solve(request)
            except ReproError as exc:
                with self._registry_lock:
                    self._counters["errors"] += 1
                raise ServiceError(str(exc), code="engine_error") from exc
        total_seconds = time.perf_counter() - start
        with self._registry_lock:
            self._counters["solves"] += 1
            record = self._records.get(name)
            if record is not None:
                record["solves"] += 1
        stats = report.preprocessing
        return {
            "graph": name,
            **report.to_json_dict(),
            "cache": {
                "state": stats.cache_state,
                "key": stats.cache_key,
                "seconds": stats.cache_seconds,
            },
            "timing": {
                "total_seconds": total_seconds,
                "solve_seconds": report.solve_seconds,
                # Everything before (and around) the component solves:
                # cache lookup or cold pipeline, planning, merge.  On a
                # warm hit this collapses to the artifact load time.
                "preprocess_seconds": max(total_seconds - report.solve_seconds, 0),
            },
        }

    # ------------------------------------------------------------------
    # incremental sessions
    # ------------------------------------------------------------------
    def apply_delta(self, name: str, payload: Any) -> Dict[str, Any]:
        """Apply one delta to a named graph and repair its live sessions.

        The delta mutates the shared registry graph exactly once; every
        session opened on that graph (one per pattern identity) is then
        repaired in place via
        :meth:`~repro.engine.incremental.IncrementalSession.apply_delta`
        with ``already_applied=True``.  Because the graph's memoised
        content key is invalidated by the mutation, subsequent
        ``/v1/solve`` calls key the preprocess cache on the *post-delta*
        content — a delta can never serve a stale cached artifact.
        """
        validate_keys(payload, DELTA_KEYS, what="delta")
        try:
            delta = GraphDelta.from_json_dict(payload)
        except (ReproError, TypeError, ValueError) as exc:
            raise ServiceError(f"bad delta: {exc}", code="bad_delta") from exc
        if delta.is_empty:
            raise ServiceError(
                "delta must name at least one change", code="bad_delta"
            )
        with self._solve_lock:
            graph = self._named_graph(name)
            try:
                graph.apply_delta(delta)
            except ReproError as exc:
                with self._registry_lock:
                    self._counters["errors"] += 1
                raise ServiceError(
                    f"delta rejected: {exc}", code="bad_delta"
                ) from exc
            session_stats = []
            for key in sorted(self._sessions):
                if key[0] != name:
                    continue
                stats = self._sessions[key].apply_delta(delta, already_applied=True)
                session_stats.append({"pattern": key[1], **stats.as_dict()})
            with self._registry_lock:
                self._counters["deltas"] += 1
                record = self._records.get(name)
                if record is not None:
                    record["vertices"] = graph.num_vertices
                    record["edges"] = graph.num_edges
                    record["deltas"] = record.get("deltas", 0) + 1
                    epoch = record["deltas"]
                else:  # pragma: no cover - records track graphs 1:1
                    epoch = 0
        return {
            "graph": name,
            "epoch": epoch,
            "delta": {
                "content_key": delta.content_key(),
                "add_vertices": len(delta.add_vertices),
                "remove_vertices": len(delta.remove_vertices),
                "add_edges": len(delta.add_edges),
                "remove_edges": len(delta.remove_edges),
                "touched_vertices": len(delta.touched_vertices),
            },
            "graph_state": {
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
            },
            "sessions": session_stats,
        }

    def solve_incremental(self, name: str, payload: Any) -> Dict[str, Any]:
        """Solve a named graph through its warm incremental session.

        Accepts exactly the solver/kernel surface of
        :meth:`solve` minus the graph selector (the path names the graph).
        The session is opened lazily per (graph, pattern) and reused across
        calls and deltas; its report is bit-identical to a cold solve of
        the graph's current content.
        """
        validate_keys(payload, SESSION_SOLVE_KEYS, what="solve")
        pattern = self._resolve_pattern(payload)
        options = self._request_options(payload)
        start = time.perf_counter()
        with self._solve_lock:
            graph = self._named_graph(name)
            key = (name, pattern_identity(pattern))
            session = self._sessions.get(key)
            try:
                if session is None:
                    session = IncrementalSession(graph, pattern)
                    self._sessions[key] = session
                report = session.solve(**options)
            except (ReproError, TypeError, ValueError) as exc:
                with self._registry_lock:
                    self._counters["errors"] += 1
                raise ServiceError(str(exc), code="engine_error") from exc
        total_seconds = time.perf_counter() - start
        with self._registry_lock:
            self._counters["solves"] += 1
            record = self._records.get(name)
            if record is not None:
                record["solves"] += 1
        solve_stats = session.last_solve_stats
        return {
            "graph": name,
            **report.to_json_dict(),
            "incremental": {
                "pattern": key[1],
                **(solve_stats.as_dict() if solve_stats is not None else {}),
            },
            "timing": {
                "total_seconds": total_seconds,
                "solve_seconds": report.solve_seconds,
                "preprocess_seconds": max(total_seconds - report.solve_seconds, 0),
            },
        }

    def sessions(self) -> List[Dict[str, Any]]:
        """Live incremental sessions (graph, pattern, epoch, instance count).

        Lock-free so ``/v1/stats`` answers during a long solve: the dict
        snapshot is atomic under CPython, and the per-session counters read
        here are plain attributes.
        """
        snapshot = dict(self._sessions)
        return [
            {
                "graph": key[0],
                "pattern": key[1],
                "epoch": snapshot[key].epoch,
                "num_instances": snapshot[key].num_instances,
            }
            for key in sorted(snapshot)
        ]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def solvers(self) -> List[Dict[str, Any]]:
        """Registered solvers with their scheduling metadata."""
        rows = []
        for name in available_solvers():
            spec = get_solver(name)
            rows.append(
                {
                    "name": name,
                    "description": spec.description,
                    "exact": spec.exact,
                    "fixed_h": spec.fixed_h,
                    "requires_k": spec.requires_k,
                }
            )
        return rows

    def kernels(self) -> List[Dict[str, Any]]:
        """Registered kernel backends."""
        return [
            {"name": name, "description": describe_kernel(name)}
            for name in available_kernels()
        ]

    def datasets(self) -> List[str]:
        """Dataset abbreviations accepted by the ``dataset`` selector."""
        return list(dataset_abbreviations())

    def stats(self) -> Dict[str, Any]:
        """Service counters plus the cache ledger summary."""
        with self._registry_lock:
            counters = dict(self._counters)
            graphs = [dict(self._records[name]) for name in sorted(self._records)]
        return {
            "uptime_seconds": time.time() - self._started,
            "counters": counters,
            "graphs": graphs,
            "sessions": self.sessions(),
            "cache": cache_for(self.cache_dir).summary(),
        }

    def close(self) -> None:
        """Release the private cache directory (if the service owns one)."""
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None
