"""Incremental LhCDS over evolving graphs: sessions, deltas, warm re-solve.

A batch :func:`~repro.engine.runtime.solve` treats the graph as frozen and
pays the full pipeline — enumerate every pattern instance, split into
components, bound, solve — on every call.  An :class:`IncrementalSession`
keeps that preprocessing alive between calls and maintains it under
:class:`~repro.graph.delta.GraphDelta` batches:

* Only components whose vertex set intersects the delta's *touched
  frontier* (every vertex the delta names, plus edge endpoints) are
  re-enumerated and re-bounded; every other component's subgraph, local
  instance set, and clique-core bounds carry over byte-for-byte.
* The global instance set is updated through
  :meth:`~repro.instances.InstanceSet.apply_delta`: rows incident to the
  frontier are dropped, untouched rows are kept, and only the touched
  region is re-enumerated.
* Per-component :class:`~repro.lhcds.ippv.LhCDSResult`\\ s from previous
  solves are reused for untouched components by injecting them as
  ``cached-result`` tasks into the normal runtime batch
  (:func:`~repro.engine.runtime.solve_prepared`), so both backends make
  the same scheduling decisions as a cold run.

**Correctness contract** — the same style CI enforces across the
jobs × kernel matrix: after *any* delta sequence, a session solve
returns a :class:`SolveReport` bit-identical — result *and* stats-relevant
fields — to a cold solve of the final graph.  The contract rests on two
structural facts:

1. *Component purity.*  With the canonical neighbour iteration in
   :func:`~repro.graph.ordering.degeneracy_ordering`, enumerating the whole
   graph and restricting to a component yields exactly the instances — in
   the same order — as enumerating the component's induced subgraph.  A
   rebuilt component can therefore be enumerated locally.
2. *Untouched means unchanged.*  A component disjoint from the frontier
   lost no vertex and no edge (any edge mutation names touched endpoints),
   and vertex insertion order within it is preserved by dict semantics, so
   its induced subgraph — and hence everything derived from it — is
   identical to what a cold run would build.

Each session carries its own reentrant lock: :meth:`IncrementalSession.
apply_delta` and :meth:`IncrementalSession.solve` serialise against each
other per session, with the lock discipline declared in the class's
``GUARDED_BY`` manifest and machine-checked by repro-lint rule CC01.  The
solve service still serialises *across* sessions behind its solve lock
(two sessions may share one graph object); the per-session lock is the
first concrete step toward retiring that global lock.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from fractions import Fraction
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from ..errors import EngineError
from ..graph.components import connected_components
from ..graph.delta import GraphDelta
from ..graph.graph import Graph, Vertex
from ..instances import InstanceSet
from ..kernels import resolve_kernel
from ..lhcds.bounds import CompactBounds, initialize_bounds
from ..lhcds.ippv import LhCDSResult
from ..lhcds.prune import prune_invalid_vertices
from ..patterns.base import Pattern
from ..patterns.clique import CliquePattern
from .cache import pattern_identity
from .request import PreparedComponent, PreprocessStats, SolveReport, SolveRequest
from .runtime import prepare_request, solve_prepared


#: Report keys excluded from :func:`report_signature`: work *placement*
#: (results are bit-identical across backends, jobs, and kernels by the
#: engine's matrix guarantee) plus wall-clock timings.  Everything else is
#: covered by the incremental-equals-cold contract.
_PLACEMENT_REPORT_KEYS = (
    "jobs",
    "executor",
    "fallback_reason",
    "kernel",
    "timings",
)

#: Transport wrappers the service and CLI add around a report's JSON dict.
_TRANSPORT_KEYS = ("graph", "source", "cache", "timing", "incremental")


def json_report_signature(payload: Dict[str, Any]) -> str:
    """Canonical JSON of a serialised report's bit-identity-covered content.

    Accepts ``SolveReport.to_json_dict()`` output as well as the solve
    service's response payloads and the CLI's ``--json`` output, which wrap
    the report in transport extras (graph selector, cache verdict, timing
    split); those are stripped along with the placement keys and the
    second-resolution preprocessing fields.
    """
    data = {
        key: value
        for key, value in payload.items()
        if key not in _TRANSPORT_KEYS and key not in _PLACEMENT_REPORT_KEYS
    }
    data["preprocessing"] = {
        key: value
        for key, value in payload.get("preprocessing", {}).items()
        if not key.endswith("_seconds") and not key.startswith("cache_")
    }
    return json.dumps(data, sort_keys=True, default=str)


def report_signature(report: SolveReport) -> str:
    """:func:`json_report_signature` applied to a live :class:`SolveReport`.

    Two reports with equal signatures agree on every result and
    stats-relevant field.  This is the one definition of the bit-identity
    contract shared by the test suite, ``repro-lhcds deltas --cold``, and
    the CI streaming smoke.
    """
    return json_report_signature(report.to_json_dict())


@dataclasses.dataclass(frozen=True)
class DeltaStats:
    """What one applied delta changed and what the session reused."""

    #: Session epoch after the delta (number of deltas applied so far).
    epoch: int
    vertices_added: int
    vertices_removed: int
    edges_added: int
    edges_removed: int
    #: Size of the invalidation frontier (:attr:`GraphDelta.touched_vertices`).
    touched_vertices: int
    #: Pre-delta components dropped because they intersect the frontier.
    components_invalidated: int
    #: Post-delta components whose induced subgraph was re-enumerated.
    components_reenumerated: int
    #: Post-delta components whose preprocessing carried over untouched.
    components_reused: int
    #: Global instance rows dropped (incident to the frontier, pre-delta).
    instances_dropped: int
    #: Global instance rows re-enumerated (incident, post-delta).
    instances_reenumerated: int
    apply_seconds: float = 0.0
    #: Rough estimate of preprocessing time avoided versus rebuilding the
    #: whole session from scratch (initial build time minus apply time,
    #: floored at zero).  Benchmarks measure the true ratio.
    seconds_saved_estimate: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class IncrementalSolveStats:
    """How much of a session solve was served from per-component results."""

    #: Session epoch the solve ran at.
    epoch: int
    #: Active (solvable) components of the current graph.
    components_total: int
    #: Components whose ``LhCDSResult`` was reused from a previous solve.
    components_reused: int
    #: Components actually solved this call (and recorded for next time).
    components_solved: int
    solve_seconds: float = 0.0
    #: Initial build time plus first solve time: what a cold start cost.
    cold_reference_seconds: float = 0.0
    #: Rough estimate of time avoided versus that cold start (floored at
    #: zero; ``0`` on the first solve).  Benchmarks measure the true ratio.
    seconds_saved_estimate: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class _ComponentState:
    """Everything preprocessing derives for one active component."""

    subgraph: Graph
    instances: InstanceSet
    bounds: CompactBounds
    lower_bound: Fraction
    upper_bound: Fraction


#: Solver options that change per-component results; everything else
#: (jobs, kernel) only moves work and is bit-identical by the engine's
#: matrix guarantee.
_ConfigKey = Tuple[str, Optional[int], int, str, bool, str]


class _SessionResultCache:
    """Adapter giving :func:`solve_prepared` access to the session's results.

    Keys combine the result-relevant request options with the component's
    vertex frozenset — safe because an untouched vertex set implies an
    untouched edge set (see the module contract), and the session drops
    every entry whose vertices intersect a delta's frontier.
    """

    def __init__(
        self,
        store: Dict[Tuple[_ConfigKey, FrozenSet[Vertex]], LhCDSResult],
        config: _ConfigKey,
    ) -> None:
        self._store = store
        self._config = config
        self.hits = 0
        self.puts = 0

    def get(self, component: PreparedComponent) -> Optional[LhCDSResult]:
        result = self._store.get((self._config, component.vertices))
        if result is not None:
            self.hits += 1
        return result

    def put(self, component: PreparedComponent, result: LhCDSResult) -> None:
        self._store[(self._config, component.vertices)] = result
        self.puts += 1


class IncrementalSession:
    """A live graph plus warm preprocessing, maintained under deltas.

    Parameters
    ----------
    graph:
        The host graph.  By default the session holds a reference (so a
        service can share one graph object between its registry and the
        session); pass ``copy_graph=True`` to decouple.  Either way, all
        mutations must go through :meth:`apply_delta` — the session detects
        out-of-band mutation via :attr:`Graph.delta_epoch` and refuses to
        serve stale state.
    pattern:
        A :class:`~repro.patterns.base.Pattern` or an integer ``h``
        (h-clique), pinned for the session's lifetime.
    kernel:
        Kernel backend used for the session's own enumeration (``None``
        resolves ``REPRO_KERNEL`` then the stdlib default).  All kernels
        are bit-identical, so solves may still request any kernel.
    """

    GUARDED_BY = {
        "_states": "_lock",
        "_results": "_lock",
        "_instances": "_lock",
        "_components": "_lock",
        "_delta_log": "_lock",
        "_graph_epoch": "_lock",
        "_last_delta_stats": "_lock",
        "_last_solve_stats": "_lock",
        "_solved_once": "_lock",
        "_cold_reference_seconds": "_lock",
    }

    def __init__(
        self,
        graph: Graph,
        pattern: Pattern | int = 3,
        *,
        kernel: Optional[str] = None,
        copy_graph: bool = False,
    ) -> None:
        if graph.num_vertices == 0:
            raise EngineError("cannot open a session on an empty graph")
        if isinstance(pattern, int):
            pattern = CliquePattern(pattern)
        self._graph = graph.copy() if copy_graph else graph
        self._pattern = pattern
        self._kernel = resolve_kernel(kernel).name
        # Reentrant so a future composite operation can nest apply/solve.
        self._lock = threading.RLock()
        self._states: Dict[FrozenSet[Vertex], _ComponentState] = {}
        self._results: Dict[Tuple[_ConfigKey, FrozenSet[Vertex]], LhCDSResult] = {}
        self._delta_log: List[GraphDelta] = []
        self._last_delta_stats: Optional[DeltaStats] = None
        self._last_solve_stats: Optional[IncrementalSolveStats] = None
        self._cold_reference_seconds: float = 0.0
        self._solved_once = False

        tick = time.perf_counter()
        self._instances = pattern.instances(self._graph, kernel=self._kernel)
        self._components: List[Set[Vertex]] = connected_components(self._graph)
        for comp in self._components:
            local = self._instances.restrict(comp)
            if local.num_instances == 0:
                continue
            self._states[frozenset(comp)] = self._build_state(
                self._graph.induced_subgraph(comp), local
            )
        self._build_seconds = time.perf_counter() - tick
        self._cold_reference_seconds = self._build_seconds
        self._graph_epoch = self._graph.delta_epoch

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The session's current graph (mutate only via :meth:`apply_delta`)."""
        return self._graph

    @property
    def pattern(self) -> Pattern:
        return self._pattern

    @property
    def epoch(self) -> int:
        """Number of deltas applied to the session so far."""
        return len(self._delta_log)

    @property
    def delta_log(self) -> Tuple[GraphDelta, ...]:
        """Every delta applied, in order."""
        return tuple(self._delta_log)

    @property
    def num_instances(self) -> int:
        """Current global instance count (maintained incrementally)."""
        return self._instances.num_instances

    @property
    def last_delta_stats(self) -> Optional[DeltaStats]:
        return self._last_delta_stats

    @property
    def last_solve_stats(self) -> Optional[IncrementalSolveStats]:
        return self._last_solve_stats

    # ------------------------------------------------------------------
    # delta maintenance
    # ------------------------------------------------------------------
    def apply_delta(
        self, delta: GraphDelta, *, already_applied: bool = False
    ) -> DeltaStats:
        """Apply a delta and repair the session's preprocessing around it.

        With ``already_applied=True`` the graph object was mutated by the
        caller (the solve service applies each delta once to its shared
        graph, then repairs every session on it) and only the session state
        is updated.  Returns per-delta statistics.
        """
        with self._lock:
            self._check_epoch(expect_applied=already_applied, delta=delta)
            tick = time.perf_counter()
            if not already_applied:
                self._graph.apply_delta(delta)
            self._graph_epoch = self._graph.delta_epoch
            touched = delta.touched_vertices

            invalidated = [key for key in self._states if key & touched]
            # The rebuild region covers the frontier AND every vertex of an
            # invalidated component: removing a vertex can strand a remainder
            # component that contains no touched vertex but still needs fresh
            # state (its old component's state is gone).
            region: Set[Vertex] = set(touched)
            for key in invalidated:
                region |= key
                del self._states[key]
            stale = [entry for entry in self._results if entry[1] & touched]
            for entry in stale:
                del self._results[entry]

            self._components = connected_components(self._graph)
            new_rows: List[Tuple[Vertex, ...]] = []
            reenumerated = 0
            for comp in self._components:
                key = frozenset(comp)
                if key in self._states or not (key & region):
                    # Untouched: either an active component whose state
                    # carried over, or an instance-free component that stays
                    # instance-free (a component disjoint from the region is
                    # exactly an old untouched component — see the module
                    # contract).
                    continue
                reenumerated += 1
                subgraph = self._graph.induced_subgraph(comp)
                local = self._pattern.instances(subgraph, kernel=self._kernel)
                for idx in local.indices_incident(touched):
                    new_rows.append(local.instances[idx])
                if local.num_instances:
                    self._states[key] = self._build_state(subgraph, local)

            self._instances, dropped, appended = self._instances.apply_delta(
                touched, new_rows
            )
            self._delta_log.append(delta)
            apply_seconds = time.perf_counter() - tick
            stats = DeltaStats(
                epoch=len(self._delta_log),
                vertices_added=len(delta.add_vertices),
                vertices_removed=len(delta.remove_vertices),
                edges_added=len(delta.add_edges),
                edges_removed=len(delta.remove_edges),
                touched_vertices=len(touched),
                components_invalidated=len(invalidated),
                components_reenumerated=reenumerated,
                components_reused=len(self._components) - reenumerated,
                instances_dropped=dropped,
                instances_reenumerated=appended,
                apply_seconds=apply_seconds,
                seconds_saved_estimate=max(self._build_seconds - apply_seconds, 0),
            )
            self._last_delta_stats = stats
            return stats

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self, **options) -> SolveReport:
        """Solve the current graph; bit-identical to a cold engine solve.

        Accepts the same keyword options as :func:`repro.engine.solve`
        except ``graph`` and ``pattern``, which the session pins.  Untouched
        components are served from the per-component result store.
        """
        for pinned in ("graph", "pattern"):
            if pinned in options:
                raise EngineError(
                    f"the session pins {pinned!r}; open a new session to change it"
                )
        with self._lock:
            self._check_epoch(expect_applied=False, delta=None)
            request, spec = prepare_request(
                SolveRequest(graph=self._graph, pattern=self._pattern, **options)
            )
            start = time.perf_counter()
            components, stats = self._prepared(
                request,
                compute_bounds=spec.exact or spec.internal_prune,
                prune_stats=request.prune_stats and not spec.internal_prune,
            )
            adapter = _SessionResultCache(self._results, self._config_key(request))
            report = solve_prepared(
                request, components, stats, result_cache=adapter, start=start
            )
            solve_seconds = time.perf_counter() - start
            if not self._solved_once:
                self._solved_once = True
                self._cold_reference_seconds = self._build_seconds + solve_seconds
                saved: float = 0.0
            else:
                saved = max(self._cold_reference_seconds - solve_seconds, 0)
            self._last_solve_stats = IncrementalSolveStats(
                epoch=len(self._delta_log),
                components_total=len(components),
                components_reused=adapter.hits,
                components_solved=adapter.puts,
                solve_seconds=solve_seconds,
                cold_reference_seconds=self._cold_reference_seconds,
                seconds_saved_estimate=saved,
            )
            return report

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _build_state(self, subgraph: Graph, local: InstanceSet) -> _ComponentState:
        bounds, core = initialize_bounds(local, subgraph.vertices())
        c_max = max(core.values(), default=0)
        return _ComponentState(
            subgraph=subgraph,
            instances=local,
            bounds=bounds,
            lower_bound=Fraction(c_max, self._pattern.size),
            upper_bound=Fraction(c_max),
        )

    def _check_epoch(
        self, *, expect_applied: bool, delta: Optional[GraphDelta]
    ) -> None:
        """Refuse to serve state for a graph mutated outside apply_delta."""
        expected = self._graph_epoch
        if expect_applied and delta is not None:
            if self._graph.delta_epoch == expected:
                raise EngineError(
                    "apply_delta(already_applied=True) but the graph's epoch "
                    "never moved; apply the delta to the graph first"
                )
            return
        if self._graph.delta_epoch != expected:
            raise EngineError(
                "session graph was mutated outside apply_delta; the warm state "
                "is stale — open a new session or route changes through deltas"
            )

    def _config_key(self, request: SolveRequest) -> _ConfigKey:
        return (
            request.solver,
            request.k,
            request.iterations,
            request.verification,
            request.prune,
            pattern_identity(request.pattern),
        )

    def _prepared(
        self, request: SolveRequest, *, compute_bounds: bool, prune_stats: bool
    ) -> Tuple[List[PreparedComponent], PreprocessStats]:
        """Mirror :func:`cold_preprocess` exactly, from the warm state.

        Component discovery indices, the bounds-less branch for solvers that
        skip the clique-core stage, the opt-in prune-stats pass, and the
        final ``(-upper_bound, index)`` ordering all replicate the cold
        pipeline so the resulting report carries identical statistics.
        """
        graph = self._graph
        stats = PreprocessStats(
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
        )
        stats.num_instances = self._instances.num_instances
        stats.num_components = len(self._components)

        prepared: List[PreparedComponent] = []
        for index, comp in enumerate(self._components):
            state = self._states.get(frozenset(comp))
            if state is None:
                continue
            if compute_bounds or prune_stats:
                prepared.append(
                    PreparedComponent(
                        index=index,
                        subgraph=state.subgraph,
                        instances=state.instances,
                        bounds=state.bounds,
                        lower_bound=state.lower_bound,
                        upper_bound=state.upper_bound,
                    )
                )
            else:
                prepared.append(
                    PreparedComponent(
                        index=index,
                        subgraph=state.subgraph,
                        instances=state.instances,
                        bounds=None,
                        lower_bound=Fraction(0),
                        upper_bound=Fraction(0),
                    )
                )
        stats.num_active_components = len(prepared)

        if prune_stats and request.prune:
            for comp in prepared:
                survivors = prune_invalid_vertices(
                    comp.subgraph, comp.instances, comp.bounds, comp.subgraph.vertices()
                )
                stats.num_prunable_vertices += comp.subgraph.num_vertices - len(
                    survivors
                )

        prepared.sort(key=lambda c: (-c.upper_bound, c.index))
        return prepared, stats
