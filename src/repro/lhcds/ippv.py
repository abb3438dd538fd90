"""The IPPV driver: iterative propose-prune-and-verify top-k LhCDS discovery.

This is the paper's Algorithm 6 (and, through the pattern abstraction,
Algorithm 7): candidates are proposed from the convex-programming weights,
pruned with the compact-number bounds, and verified exactly with max-flow.
Candidates that cannot yet be decided re-enter the pipeline restricted to
their own subgraph.

Two engineering choices keep the implementation exact and terminating even
when the Frank–Wolfe approximation is coarse:

* Candidates live in a priority queue keyed by a *sound upper bound* of the
  best LhCDS density they can contain (their members' global compact-number
  upper bounds).  The run stops once the k-th best verified density matches
  or exceeds every remaining key, which certifies the returned top-k set.

* A candidate that repeatedly fails the self-densest test is split exactly
  along its maximal densest subgraph (one max-flow); the dense side and the
  remainder both re-enter the queue, so progress is guaranteed and no LhCDS
  can be lost (every LhCDS inside the candidate lies entirely on one side).

A self-densest candidate that fails maximal-compactness verification is
discarded: self-densest implies the candidate is compact at its own density,
so it sits strictly inside a larger compact region whose vertices all have
compact numbers at least the candidate's density — no LhCDS can hide there.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..densest.exact import maximal_densest_subset
from ..errors import AlgorithmError
from ..graph.components import connected_components
from ..graph.graph import Graph, Vertex
from ..instances import InstanceSet
from ..patterns.base import Pattern
from ..patterns.clique import CliquePattern
from .bounds import CompactBounds, initialize_bounds
from .decomposition import tentative_decomposition
from .prune import prune_candidates
from .seq_kclist import seq_kclist_plus_plus
from .stable_groups import StableGroup, derive_stable_groups
from .verify import (
    VerificationStats,
    is_densest,
    verify_basic,
    verify_fast,
)

#: Heap priorities are the candidates' *exact* density upper bounds —
#: ``Fraction`` values from Algorithm 1, or slack-padded floats from the
#: DeriveSG tightening.  Python orders the two types exactly, so no
#: ``float()`` coercion (which could conflate densities closer than one
#: ulp) is ever applied on the priority / early-stop path.
Priority = Fraction | float


@dataclass(frozen=True)
class DenseSubgraph:
    """One verified locally densest subgraph."""

    vertices: FrozenSet[Vertex]
    density: Fraction
    pattern_name: str
    h: int

    @property
    def size(self) -> int:
        """Number of vertices in the subgraph."""
        return len(self.vertices)

    def as_sorted_list(self) -> List[Vertex]:
        """Vertices sorted by their representation (deterministic output)."""
        return sorted(self.vertices, key=repr)


def subgraph_sort_key(subgraph: DenseSubgraph) -> tuple:
    """Deterministic output ordering: density desc, size desc, vertex repr.

    The single definition shared by the IPPV driver and the engine's global
    merge (``repro.engine.request.merge_key``) — both must sort identically
    for engine output to stay bit-identical to direct solver calls.
    """
    return (
        -subgraph.density,
        -len(subgraph.vertices),
        repr(sorted(subgraph.vertices, key=repr)),
    )


@dataclass
class StageTimings:
    """Wall-clock seconds spent in each IPPV stage (Figure 10)."""

    enumeration: float = 0.0
    seq_kclist: float = 0.0
    decomposition: float = 0.0
    prune: float = 0.0
    verification: float = 0.0
    total: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Return the timings as a plain dictionary."""
        return {
            "enumeration": self.enumeration,
            "seq_kclist": self.seq_kclist,
            "decomposition": self.decomposition,
            "prune": self.prune,
            "verification": self.verification,
            "total": self.total,
        }


@dataclass
class LhCDSResult:
    """Outcome of an IPPV run."""

    subgraphs: List[DenseSubgraph]
    timings: StageTimings
    verification: VerificationStats
    candidates_examined: int = 0
    refinements: int = 0
    exact_splits: int = 0

    def vertex_sets(self) -> List[Set[Vertex]]:
        """Return the vertex sets of the reported subgraphs, in order."""
        return [set(s.vertices) for s in self.subgraphs]

    def densities(self) -> List[Fraction]:
        """Return the densities of the reported subgraphs, in order."""
        return [s.density for s in self.subgraphs]

    def __len__(self) -> int:
        return len(self.subgraphs)


@dataclass
class IPPVConfig:
    """Tunable parameters of the IPPV driver."""

    #: Frank–Wolfe iterations T for SEQ-kClist++ (the paper uses 20).
    iterations: int = 20
    #: "fast" (Algorithm 5 style, reduced flow network) or "basic" (Algorithm 4).
    verification: str = "fast"
    #: How many convex-programming refinement rounds a candidate may consume
    #: before the driver falls back to the exact densest-subgraph split.
    max_refinement_rounds: int = 2
    #: Whether to run the pruning stage on the initial proposal.
    prune: bool = True
    #: Kernel backend name for the numeric inner loops (flow, Frank–Wolfe,
    #: clique listing), or None to resolve ``REPRO_KERNEL`` / the default.
    #: Every backend produces bit-identical results and statistics.
    kernel: Optional[str] = None


class IPPV:
    """Iterative propose-prune-and-verify solver for LhCDS / LhxPDS."""

    def __init__(
        self,
        graph: Graph,
        pattern: Pattern | int,
        config: Optional[IPPVConfig] = None,
        *,
        instances: Optional[InstanceSet] = None,
        bounds: Optional[CompactBounds] = None,
    ) -> None:
        if isinstance(pattern, int):
            pattern = CliquePattern(pattern)
        if graph.num_vertices == 0:
            raise AlgorithmError("IPPV needs a non-empty graph")
        self.graph = graph
        self.pattern = pattern
        self.config = config or IPPVConfig()
        if self.config.verification not in {"fast", "basic"}:
            raise AlgorithmError(
                f"verification must be 'fast' or 'basic', got {self.config.verification!r}"
            )
        # Precomputed pattern instances / compact-number bounds (the engine's
        # shared preprocessing supplies both so per-solver re-derivation is
        # skipped); when absent they are computed on the first run().
        self._precomputed_instances = instances
        self._precomputed_bounds = bounds
        self._instances: Optional[InstanceSet] = None
        self._bounds: Optional[CompactBounds] = None

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def run(self, k: Optional[int] = None) -> LhCDSResult:
        """Find the top-``k`` locally densest subgraphs (all of them if ``k`` is None)."""
        if k is not None and k <= 0:
            raise AlgorithmError(f"k must be positive (or None for all), got {k}")
        timings = StageTimings()
        verification_stats = VerificationStats()
        start = time.perf_counter()

        if self._precomputed_instances is not None:
            instances = self._precomputed_instances
        else:
            tick = time.perf_counter()
            instances = self.pattern.instances(self.graph, kernel=self.config.kernel)
            timings.enumeration += time.perf_counter() - tick
        self._instances = instances

        vertices = self.graph.vertices()
        if self._precomputed_bounds is not None:
            bounds = self._precomputed_bounds
        else:
            bounds, _core = initialize_bounds(instances, vertices)
        self._bounds = bounds

        groups = self._propose(vertices, bounds, timings)
        if self.config.prune:
            tick = time.perf_counter()
            groups = prune_candidates(self.graph, instances, groups, bounds, vertices)
            timings.prune += time.perf_counter() - tick

        heap: List[Tuple[Priority, int, FrozenSet[Vertex], int]] = []
        counter = 0
        for group in groups:
            counter = self._push(heap, counter, frozenset(group.vertices), 0)

        found: List[DenseSubgraph] = []
        output_vertices: Set[Vertex] = set()
        # Min-heap of the k best verified densities found so far: its root is
        # the running k-th best, so the early-stop check is O(1) per pop
        # instead of re-sorting every found density.
        topk_densities: List[Fraction] = []
        examined = 0
        refinements = 0
        exact_splits = 0

        while heap:
            if k is not None and len(found) >= k:
                kth = topk_densities[0]
                best_remaining = -heap[0][0]
                # Exact certified stop: the k-th best verified density
                # already matches or exceeds every remaining candidate's
                # sound upper bound, so nothing left can be *strictly*
                # denser.  The comparison is Fraction-vs-priority with no
                # epsilon — a float image comparison here could stop
                # before the certificate holds (missing a strictly
                # denser subgraph) whenever two densities collide in
                # float space.
                if kth >= best_remaining:
                    break
            neg_priority, _, candidate, depth = heapq.heappop(heap)
            candidate = frozenset(candidate - output_vertices)
            if not candidate:
                continue
            components = connected_components(self.graph.induced_subgraph(candidate))
            if len(components) > 1:
                for component in components:
                    counter = self._push(heap, counter, frozenset(component), depth)
                continue
            candidate = frozenset(components[0])
            local_count = instances.count_within(candidate)
            if local_count == 0:
                continue
            examined += 1

            tick = time.perf_counter()
            verification_stats.is_densest_calls += 1
            densest = is_densest(instances, candidate, self.config.kernel)
            verified = densest and self._verify(
                candidate, bounds, output_vertices, verification_stats
            )
            timings.verification += time.perf_counter() - tick
            if densest:
                if verified:
                    density = Fraction(local_count, len(candidate))
                    found.append(
                        DenseSubgraph(
                            vertices=candidate,
                            density=density,
                            pattern_name=self.pattern.name,
                            h=self.pattern.size,
                        )
                    )
                    output_vertices |= set(candidate)
                    if k is not None:
                        heapq.heappush(topk_densities, density)
                        if len(topk_densities) > k:
                            heapq.heappop(topk_densities)
                # A self-densest candidate that is not maximal-compact
                # cannot contain any LhCDS, so it is safe to discard it
                # either way.
                continue

            # The candidate is not self-densest: refine it.
            if depth < self.config.max_refinement_rounds:
                refinements += 1
                scratch_bounds = bounds.copy()
                subgroups = self._propose(
                    sorted(candidate, key=repr), scratch_bounds, timings
                )
                subsets = {frozenset(g.vertices) for g in subgroups}
                if subsets and subsets != {candidate}:
                    # Push in a canonical order: the insertion counter
                    # breaks heap ties, so set iteration order here
                    # would otherwise leak per-process hash order into
                    # the exploration sequence.
                    for subset in sorted(
                        subsets, key=lambda s: sorted(repr(v) for v in s)
                    ):
                        counter = self._push(heap, counter, subset, depth + 1)
                    continue
            # Exact fallback: split along the maximal densest subgraph.
            exact_splits += 1
            local = instances.restrict(candidate)
            dense_side, _ = maximal_densest_subset(
                local, candidate, kernel=self.config.kernel
            )
            dense_side = set(dense_side)
            remainder = set(candidate) - dense_side
            for component in connected_components(
                self.graph.induced_subgraph(dense_side)
            ):
                counter = self._push(heap, counter, frozenset(component), depth)
            if remainder:
                for component in connected_components(
                    self.graph.induced_subgraph(remainder)
                ):
                    counter = self._push(heap, counter, frozenset(component), depth)

        found.sort(key=subgraph_sort_key)
        if k is not None:
            found = found[:k]
        timings.total = time.perf_counter() - start
        return LhCDSResult(
            subgraphs=found,
            timings=timings,
            verification=verification_stats,
            candidates_examined=examined,
            refinements=refinements,
            exact_splits=exact_splits,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _push(
        self,
        heap: List[Tuple[Priority, int, FrozenSet[Vertex], int]],
        counter: int,
        candidate: FrozenSet[Vertex],
        depth: int,
    ) -> int:
        """Push a candidate with a sound density upper bound as priority.

        The bound is stored *as is* (negated for the min-heap): Fractions
        stay exact and tuple comparison breaks priority ties on the
        insertion counter, so two candidates whose bounds differ by less
        than a float ulp keep their true order — coercing to ``float``
        here is what made the old epsilon early stop unsound.
        """
        if not candidate:
            return counter
        assert self._bounds is not None
        uppers = [self._bounds.upper_of(v) for v in candidate]
        # initialize_bounds populates every candidate vertex, so an
        # unbounded (None) upper cannot occur here; an unbounded vertex
        # would have no finite priority to heap on.
        assert all(upper is not None for upper in uppers)
        priority = max(uppers)
        heapq.heappush(heap, (-priority, counter, candidate, depth))
        return counter + 1

    def _propose(
        self,
        vertices: Sequence[Vertex],
        bounds: CompactBounds,
        timings: StageTimings,
    ) -> List[StableGroup]:
        """Run SEQ-kClist++ + TentativeGD + DeriveSG on the given vertex set."""
        assert self._instances is not None
        working = self._instances.restrict(vertices) if len(vertices) < self.graph.num_vertices else self._instances

        tick = time.perf_counter()
        state = seq_kclist_plus_plus(
            working, self.config.iterations, vertices, kernel=self.config.kernel
        )
        timings.seq_kclist += time.perf_counter() - tick

        tick = time.perf_counter()
        decomposition = tentative_decomposition(state, vertices)
        groups, _ = derive_stable_groups(decomposition, state, bounds)
        timings.decomposition += time.perf_counter() - tick
        return groups

    def _verify(
        self,
        candidate: FrozenSet[Vertex],
        bounds: CompactBounds,
        output_vertices: Set[Vertex],
        stats: VerificationStats,
    ) -> bool:
        """Run the configured maximal-compactness verification."""
        assert self._instances is not None
        if self.config.verification == "basic":
            return verify_basic(
                self.graph,
                self._instances,
                candidate,
                stats=stats,
                kernel=self.config.kernel,
            )
        return verify_fast(
            self.graph,
            self._instances,
            candidate,
            bounds,
            output_vertices=output_vertices,
            stats=stats,
            kernel=self.config.kernel,
        )


def find_lhcds(
    graph: Graph,
    h: int = 3,
    k: Optional[int] = None,
    *,
    iterations: int = 20,
    verification: str = "fast",
    kernel: Optional[str] = None,
) -> LhCDSResult:
    """Convenience wrapper: top-``k`` locally h-clique densest subgraphs."""
    config = IPPVConfig(iterations=iterations, verification=verification, kernel=kernel)
    return IPPV(graph, CliquePattern(h), config).run(k)


def find_lhxpds(
    graph: Graph,
    pattern: Pattern,
    k: Optional[int] = None,
    *,
    iterations: int = 20,
    verification: str = "fast",
    kernel: Optional[str] = None,
) -> LhCDSResult:
    """Convenience wrapper: top-``k`` locally pattern densest subgraphs (Algorithm 7)."""
    config = IPPVConfig(iterations=iterations, verification=verification, kernel=kernel)
    return IPPV(graph, pattern, config).run(k)
