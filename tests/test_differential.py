"""Differential tier: the solvers' full LhCDS lists agree with each other and
with the brute-force oracle.

Three independent routes reach the same answer:

* IPPV certifies each candidate by its sequential pop-and-verify loop;
* the exact solver derives every compact number from a full flow
  decomposition;
* :func:`~repro.lhcds.reference.brute_force_lhcds` checks Definition 2
  literally over every vertex subset (tiny graphs only).

The small slice pits IPPV and exact against brute force on two-blob graphs
whose LhCDSs have near-tied or tied densities, for h-cliques and every
four-vertex pattern.  The mid-scale slice compares full lists of IPPV and
exact on BA, WS, G(n, p) and planted-community graphs and re-certifies
every reported subgraph through code that neither solver uses.  The jobs
slice checks that the process pool leaves both lists unchanged.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from helpers import shifted, signature

from repro.datasets.synthetic import (
    barabasi_albert_graph,
    gnp_graph,
    planted_communities_graph,
    watts_strogatz_graph,
)
from repro.densest import maximal_densest_subset
from repro.engine import solve
from repro.graph import Graph, is_connected, union_graph
from repro.lhcds.reference import brute_force_lhcds
from repro.patterns.registry import get_pattern

SMALL_PATTERNS = ["3-clique", "4-clique", "2-triangle", "4-loop", "c3-star", "3-star", "4-path"]
MID_PATTERNS = ["3-clique", "4-clique", "5-clique", "2-triangle"]


def two_blob_graph(seed: int) -> Graph:
    """Two dense blobs of 4-5 vertices joined through one bridge vertex.

    Each blob is a candidate LhCDS on its own, so the list usually holds two
    subgraphs, often with tied densities.
    """
    rng = random.Random(seed)
    graph = Graph()
    next_id = 0
    anchors = []
    for _ in range(2):
        block = list(range(next_id, next_id + rng.choice([4, 5])))
        next_id += len(block)
        for v in block:
            graph.add_vertex(v)
        for i, u in enumerate(block):
            for v in block[i + 1:]:
                if rng.random() < 0.8:
                    graph.add_edge(u, v)
        anchors.append(rng.choice(block))
    graph.add_edge(anchors[0], next_id)
    graph.add_edge(next_id, anchors[1])
    return graph


MID_GRAPHS = {
    "ba": lambda: barabasi_albert_graph(150, 4, seed=2),
    "ws": lambda: watts_strogatz_graph(80, 6, 0.05, seed=3),
    "gnp": lambda: gnp_graph(40, 0.4, seed=1),
    # Four equal-size near-cliques: densities tie or nearly tie.
    "planted": lambda: planted_communities_graph(
        [8, 8, 8, 8], p_in=0.9, p_out=0.04, seed=9, background=16
    )[0],
}


def _unordered(pairs):
    return {(frozenset(vertices), density) for vertices, density in pairs}


def _densities(pairs):
    return [density for _, density in pairs]


class TestAgainstBruteForce:
    """IPPV and exact return exactly the LhCDSs that Definition 2 admits."""

    @pytest.mark.parametrize("pattern_name", SMALL_PATTERNS)
    @pytest.mark.parametrize("seed", range(6))
    def test_full_list_matches_brute_force(self, seed, pattern_name):
        graph = two_blob_graph(seed)
        pattern = get_pattern(pattern_name)
        expected = [
            (frozenset(vertices), density)
            for vertices, density in brute_force_lhcds(graph, pattern.instances(graph))
        ]
        for solver in ("ippv", "exact"):
            actual = signature(solve(graph=graph, pattern=pattern, k=None, solver=solver))
            assert _unordered(actual) == _unordered(expected), solver
            # Ties may be listed in either order; densities may not.
            assert _densities(actual) == _densities(expected), solver


class TestMidScale:
    """Full lists agree between IPPV and exact, and every subgraph re-certifies."""

    @pytest.mark.parametrize("pattern_name", MID_PATTERNS)
    @pytest.mark.parametrize("graph_name", sorted(MID_GRAPHS))
    def test_ippv_full_list_matches_exact(self, graph_name, pattern_name):
        graph = MID_GRAPHS[graph_name]()
        pattern = get_pattern(pattern_name)
        ippv = solve(graph=graph, pattern=pattern, k=None, solver="ippv")
        exact = solve(graph=graph, pattern=pattern, k=None, solver="exact")
        assert signature(ippv) == signature(exact)

    @pytest.mark.parametrize("pattern_name", MID_PATTERNS)
    @pytest.mark.parametrize("graph_name", sorted(MID_GRAPHS))
    def test_top_k_is_prefix_of_full_list(self, graph_name, pattern_name):
        graph = MID_GRAPHS[graph_name]()
        pattern = get_pattern(pattern_name)
        full = signature(solve(graph=graph, pattern=pattern, k=None, solver="exact"))
        for k in (1, 2, 3):
            top = solve(graph=graph, pattern=pattern, k=k, solver="ippv")
            assert signature(top) == full[:k], k

    @pytest.mark.parametrize("pattern_name", MID_PATTERNS)
    @pytest.mark.parametrize("graph_name", sorted(MID_GRAPHS))
    def test_every_reported_subgraph_recertifies(self, graph_name, pattern_name):
        graph = MID_GRAPHS[graph_name]()
        pattern = get_pattern(pattern_name)
        report = solve(graph=graph, pattern=pattern, k=None, solver="ippv")
        instances = pattern.instances(graph)
        seen = set()
        previous = None
        for subgraph in report.subgraphs:
            vertices = set(subgraph.vertices)
            induced = graph.induced_subgraph(vertices)
            assert is_connected(induced)
            # The density is recounted from a fresh enumeration of G[S].
            assert subgraph.density == Fraction(pattern.count(induced), len(vertices))
            # G[S] is its own maximal densest subgraph.
            densest, density = maximal_densest_subset(instances.restrict(vertices), vertices)
            assert (densest, density) == (vertices, subgraph.density)
            assert not seen & vertices
            seen |= vertices
            assert previous is None or subgraph.density <= previous
            previous = subgraph.density


def _component_union() -> Graph:
    """Six two-blob graphs side by side: six components for the process pool."""
    return union_graph(*(shifted(two_blob_graph(seed), 100 * seed) for seed in range(6)))


class TestAcrossJobs:
    """The process pool changes where components run, never the list."""

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize("solver", ["ippv", "exact"])
    def test_union_list_independent_of_pool_size(self, solver, jobs):
        graph = _component_union()
        reference = solve(graph=graph, pattern=3, k=None, solver="exact", jobs=1)
        report = solve(graph=graph, pattern=3, k=None, solver=solver, jobs=jobs)
        assert signature(report) == signature(reference)
        assert report.executor == ("process" if jobs > 1 else "serial")
        assert report.fallback_reason is None
