"""End-to-end tests of the IPPV driver, including exactness cross-checks."""

from fractions import Fraction

import pytest

from repro.cliques import clique_instances
from repro.errors import AlgorithmError
from repro.graph import Graph, complete_graph, union_graph
from repro.lhcds import IPPV, IPPVConfig, exact_top_k_lhcds, find_lhcds, find_lhxpds
from repro.lhcds.bounds import CompactBounds
from repro.lhcds.reference import brute_force_lhcds
from repro.patterns import DiamondPattern, FourLoopPattern, get_pattern

from helpers import random_graph


def as_set(result):
    return {(frozenset(s.vertices), s.density) for s in result.subgraphs}


def reference_set(pairs):
    return {(frozenset(s), d) for s, d in pairs}


class TestFigure2Semantics:
    def test_top_l3cds(self, figure2):
        result = find_lhcds(figure2, h=3, k=2)
        assert [sorted(s.vertices) for s in result.subgraphs] == [
            [12, 13, 14, 15, 16, 17],
            [2, 3, 4, 5, 6],
        ]
        assert result.subgraphs[0].density == Fraction(13, 6)
        assert result.subgraphs[1].density == Fraction(2)

    def test_top_l4cds_both_density_one(self, figure2):
        result = find_lhcds(figure2, h=4, k=2)
        assert {s.density for s in result.subgraphs} == {Fraction(1)}
        assert {frozenset(s.vertices) for s in result.subgraphs} == {
            frozenset(range(12, 18)),
            frozenset(range(2, 7)),
        }

    def test_lhcds_disjointness(self, figure2):
        result = find_lhcds(figure2, h=3)
        seen = set()
        for s in result.subgraphs:
            assert not (seen & set(s.vertices))
            seen |= set(s.vertices)

    def test_densities_are_non_increasing(self, figure2):
        result = find_lhcds(figure2, h=3)
        densities = result.densities()
        assert densities == sorted(densities, reverse=True)


class TestExactness:
    @pytest.mark.parametrize("h", [2, 3])
    def test_matches_brute_force_on_random_graphs(self, h, small_random_graphs):
        for g in small_random_graphs:
            inst = clique_instances(g, h)
            expected = reference_set(brute_force_lhcds(g, inst))
            actual = as_set(find_lhcds(g, h=h))
            assert actual == expected

    @pytest.mark.parametrize("h", [3, 4])
    def test_matches_exact_decomposition_on_larger_randoms(self, h):
        for seed in range(4):
            g = random_graph(16, 0.4, seed + 200)
            inst = clique_instances(g, h)
            expected = reference_set(exact_top_k_lhcds(g, inst))
            actual = as_set(find_lhcds(g, h=h))
            assert actual == expected

    def test_fast_and_basic_verification_agree(self, small_random_graphs):
        for g in small_random_graphs:
            fast = find_lhcds(g, h=3, verification="fast")
            basic = find_lhcds(g, h=3, verification="basic")
            assert as_set(fast) == as_set(basic)

    def test_low_iteration_budget_still_exact(self, two_cliques):
        # Even a very coarse Frank-Wolfe solution must not break exactness
        # thanks to the refinement / exact-split fallback.
        result = find_lhcds(two_cliques, h=3, iterations=1)
        inst = clique_instances(two_cliques, 3)
        assert as_set(result) == reference_set(brute_force_lhcds(two_cliques, inst))

    def test_k_limits_output_and_keeps_best(self, figure2):
        all_results = find_lhcds(figure2, h=3)
        top1 = find_lhcds(figure2, h=3, k=1)
        assert len(top1.subgraphs) == 1
        assert top1.subgraphs[0] == all_results.subgraphs[0]


class TestDriverBehaviour:
    def test_invalid_k_rejected(self, k5):
        with pytest.raises(AlgorithmError):
            find_lhcds(k5, h=3, k=0)

    def test_invalid_verification_mode_rejected(self, k5):
        with pytest.raises(AlgorithmError):
            IPPV(k5, 3, IPPVConfig(verification="turbo"))

    def test_empty_graph_rejected(self):
        with pytest.raises(AlgorithmError):
            IPPV(Graph(), 3)

    def test_graph_without_cliques_returns_nothing(self):
        g = Graph(edges=[(0, 1), (1, 2), (2, 3)])
        assert find_lhcds(g, h=3).subgraphs == []

    def test_single_clique_graph(self, k5):
        result = find_lhcds(k5, h=3)
        assert len(result.subgraphs) == 1
        assert result.subgraphs[0].vertices == frozenset(range(5))

    def test_two_equal_cliques_both_reported(self):
        g = union_graph(complete_graph(4))
        for u in range(10, 14):
            for v in range(u + 1, 14):
                g.add_edge(u, v)
        result = find_lhcds(g, h=3)
        assert len(result.subgraphs) == 2
        assert {s.density for s in result.subgraphs} == {Fraction(1)}

    def test_timings_populated(self, figure2):
        result = find_lhcds(figure2, h=3, k=2)
        timings = result.timings.as_dict()
        assert timings["total"] > 0
        assert timings["enumeration"] >= 0
        assert result.verification.is_densest_calls >= 1

    def test_result_helpers(self, figure2):
        result = find_lhcds(figure2, h=3, k=2)
        assert len(result) == 2
        assert result.vertex_sets()[0] == set(range(12, 18))
        assert result.subgraphs[0].size == 6
        assert result.subgraphs[0].as_sorted_list() == [12, 13, 14, 15, 16, 17]

    def test_integer_pattern_argument(self, k5):
        result = IPPV(k5, 4).run()
        assert result.subgraphs[0].h == 4


class TestPatternDiscovery:
    def test_diamond_pattern_on_figure2(self, figure2):
        result = find_lhxpds(figure2, DiamondPattern(), k=1)
        assert len(result.subgraphs) == 1
        # The K6-minus-two-edges region is by far the diamond-densest.
        assert result.subgraphs[0].vertices == frozenset(range(12, 18))

    def test_four_loop_pattern_runs(self, figure2):
        result = find_lhxpds(figure2, FourLoopPattern(), k=2)
        assert all(s.h == 4 for s in result.subgraphs)

    def test_pattern_by_name(self, figure2):
        result = find_lhxpds(figure2, get_pattern("c3-star"), k=1)
        assert result.subgraphs[0].pattern_name == "c3-star"

    def test_pattern_disjointness(self, figure2):
        result = find_lhxpds(figure2, get_pattern("3-star"), k=3)
        seen = set()
        for s in result.subgraphs:
            assert not (seen & set(s.vertices))
            seen |= set(s.vertices)

    def test_lhxpds_matches_brute_force_for_4clique(self, small_random_graphs):
        # The 4-clique pattern must coincide with find_lhcds(h=4).
        for g in small_random_graphs[:4]:
            via_pattern = find_lhxpds(g, get_pattern("4-clique"))
            via_clique = find_lhcds(g, h=4)
            assert as_set(via_pattern) == as_set(via_clique)


class TestExactEarlyStop:
    """Regressions for the float-epsilon early stop.

    The old driver compared ``float(kth) >= best_remaining - 1e-12`` over
    ``float()``-coerced heap priorities, so two densities closer than the
    tolerance — or closer than one float ulp — were conflated: the run
    could certify its top-k while a remaining candidate still had a
    strictly larger upper bound.  Priorities and the stop test are exact
    now.
    """

    EPS = Fraction(1, 10**15)

    def test_colliding_float_images_are_distinguished_exactly(self):
        kth = Fraction(1, 3)
        remaining = Fraction(1, 3) + self.EPS
        # The old float comparison certifies the stop...
        assert float(kth) >= float(remaining) - 1e-12
        # ...but the certificate does not hold: the remaining candidate's
        # exact bound is strictly larger, so it may still contain a
        # strictly denser subgraph.
        assert not kth >= remaining
        # The exact comparison also stops on true ties (never "too late").
        assert Fraction(1, 3) >= Fraction(1, 3)

    @staticmethod
    def _two_triangles() -> Graph:
        return Graph(edges=[(0, 1), (1, 2), (0, 2), (10, 11), (11, 12), (10, 12)])

    @staticmethod
    def _bounds_with(uppers) -> CompactBounds:
        bounds = CompactBounds()
        for v, upper in uppers.items():
            bounds.lower[v] = Fraction(0)
            bounds.upper[v] = upper
        return bounds

    def test_push_keeps_priorities_exact(self):
        graph = self._two_triangles()
        ippv = IPPV(graph, 3)
        ippv._bounds = self._bounds_with(
            {v: Fraction(1, 3) + self.EPS for v in graph.vertices()}
        )
        heap = []
        ippv._push(heap, 0, frozenset({0, 1, 2}), 0)
        priority = heap[0][0]
        assert isinstance(priority, Fraction)
        assert priority == -(Fraction(1, 3) + self.EPS)

    def test_no_stop_while_a_remaining_bound_exceeds_kth(self):
        # Both triangles have exact density 1/3.  The sound upper bounds
        # differ by ~1e-15 — far inside the old 1e-12 tolerance — so the
        # old driver stopped after verifying the first (higher-bound)
        # triangle and returned it.  The exact driver must keep going,
        # verify the second triangle too, and let the deterministic sort
        # pick the winner ({0, 1, 2} by vertex order).
        graph = self._two_triangles()
        uppers = {v: Fraction(1, 3) + 2 * self.EPS for v in (10, 11, 12)}
        uppers.update({v: Fraction(1, 3) + self.EPS for v in (0, 1, 2)})
        ippv = IPPV(
            graph, 3, IPPVConfig(prune=False), bounds=self._bounds_with(uppers)
        )
        result = ippv.run(1)
        assert result.candidates_examined == 2
        assert sorted(result.subgraphs[0].vertices) == [0, 1, 2]
        assert result.subgraphs[0].density == Fraction(1, 3)

    def test_exact_tie_still_stops_early(self):
        # When the k-th best *equals* the best remaining bound the
        # certificate does hold (nothing left can be strictly denser), so
        # the driver stops without examining the second triangle.
        graph = self._two_triangles()
        uppers = {v: Fraction(1, 3) + self.EPS for v in (10, 11, 12)}
        uppers.update({v: Fraction(1, 3) for v in (0, 1, 2)})
        ippv = IPPV(
            graph, 3, IPPVConfig(prune=False), bounds=self._bounds_with(uppers)
        )
        result = ippv.run(1)
        assert result.candidates_examined == 1
        assert sorted(result.subgraphs[0].vertices) == [10, 11, 12]
