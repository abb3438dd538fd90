"""Tests for the unified solver engine: registry, preprocessing, parity,
serial/parallel bit-identity, and the CLI integration."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from repro.cli import main as cli_main
from repro.engine import (
    SolveRequest,
    available_solvers,
    get_solver,
    preprocess,
    solve,
)
from repro.errors import EngineError
from repro.graph import Graph, complete_graph, cycle_graph, union_graph
from repro.datasets import load_dataset
from repro.lhcds import exact_top_k_lhcds, find_lhcds
from repro.cliques import clique_instances
from repro.patterns import get_pattern


def _shifted(graph: Graph, offset: int) -> Graph:
    return Graph(
        vertices=[v + offset for v in graph.vertices()],
        edges=[(u + offset, v + offset) for u, v in graph.edges()],
    )


def _multi_component_graph() -> Graph:
    """Disjoint K6, K5, K4 plus a triangle-bearing cycle and an instance-free path."""
    parts = [complete_graph(6), _shifted(complete_graph(5), 100), _shifted(complete_graph(4), 200)]
    sparse = cycle_graph(6)
    sparse.add_edge(0, 2)
    parts.append(_shifted(sparse, 300))
    path = Graph(edges=[(400, 401), (401, 402)])
    parts.append(path)
    return union_graph(*parts)


def _signature(report):
    """The bit-comparable output: ordered (vertex set, exact density) pairs."""
    return [(frozenset(s.vertices), s.density) for s in report.subgraphs]


class TestRegistry:
    def test_all_five_solvers_registered(self):
        assert set(available_solvers()) >= {"ippv", "exact", "greedy", "ldsflow", "ltds"}

    def test_unknown_solver_rejected(self):
        with pytest.raises(EngineError, match="unknown solver"):
            solve(graph=complete_graph(4), pattern=3, k=1, solver="nope")

    def test_fixed_h_enforced(self):
        with pytest.raises(EngineError, match="only supports h = 2"):
            solve(graph=complete_graph(4), pattern=3, k=1, solver="ldsflow")
        with pytest.raises(EngineError, match="only supports h = 3"):
            solve(graph=complete_graph(4), pattern=2, k=1, solver="ltds")

    def test_greedy_requires_k(self):
        with pytest.raises(EngineError, match="needs an explicit k"):
            solve(graph=complete_graph(4), pattern=3, solver="greedy")

    def test_invalid_request_parameters(self):
        with pytest.raises(EngineError, match="k must be positive"):
            SolveRequest(graph=complete_graph(4), k=0)
        with pytest.raises(EngineError, match="jobs must be"):
            SolveRequest(graph=complete_graph(4), jobs=-1)
        with pytest.raises(EngineError, match="empty graph"):
            solve(graph=Graph(), pattern=3, k=1)

    def test_spec_metadata(self):
        assert get_solver("ippv").internal_prune
        assert not get_solver("greedy").exact
        assert get_solver("ldsflow").fixed_h == 2


class TestPreprocessing:
    def test_components_split_and_zero_instance_drop(self):
        graph = _multi_component_graph()
        components, stats = preprocess(SolveRequest(graph=graph, pattern=3))
        assert stats.num_components == 5
        # The 3-vertex path hosts no triangle, so it is not solvable.
        assert stats.num_active_components == 4
        assert len(components) == 4
        assert stats.num_instances == clique_instances(graph, 3).num_instances

    def test_components_carry_restricted_instances_and_bounds(self):
        graph = _multi_component_graph()
        components, _ = preprocess(SolveRequest(graph=graph, pattern=3))
        # Ordered by decreasing upper bound: K6 first.
        assert components[0].subgraph.num_vertices == 6
        total = sum(c.instances.num_instances for c in components)
        assert total == clique_instances(graph, 3).num_instances
        for comp in components:
            assert comp.lower_bound <= comp.upper_bound
            assert all(
                comp.bounds.lower_of(v) <= comp.bounds.upper_of(v)
                for v in comp.subgraph.vertices()
            )

    def test_bounds_stage_skipped_when_nothing_consumes_it(self):
        graph = _multi_component_graph()
        request = SolveRequest(graph=graph, pattern=3, k=4, solver="greedy")
        components, stats = preprocess(request, compute_bounds=False)
        assert all(comp.bounds is None for comp in components)
        assert stats.bounds_seconds == 0.0
        # Components keep their discovery order (no upper bounds to sort by).
        assert [c.index for c in components] == sorted(c.index for c in components)
        # The engine's greedy path (which requests this) still answers.
        report = solve(request)
        assert report.preprocessing.bounds_seconds == 0.0
        assert _signature(report)[0] == (frozenset(range(6)), Fraction(20, 6))

    def test_component_skipping_only_for_exact_solvers(self):
        graph = _multi_component_graph()
        exact = solve(graph=graph, pattern=3, k=1, solver="exact")
        assert exact.preprocessing.num_skipped_components > 0
        greedy = solve(graph=graph, pattern=3, k=1, solver="greedy")
        assert greedy.preprocessing.num_skipped_components == 0
        # Skipping must not change the answer.
        assert _signature(exact)[0] == (frozenset(range(6)), Fraction(20, 6))


class TestCrossSolverParity:
    @pytest.mark.parametrize("abbr", ["HA", "GQ"])
    def test_top1_density_agrees_exact_ippv_greedy(self, abbr):
        graph = load_dataset(abbr)
        densities = {}
        for solver in ("exact", "ippv", "greedy"):
            report = solve(graph=graph, pattern=3, k=5, solver=solver)
            assert report.subgraphs, f"{solver} found nothing on {abbr}"
            densities[solver] = report.subgraphs[0].density
        assert densities["exact"] == densities["ippv"]
        assert densities["exact"] == densities["greedy"]
        assert isinstance(densities["exact"], Fraction)

    def test_exact_solvers_agree_on_full_topk(self):
        graph = _multi_component_graph()
        reports = {
            solver: solve(graph=graph, pattern=3, k=4, solver=solver)
            for solver in ("exact", "ippv", "ltds")
        }
        assert _signature(reports["exact"]) == _signature(reports["ippv"])
        assert _signature(reports["exact"]) == _signature(reports["ltds"])

    def test_engine_matches_direct_ippv_call(self):
        for graph in (load_dataset("HA"), _multi_component_graph()):
            direct = find_lhcds(graph, h=3, k=5)
            engine = solve(graph=graph, pattern=3, k=5, solver="ippv")
            assert _signature(engine) == [
                (frozenset(s.vertices), s.density) for s in direct.subgraphs
            ]

    def test_engine_matches_direct_exact_call(self):
        graph = _multi_component_graph()
        direct = exact_top_k_lhcds(graph, clique_instances(graph, 3), 4)
        engine = solve(graph=graph, pattern=3, k=4, solver="exact")
        assert _signature(engine) == [
            (frozenset(vertices), density) for vertices, density in direct
        ]


class TestSerialParallelIdentity:
    @pytest.mark.parametrize(
        "solver,h", [("ippv", 3), ("exact", 3), ("greedy", 3), ("ldsflow", 2), ("ltds", 3)]
    )
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_output_bit_identical_to_serial(self, solver, h, jobs):
        graph = _multi_component_graph()
        serial = solve(graph=graph, pattern=h, k=4, solver=solver, jobs=1)
        parallel = solve(graph=graph, pattern=h, k=4, solver=solver, jobs=jobs)
        assert _signature(serial) == _signature(parallel)
        assert serial.jobs_used == 1
        # Guards against a silent serial fallback: the graph has >= 4
        # solvable components for every solver, so the process pool must
        # actually engage with every requested worker.
        assert parallel.fallback_reason is None
        assert parallel.executor == "process"
        assert parallel.jobs_used == jobs

    def test_jobs_zero_means_cpu_count(self):
        graph = _multi_component_graph()
        serial = solve(graph=graph, pattern=3, k=4, solver="exact", jobs=1)
        auto = solve(graph=graph, pattern=3, k=4, solver="exact", jobs=0)
        assert _signature(serial) == _signature(auto)


class TestPatternsThroughEngine:
    def test_non_clique_pattern(self):
        graph = load_dataset("HA")
        report = solve(graph=graph, pattern=get_pattern("2-triangle"), k=2, solver="ippv")
        assert report.h == 4
        assert report.pattern_name == "2-triangle"
        assert all(s.density > 0 for s in report.subgraphs)


class TestReport:
    def test_report_carries_engine_metadata(self):
        graph = _multi_component_graph()
        report = solve(graph=graph, pattern=3, k=2, solver="ippv", jobs=1)
        assert report.solver == "ippv"
        assert report.k == 2
        assert report.preprocessing.num_vertices == graph.num_vertices
        assert report.preprocessing.num_instances > 0
        assert report.timings.total > 0

    def test_json_dict_round_trips(self):
        report = solve(graph=complete_graph(5), pattern=3, k=1, solver="exact")
        payload = json.loads(json.dumps(report.to_json_dict(), default=str))
        assert payload["solver"] == "exact"
        assert Fraction(payload["subgraphs"][0]["density"]) == Fraction(10, 5)
        assert payload["subgraphs"][0]["density_float"] == 2.0
        assert payload["subgraphs"][0]["vertices"] == [0, 1, 2, 3, 4]
        assert "preprocessing" in payload and "timings" in payload


class TestCLI:
    def test_topk_json_output(self, capsys):
        assert cli_main(["topk", "--dataset", "HA", "--k", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solver"] == "ippv"
        assert len(payload["subgraphs"]) == 2
        top = payload["subgraphs"][0]
        assert Fraction(top["density"]) == Fraction(35, 3)
        assert top["vertices"]
        assert "timings" in payload and "preprocessing" in payload

    @pytest.mark.parametrize("solver", ["ippv", "exact", "greedy", "ltds"])
    def test_topk_runs_every_solver(self, solver, capsys):
        assert cli_main(["topk", "--dataset", "HA", "--k", "2", "--solver", solver]) == 0
        assert "density=" in capsys.readouterr().out

    def test_topk_ldsflow_needs_h2(self, capsys):
        assert cli_main(["topk", "--dataset", "HA", "--k", "2", "--solver", "ldsflow"]) == 1
        assert "only supports h = 2" in capsys.readouterr().err
        assert cli_main(
            ["topk", "--dataset", "HA", "--h", "2", "--k", "2", "--solver", "ldsflow"]
        ) == 0

    def test_topk_pattern_flag(self, capsys):
        assert cli_main(
            ["topk", "--dataset", "HA", "--pattern", "2-triangle", "--k", "1"]
        ) == 0
        assert "2-triangle" in capsys.readouterr().out

    def test_topk_jobs_flag_matches_serial(self, capsys):
        assert cli_main(["topk", "--dataset", "HA", "--k", "2", "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert cli_main(["topk", "--dataset", "HA", "--k", "2", "--json", "--jobs", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert serial["subgraphs"] == parallel["subgraphs"]

    def test_solvers_subcommand(self, capsys):
        assert cli_main(["solvers"]) == 0
        out = capsys.readouterr().out
        for name in ("ippv", "exact", "greedy", "ldsflow", "ltds"):
            assert name in out
