"""Tests for the pluggable kernel backends: registry + env resolution,
flow-kernel equivalence against the legacy object-graph Dinic, arc
normalisation regressions, capacity-scaling edge cases (zero capacities,
beyond-int64 denominators), and stdlib-vs-numpy bit-identity from the raw
kernels up through the engine."""

from __future__ import annotations

import importlib.util
import random
from array import array
from fractions import Fraction
from itertools import combinations
from typing import ClassVar

import pytest

from helpers import multi_component_graph, random_graph, signature

from repro.cli import main as cli_main
from repro.cliques.kclist import clique_degrees, count_cliques, list_cliques
from repro.engine import SolveRequest, solve
from repro.errors import EngineError, FlowError, KernelError
from repro.flow import (
    FractionalArcCollector,
    LegacyMaxFlowNetwork,
    MaxFlowNetwork,
    scaled_capacity,
    solve_compact_network,
)
from repro.flow.dinic import FlatFlowNetwork
from repro.kernels import (
    DEFAULT_KERNEL,
    KernelBackend,
    available_kernels,
    describe_kernel,
    get_kernel,
    register_kernel,
    resolve_kernel,
)
from repro.lhcds.seq_kclist import seq_kclist_plus_plus

NUMPY = importlib.util.find_spec("numpy") is not None
needs_numpy = pytest.mark.skipif(not NUMPY, reason="numpy not installed")

#: Kernels exercised by the equivalence matrices on this machine.
KERNELS = ["stdlib"] + (["numpy"] if NUMPY else [])


def random_flow_arcs(n_nodes, n_arcs, seed, max_cap=20):
    """A deterministic random multigraph arc list (self-loops included)."""
    rng = random.Random(seed)
    arcs = []
    for _ in range(n_arcs):
        u = rng.randrange(n_nodes)
        v = rng.randrange(n_nodes)
        arcs.append((u, v, rng.randrange(0, max_cap + 1)))
    return arcs


def build_both(arcs, kernel):
    new = MaxFlowNetwork(kernel)
    old = LegacyMaxFlowNetwork()
    for u, v, c in arcs:
        new.add_edge(u, v, c)
        old.add_edge(u, v, c)
    return new, old


class TestRegistry:
    def test_both_backends_always_listed(self):
        # The numpy backend is listable even when numpy is missing, so a
        # request can *name* it on any machine (and fail with the install
        # hint only when actually resolved).
        assert available_kernels() == ["numpy", "stdlib"]
        for name in available_kernels():
            assert describe_kernel(name)

    def test_default_resolution_is_stdlib(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert DEFAULT_KERNEL == "stdlib"
        assert resolve_kernel().name == "stdlib"
        assert resolve_kernel(None).name == "stdlib"

    def test_instances_are_cached(self):
        assert get_kernel("stdlib") is get_kernel("stdlib")
        assert resolve_kernel("stdlib") is get_kernel("stdlib")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KernelError, match="unknown kernel"):
            get_kernel("cuda")
        with pytest.raises(KernelError, match="unknown kernel"):
            describe_kernel("cuda")

    def test_env_variable_selects_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "stdlib")
        assert resolve_kernel().name == "stdlib"
        monkeypatch.setenv("REPRO_KERNEL", "not-a-kernel")
        with pytest.raises(KernelError, match="unknown kernel"):
            resolve_kernel()

    def test_explicit_name_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "not-a-kernel")
        assert resolve_kernel("stdlib").name == "stdlib"

    def test_duplicate_registration_rejected(self):
        class Imposter(KernelBackend):
            name: ClassVar[str] = "stdlib"
            description: ClassVar[str] = "duplicate name"

        with pytest.raises(KernelError, match="already registered"):
            register_kernel(Imposter)

    def test_nameless_registration_rejected(self):
        class Nameless(KernelBackend):
            description: ClassVar[str] = "no name"

        with pytest.raises(KernelError, match="non-empty name"):
            register_kernel(Nameless)

    def test_request_validates_kernel_name(self):
        from repro.graph import complete_graph

        with pytest.raises(EngineError, match="unknown kernel"):
            SolveRequest(graph=complete_graph(3), pattern=3, k=1, kernel="cuda")
        request = SolveRequest(
            graph=complete_graph(3), pattern=3, k=1, kernel="  STDLIB  "
        )
        assert request.kernel == "stdlib"

    @needs_numpy
    def test_numpy_backend_resolves_when_installed(self):
        assert resolve_kernel("numpy").name == "numpy"

    def test_numpy_backend_raises_install_hint_without_numpy(self, monkeypatch):
        # Simulate a numpy-less install: the class must stay listable but
        # fail to instantiate with the install hint.
        import repro.kernels as kernels_module
        from repro.kernels import numpy_backend

        monkeypatch.setattr(numpy_backend, "_NUMPY_AVAILABLE", False)
        monkeypatch.delitem(kernels_module._INSTANCES, "numpy", raising=False)
        assert "numpy" in available_kernels()
        with pytest.raises(KernelError, match="requires numpy"):
            get_kernel("numpy")
        monkeypatch.undo()
        kernels_module._INSTANCES.pop("numpy", None)


class TestFlowKernelEquivalence:
    """The kernel Dinic against the seed object-graph Dinic.

    Max-flow values must match exactly; so must both min-cut sides (they are
    unique for the network, independent of which max flow was found)."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_random_networks_match_legacy(self, kernel):
        for seed in range(12):
            arcs = random_flow_arcs(n_nodes=8, n_arcs=24, seed=seed)
            new, old = build_both(arcs, kernel)
            s, t = 0, 7
            new.add_node(s), new.add_node(t)
            old.add_node(s), old.add_node(t)
            assert new.max_flow(s, t) == old.max_flow(s, t)
            assert new.min_cut_source_side(s) == old.min_cut_source_side(s)
            assert new.min_cut_source_side(s, maximal=True) == old.min_cut_source_side(
                s, maximal=True
            )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_min_cut_value_equals_flow(self, kernel):
        # Max-flow/min-cut duality, checked on the original arc list.
        for seed in range(8):
            arcs = random_flow_arcs(n_nodes=7, n_arcs=18, seed=100 + seed)
            net = MaxFlowNetwork(kernel)
            for u, v, c in arcs:
                net.add_edge(u, v, c)
            net.add_node(0), net.add_node(6)
            value = net.max_flow(0, 6)
            for maximal in (False, True):
                side = net.min_cut_source_side(0, maximal=maximal)
                cut = sum(c for u, v, c in arcs if u != v and u in side and v not in side)
                assert cut == value

    @needs_numpy
    def test_kernels_agree_with_each_other(self):
        for seed in range(8):
            arcs = random_flow_arcs(n_nodes=9, n_arcs=30, seed=200 + seed)
            nets = {}
            for kernel in ("stdlib", "numpy"):
                net = MaxFlowNetwork(kernel)
                for u, v, c in arcs:
                    net.add_edge(u, v, c)
                net.add_node(0), net.add_node(8)
                nets[kernel] = (net, net.max_flow(0, 8))
            assert nets["stdlib"][1] == nets["numpy"][1]
            for maximal in (False, True):
                assert nets["stdlib"][0].min_cut_source_side(
                    0, maximal=maximal
                ) == nets["numpy"][0].min_cut_source_side(0, maximal=maximal)


class TestArcNormalisation:
    """Regression tests for MaxFlowNetwork.add_edge's documented rules."""

    def test_self_loop_is_ignored(self):
        net = MaxFlowNetwork()
        net.add_edge("a", "a", 5)
        assert net.num_arcs == 0
        net.add_edge("s", "a", 2)
        net.add_edge("a", "t", 3)
        net.add_edge("a", "a", 100)
        assert net.num_arcs == 2
        assert net.solve("s", "t") == 2

    def test_self_loop_capacity_still_validated(self):
        net = MaxFlowNetwork()
        with pytest.raises(FlowError):
            net.add_edge("a", "a", -1)

    def test_duplicate_arcs_accumulate(self):
        net = MaxFlowNetwork()
        net.add_edge("s", "t", 2)
        net.add_edge("s", "t", 3)
        assert net.num_arcs == 1
        assert net.solve("s", "t") == 5

    def test_antiparallel_arcs_stay_distinct(self):
        net = MaxFlowNetwork()
        net.add_edge("s", "t", 2)
        net.add_edge("t", "s", 9)
        assert net.num_arcs == 2
        assert net.solve("s", "t") == 2

    def test_duplicate_merge_is_deterministic(self):
        # The merged arc keeps its first insertion position: interleaving
        # later duplicates must not perturb arc order (and thus cut ties).
        net = MaxFlowNetwork()
        net.add_edge("s", "a", 1)
        net.add_edge("s", "b", 1)
        net.add_edge("s", "a", 1)
        assert net.num_arcs == 2
        net.add_edge("a", "t", 5)
        net.add_edge("b", "t", 5)
        assert net.solve("s", "t") == 3


class TestCapacityScaling:
    def test_zero_capacity_arcs_survive_scaling(self):
        collector = FractionalArcCollector()
        collector.add("s", "a", Fraction(0))
        collector.add("a", "t", Fraction(1, 3))
        net, scale = collector.build()
        assert scale == 3
        assert net.solve("s", "t") == 0

    def test_scaled_capacity_helper_is_exact(self):
        assert scaled_capacity(Fraction(2, 3), 6) == 4
        assert scaled_capacity(Fraction(0), 6) == 0
        huge = Fraction(7, 2**100)
        assert scaled_capacity(huge, 2**101) == 14

    def test_huge_denominators_take_the_unbounded_int_path(self):
        # Scale = lcm of the denominators exceeds int64; flow values must
        # stay exact through the plain-list capacity fallback.
        p, q = 2**67 + 1, 2**68 + 1  # coprime -> scale = p * q
        collector = FractionalArcCollector()
        collector.add("s", "a", Fraction(1, p))
        collector.add("a", "t", Fraction(1, q))
        net, scale = collector.build()
        assert scale == p * q
        assert net.solve("s", "t") == scaled_capacity(Fraction(1, q), scale) == p

    def test_add_arc_promotes_buffer_beyond_int64(self):
        flat = FlatFlowNetwork(3)
        flat.add_arc(0, 1, 2**80)
        flat.add_arc(1, 2, 3)
        assert isinstance(flat._cap, list)
        assert flat.max_flow(0, 2) == 3

    def test_increase_capacity_promotes_buffer_beyond_int64(self):
        flat = FlatFlowNetwork(2)
        eid = flat.add_arc(0, 1, (1 << 63) - 1)
        assert isinstance(flat._cap, array)
        flat.increase_capacity(eid, 1)
        assert isinstance(flat._cap, list)
        assert flat.max_flow(0, 1) == 1 << 63

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_scaled_min_cut_matches_rational_brute_force(self, kernel):
        # Round-trip property: on small random rational networks, the scaled
        # integer min cut must be a minimum cut of the *rational* network,
        # with matching (unique) minimal/maximal source sides.
        rng = random.Random(42)
        for trial in range(6):
            n = 5
            arcs = []
            for u in range(n):
                for v in range(n):
                    if u != v and rng.random() < 0.6:
                        cap = Fraction(rng.randrange(0, 8), rng.randrange(1, 9))
                        arcs.append((u, v, cap))
            collector = FractionalArcCollector()
            for u, v, cap in arcs:
                collector.add(u, v, cap)
            net, scale = collector.build(kernel)
            for node in range(n):
                net.add_node(node)
            flow = Fraction(net.solve(0, n - 1), scale)

            def cut_value(side):
                return sum(cap for u, v, cap in arcs if u in side and v not in side)

            best = None
            others = [v for v in range(1, n - 1)]
            for r in range(len(others) + 1):
                for extra in combinations(others, r):
                    value = cut_value({0, *extra})
                    best = value if best is None else min(best, value)
            assert flow == best
            for maximal in (False, True):
                side = net.min_cut_source_side(0, maximal=maximal)
                side = {v for v in side if isinstance(v, int)}
                assert cut_value(side) == best

    def test_compact_network_huge_rho_denominator(self):
        # A rho with a beyond-int64 denominator pushes solve_compact_network
        # onto the unbounded-int capacity path; the maximiser must match the
        # brute-force argmax of |Psi(A)| - rho * |A| exactly.
        from repro.cliques import clique_instances

        g = random_graph(6, 0.6, 3)
        inst = clique_instances(g, 3)
        if inst.num_instances == 0:
            pytest.skip("no triangles in this seed")
        rho = Fraction(2**70 + 1, 2**71)
        chosen = solve_compact_network(inst, rho, vertices=g.vertices(), maximal=True)
        best_value, best_set = None, set()
        vs = list(g.vertices())
        for r in range(len(vs) + 1):
            for subset in combinations(vs, r):
                value = inst.count_within(subset) - rho * r
                if best_value is None or value > best_value or (
                    value == best_value and len(subset) > len(best_set)
                ):
                    best_value = value
                    best_set = set(subset)
        assert chosen == best_set


@needs_numpy
class TestFrankWolfeBitIdentity:
    """stdlib and numpy FW must agree bit-for-bit: same alpha bytes, same r."""

    @pytest.mark.parametrize("h", [2, 3])
    @pytest.mark.parametrize("iterations", [0, 1, 7, 25])
    def test_alpha_and_r_identical(self, h, iterations):
        from repro.cliques import clique_instances

        for seed in range(4):
            g = random_graph(8, 0.55, seed + 10)
            inst = clique_instances(g, h)
            if inst.num_instances == 0:
                continue
            std = seq_kclist_plus_plus(inst, iterations, kernel="stdlib")
            npy = seq_kclist_plus_plus(inst, iterations, kernel="numpy")
            assert bytes(std.alpha) == bytes(npy.alpha)
            assert std.r == npy.r


@needs_numpy
class TestKclistBitIdentity:
    """stdlib and numpy clique enumeration: same cliques, same order."""

    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
    def test_enumeration_identical(self, h):
        for seed in range(5):
            g = random_graph(9, 0.5, seed + 30)
            assert list_cliques(g, h, "stdlib") == list_cliques(g, h, "numpy")
            assert count_cliques(g, h, "stdlib") == count_cliques(g, h, "numpy")
            assert clique_degrees(g, h, "stdlib") == clique_degrees(g, h, "numpy")


class TestEngineKernelMatrix:
    """Engine-level acceptance: every solver, stdlib vs numpy, outputs AND
    verification statistics identical; the report records the kernel."""

    @needs_numpy
    @pytest.mark.parametrize(
        "solver,h",
        [("ippv", 3), ("exact", 3), ("greedy", 3), ("ldsflow", 2), ("ltds", 3)],
    )
    def test_every_solver_identical_on_every_kernel(self, solver, h):
        graph = multi_component_graph()
        reference = solve(graph=graph, pattern=h, k=4, solver=solver, kernel="stdlib")
        report = solve(graph=graph, pattern=h, k=4, solver=solver, kernel="numpy")
        assert signature(report) == signature(reference)
        assert report.verification == reference.verification
        assert report.candidates_examined == reference.candidates_examined
        assert reference.kernel == "stdlib"
        assert report.kernel == "numpy"

    @needs_numpy
    def test_kernel_composes_with_process_pool(self):
        graph = multi_component_graph()
        reference = solve(graph=graph, pattern=3, k=4, solver="ippv", kernel="stdlib")
        report = solve(
            graph=graph, pattern=3, k=4, solver="ippv", kernel="numpy", jobs=2
        )
        assert signature(report) == signature(reference)
        assert report.kernel == "numpy"
        assert report.executor == "process"

    def test_report_defaults_to_stdlib(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        graph = multi_component_graph()
        report = solve(graph=graph, pattern=3, k=2, solver="exact")
        assert report.kernel == "stdlib"
        assert report.to_json_dict()["kernel"] == "stdlib"

    @needs_numpy
    def test_env_variable_selects_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        report = solve(graph=multi_component_graph(), pattern=3, k=2, solver="exact")
        assert report.kernel == "numpy"

    def test_invalid_env_variable_fails_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "not-a-kernel")
        with pytest.raises(KernelError, match="unknown kernel"):
            solve(graph=multi_component_graph(), pattern=3, k=2, solver="exact")

    def test_request_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "not-a-kernel")
        report = solve(
            graph=multi_component_graph(), pattern=3, k=2,
            solver="exact", kernel="stdlib",
        )
        assert report.kernel == "stdlib"

    def test_cli_kernels_subcommand(self, capsys):
        assert cli_main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "stdlib" in out
        assert "numpy" in out

    @needs_numpy
    def test_cli_kernel_flag(self, capsys):
        import json

        assert cli_main(
            ["topk", "--dataset", "HA", "--k", "2", "--kernel", "numpy", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel"] == "numpy"
