"""Tests for the incremental engine: :class:`IncrementalSession` solves must
be bit-identical — result AND stats-relevant fields — to a cold solve of the
final graph, after any delta sequence, for every jobs value and kernel."""

from __future__ import annotations

import random

import pytest

from repro.engine import (
    IncrementalSession,
    SolveRequest,
    report_signature,
    solve,
)
from repro.errors import EngineError
from repro.graph import Graph, GraphDelta, complete_graph, union_graph
from repro.kernels import available_kernels

from helpers import multi_component_graph, random_graph, shifted


def cold_signature(graph: Graph, **options) -> str:
    return report_signature(
        solve(SolveRequest(graph=graph.copy(), pattern=options.pop("h", 3), **options))
    )


def random_delta(graph: Graph, rng: random.Random) -> GraphDelta:
    """A random valid delta: edge/vertex inserts and deletes, interleaved."""
    vertices = sorted(graph.vertices())
    choice = rng.random()
    if choice < 0.3 and len(vertices) >= 2:
        # insert a bundle of edges (may merge components / create vertices)
        edges = []
        for _ in range(rng.randint(1, 3)):
            u = rng.choice(vertices)
            v = rng.choice(vertices + [max(vertices) + rng.randint(1, 3)])
            if u != v and not graph.has_edge(u, v):
                edges.append((u, v))
        if edges:
            return GraphDelta(add_edges=tuple(edges))
    if choice < 0.55 and graph.num_edges > 1:
        # delete edges (may split a component)
        all_edges = sorted(graph.edges())
        picks = rng.sample(all_edges, min(rng.randint(1, 2), len(all_edges)))
        return GraphDelta(remove_edges=tuple(picks))
    if choice < 0.8 and len(vertices) > 4:
        return GraphDelta(remove_vertices=(rng.choice(vertices),))
    fresh = max(vertices) + rng.randint(1, 5)
    anchors = rng.sample(vertices, min(2, len(vertices)))
    return GraphDelta(
        add_vertices=(fresh,),
        add_edges=tuple((fresh, a) for a in anchors),
    )


class TestBitIdentityRandomized:
    """Property-style: incremental == cold after random delta sequences."""

    @pytest.mark.parametrize(
        "options",
        [
            dict(solver="ippv", k=2),
            dict(solver="exact", k=3),
            dict(solver="greedy", k=2),
            dict(solver="ippv", k=None),
        ],
        ids=["ippv-k2", "exact-k3", "greedy-k2", "ippv-all"],
    )
    def test_random_delta_sequences(self, options):
        for seed in range(4):
            rng = random.Random(seed * 101 + 7)
            graph = random_graph(14 + seed, 0.3, seed=seed)
            session = IncrementalSession(graph, 3, copy_graph=True)
            for _ in range(5):
                delta = random_delta(session.graph, rng)
                if delta.is_empty:
                    continue
                session.apply_delta(delta)
                if session.graph.num_vertices == 0:
                    break
                warm = report_signature(session.solve(**options))
                assert warm == cold_signature(session.graph, **options), (
                    f"seed={seed} delta_log={session.delta_log}"
                )

    def test_split_then_merge_component(self):
        """A bridge removal splits one component; re-adding it merges back."""
        left = complete_graph(4)
        right = shifted(complete_graph(4), 10)
        graph = union_graph(left, right)
        graph.add_edge(0, 10)  # bridge
        session = IncrementalSession(graph, 3, copy_graph=True)
        options = dict(solver="exact", k=2)
        base = report_signature(session.solve(**options))
        assert base == cold_signature(session.graph, **options)

        split = GraphDelta(remove_edges=((0, 10),))
        stats = session.apply_delta(split)
        assert stats.components_invalidated == 1
        assert stats.components_reenumerated == 2  # both halves rebuilt
        assert report_signature(session.solve(**options)) == cold_signature(
            session.graph, **options
        )

        merge = GraphDelta(add_edges=((0, 10),))
        stats = session.apply_delta(merge)
        assert stats.components_invalidated == 2
        assert stats.components_reenumerated == 1
        assert report_signature(session.solve(**options)) == cold_signature(
            session.graph, **options
        )

    def test_vertex_removal_strands_remainder_component(self):
        """Removing a cut vertex leaves remainder components that contain no
        touched vertex but still need fresh state (regression: they used to
        be skipped, leaving zero active components)."""
        graph = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
        session = IncrementalSession(graph, 3, copy_graph=True)
        session.apply_delta(GraphDelta(remove_vertices=(3,)))
        options = dict(solver="ippv", k=2)
        report = session.solve(**options)
        assert report.preprocessing.num_active_components == 1
        assert report_signature(report) == cold_signature(session.graph, **options)


class TestJobsKernelMatrix:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("kernel", available_kernels())
    def test_matrix_bit_identity(self, jobs, kernel):
        graph = multi_component_graph()
        session = IncrementalSession(graph, 3, copy_graph=True, kernel=kernel)
        options = dict(solver="exact", k=3, jobs=jobs, kernel=kernel)
        session.solve(**options)
        deltas = [
            GraphDelta(remove_vertices=(0,)),  # touch the K6
            GraphDelta(add_edges=((301, 303),)),  # touch the sparse cycle
            GraphDelta(add_vertices=(500,), add_edges=((500, 100), (500, 101))),
        ]
        for delta in deltas:
            session.apply_delta(delta)
            warm = report_signature(session.solve(**options))
            assert warm == cold_signature(session.graph, **options)

    def test_session_kernel_differs_from_solve_kernel(self):
        kernels = available_kernels()
        if len(kernels) < 2:
            pytest.skip("only one kernel registered")
        graph = multi_component_graph()
        session = IncrementalSession(graph, 3, kernel=kernels[-1], copy_graph=True)
        session.apply_delta(GraphDelta(remove_vertices=(0,)))
        options = dict(solver="ippv", k=2, kernel=kernels[0])
        assert report_signature(session.solve(**options)) == cold_signature(
            session.graph, **options
        )


class TestResultReuse:
    def test_untouched_components_are_served_from_cache(self):
        graph = multi_component_graph()
        session = IncrementalSession(graph, 3, copy_graph=True)
        options = dict(solver="exact", k=5)
        session.solve(**options)
        first = session.last_solve_stats
        assert first.components_solved > 0 and first.components_reused == 0

        # Touch only the K4 component (vertices 200..203).
        session.apply_delta(GraphDelta(remove_vertices=(203,)))
        session.solve(**options)
        second = session.last_solve_stats
        assert second.components_reused >= 2  # K6, K5, cycle carry over
        assert second.components_solved <= 2

    def test_repeat_solve_is_fully_cached(self):
        graph = multi_component_graph()
        session = IncrementalSession(graph, 3, copy_graph=True)
        options = dict(solver="exact", k=5)
        first = report_signature(session.solve(**options))
        second_report = session.solve(**options)
        stats = session.last_solve_stats
        assert report_signature(second_report) == first
        assert stats.components_solved == 0
        assert stats.components_reused == stats.components_total

    def test_config_change_does_not_reuse_stale_results(self):
        graph = multi_component_graph()
        session = IncrementalSession(graph, 3, copy_graph=True)
        session.solve(solver="exact", k=1)
        session.solve(solver="exact", k=5)  # different k: fresh solve
        assert session.last_solve_stats.components_reused == 0
        assert report_signature(session.solve(solver="exact", k=5)) == cold_signature(
            session.graph, solver="exact", k=5
        )


class TestDeltaStatsAndGuards:
    def test_delta_stats_counts(self):
        graph = multi_component_graph()
        session = IncrementalSession(graph, 3, copy_graph=True)
        stats = session.apply_delta(
            GraphDelta(add_vertices=(900,), remove_vertices=(0,))
        )
        assert stats.epoch == 1 == session.epoch
        assert stats.vertices_added == 1 and stats.vertices_removed == 1
        assert stats.touched_vertices == 2
        assert stats.components_invalidated == 1  # only the K6
        assert stats.components_reused >= 4
        assert stats.instances_dropped > 0
        assert session.last_delta_stats == stats

    def test_out_of_band_mutation_detected(self):
        graph = complete_graph(4)
        session = IncrementalSession(graph, 3)  # shares the object
        graph.add_edge(0, 99)
        with pytest.raises(EngineError, match="outside apply_delta"):
            session.solve(solver="ippv", k=1)
        with pytest.raises(EngineError, match="outside apply_delta"):
            session.apply_delta(GraphDelta(add_vertices=(7,)))

    def test_already_applied_requires_moved_epoch(self):
        graph = complete_graph(4)
        session = IncrementalSession(graph, 3)
        with pytest.raises(EngineError, match="epoch"):
            session.apply_delta(
                GraphDelta(add_vertices=(9,)), already_applied=True
            )

    def test_copy_graph_decouples(self):
        graph = complete_graph(4)
        session = IncrementalSession(graph, 3, copy_graph=True)
        graph.add_edge(0, 99)  # mutating the original is fine
        report = session.solve(solver="ippv", k=1)
        assert report.preprocessing.num_vertices == 4

    def test_session_pins_graph_and_pattern(self):
        session = IncrementalSession(complete_graph(4), 3)
        with pytest.raises(EngineError, match="pins"):
            session.solve(graph=complete_graph(3))
        with pytest.raises(EngineError, match="pins"):
            session.solve(pattern=4)

    def test_empty_graph_rejected(self):
        with pytest.raises(EngineError, match="empty graph"):
            IncrementalSession(Graph(), 3)

    def test_invalid_delta_leaves_session_consistent(self):
        session = IncrementalSession(complete_graph(4), 3, copy_graph=True)
        with pytest.raises(Exception):
            session.apply_delta(GraphDelta(remove_vertices=(42,)))
        assert session.epoch == 0
        options = dict(solver="exact", k=1)
        assert report_signature(session.solve(**options)) == cold_signature(
            session.graph, **options
        )


class TestPruneStatsParity:
    def test_prune_stats_pass_is_replicated(self):
        graph = multi_component_graph()
        session = IncrementalSession(graph, 3, copy_graph=True)
        session.apply_delta(GraphDelta(remove_vertices=(0,)))
        options = dict(solver="ippv", k=2, prune_stats=True)
        warm = session.solve(**options)
        assert report_signature(warm) == cold_signature(session.graph, **options)
        assert warm.preprocessing.num_prunable_vertices >= 0


class TestSessionLock:
    """Each session carries its own reentrant lock; concurrent apply/solve
    calls serialize per session and stay bit-identical to the cold solve
    of whatever graph content they observe."""

    def test_concurrent_solves_match_cold_signature(self):
        import threading

        graph = multi_component_graph()
        session = IncrementalSession(graph, 3, copy_graph=True)
        expected = cold_signature(graph, k=1)
        results, errors = [], []

        def worker():
            try:
                for _ in range(5):
                    results.append(report_signature(session.solve(k=1)))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert results and set(results) == {expected}

    def test_interleaved_deltas_and_solves_stay_consistent(self):
        import threading

        graph = complete_graph(6)
        session = IncrementalSession(graph, 3, copy_graph=True)
        session.solve(k=1)
        # The two graph states the toggling delta flips between.
        without = graph.copy()
        without.apply_delta(GraphDelta(remove_edges=((0, 1),)))
        allowed = {cold_signature(graph, k=1), cold_signature(without, k=1)}
        errors = []
        stop = threading.Event()

        def toggler():
            try:
                removed = False
                while not stop.is_set():
                    if removed:
                        session.apply_delta(GraphDelta(add_edges=((0, 1),)))
                    else:
                        session.apply_delta(GraphDelta(remove_edges=((0, 1),)))
                    removed = not removed
                if removed:
                    session.apply_delta(GraphDelta(add_edges=((0, 1),)))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        def solver():
            try:
                for _ in range(10):
                    signature = report_signature(session.solve(k=1))
                    assert signature in allowed
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        toggle = threading.Thread(target=toggler)
        solvers = [threading.Thread(target=solver) for _ in range(3)]
        toggle.start()
        for thread in solvers:
            thread.start()
        for thread in solvers:
            thread.join()
        stop.set()
        toggle.join(timeout=10)
        assert errors == []
        # After the toggler restored the edge, the session is back on the
        # complete graph and still bit-identical to the cold solve.
        assert report_signature(session.solve(k=1)) == cold_signature(graph, k=1)
