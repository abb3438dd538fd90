"""Tests for the execution backends: bit-identity between the serial run and
the process pool, and the infrastructure-vs-solver failure split."""

from __future__ import annotations

import json
import pickle

import pytest

from helpers import multi_component_graph, signature

from repro.cli import main as cli_main
from repro.engine import SolverSpec, register_solver, solve, unregister_solver
from repro.engine.executors.base import EngineTask, run_task_enveloped
from repro.errors import EngineError


def _expected_backend(jobs):
    """The backend a multi-component solve derives from ``jobs``."""
    return "process" if jobs > 1 else "serial"


class TestBitIdentityAcrossBackends:
    """The acceptance criterion: every registered solver, both backends."""

    @pytest.mark.parametrize(
        "solver,h",
        [("ippv", 3), ("exact", 3), ("greedy", 3), ("ldsflow", 2), ("ltds", 3)],
    )
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_solver_identical_on_every_backend(self, solver, h, jobs):
        graph = multi_component_graph()
        reference = solve(graph=graph, pattern=h, k=4, solver=solver, jobs=1)
        report = solve(graph=graph, pattern=h, k=4, solver=solver, jobs=jobs)
        assert signature(report) == signature(reference)
        # The derived backend must actually have run — a fallback here
        # would make the matrix assertion vacuous.
        assert report.executor == _expected_backend(jobs)
        assert report.fallback_reason is None

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_k_none_identical_on_every_backend(self, jobs):
        graph = multi_component_graph()
        reference = solve(graph=graph, pattern=3, k=None, solver="exact", jobs=1)
        report = solve(graph=graph, pattern=3, k=None, solver="exact", jobs=jobs)
        assert signature(report) == signature(reference)
        assert report.executor == _expected_backend(jobs)


class TestFailureChannels:
    """Infrastructure failures fall back (surfaced); solver bugs raise."""

    def test_broken_pool_falls_back_to_identical_serial_output(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        import repro.engine.executors.process as process_module

        class ExplodingPool:
            def __init__(self, max_workers):
                raise BrokenProcessPool("simulated dead pool")

        monkeypatch.setattr(process_module, "ProcessPoolExecutor", ExplodingPool)
        graph = multi_component_graph()
        reference = solve(graph=graph, pattern=3, k=4, solver="exact", jobs=1)
        report = solve(graph=graph, pattern=3, k=4, solver="exact", jobs=2)
        assert signature(report) == signature(reference)
        assert report.executor == "serial"
        assert report.jobs_used == 1
        assert "BrokenProcessPool" in report.fallback_reason
        assert "simulated dead pool" in report.fallback_reason

    def test_pickling_failure_falls_back_to_identical_serial_output(self, monkeypatch):
        import repro.engine.executors.process as process_module

        class UnpicklablePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                raise pickle.PicklingError("simulated unpicklable payload")

        monkeypatch.setattr(process_module, "ProcessPoolExecutor", UnpicklablePool)
        graph = multi_component_graph()
        reference = solve(graph=graph, pattern=3, k=4, solver="ippv", jobs=1)
        report = solve(graph=graph, pattern=3, k=4, solver="ippv", jobs=2)
        assert signature(report) == signature(reference)
        assert report.executor == "serial"
        assert "PicklingError" in report.fallback_reason

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_solver_exception_raises_engine_error_not_silent_retry(self, jobs):
        def exploding_solver(component, request):
            raise ValueError("solver bug 0xdead")

        register_solver(
            SolverSpec(
                name="explosive",
                description="raises on every component (test only)",
                solve=exploding_solver,
                exact=False,
                requires_k=True,
            )
        )
        try:
            graph = multi_component_graph()
            with pytest.raises(EngineError, match="solver bug 0xdead"):
                solve(graph=graph, pattern=3, k=2, solver="explosive", jobs=jobs)
        finally:
            unregister_solver("explosive")

    def test_unregister_unknown_solver(self):
        with pytest.raises(EngineError, match="not registered"):
            unregister_solver("never-registered")

    def test_task_failure_envelope_round_trips(self):
        task = EngineTask(id="t0", kind="no-such-kind", solver="", payload=())
        status, failure = run_task_enveloped(task)
        assert status == "error"
        rebuilt = pickle.loads(pickle.dumps(failure))
        assert rebuilt.error_type == "EngineError"
        assert "no-such-kind" in rebuilt.message
        with pytest.raises(EngineError, match="no-such-kind"):
            rebuilt.raise_as_engine_error()


class TestReportSurface:
    def test_report_records_backend_and_no_fallback(self):
        graph = multi_component_graph()
        report = solve(graph=graph, pattern=3, k=2, solver="exact", jobs=2)
        assert report.executor == "process"
        assert report.fallback_reason is None
        payload = report.to_json_dict()
        assert payload["executor"] == "process"
        assert payload["fallback_reason"] is None
        assert "shards" not in payload

    def test_cli_jobs_flag_selects_process_pool(self, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_text(
            "".join(f"{u} {v}\n" for u, v in multi_component_graph().edges())
        )
        assert cli_main(
            ["topk", "--edge-list", str(path), "--k", "2", "--jobs", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["executor"] == "process"
