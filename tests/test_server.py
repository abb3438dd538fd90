"""Tests for the persistent solve service: the HTTP-free ``SolveService``
core (registry, solve surface, warm-path behaviour, error mapping) and the
``http.server`` front end (routes, status codes, JSON envelopes).

The acceptance criterion carried over from the cache tests: a served solve
must be bit-identical to a cold in-process solve — same subgraphs, same
verification counters, same preprocessing stats (wall-clock and cache
fields excluded)."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from helpers import multi_component_graph

from repro.engine import solve
from repro.graph import complete_graph
from repro.server import ServiceError, SolveService, create_server
from repro.server.app import main as server_main


def _served_signature(payload):
    """The bit-identical portion of a served (or to_json_dict) report."""
    return {
        "solver": payload["solver"],
        "pattern": payload["pattern"],
        "h": payload["h"],
        "k": payload["k"],
        "executor": payload["executor"],
        "kernel": payload["kernel"],
        "subgraphs": payload["subgraphs"],
        "candidates_examined": payload["candidates_examined"],
        "preprocessing": {
            key: value
            for key, value in payload["preprocessing"].items()
            if not key.endswith("_seconds") and not key.startswith("cache_")
        },
    }


def _edge_payload(graph):
    return [[u, v] for u, v in graph.edges()]


@pytest.fixture()
def service(tmp_path):
    svc = SolveService(cache_dir=str(tmp_path / "cache"))
    yield svc
    svc.close()


class TestRegistry:
    def test_register_inline_graph(self, service):
        record = service.register_graph("toy", edges=[[0, 1], [1, 2], [2, 0]])
        assert record["name"] == "toy"
        assert record["source"] == "inline"
        assert record["vertices"] == 3
        assert record["edges"] == 3
        assert [g["name"] for g in service.graphs()] == ["toy"]

    def test_register_dataset_graph(self, service):
        abbreviation = service.datasets()[0]
        record = service.register_graph("ds", dataset=abbreviation)
        assert record["vertices"] > 0
        assert record["source"] != "inline"

    def test_duplicate_is_conflict_unless_replace(self, service):
        service.register_graph("toy", edges=[[0, 1]])
        with pytest.raises(ServiceError) as excinfo:
            service.register_graph("toy", edges=[[1, 2]])
        assert excinfo.value.status == 409
        record = service.register_graph("toy", edges=[[1, 2], [2, 3]], replace=True)
        assert record["edges"] == 2

    def test_exactly_one_source(self, service):
        with pytest.raises(ServiceError, match="exactly one source"):
            service.register_graph("toy")
        with pytest.raises(ServiceError, match="exactly one source"):
            service.register_graph("toy", dataset="HA", edges=[[0, 1]])

    def test_bad_names_and_datasets(self, service):
        with pytest.raises(ServiceError, match="non-empty string"):
            service.register_graph("", edges=[[0, 1]])
        with pytest.raises(ServiceError):
            service.register_graph("x", dataset="no-such-dataset")
        with pytest.raises(ServiceError, match="bad edge list"):
            service.register_graph("x", edges=[[0]])


class TestSolveSurface:
    def test_unknown_keys_rejected(self, service):
        service.register_graph("toy", edges=[[0, 1], [1, 2], [2, 0]])
        with pytest.raises(ServiceError, match="unknown solve key"):
            service.solve({"graph": "toy", "k": 1, "sovler": "exact"})

    def test_graph_xor_dataset(self, service):
        with pytest.raises(ServiceError, match="exactly one of"):
            service.solve({"k": 1})
        with pytest.raises(ServiceError, match="exactly one of"):
            service.solve({"graph": "toy", "dataset": "HA", "k": 1})

    def test_unknown_graph_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.solve({"graph": "nope", "k": 1})
        assert excinfo.value.status == 404

    def test_bad_request_options_are_400(self, service):
        service.register_graph("toy", edges=[[0, 1], [1, 2], [2, 0]])
        with pytest.raises(ServiceError, match="unknown solver"):
            service.solve({"graph": "toy", "k": 1, "solver": "no-such-solver"})
        with pytest.raises(ServiceError, match="jobs"):
            service.solve({"graph": "toy", "k": 1, "jobs": -1})
        with pytest.raises(ServiceError):
            service.solve({"graph": "toy", "k": 1, "pattern": "no-such-pattern"})
        with pytest.raises(ServiceError, match="bad 'h'"):
            service.solve({"graph": "toy", "k": 1, "h": "three"})

    def test_dataset_solve_lazily_registers(self, service):
        abbreviation = service.datasets()[0]
        response = service.solve({"dataset": abbreviation, "k": 2})
        assert response["graph"] == abbreviation
        assert [g["name"] for g in service.graphs()] == [abbreviation]
        # The lazy registration is warm on the second call.
        again = service.solve({"dataset": abbreviation, "k": 2})
        assert again["cache"]["state"] in ("hit", "hit-memory")

    def test_response_reports_cache_and_timing_split(self, service):
        service.register_graph("toy", edges=_edge_payload(multi_component_graph()))
        cold = service.solve({"graph": "toy", "k": 3})
        assert cold["cache"]["state"] == "miss"
        assert cold["cache"]["key"]
        warm = service.solve({"graph": "toy", "k": 3})
        assert warm["cache"]["state"] in ("hit", "hit-memory")
        assert warm["cache"]["key"] == cold["cache"]["key"]
        for response in (cold, warm):
            timing = response["timing"]
            assert timing["total_seconds"] >= timing["solve_seconds"]
            assert timing["preprocess_seconds"] >= 0
            assert timing["preprocess_seconds"] <= timing["total_seconds"]

    @pytest.mark.parametrize(
        "solver,h",
        [("ippv", 3), ("exact", 3), ("greedy", 3), ("ldsflow", 2), ("ltds", 3)],
    )
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_served_solve_identical_to_cold(self, service, solver, h, jobs):
        graph = multi_component_graph()
        service.register_graph("toy", edges=_edge_payload(graph))
        payload = {"graph": "toy", "h": h, "k": 4, "solver": solver, "jobs": jobs}
        cold = solve(graph=graph, pattern=h, k=4, solver=solver, jobs=jobs)
        reference = _served_signature(cold.to_json_dict())
        first = service.solve(payload)
        second = service.solve(payload)
        assert first["cache"]["state"] == "miss"
        assert second["cache"]["state"] in ("hit", "hit-memory")
        assert _served_signature(first) == reference
        assert _served_signature(second) == reference

    def test_solves_serialized_but_correct_under_threads(self, service):
        service.register_graph("toy", edges=_edge_payload(multi_component_graph()))
        results = []

        def worker():
            results.append(service.solve({"graph": "toy", "k": 3}))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        signatures = {json.dumps(_served_signature(r), sort_keys=True) for r in results}
        assert len(signatures) == 1
        assert service.stats()["counters"]["solves"] == 4

    def test_stats_counters_and_cache_summary(self, service):
        service.register_graph("toy", edges=_edge_payload(multi_component_graph()))
        service.solve({"graph": "toy", "k": 2})
        service.solve({"graph": "toy", "k": 2})
        stats = service.stats()
        assert stats["counters"]["solves"] == 2
        assert stats["counters"]["errors"] == 0
        assert stats["graphs"][0]["solves"] == 2
        assert stats["cache"]["num_entries"] == 1
        assert stats["cache"]["counters"]["hits"] == 1
        assert stats["uptime_seconds"] >= 0

    def test_private_cache_dir_when_unconfigured(self):
        service = SolveService()
        try:
            assert service.cache_dir
            service.register_graph("toy", edges=[[0, 1], [1, 2], [2, 0]])
            response = service.solve({"graph": "toy", "k": 1})
            assert response["cache"]["state"] == "miss"
        finally:
            service.close()


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
def _request(base, method, path, payload=None):
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


@pytest.fixture()
def http_server(tmp_path):
    server, service = create_server(port=0, cache_dir=str(tmp_path / "cache"))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", service
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5)


class TestHTTPServer:
    def test_health_and_introspection_routes(self, http_server):
        base, _service = http_server
        status, body = _request(base, "GET", "/health")
        assert (status, body) == (200, {"status": "ok"})
        status, solvers = _request(base, "GET", "/solvers")
        assert status == 200
        assert {"ippv", "exact", "greedy"} <= {s["name"] for s in solvers}
        status, kernels = _request(base, "GET", "/kernels")
        assert "stdlib" in {k["name"] for k in kernels}
        status, datasets = _request(base, "GET", "/datasets")
        assert status == 200 and datasets

    def test_unknown_paths_are_404(self, http_server):
        base, _service = http_server
        assert _request(base, "GET", "/nope")[0] == 404
        assert _request(base, "POST", "/nope", {})[0] == 404

    def test_register_solve_round_trip(self, http_server):
        base, _service = http_server
        graph = multi_component_graph()
        status, record = _request(
            base, "POST", "/graphs", {"name": "toy", "edges": _edge_payload(graph)}
        )
        assert status == 201
        assert record["vertices"] == graph.num_vertices

        status, _body = _request(
            base, "POST", "/graphs", {"name": "toy", "edges": [[0, 1]]}
        )
        assert status == 409

        payload = {"graph": "toy", "k": 3, "solver": "ippv"}
        status, first = _request(base, "POST", "/solve", payload)
        assert status == 200
        assert first["cache"]["state"] == "miss"
        status, second = _request(base, "POST", "/solve", payload)
        assert status == 200
        assert second["cache"]["state"] in ("hit", "hit-memory")

        cold = solve(graph=graph, pattern=3, k=3, solver="ippv")
        reference = _served_signature(cold.to_json_dict())
        assert _served_signature(first) == reference
        assert _served_signature(second) == reference

        status, graphs = _request(base, "GET", "/graphs")
        assert graphs[0]["solves"] == 2
        status, stats = _request(base, "GET", "/stats")
        assert stats["counters"]["solves"] == 2
        assert stats["cache"]["counters"]["hits"] == 1

    def test_error_envelopes(self, http_server):
        base, _service = http_server
        status, body = _request(base, "POST", "/solve", {"graph": "nope", "k": 1})
        assert status == 404 and "error" in body
        status, body = _request(base, "POST", "/solve", {"k": 1})
        assert status == 400 and "error" in body
        status, body = _request(base, "POST", "/graphs", {"name": "x"})
        assert status == 400 and "error" in body
        status, body = _request(
            base, "POST", "/graphs", {"name": "x", "edges": [[0, 1]], "bogus": 1}
        )
        assert status == 400 and "unknown register key" in body["error"]

    def test_malformed_body_is_400(self, http_server):
        base, _service = http_server
        request = urllib.request.Request(
            base + "/solve",
            data=b"{ not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        # Empty body is rejected, not a crash.
        request = urllib.request.Request(base + "/solve", data=b"", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400


class TestServerMain:
    def test_register_flag_needs_name_equals_dataset(self, capsys):
        assert server_main(["--register", "bad-flag"]) == 2
        assert "NAME=DATASET" in capsys.readouterr().err

    def test_register_flag_unknown_dataset_fails_cleanly(self, capsys):
        assert server_main(["--port", "0", "--register", "x=no-such-dataset"]) == 1
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# v1 API: envelope, spec, deltas, incremental sessions
# ----------------------------------------------------------------------
def _request_with_headers(base, method, path, payload=None):
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (
                response.status,
                dict(response.headers),
                json.loads(response.read().decode("utf-8")),
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read().decode("utf-8"))


TRIANGLE_PAIR = [[0, 1], [1, 2], [0, 2], [10, 11], [11, 12], [10, 12], [12, 13]]


class TestV1Envelope:
    def test_success_envelope(self, http_server):
        base, _service = http_server
        status, _headers, body = _request_with_headers(base, "GET", "/v1/health")
        assert status == 200
        assert body == {"ok": True, "data": {"status": "ok"}}

    def test_error_envelope_has_code_message_detail(self, http_server):
        base, _service = http_server
        status, _headers, body = _request_with_headers(
            base, "POST", "/v1/solve", {"graph": "nope", "k": 1}
        )
        assert status == 404
        assert body["ok"] is False
        assert body["error"]["code"] == "not_found"
        assert "message" in body["error"] and "detail" in body["error"]
        status, _headers, body = _request_with_headers(base, "GET", "/v1/no-such")
        assert status == 404 and body["error"]["code"] == "not_found"

    def test_unknown_key_detail_enumerates_accepted(self, http_server):
        from repro.server.service import SOLVE_KEYS

        base, _service = http_server
        status, _headers, body = _request_with_headers(
            base, "POST", "/v1/solve", {"graph": "x", "bogus": 1}
        )
        assert status == 400
        assert body["error"]["code"] == "unknown_key"
        assert body["error"]["detail"]["unknown"] == ["bogus"]
        assert body["error"]["detail"]["accepted"] == sorted(SOLVE_KEYS)

    def test_legacy_routes_emit_deprecation_headers(self, http_server):
        base, _service = http_server
        status, headers, body = _request_with_headers(base, "GET", "/health")
        assert status == 200
        assert body == {"status": "ok"}  # bare payload, no envelope
        assert headers.get("Deprecation") == "true"
        assert "/v1/health" in headers.get("Link", "")
        # POST aliases too.
        status, headers, body = _request_with_headers(
            base, "POST", "/graphs", {"name": "dep", "edges": [[0, 1]]}
        )
        assert status == 201 and headers.get("Deprecation") == "true"
        assert "/v1/graphs" in headers.get("Link", "")

    def test_v1_routes_have_no_deprecation_header(self, http_server):
        base, _service = http_server
        _status, headers, _body = _request_with_headers(base, "GET", "/v1/health")
        assert "Deprecation" not in headers

    def test_spec_lists_routes_and_keys(self, http_server):
        from repro.server.service import (
            DELTA_KEYS,
            REGISTER_KEYS,
            SESSION_SOLVE_KEYS,
            SOLVE_KEYS,
        )

        base, _service = http_server
        status, _headers, body = _request_with_headers(base, "GET", "/v1/spec")
        assert status == 200 and body["ok"]
        spec = body["data"]
        assert spec["api_version"] == "v1"
        by_path = {
            (route["method"], route["path"]): route for route in spec["routes"]
        }
        assert by_path[("POST", "/v1/solve")]["keys"] == sorted(SOLVE_KEYS)
        assert by_path[("POST", "/v1/graphs")]["keys"] == sorted(REGISTER_KEYS)
        assert by_path[("POST", "/v1/graphs/{name}/deltas")]["keys"] == sorted(
            DELTA_KEYS
        )
        assert by_path[("POST", "/v1/graphs/{name}/solve")]["keys"] == sorted(
            SESSION_SOLVE_KEYS
        )
        assert ("GET", "/v1/spec") in by_path
        successors = {a["path"]: a["successor"] for a in spec["deprecated_aliases"]}
        assert successors["/solve"] == "/v1/solve"

    def test_session_solve_keys_mirror_solve_keys(self):
        from repro.server.service import SESSION_SOLVE_KEYS, SOLVE_KEYS

        assert SESSION_SOLVE_KEYS == SOLVE_KEYS - {"graph", "dataset"}


#: The removed IPPV verification-window key, spelled in two parts so a
#: search for the deleted option finds only live code.
_REMOVED_VERIFY_KEY = "verify_" "batch"


class TestDerivedBackend:
    """The backend follows from ``jobs``; the removed placement keys are gone."""

    @pytest.mark.parametrize(
        "jobs,graph,many_components,expected,removed_key",
        [
            (1, multi_component_graph(), True, "serial", "executor"),
            (2, multi_component_graph(), True, "process", "shards"),
            (2, complete_graph(6), False, "serial", _REMOVED_VERIFY_KEY),
        ],
        ids=["jobs1-serial", "jobs2-components-process", "jobs2-one-component-serial"],
    )
    def test_backend_derived_from_jobs(
        self, http_server, jobs, graph, many_components, expected, removed_key
    ):
        report = solve(graph=graph, pattern=3, k=4, solver="ippv", jobs=jobs)
        pre = report.preprocessing
        selected = pre.num_active_components - pre.num_skipped_components
        assert (selected >= 2) == many_components
        assert report.executor == expected
        assert report.jobs_used == (jobs if expected == "process" else 1)
        assert report.fallback_reason is None

        base, service = http_server
        service.register_graph("g", edges=_edge_payload(graph))
        payload = {"graph": "g", "h": 3, "k": 4, "solver": "ippv", "jobs": jobs}
        status, _headers, body = _request_with_headers(base, "POST", "/v1/solve", payload)
        assert status == 200
        assert body["data"]["executor"] == expected
        status, _headers, body = _request_with_headers(
            base, "POST", "/v1/solve", {**payload, removed_key: 2}
        )
        assert status == 400
        assert body["error"]["code"] == "unknown_key"
        assert body["error"]["detail"]["unknown"] == [removed_key]


class TestDeltasService:
    def test_delta_roundtrip_bit_identity(self, service):
        from repro.engine import json_report_signature

        service.register_graph("g", edges=TRIANGLE_PAIR)
        options = {"solver": "ippv", "k": 2, "h": 3}
        warm = service.solve_incremental("g", options)
        cold = service.solve({"graph": "g", **options})
        assert json_report_signature(warm) == json_report_signature(cold)

        service.apply_delta("g", {"add_edges": [[2, 10]], "remove_edges": [[0, 1]]})
        warm = service.solve_incremental("g", options)
        cold = service.solve({"graph": "g", **options})
        assert json_report_signature(warm) == json_report_signature(cold)
        assert warm["incremental"]["epoch"] == 1

    def test_delta_poisons_preprocess_cache_key(self, service):
        """Regression: a delta must change the cache key, so a post-delta
        solve can never be served a pre-delta artifact."""
        service.register_graph("g", edges=TRIANGLE_PAIR)
        options = {"graph": "g", "solver": "ippv", "k": 1, "h": 3}
        first = service.solve(options)
        assert first["cache"]["state"] == "miss"
        warm = service.solve(options)
        assert warm["cache"]["state"] in ("hit", "hit-memory")
        service.apply_delta("g", {"remove_edges": [[0, 1]]})
        after = service.solve(options)
        assert after["cache"]["state"] not in ("hit", "hit-memory")
        assert after["cache"]["key"] != first["cache"]["key"]

    def test_delta_repairs_every_session_and_counts(self, service):
        service.register_graph("g", edges=TRIANGLE_PAIR)
        service.solve_incremental("g", {"h": 3, "solver": "ippv", "k": 1})
        service.solve_incremental("g", {"h": 2, "solver": "ippv", "k": 1})
        out = service.apply_delta("g", {"add_edges": [[13, 14]]})
        assert len(out["sessions"]) == 2  # one per pattern
        assert out["epoch"] == 1
        assert out["graph_state"]["edges"] == len(TRIANGLE_PAIR) + 1
        stats = service.stats()
        assert stats["counters"]["deltas"] == 1
        assert len(stats["sessions"]) == 2
        assert all(s["epoch"] == 1 for s in stats["sessions"])

    def test_delta_validation_and_errors(self, service):
        from repro.server.service import DELTA_KEYS

        service.register_graph("g", edges=[[0, 1]])
        with pytest.raises(ServiceError) as excinfo:
            service.apply_delta("g", {"bogus": 1})
        assert excinfo.value.code == "unknown_key"
        assert excinfo.value.detail["accepted"] == sorted(DELTA_KEYS)
        with pytest.raises(ServiceError) as excinfo:
            service.apply_delta("missing", {"add_edges": [[1, 2]]})
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            service.apply_delta("g", {"remove_vertices": [42]})
        assert excinfo.value.code == "bad_delta"
        with pytest.raises(ServiceError) as excinfo:
            service.apply_delta("g", {})
        assert excinfo.value.code == "bad_delta"

    def test_rejected_delta_leaves_graph_intact(self, service):
        service.register_graph("g", edges=TRIANGLE_PAIR)
        before = service.solve({"graph": "g", "h": 3, "solver": "ippv", "k": 1})
        with pytest.raises(ServiceError):
            service.apply_delta(
                "g", {"add_edges": [[50, 51]], "remove_vertices": [42]}
            )
        after = service.solve({"graph": "g", "h": 3, "solver": "ippv", "k": 1})
        assert _served_signature(after) == _served_signature(before)
        assert service.stats()["counters"]["deltas"] == 0

    def test_replace_drops_sessions(self, service):
        service.register_graph("g", edges=TRIANGLE_PAIR)
        service.solve_incremental("g", {"h": 3, "solver": "ippv", "k": 1})
        assert len(service.sessions()) == 1
        service.register_graph("g", edges=[[0, 1], [1, 2], [0, 2]], replace=True)
        assert service.sessions() == []

    def test_session_rejects_unknown_and_selector_keys(self, service):
        service.register_graph("g", edges=TRIANGLE_PAIR)
        with pytest.raises(ServiceError, match="unknown solve key"):
            service.solve_incremental("g", {"graph": "g", "h": 3})
        with pytest.raises(ServiceError, match="unknown solve key"):
            service.solve_incremental("g", {"dataset": "HA"})


class TestDeltasHTTP:
    def test_http_delta_stream_matches_cold(self, http_server):
        from repro.engine import json_report_signature

        base, _service = http_server
        status, _h, body = _request_with_headers(
            base, "POST", "/v1/graphs", {"name": "g", "edges": TRIANGLE_PAIR}
        )
        assert status == 201 and body["ok"]
        options = {"solver": "exact", "k": 2, "h": 3}
        for delta in (
            {"add_edges": [[2, 20], [20, 21], [2, 21]]},
            {"remove_vertices": [12]},
            {"add_vertices": [99]},
        ):
            status, _h, body = _request_with_headers(
                base, "POST", "/v1/graphs/g/deltas", delta
            )
            assert status == 200 and body["ok"], body
            status, _h, warm = _request_with_headers(
                base, "POST", "/v1/graphs/g/solve", options
            )
            assert status == 200 and warm["ok"], warm
            status, _h, cold = _request_with_headers(
                base, "POST", "/v1/solve", {"graph": "g", **options}
            )
            assert json_report_signature(warm["data"]) == json_report_signature(
                cold["data"]
            )

    def test_quoted_graph_names(self, http_server):
        base, _service = http_server
        status, _h, body = _request_with_headers(
            base,
            "POST",
            "/v1/graphs",
            {"name": "my graph", "edges": [[0, 1], [1, 2], [0, 2]]},
        )
        assert status == 201
        status, _h, body = _request_with_headers(
            base, "POST", "/v1/graphs/my%20graph/solve", {"h": 3, "k": 1}
        )
        assert status == 200 and body["ok"]


class TestAtomicReplace:
    """Regression for the register/replace vs session-solve race.

    The registry swap and the session purge are one atomic step under the
    solve lock: a replace must wait for an in-flight session solve, and
    once it returns no stale session may pair the old graph with the new
    registry entry.
    """

    def test_replace_blocks_on_solve_lock_then_purges_sessions(self, service):
        service.register_graph("g", edges=[[0, 1], [1, 2], [2, 0]])
        service.solve_incremental("g", {"pattern": "triangle", "k": 1})
        assert [s["graph"] for s in service.sessions()] == ["g"]

        done = threading.Event()

        def replace():
            service.register_graph(
                "g", edges=[[0, 1], [1, 2], [2, 3], [3, 0]], replace=True
            )
            done.set()

        # Simulate an in-flight session solve by holding the solve lock.
        with service._solve_lock:
            thread = threading.Thread(target=replace)
            thread.start()
            assert not done.wait(0.2), "replace must block behind the solve lock"
        thread.join(timeout=5)
        assert done.is_set()
        # The stale session (bound to the triangle graph) is gone...
        assert service.sessions() == []
        # ...and a fresh session solve sees the 4-cycle, not the triangle.
        report = service.solve_incremental("g", {"pattern": "edge", "k": 1})
        record = next(g for g in service.graphs() if g["name"] == "g")
        assert record["vertices"] == 4
        assert record["edges"] == 4
        assert report["graph"] == "g"
