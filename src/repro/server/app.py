"""HTTP front end for the resident solve service (versioned ``/v1`` API).

A thin :mod:`http.server` layer over :class:`~repro.server.service.SolveService`:

====== ============================== =======================================
Method Path                           Meaning
====== ============================== =======================================
GET    ``/v1/health``                 liveness probe
GET    ``/v1/spec``                   machine-readable API description
GET    ``/v1/solvers``                registered solvers (name, metadata)
GET    ``/v1/kernels``                registered kernel backends
GET    ``/v1/datasets``               dataset abbreviations
GET    ``/v1/graphs``                 registered graphs
GET    ``/v1/stats``                  service counters + cache summary
POST   ``/v1/graphs``                 register a graph
POST   ``/v1/solve``                  run a solve (full request surface)
POST   ``/v1/graphs/{name}/deltas``   apply a :class:`GraphDelta` to a graph
POST   ``/v1/graphs/{name}/solve``    solve via the warm incremental session
====== ============================== =======================================

Every ``/v1`` response is JSON in a uniform envelope: ``{"ok": true,
"data": ...}`` on success, ``{"ok": false, "error": {"code", "message",
"detail"}}`` on failure (4xx for client errors, 500 for internal failures
— which never take the server down).  The accepted body keys for each
POST route are served by ``GET /v1/spec`` and enumerated in the error
detail when an unknown key is rejected.

The unversioned routes of earlier releases (``/health``, ``/solve``, ...)
remain as deprecated aliases: same bare (envelope-free) payloads as
before, plus a ``Deprecation: true`` header and a ``Link`` header naming
the ``/v1`` successor.  The delta/session endpoints exist only under
``/v1``.

The server is a ``ThreadingHTTPServer``: introspection endpoints answer
concurrently while the service serializes solves and delta applications
(see :class:`~repro.server.service.SolveService`).
"""

from __future__ import annotations

import argparse
import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import unquote

from .service import (
    DELTA_KEYS,
    REGISTER_KEYS,
    SESSION_SOLVE_KEYS,
    SOLVE_KEYS,
    ServiceError,
    SolveService,
)

#: Default bind address (loopback: the service has no authentication).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

#: Largest accepted request body (a graph upload), in bytes.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: API version segment for the current route namespace.
API_VERSION = "v1"

#: Introspection routes shared by ``/v1/<name>`` and the deprecated
#: ``/<name>`` aliases: name -> (service) -> payload.
_GET_ROUTES: Dict[str, Callable[[SolveService], Any]] = {
    "health": lambda service: {"status": "ok"},
    "solvers": lambda service: service.solvers(),
    "kernels": lambda service: service.kernels(),
    "datasets": lambda service: service.datasets(),
    "graphs": lambda service: service.graphs(),
    "stats": lambda service: service.stats(),
}


def api_spec() -> Dict[str, Any]:
    """The machine-readable API description served by ``GET /v1/spec``.

    Lists every route with its method, path template, and (for POST
    routes) the exact set of accepted body keys — the same sets the
    shared validator enforces, so the spec can never drift from the
    implementation.
    """
    routes: List[Dict[str, Any]] = [
        {"method": "GET", "path": f"/{API_VERSION}/{name}"}
        for name in sorted(_GET_ROUTES)
    ]
    routes.append({"method": "GET", "path": f"/{API_VERSION}/spec"})
    routes.extend(
        [
            {
                "method": "POST",
                "path": f"/{API_VERSION}/graphs",
                "keys": sorted(REGISTER_KEYS),
            },
            {
                "method": "POST",
                "path": f"/{API_VERSION}/solve",
                "keys": sorted(SOLVE_KEYS),
            },
            {
                "method": "POST",
                "path": f"/{API_VERSION}/graphs/{{name}}/deltas",
                "keys": sorted(DELTA_KEYS),
            },
            {
                "method": "POST",
                "path": f"/{API_VERSION}/graphs/{{name}}/solve",
                "keys": sorted(SESSION_SOLVE_KEYS),
            },
        ]
    )
    routes.sort(key=lambda r: (r["path"], r["method"]))
    deprecated = sorted(
        [f"/{name}" for name in _GET_ROUTES] + ["/graphs", "/solve"]
    )
    return {
        "api_version": API_VERSION,
        "envelope": {
            "success": {"ok": True, "data": "..."},
            "error": {
                "ok": False,
                "error": {"code": "...", "message": "...", "detail": "..."},
            },
        },
        "routes": routes,
        "deprecated_aliases": [
            {"path": path, "successor": f"/{API_VERSION}{path}"}
            for path in deprecated
        ],
    }


class SolveRequestHandler(BaseHTTPRequestHandler):
    """Route HTTP requests into the owning server's :class:`SolveService`."""

    server_version = "repro-lhcds/2"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> SolveService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Route access logs to stderr only when the server asks for them."""
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _send_json(
        self,
        status: int,
        payload: Any,
        *,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, indent=2, default=str).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ServiceError("request body must be a JSON object")
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body exceeds {MAX_BODY_BYTES} bytes",
                413,
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceError(
                f"request body is not valid JSON: {exc}", code="invalid_body"
            ) from exc

    def _dispatch_v1(self, handler: Callable[[], Tuple[int, Any]]) -> None:
        """Run a handler and wrap the outcome in the v1 envelope."""
        try:
            status, payload = handler()
        except ServiceError as exc:
            self._send_v1_error(exc.status, exc.code, str(exc), exc.detail)
        except Exception as exc:  # pragma: no cover - defensive 500
            self._send_v1_error(500, "internal_error", f"internal error: {exc}", None)
        else:
            self._send_json(status, {"ok": True, "data": payload})

    def _send_v1_error(
        self, status: int, code: str, message: str, detail: Any
    ) -> None:
        self._send_json(
            status,
            {
                "ok": False,
                "error": {"code": code, "message": message, "detail": detail},
            },
        )

    def _dispatch_legacy(
        self, successor: str, handler: Callable[[], Tuple[int, Any]]
    ) -> None:
        """Run a handler with the pre-v1 bare payloads and deprecation headers."""
        headers = {
            "Deprecation": "true",
            "Link": f"<{successor}>; rel=\"successor-version\"",
        }
        try:
            status, payload = handler()
        except ServiceError as exc:
            self._send_json(exc.status, {"error": str(exc)}, headers=headers)
        except Exception as exc:  # pragma: no cover - defensive 500
            self._send_json(500, {"error": f"internal error: {exc}"}, headers=headers)
        else:
            self._send_json(status, payload, headers=headers)

    @staticmethod
    def _segments(path: str) -> List[str]:
        """Decoded, non-empty path segments (query strings are not used)."""
        return [unquote(part) for part in path.split("/") if part]

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        segments = self._segments(self.path)
        if not segments:
            segments = [API_VERSION, "health"]
        if segments[0] == API_VERSION:
            if len(segments) == 2 and segments[1] == "spec":
                self._dispatch_v1(lambda: (200, api_spec()))
                return
            route = _GET_ROUTES.get(segments[1]) if len(segments) == 2 else None
            if route is None:
                self._send_v1_error(
                    404, "not_found", f"unknown path {self.path!r}", None
                )
                return
            self._dispatch_v1(lambda: (200, route(self.service)))
            return
        route = _GET_ROUTES.get(segments[0]) if len(segments) == 1 else None
        if route is None:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        self._dispatch_legacy(
            f"/{API_VERSION}/{segments[0]}",
            lambda: (200, route(self.service)),
        )

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        segments = self._segments(self.path)
        if segments and segments[0] == API_VERSION:
            self._post_v1(segments[1:])
            return
        if segments == ["solve"]:
            self._dispatch_legacy(
                f"/{API_VERSION}/solve",
                lambda: (200, self.service.solve(self._read_json_body())),
            )
        elif segments == ["graphs"]:
            self._dispatch_legacy(
                f"/{API_VERSION}/graphs",
                lambda: (
                    201,
                    self.service.register_from_payload(self._read_json_body()),
                ),
            )
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def _post_v1(self, segments: List[str]) -> None:
        service = self.service
        if segments == ["solve"]:
            self._dispatch_v1(lambda: (200, service.solve(self._read_json_body())))
        elif segments == ["graphs"]:
            self._dispatch_v1(
                lambda: (201, service.register_from_payload(self._read_json_body()))
            )
        elif len(segments) == 3 and segments[0] == "graphs" and segments[2] == "deltas":
            name = segments[1]
            self._dispatch_v1(
                lambda: (200, service.apply_delta(name, self._read_json_body()))
            )
        elif len(segments) == 3 and segments[0] == "graphs" and segments[2] == "solve":
            name = segments[1]
            self._dispatch_v1(
                lambda: (200, service.solve_incremental(name, self._read_json_body()))
            )
        else:
            self._send_v1_error(404, "not_found", f"unknown path {self.path!r}", None)


def create_server(
    host: str = DEFAULT_HOST,
    port: int = 0,
    *,
    service: Optional[SolveService] = None,
    cache_dir: Optional[str] = None,
    verbose: bool = False,
) -> Tuple[ThreadingHTTPServer, SolveService]:
    """Build a bound (not yet serving) server plus its service.

    ``port=0`` binds an ephemeral port (tests, the CI smoke legs); the bound
    address is ``server.server_address``.  The caller owns both lifetimes:
    ``server.shutdown()`` / ``server.server_close()`` and
    ``service.close()``.
    """
    if service is None:
        service = SolveService(cache_dir=cache_dir)
    server = ThreadingHTTPServer((host, port), SolveRequestHandler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    return server, service


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="persistent LhCDS solve service with a warm preprocess cache",
    )
    parser.add_argument("--host", default=DEFAULT_HOST, help="bind address")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="preprocess-cache directory (default: $REPRO_CACHE, then a "
        "private temporary directory)",
    )
    parser.add_argument(
        "--register",
        action="append",
        default=[],
        metavar="NAME=DATASET",
        help="register a dataset graph at startup (repeatable)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log each request to stderr"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Serve until interrupted (returns a process exit code)."""
    args = _build_parser().parse_args(argv)
    registrations = []
    for item in args.register:
        name, separator, dataset = item.partition("=")
        if not separator or not name or not dataset:
            print(f"error: --register needs NAME=DATASET, got {item!r}", file=sys.stderr)
            return 2
        registrations.append((name, dataset))
    server, service = create_server(
        args.host, args.port, cache_dir=args.cache_dir, verbose=args.verbose
    )
    try:
        for name, dataset in registrations:
            record = service.register_graph(name, dataset=dataset)
            print(
                f"registered {name!r} <- {dataset} "
                f"({record['vertices']} vertices, {record['edges']} edges)",
                file=sys.stderr,
            )
        host, port = server.server_address[:2]
        print(
            f"repro-lhcds server on http://{host}:{port} "
            f"(cache: {service.cache_dir})",
            file=sys.stderr,
            flush=True,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        server.server_close()
        service.close()
    return 0
