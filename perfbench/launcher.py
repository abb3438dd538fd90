"""Traced server for ``serve-stream``: wrap the service and engine, then serve.

Installs the benchmark's span wrappers in this process, builds the server
with :func:`repro.server.app.create_server` on an ephemeral port, and on
SIGINT writes the recorded spans to ``--spans``.  Expects ``src`` on
``PYTHONPATH``, as ``run.py`` arranges.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Recorder, install  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spans", required=True, help="where to write the spans at exit")
    args = parser.parse_args()
    recorder = Recorder()
    install(recorder)
    from repro.server.app import create_server

    server, service = create_server(port=0, cache_dir=args.cache_dir)
    host, port = server.server_address[:2]
    print(f"traced repro-lhcds server on http://{host}:{port}", file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
        recorder.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
