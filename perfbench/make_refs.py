"""Regenerate ``refs.json``: the exact top-k of every cold-workload pool graph.

The references come from the engine's ``exact`` solver (the diminishingly
dense decomposition), which takes tens of seconds per pool graph.  They are
computed once, here, so that a benchmark run can check every timed IPPV
solve against them without paying that cost in its run.  Each entry keeps
the graph's content key, and ``run.py`` refuses to use an entry whose graph
no longer matches it.

Run from the repository root (a minute or two on two cores; it uses
one worker process per core)::

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from inputs import COLD_QUERY, POOL_SIZE, cold_graph  # noqa: E402
from repro.engine import solve  # noqa: E402

REFS_PATH = os.path.join(HERE, "refs.json")


def topk_rows(report) -> list:
    """A report's top-k as JSON rows: exact density string plus sorted vertices."""
    return [
        {"density": str(s.density), "vertices": sorted(s.vertices)}
        for s in report.subgraphs
    ]


def reference(job: tuple) -> dict:
    workload, index = job
    h, k = COLD_QUERY[workload]
    graph = cold_graph(workload, index)
    report = solve(graph=graph, pattern=h, k=k, solver="exact", jobs=1)
    return {
        "workload": workload,
        "index": index,
        "content_key": graph.content_key(),
        "topk": topk_rows(report),
    }


def main() -> int:
    jobs = [(workload, index) for workload in COLD_QUERY for index in range(POOL_SIZE)]
    refs = {
        workload: {"h": h, "k": k, "graphs": [None] * POOL_SIZE}
        for workload, (h, k) in COLD_QUERY.items()
    }
    with multiprocessing.get_context("spawn").Pool(os.cpu_count()) as pool:
        for entry in pool.imap_unordered(reference, jobs):
            print(f"{entry['workload']} #{entry['index']}: {len(entry['topk'])} subgraphs",
                  file=sys.stderr, flush=True)
            refs[entry.pop("workload")]["graphs"][entry.pop("index")] = entry
    with open(REFS_PATH, "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
