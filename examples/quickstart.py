"""Quickstart: find the top-k locally h-clique densest subgraphs of a graph.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.datasets import figure2_like_graph
from repro.engine import solve
from repro.graph import Graph


def main() -> None:
    # 1. Build a graph — from edges, from an edge-list file (repro.graph.read_edge_list),
    #    or use one of the bundled datasets.  Here: the paper's Figure-2 style example.
    graph: Graph = figure2_like_graph()
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges")

    # 2. Solve through the engine.  `pattern` is the clique size h (or any
    #    registered pattern), `k` the number of subgraphs, `solver` one of
    #    repro.engine.available_solvers().  `jobs` > 1 solves independent
    #    components on a local process pool; output is bit-identical for
    #    every value, so the choice is purely about where the work runs.
    for h in (3, 4):
        report = solve(graph=graph, pattern=h, k=2, solver="ippv", jobs=2)
        print(f"\ntop-2 locally {h}-clique densest subgraphs:")
        for rank, subgraph in enumerate(report.subgraphs, start=1):
            print(
                f"  {rank}. density={float(subgraph.density):.3f} "
                f"size={subgraph.size} vertices={subgraph.as_sorted_list()}"
            )
        timings = report.timings
        print(
            f"  (proposal {timings.seq_kclist + timings.decomposition:.3f}s, "
            f"pruning {timings.prune:.3f}s, verification {timings.verification:.3f}s)"
        )


if __name__ == "__main__":
    main()
