"""Seeded workload inputs, built only with the repository's own generators.

Every graph here is a pure function of its arguments, so a run's inputs are
fixed by the workload seed it is given.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.datasets.synthetic import barabasi_albert_graph, planted_communities_graph
from repro.graph.graph import Graph

#: Graphs per cold workload whose exact top-k is stored in ``refs.json``.  A
#: run solves a seeded ordering of this pool (see ``seeded_order``); the
#: pool is small so that a run solves each graph many times.
POOL_SIZE = 2
#: Graphs in the ``components-jobs2`` pool.
JOBS2_POOL_SIZE = 3

#: (h, k) of each cold workload; ``refs.json`` records the same values.
COLD_QUERY = {"cold-ba": (3, 5)}

BA_N, BA_M = 2000, 5


def cold_graph(workload: str, index: int) -> Graph:
    """Pool graph ``index`` of a cold workload."""
    if workload == "cold-ba":
        return barabasi_albert_graph(BA_N, BA_M, seed=index)
    raise ValueError(f"not a cold workload: {workload!r}")


def seeded_order(seed: int, size: int) -> List[int]:
    """The seeded order in which a run solves the graphs of a pool."""
    order = list(range(size))
    random.Random(seed).shuffle(order)
    return order


def disjoint_union(parts: Sequence[Graph]) -> Graph:
    """Union of integer-labelled graphs, relabelled so their vertices are disjoint."""
    union = Graph()
    offset = 0
    for part in parts:
        for v in part.vertices():
            union.add_vertex(v + offset)
        for u, v in part.edges():
            union.add_edge(u + offset, v + offset)
        offset += max(part.vertices()) + 1
    return union


def _planted_component(rng: random.Random, size: int, background: int, p_in: float) -> Graph:
    graph, _ = planted_communities_graph(
        [size], p_in=p_in, p_out=0.06, seed=rng.randrange(2**31), background=background
    )
    return graph


#: Community sizes of the ``serve-stream`` components.  Fixed, so that only
#: the edges vary with the seed: solve cost grows with the cube of a
#: community's size, and random sizes would make it vary from seed to seed.
STREAM_COMMUNITIES = (14, 15, 16, 17, 18, 19, 20, 14, 15, 16, 17, 18)


def stream_graphs(seed: int) -> Tuple[Graph, Graph]:
    """The ``serve-stream`` pair: (edited graph, static read-only graph).

    Both are disjoint unions of 12 small planted graphs (one near-clique
    community plus a sparse background each), so a delta inside one
    component leaves the others' warm state reusable.
    """
    rng = random.Random(seed)
    edited = disjoint_union(
        [_planted_component(rng, size, 44, 0.8) for size in STREAM_COMMUNITIES]
    )
    static = disjoint_union(
        [_planted_component(rng, size, 40, 0.85) for size in STREAM_COMMUNITIES]
    )
    return edited, static


def jobs2_graph(index: int) -> Graph:
    """Pool graph ``index`` of ``components-jobs2``: 8 disjoint components.

    Components alternate ``barabasi_albert_graph(500, 4)`` and a small
    planted-community graph, about 2.4k vertices in all.
    """
    rng = random.Random(index)
    parts: List[Graph] = []
    for position in range(8):
        if position % 2 == 0:
            parts.append(barabasi_albert_graph(500, 4, seed=rng.randrange(2**31)))
        else:
            graph, _ = planted_communities_graph(
                [12, 10], p_in=0.85, p_out=0.03, seed=rng.randrange(2**31), background=78
            )
            parts.append(graph)
    return disjoint_union(parts)
