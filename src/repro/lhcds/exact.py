"""Exact h-clique compact numbers via the diminishingly-dense decomposition.

Theorem 2 of the paper identifies the compact number ``phi_h(u)`` with the
optimal solution ``r*(u)`` of the convex program CP(G, h), and the theory of
densest-supermodular-set decompositions (Danisch et al., Harb et al.)
identifies ``r*`` with the *diminishingly dense decomposition*: peel off the
maximal densest subgraph, then the subgraph maximising the marginal density
beyond it, and so on; every vertex's value is the marginal density of the
layer in which it is removed.

This module computes that decomposition exactly with the constrained
Dinkelbach iteration of :func:`repro.densest.exact.maximal_densest_subset`,
giving exact compact numbers in polynomial time.  It serves three purposes:

* a reference oracle for the IPPV pipeline's tests,
* the exactness fallback the IPPV driver can call on a stubborn candidate,
* a standalone "LhCDScvx-style" exact algorithm exposed in the public API.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..densest.exact import maximal_densest_subset
from ..errors import AlgorithmError
from ..graph.components import connected_components
from ..graph.graph import Graph, Vertex
from ..instances import InstanceSet


def diminishingly_dense_decomposition(
    instances: InstanceSet,
    vertices: Optional[Iterable[Vertex]] = None,
    kernel: Optional[str] = None,
) -> List[Tuple[Set[Vertex], Fraction]]:
    """Return the nested decomposition as (new layer vertices, layer density) pairs.

    Layers are returned outer-to-inner in *decreasing* density order; their
    vertex sets partition the universe.  Vertices belonging to no instance
    form a final layer of density 0.
    """
    universe: Set[Vertex] = set(vertices) if vertices is not None else instances.vertices()
    if not universe:
        return []
    layers: List[Tuple[Set[Vertex], Fraction]] = []
    shell: Set[Vertex] = set()
    working = instances.restrict(universe)
    while shell != universe:
        seed = shell if shell else None
        subset, density = maximal_densest_subset(working, universe, seed=seed, kernel=kernel)
        new_vertices = subset - shell
        if not new_vertices or density <= 0:
            # Remaining vertices participate in no further instances.
            layers.append((universe - shell, Fraction(0)))
            break
        layers.append((new_vertices, density))
        shell = set(subset)
    return layers


def exact_compact_numbers(
    instances: InstanceSet,
    vertices: Optional[Iterable[Vertex]] = None,
    kernel: Optional[str] = None,
) -> Dict[Vertex, Fraction]:
    """Return the exact compact number ``phi_h(u)`` of every vertex."""
    universe: Set[Vertex] = set(vertices) if vertices is not None else instances.vertices()
    numbers: Dict[Vertex, Fraction] = {}
    for layer, density in diminishingly_dense_decomposition(instances, universe, kernel):
        for v in layer:
            numbers[v] = density
    for v in universe:
        numbers.setdefault(v, Fraction(0))
    return numbers


def lhcds_from_compact_numbers(
    graph: Graph,
    instances: InstanceSet,
    compact: Optional[Dict[Vertex, Fraction]] = None,
    kernel: Optional[str] = None,
) -> List[Tuple[Set[Vertex], Fraction]]:
    """Enumerate every LhCDS exactly, given (or computing) exact compact numbers.

    An LhCDS is a connected component ``C`` of a level set
    ``{v : phi(v) = rho}`` such that no vertex of ``C`` has a neighbour with
    a strictly larger compact number (equivalently, ``C`` is also a component
    of ``{v : phi(v) >= rho}``).  Such components are automatically
    ``rho``-compact, maximal, and have density exactly ``rho``.

    Returns the list of (vertex set, density) pairs sorted by decreasing
    density.  Level-0 components are excluded (an "LhCDS" containing no
    instance is never reported by the paper either).
    """
    if graph.num_vertices == 0:
        raise AlgorithmError("cannot decompose an empty graph")
    phi = compact if compact is not None else exact_compact_numbers(
        instances, graph.vertices(), kernel
    )
    results: List[Tuple[Set[Vertex], Fraction]] = []
    values = sorted({v for v in phi.values() if v > 0}, reverse=True)
    for rho in values:
        # A list, not a set: the level's enumeration order stays visibly
        # independent of per-process hashing.
        level = [v for v, value in phi.items() if value == rho]
        for component in connected_components(graph.induced_subgraph(level)):
            touches_denser = any(
                phi.get(u, Fraction(0)) > rho
                for v in component
                for u in graph.neighbors(v)
                if u not in component
            )
            if not touches_denser:
                results.append((component, rho))
    results.sort(key=lambda item: (-item[1], -len(item[0])))
    return results


def exact_top_k_lhcds(
    graph: Graph,
    instances: InstanceSet,
    k: Optional[int] = None,
    kernel: Optional[str] = None,
) -> List[Tuple[Set[Vertex], Fraction]]:
    """Return the top-k LhCDSes by density using the exact decomposition."""
    all_results = lhcds_from_compact_numbers(graph, instances, kernel=kernel)
    if k is None:
        return all_results
    return all_results[:k]
