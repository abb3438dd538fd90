"""Core undirected graph data structure.

The :class:`Graph` class is the substrate every algorithm in this package is
built on.  It is a simple adjacency-set representation tuned for the access
patterns the paper's algorithms need:

* fast neighbourhood iteration and membership tests (clique listing),
* cheap induced-subgraph construction (the IPPV pipeline repeatedly recurses
  into candidate subgraphs),
* stable, hashable vertex identifiers (any hashable object is accepted; the
  synthetic datasets use integers and the case-study graphs use strings).

Self-loops are ignored and parallel edges are collapsed, matching the paper's
setting of simple undirected graphs.
"""

from __future__ import annotations

import hashlib
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Set,
    Tuple,
)

from ..errors import GraphError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .delta import GraphDelta

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]


class Graph:
    """A simple undirected graph backed by adjacency sets.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` pairs.  Self-loops are skipped and
        duplicate edges are collapsed.
    vertices:
        Optional iterable of vertices to add even if they have no incident
        edge (isolated vertices participate in density denominators).
    """

    __slots__ = ("_adj", "_epoch", "_content_key")

    def __init__(
        self,
        edges: Iterable[Edge] | None = None,
        vertices: Iterable[Vertex] | None = None,
    ) -> None:
        self._adj: Dict[Vertex, Set[Vertex]] = {}
        self._epoch: int = 0
        self._content_key: str | None = None
        if vertices is not None:
            for v in vertices:
                self.add_vertex(v)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _mutated(self) -> None:
        """Record a structural change: bump the epoch, drop the key memo."""
        self._epoch += 1
        self._content_key = None

    def add_vertex(self, v: Vertex) -> None:
        """Add an isolated vertex (no-op if already present)."""
        if v not in self._adj:
            self._adj[v] = set()
            self._mutated()

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``{u, v}``; self-loops are ignored."""
        if u == v:
            return
        self.add_vertex(u)
        self.add_vertex(v)
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._mutated()

    def remove_vertex(self, v: Vertex) -> None:
        """Remove ``v`` and all its incident edges.

        Raises
        ------
        GraphError
            If ``v`` is not in the graph.
        """
        if v not in self._adj:
            raise GraphError(f"vertex {v!r} not in graph")
        for u in self._adj[v]:
            self._adj[u].discard(v)
        del self._adj[v]
        self._mutated()

    def remove_vertices(self, vertices: Iterable[Vertex]) -> None:
        """Remove several vertices (ignoring ones already absent)."""
        for v in list(vertices):
            if v in self._adj:
                self.remove_vertex(v)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``{u, v}`` if present."""
        if u in self._adj and v in self._adj[u]:
            self._adj[u].discard(v)
            self._adj[v].discard(u)
            self._mutated()

    def apply_delta(self, delta: "GraphDelta") -> None:
        """Apply a validated :class:`~repro.graph.delta.GraphDelta` in place.

        The delta is first checked against the current graph state
        (:meth:`GraphDelta.validate_against`); on any precondition failure
        the graph is left untouched.  Application order is fixed — vertex
        adds, edge adds, edge removes, vertex removes — so the result is a
        pure function of ``(graph, delta)``.
        """
        delta.validate_against(self)
        for v in delta.add_vertices:
            self.add_vertex(v)
        for u, v in delta.add_edges:
            self.add_edge(u, v)
        for u, v in delta.remove_edges:
            self.remove_edge(u, v)
        self.remove_vertices(delta.remove_vertices)

    @property
    def delta_epoch(self) -> int:
        """Monotone counter bumped by every structural mutation.

        Lets long-lived holders (sessions, caches) detect that a shared
        graph object changed underneath them without hashing its content.
        """
        return self._epoch

    def copy(self) -> "Graph":
        """Return a deep copy of the graph."""
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._epoch = self._epoch
        g._content_key = self._content_key
        return g

    def __getstate__(self) -> Dict[Vertex, Set[Vertex]]:
        return self._adj

    def __setstate__(self, state: Dict[Vertex, Set[Vertex]]) -> None:
        self._adj = state
        self._epoch = 0
        self._content_key = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices (``n`` in the paper)."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (``m`` in the paper)."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def vertices(self) -> List[Vertex]:
        """Return the vertex list (insertion order)."""
        return list(self._adj)

    def vertex_set(self) -> Set[Vertex]:
        """Return the vertex set as a new :class:`set`."""
        return set(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge exactly once."""
        seen: Set[FrozenSet[Vertex]] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    yield (u, v)

    def edge_list(self) -> List[Edge]:
        """Return all edges as a list."""
        return list(self.edges())

    def neighbors(self, v: Vertex) -> Set[Vertex]:
        """Return the neighbour set of ``v`` (a live view — do not mutate)."""
        try:
            return self._adj[v]
        except KeyError as exc:
            raise GraphError(f"vertex {v!r} not in graph") from exc

    def degree(self, v: Vertex) -> int:
        """Return the number of neighbours of ``v``."""
        return len(self.neighbors(v))

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return ``True`` when the edge ``{u, v}`` exists."""
        return u in self._adj and v in self._adj[u]

    def has_vertex(self, v: Vertex) -> bool:
        """Return ``True`` when ``v`` is a vertex of the graph."""
        return v in self._adj

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """Return ``G[S]``, the subgraph induced by the given vertex set.

        Vertices not present in the graph are silently ignored so callers can
        pass candidate sets computed on a larger parent graph.

        The subgraph's vertex order is canonical: it follows the *parent*
        graph's insertion order, never the iteration order of ``vertices``.
        Component enumeration follows vertex order, so callers may pass
        unordered sets without leaking per-process hash order into results.
        """
        keep = {v for v in vertices if v in self._adj}
        sub = Graph()
        for v in self._adj:
            if v in keep:
                sub.add_vertex(v)
        for v in sub._adj:
            for u in self._adj[v]:
                if u in keep:
                    sub.add_edge(u, v)
        return sub

    def content_key(self) -> str:
        """Return a stable hex digest of the graph's *content*.

        Two graphs have equal keys iff they have the same vertex labels and
        the same edge set — regardless of construction order, per-process
        hash seeds, or which of several equal objects they are.  Vertices
        are encoded by type and ``repr`` and sorted, so reloading the same
        edge list (or any label-preserving round-trip) reproduces the key.
        The digest is the graph half of the preprocess-cache key (see
        :mod:`repro.engine.cache`).  It is memoised and invalidated by any
        mutation, so post-delta solves always key on post-delta content.
        """
        if self._content_key is not None:
            return self._content_key
        encoded = {v: _encode_vertex(v) for v in self._adj}
        digest = hashlib.sha256()
        digest.update(b"repro-graph/1\x00")
        for token in sorted(encoded.values()):
            digest.update(b"v\x00")
            digest.update(token)
        edge_tokens = []
        for u, nbrs in self._adj.items():
            eu = encoded[u]
            for v in nbrs:
                ev = encoded[v]
                if eu <= ev:
                    edge_tokens.append(eu + b"\x00" + ev)
        # Each undirected edge contributes once per endpoint ordering; the
        # sorted stream makes the digest independent of adjacency-set order.
        edge_tokens.sort()
        for token in edge_tokens:
            digest.update(b"e\x00")
            digest.update(token)
        self._content_key = digest.hexdigest()
        return self._content_key

    def relabelled(self) -> Tuple["Graph", Dict[Vertex, int], List[Vertex]]:
        """Return a copy with vertices relabelled to ``0..n-1``.

        Returns the new graph, the mapping ``old -> new`` and the inverse
        list ``new -> old``.  Several numeric kernels (clique listing, flow)
        are faster over dense integer ids.
        """
        order = list(self._adj)
        mapping = {v: i for i, v in enumerate(order)}
        g = Graph(vertices=range(len(order)))
        for u, v in self.edges():
            g.add_edge(mapping[u], mapping[v])
        return g, mapping, order

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if set(self._adj) != set(other._adj):
            return False
        return all(self._adj[v] == other._adj[v] for v in self._adj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"


def _encode_vertex(v: Vertex) -> bytes:
    """Deterministic byte encoding of a vertex label (type-tagged ``repr``).

    ``repr`` of the label types the package uses (ints, strings, tuples of
    those) is stable across processes and hash seeds; the type tag keeps
    ``1`` and ``"1"`` distinct.
    """
    return f"{type(v).__module__}.{type(v).__qualname__}:{v!r}".encode("utf-8")


def complete_graph(n: int) -> Graph:
    """Return the complete graph :math:`K_n` on vertices ``0..n-1``."""
    if n < 0:
        raise GraphError("n must be non-negative")
    g = Graph(vertices=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j)
    return g


def path_graph(n: int) -> Graph:
    """Return the path graph :math:`P_n` on vertices ``0..n-1``."""
    if n < 0:
        raise GraphError("n must be non-negative")
    g = Graph(vertices=range(n))
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def cycle_graph(n: int) -> Graph:
    """Return the cycle graph :math:`C_n` on vertices ``0..n-1``."""
    if n < 3:
        raise GraphError("cycle graphs need at least 3 vertices")
    g = path_graph(n)
    g.add_edge(n - 1, 0)
    return g


def star_graph(n_leaves: int) -> Graph:
    """Return a star with centre ``0`` and ``n_leaves`` leaves ``1..n``."""
    if n_leaves < 0:
        raise GraphError("n_leaves must be non-negative")
    g = Graph(vertices=range(n_leaves + 1))
    for i in range(1, n_leaves + 1):
        g.add_edge(0, i)
    return g


def union_graph(*graphs: Graph) -> Graph:
    """Return the disjoint-vertex-id union of several graphs.

    Vertex ids are kept as-is; the caller is responsible for making them
    disjoint (or for wanting the overlap).
    """
    g = Graph()
    for other in graphs:
        for v in other.vertices():
            g.add_vertex(v)
        for u, v in other.edges():
            g.add_edge(u, v)
    return g
