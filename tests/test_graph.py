"""Tests for the core Graph data structure."""

import pytest

from repro.errors import GraphError
from repro.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    union_graph,
)


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_add_edge_creates_vertices(self):
        g = Graph()
        g.add_edge("a", "b")
        assert g.num_vertices == 2
        assert g.has_edge("a", "b")
        assert g.has_edge("b", "a")

    def test_self_loops_ignored(self):
        g = Graph(edges=[(1, 1), (1, 2)])
        assert g.num_edges == 1
        assert not g.has_edge(1, 1)

    def test_duplicate_edges_collapsed(self):
        g = Graph(edges=[(1, 2), (2, 1), (1, 2)])
        assert g.num_edges == 1

    def test_isolated_vertices(self):
        g = Graph(vertices=[1, 2, 3])
        assert g.num_vertices == 3
        assert g.num_edges == 0

    def test_string_and_int_vertices(self):
        g = Graph(edges=[("x", "y")], vertices=[1])
        assert g.num_vertices == 3

    def test_from_constructor_edges_and_vertices(self):
        g = Graph(edges=[(0, 1)], vertices=[5])
        assert set(g.vertices()) == {0, 1, 5}


class TestMutation:
    def test_remove_vertex(self):
        g = complete_graph(4)
        g.remove_vertex(0)
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert 0 not in g

    def test_remove_missing_vertex_raises(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.remove_vertex(42)

    def test_remove_vertices_ignores_missing(self):
        g = complete_graph(3)
        g.remove_vertices([0, 99])
        assert g.num_vertices == 2

    def test_remove_edge(self):
        g = complete_graph(3)
        g.remove_edge(0, 1)
        assert g.num_edges == 2
        g.remove_edge(0, 1)  # idempotent
        assert g.num_edges == 2

    def test_copy_is_independent(self):
        g = complete_graph(3)
        h = g.copy()
        h.remove_vertex(0)
        assert g.num_vertices == 3
        assert h.num_vertices == 2


class TestQueries:
    def test_degree_and_neighbors(self):
        g = star_graph(4)
        assert g.degree(0) == 4
        assert g.degree(1) == 1
        assert g.neighbors(0) == {1, 2, 3, 4}

    def test_neighbors_missing_vertex_raises(self):
        with pytest.raises(GraphError):
            Graph().neighbors("nope")

    def test_edges_listed_once(self):
        g = complete_graph(4)
        edges = g.edge_list()
        assert len(edges) == 6
        assert len({frozenset(e) for e in edges}) == 6

    def test_len_and_contains_and_iter(self):
        g = path_graph(3)
        assert len(g) == 3
        assert 1 in g
        assert 7 not in g
        assert sorted(g) == [0, 1, 2]

    def test_equality(self):
        assert complete_graph(3) == complete_graph(3)
        assert complete_graph(3) != path_graph(3)
        assert complete_graph(3) != "not a graph"


class TestInducedSubgraph:
    def test_induced_subgraph_keeps_internal_edges(self):
        g = complete_graph(5)
        sub = g.induced_subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        assert sub.num_edges == 3

    def test_induced_subgraph_ignores_unknown_vertices(self):
        g = complete_graph(3)
        sub = g.induced_subgraph([0, 1, 99])
        assert sub.num_vertices == 2

    def test_induced_subgraph_does_not_mutate_parent(self):
        g = complete_graph(4)
        sub = g.induced_subgraph([0, 1])
        sub.add_edge(0, 7)
        assert 7 not in g

    def test_induced_subgraph_order_is_canonical(self):
        """The subgraph's vertex order follows the *parent* insertion order,
        whatever order (or container) the argument iterates in — component
        enumeration order depends on it."""
        g = Graph(edges=[("a", "b"), ("c", "d"), ("e", "f")])
        reference = g.induced_subgraph(["a", "b", "c", "d", "e"]).vertices()
        assert reference == ["a", "b", "c", "d", "e"]
        for argument in (
            ["e", "c", "a", "d", "b"],
            reversed(["a", "b", "c", "d", "e"]),
            {"a", "b", "c", "d", "e"},
            frozenset("abcde"),
        ):
            assert g.induced_subgraph(argument).vertices() == reference

    def test_relabelled_roundtrip(self):
        g = Graph(edges=[("a", "b"), ("b", "c")])
        relabelled, mapping, inverse = g.relabelled()
        assert relabelled.num_edges == 2
        assert sorted(mapping.values()) == [0, 1, 2]
        for old, new in mapping.items():
            assert inverse[new] == old


class TestGenerators:
    def test_complete_graph_counts(self):
        g = complete_graph(6)
        assert g.num_edges == 15

    def test_path_and_cycle(self):
        assert path_graph(5).num_edges == 4
        assert cycle_graph(5).num_edges == 5

    def test_cycle_too_small_raises(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_negative_sizes_raise(self):
        with pytest.raises(GraphError):
            complete_graph(-1)
        with pytest.raises(GraphError):
            path_graph(-1)
        with pytest.raises(GraphError):
            star_graph(-2)

    def test_union_graph(self):
        g = union_graph(complete_graph(3), Graph(edges=[(10, 11)]))
        assert g.num_vertices == 5
        assert g.num_edges == 4
