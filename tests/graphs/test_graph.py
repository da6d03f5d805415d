"""Unit tests for the StaticGraph substrate."""

from __future__ import annotations

import random
from itertools import accumulate

import pytest

from repro.errors import GraphError
from repro.graphs.build import GraphBuilder
from repro.graphs.graph import StaticGraph, bfs_distance
from repro.graphs.ports import PortLabeling


def triangle() -> StaticGraph:
    return StaticGraph({0: [1, 2], 1: [0, 2], 2: [0, 1]})


class TestConstruction:
    def test_basic_properties(self):
        g = triangle()
        assert g.n == 3
        assert g.edge_count == 3
        assert g.min_degree == 2
        assert g.max_degree == 2
        assert g.id_space == 3

    def test_vertices_sorted(self):
        g = StaticGraph({5: [2], 2: [5, 9], 9: [2]})
        assert g.vertices == (2, 5, 9)

    def test_neighbors_sorted_tuple(self):
        g = StaticGraph({0: [3, 1], 1: [0], 3: [0]})
        assert g.neighbors(0) == (1, 3)

    def test_explicit_id_space(self):
        g = StaticGraph({0: [1], 1: [0]}, id_space=100)
        assert g.id_space == 100

    def test_default_id_space_covers_max_id(self):
        g = StaticGraph({0: [7], 7: [0]})
        assert g.id_space == 8

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            StaticGraph({})

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(GraphError):
            StaticGraph({0: [1], 1: []})

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            StaticGraph({0: [0, 1], 1: [0]})

    @pytest.mark.parametrize("validate", [True, False])
    def test_edge_to_missing_vertex_rejected(self, validate):
        with pytest.raises(GraphError, match=r"edge \(0, 2\) points outside"):
            StaticGraph({0: [1, 2], 1: [0]}, validate=validate)

    def test_id_outside_space_rejected(self):
        with pytest.raises(GraphError):
            StaticGraph({0: [1], 1: [0]}, id_space=1)

    def test_negative_id_rejected(self):
        with pytest.raises(GraphError):
            StaticGraph({-1: [0], 0: [-1]})

    def test_from_edges(self):
        g = StaticGraph.from_edges([(0, 1), (1, 2)])
        assert g.n == 3
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 2)
        assert not g.has_edge(0, 2)

    def test_from_edges_with_isolated_vertices(self):
        g = StaticGraph.from_edges([(0, 1)], vertices=[0, 1, 2])
        assert g.n == 3
        assert g.degree(2) == 0
        assert g.min_degree == 0

    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(GraphError):
            StaticGraph.from_edges([(0, 0)])


def _csr_built() -> StaticGraph:
    builder = GraphBuilder(4, id_space=12)
    builder.edges.extend_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
    return builder.build(ids=[1, 4, 6, 11])


#: Every way to make a graph; each must store the same CSR layout.
CONSTRUCTORS = {
    "mapping": lambda: StaticGraph({5: [2, 9], 2: [5, 9], 9: [2, 5, 11], 11: [9]}),
    "mapping-unvalidated": lambda: StaticGraph(
        {0: [1], 1: [0, 3], 3: [1], 6: []}, validate=False
    ),
    "from-edges": lambda: StaticGraph.from_edges([(0, 1), (1, 2)], vertices=[7]),
    "from-csr": _csr_built,
    "relabeled": lambda: triangle().relabeled({0: 10, 1: 30, 2: 20}),
}


class TestOneStorage:
    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_every_constructor_lays_out_csr(self, name):
        graph = CONSTRUCTORS[name]()
        ids = graph.vertices
        offsets, indices = graph.csr_adjacency()
        degrees = graph.degree_array()
        assert list(degrees) == [graph.degree(v) for v in ids]
        assert list(offsets) == [0, *accumulate(degrees)]
        for i, v in enumerate(ids):
            row = indices[offsets[i]:offsets[i + 1]]
            assert tuple(ids[j] for j in row) == graph.neighbors(v)
        reversed_ports = {v: graph.neighbors(v)[::-1] for v in ids}
        for labeling in (
            PortLabeling(graph),
            PortLabeling(graph, rng=random.Random(name)),
            PortLabeling(graph, permutations=reversed_ports),
        ):
            flat = labeling.flat_port_targets()
            table = labeling.port_table()
            for i, v in enumerate(ids):
                row = flat[offsets[i]:offsets[i + 1]]
                assert tuple(ids[j] for j in row) == table[v]
                assert sorted(table[v]) == list(graph.neighbors(v))
        assert PortLabeling(graph, permutations=reversed_ports).port_table() == reversed_ports


class TestQueries:
    def test_closed_neighbors_include_self(self):
        g = triangle()
        assert g.closed_neighbors(0) == (0, 1, 2)
        assert g.closed_neighbor_set(1) == frozenset({0, 1, 2})

    def test_closed_neighborhood_of_set(self):
        g = StaticGraph.from_edges([(0, 1), (1, 2), (2, 3)])
        assert g.closed_neighborhood_of_set([0]) == frozenset({0, 1})
        assert g.closed_neighborhood_of_set([0, 2]) == frozenset({0, 1, 2, 3})

    def test_edges_iterates_once_each(self):
        g = triangle()
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_contains(self):
        g = triangle()
        assert 0 in g
        assert 5 not in g

    def test_len(self):
        assert len(triangle()) == 3

    def test_distance(self):
        g = StaticGraph.from_edges([(0, 1), (1, 2), (2, 3)])
        assert g.distance(0, 3) == 3
        assert g.distance(0, 0) == 0
        assert g.distance(1, 2) == 1

    def test_distance_disconnected(self):
        g = StaticGraph.from_edges([(0, 1)], vertices=[0, 1, 2])
        assert bfs_distance(g, 0, 2) == -1

    def test_is_connected(self):
        assert triangle().is_connected()
        g = StaticGraph.from_edges([(0, 1)], vertices=[0, 1, 2])
        assert not g.is_connected()

    def test_adjacent_pairs_are_ordered_both_ways(self):
        pairs = set(triangle().adjacent_pairs())
        assert (0, 1) in pairs and (1, 0) in pairs
        assert len(pairs) == 6


class TestTransforms:
    def test_relabeled(self):
        g = triangle().relabeled({0: 10, 1: 20, 2: 30}, id_space=40)
        assert g.vertices == (10, 20, 30)
        assert g.has_edge(10, 20)
        assert g.id_space == 40

    def test_relabeled_requires_injective(self):
        with pytest.raises(GraphError):
            triangle().relabeled({0: 1, 1: 1, 2: 2})

    def test_networkx_round_trip(self):
        g = triangle()
        back = StaticGraph.from_networkx(g.to_networkx())
        assert back.vertices == g.vertices
        assert sorted(back.edges()) == sorted(g.edges())
