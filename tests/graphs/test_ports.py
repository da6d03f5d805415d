"""Unit tests for port labelings and the KT1/KT0 access models."""

from __future__ import annotations

import random

import pytest

from repro.errors import GraphError, ProtocolError
from repro.graphs.generators import complete_graph, cycle_graph
from repro.graphs.graph import StaticGraph
from repro.graphs.ports import PortLabeling, PortModel


class TestHiddenLabeling:
    def test_default_ports_follow_ascending_ids(self):
        g = cycle_graph(5)
        labeling = PortLabeling(g)
        for v in g.vertices:
            assert tuple(labeling.resolve(v, i) for i in range(g.degree(v))) == g.neighbors(v)

    def test_random_ports_are_permutations(self):
        g = complete_graph(8)
        labeling = PortLabeling(g, rng=random.Random(0))
        for v in g.vertices:
            resolved = sorted(labeling.resolve(v, i) for i in range(g.degree(v)))
            assert resolved == list(g.neighbors(v))

    def test_port_of_inverts_resolve(self):
        g = complete_graph(6)
        labeling = PortLabeling(g, rng=random.Random(1))
        for v in g.vertices:
            for port in range(g.degree(v)):
                assert labeling.port_of(v, labeling.resolve(v, port)) == port

    def test_explicit_permutations(self):
        g = cycle_graph(4)
        perms = {v: tuple(reversed(g.neighbors(v))) for v in g.vertices}
        labeling = PortLabeling(g, permutations=perms)
        for v in g.vertices:
            assert labeling.resolve(v, 0) == g.neighbors(v)[-1]

    def test_invalid_permutation_rejected(self):
        g = cycle_graph(4)
        perms = {v: g.neighbors(v) for v in g.vertices}
        perms[0] = (1, 1)
        with pytest.raises(GraphError):
            PortLabeling(g, permutations=perms)

    @pytest.mark.parametrize("perms, vertex", [
        ({0: (1, 2)}, "for vertex 1$"),
        ({0: 5, 1: (0, 2), 2: (0, 1)}, "at vertex 0 "),
        ({0: (1, 2), 1: (0, 2), 2: (0, 1), 9: (1,)}, "non-vertex 9$"),
    ], ids=["missing-vertex", "not-a-sequence", "unknown-vertex"])
    def test_malformed_permutation_map_rejected(self, perms, vertex):
        g = StaticGraph({0: [1, 2], 1: [0, 2], 2: [0, 1]})
        with pytest.raises(GraphError, match=vertex):
            PortLabeling(g, permutations=perms)

    def test_out_of_range_port(self):
        g = cycle_graph(4)
        labeling = PortLabeling(g)
        with pytest.raises(ProtocolError):
            labeling.resolve(0, 5)

    def test_port_of_non_neighbor(self):
        g = cycle_graph(5)
        labeling = PortLabeling(g)
        with pytest.raises(ProtocolError):
            labeling.port_of(0, 2)


class TestAccessibleSide:
    def test_kt1_ports_are_neighbor_ids(self):
        g = cycle_graph(6)
        labeling = PortLabeling(g, rng=random.Random(0))
        assert labeling.accessible_ports(0, PortModel.KT1) == g.neighbors(0)

    def test_kt0_ports_are_indices(self):
        g = cycle_graph(6)
        labeling = PortLabeling(g, rng=random.Random(0))
        assert labeling.accessible_ports(0, PortModel.KT0) == (0, 1)

    def test_kt1_resolution_validates_adjacency(self):
        g = cycle_graph(6)
        labeling = PortLabeling(g)
        assert labeling.resolve_accessible(0, 1, PortModel.KT1) == 1
        with pytest.raises(ProtocolError):
            labeling.resolve_accessible(0, 3, PortModel.KT1)

    def test_kt0_resolution_uses_hidden_bijection(self):
        g = cycle_graph(6)
        perms = {v: tuple(reversed(g.neighbors(v))) for v in g.vertices}
        labeling = PortLabeling(g, permutations=perms)
        assert labeling.resolve_accessible(0, 0, PortModel.KT0) == g.neighbors(0)[-1]
