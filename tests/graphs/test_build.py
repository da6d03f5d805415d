"""Differential tests: CSR-native construction vs the frozen dict pipeline.

The builder layer (:mod:`repro.graphs.build`) re-implements every
generator, the port labeling, and plan compilation on flat buffers.
These tests pin the new pipeline to the frozen pre-builder one
(:mod:`repro.graphs.reference`) — same RNG stream, same adjacency,
same names, byte-identical plan buffers — per family × size × seed,
including dilated (non-contiguous) ID spaces.
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro.errors import GraphError
from repro.graphs import reference
from repro.graphs.build import EdgeBuffer, GraphBuilder, from_adjacency_sets
from repro.graphs.generators import (
    barbell_graph,
    complete_graph,
    cycle_graph,
    dilate_id_space,
    path_graph,
    powerlaw_graph_with_floor,
    random_geometric_dense_graph,
    random_graph_with_min_degree,
    random_regular_graph,
    star_graph,
)
from repro.graphs.graph import StaticGraph
from repro.graphs.ports import PortLabeling, PortModel
from repro.runtime.plan import ExecutionPlan


def assert_same_graph(old: StaticGraph, new: StaticGraph) -> None:
    """Every public accessor of ``new`` equals the frozen ``old``'s."""
    assert new.name == old.name
    assert new.n == old.n
    assert new.id_space == old.id_space
    assert new.vertices == old.vertices
    assert new.min_degree == old.min_degree
    assert new.max_degree == old.max_degree
    assert new.edge_count == old.edge_count
    assert list(new.edges()) == list(old.edges())
    for v in old.vertices:
        assert new.neighbors(v) == old.neighbors(v)
        assert new.neighbor_set(v) == old.neighbor_set(v)
        assert new.degree(v) == old.degree(v)
        assert new.closed_neighbors(v) == old.closed_neighbors(v)
    assert new.is_connected() == old.is_connected()


def assert_same_plan_buffers(old: StaticGraph, new: StaticGraph, seed: str) -> None:
    """Flat plan buffers byte-identical under both port models."""
    for port_model in (PortModel.KT1, PortModel.KT0):
        table = None
        labeling = None
        if port_model is PortModel.KT0:
            table, _ = reference.reference_port_tables(old, random.Random(seed))
            labeling = PortLabeling(new, rng=random.Random(seed))
        buffers = reference.reference_plan_buffers(old, table, port_model)
        plan = ExecutionPlan.compile(new, labeling=labeling, port_model=port_model)
        assert bytes(plan.neighbor_offsets) == bytes(buffers["offsets"])
        assert bytes(plan.neighbor_indices) == bytes(buffers["indices"])
        assert bytes(plan.degrees) == bytes(buffers["degrees"])
        assert bytes(array("q", plan.ids)) == bytes(buffers["ids"])
        if port_model is PortModel.KT0:
            assert bytes(plan.port_targets) == bytes(buffers["ports"])
        else:
            assert plan.port_targets is None


# Pairs of (frozen builder, current builder) per deterministic family.
FIXED_FAMILIES = [
    ("complete", reference.complete_graph, complete_graph, [2, 3, 7, 24]),
    ("cycle", reference.cycle_graph, cycle_graph, [3, 4, 9, 30]),
    ("path", reference.path_graph, path_graph, [2, 3, 8, 25]),
    ("star", reference.star_graph, star_graph, [2, 3, 10, 21]),
    ("barbell", reference.barbell_graph, barbell_graph, [2, 3, 8]),
]

RANDOM_FAMILIES = [
    (
        "er-min-degree",
        reference.random_graph_with_min_degree,
        random_graph_with_min_degree,
        [(12, 3), (40, 8), (90, 30), (60, 59)],
    ),
    (
        "regular",
        reference.random_regular_graph,
        random_regular_graph,
        [(12, 4), (30, 7), (50, 12)],
    ),
    (
        "geometric",
        reference.random_geometric_dense_graph,
        random_geometric_dense_graph,
        [(20, 4), (60, 12), (90, 25)],
    ),
    (
        "powerlaw",
        reference.powerlaw_graph_with_floor,
        powerlaw_graph_with_floor,
        [(16, 3), (60, 8), (120, 10)],
    ),
]


class TestFixedFamiliesMatchReference:
    @pytest.mark.parametrize("name,old_fn,new_fn,sizes", FIXED_FAMILIES,
                             ids=[f[0] for f in FIXED_FAMILIES])
    def test_graphs_and_buffers(self, name, old_fn, new_fn, sizes):
        for n in sizes:
            old, new = old_fn(n), new_fn(n)
            assert_same_graph(old, new)
            assert_same_plan_buffers(old, new, f"{name}:{n}")

    def test_star_off_center(self):
        for center in (0, 3, 8):
            old = reference.star_graph(9, center=center)
            new = star_graph(9, center=center)
            assert_same_graph(old, new)


class TestRandomFamiliesMatchReference:
    @pytest.mark.parametrize("name,old_fn,new_fn,params", RANDOM_FAMILIES,
                             ids=[f[0] for f in RANDOM_FAMILIES])
    def test_graphs_and_buffers(self, name, old_fn, new_fn, params):
        for n, delta in params:
            for seed in (0, 1, 17):
                tag = f"{name}:{n}:{delta}:{seed}"
                old = old_fn(n, delta, random.Random(tag))
                new = new_fn(n, delta, random.Random(tag))
                assert_same_graph(old, new)
                assert_same_plan_buffers(old, new, tag)

    def test_regular_dense_fallback(self):
        """max_attempts=1 usually forces the swap fallback on dense graphs.

        At n=120, d=36 the 4n double edge swaps dominate the build, and
        the swaps must leave both the graph and the RNG stream exactly
        where the reference's remove-by-value swaps leave them.
        """
        for n, degree in ((24, 20), (120, 36)):
            for seed in (0, 5):
                old_rng, new_rng = random.Random(seed), random.Random(seed)
                old = reference.random_regular_graph(
                    n, degree, old_rng, max_attempts=1
                )
                new = random_regular_graph(n, degree, new_rng, max_attempts=1)
                assert_same_graph(old, new)
                assert new_rng.getstate() == old_rng.getstate()

    def test_er_full_density(self):
        old = reference.random_graph_with_min_degree(20, 19, random.Random(0))
        new = random_graph_with_min_degree(20, 19, random.Random(0))
        assert_same_graph(old, new)


class TestDilationMatchesReference:
    @pytest.mark.parametrize("factor", [1, 4, 10])
    def test_dilated_ids(self, factor):
        for seed in (0, 3):
            old_base = reference.random_graph_with_min_degree(
                30, 6, random.Random(seed)
            )
            new_base = random_graph_with_min_degree(30, 6, random.Random(seed))
            old = reference.dilate_id_space(old_base, factor, random.Random(seed + 1))
            new = dilate_id_space(new_base, factor, random.Random(seed + 1))
            assert_same_graph(old, new)
            assert_same_plan_buffers(old, new, f"dilate:{factor}:{seed}")
            if factor > 1:
                assert new.vertices != tuple(range(new.n))  # non-contiguous


class TestBuilderPrimitives:
    def test_edge_buffer_sort_and_dedup(self):
        buffer = EdgeBuffer(4)
        buffer.add_edge(2, 0)
        buffer.add_edge(0, 1)
        buffer.add_edge(2, 0)  # duplicate
        offsets, indices = buffer.csr(dedup=True)
        assert list(offsets) == [0, 2, 3, 4, 4]
        assert list(indices) == [1, 2, 0, 0]

    def test_edge_buffer_rejects_self_loop_at_emission(self):
        buffer = EdgeBuffer(3)
        with pytest.raises(GraphError, match="self-loop"):
            buffer.add_arc(1, 1)
        with pytest.raises(GraphError, match="self-loop"):
            buffer.add_edge(2, 2)

    def test_edge_buffer_rejects_self_loop_in_checking_walk(self):
        buffer = EdgeBuffer(3)
        buffer.keys.append(1 * 3 + 1)  # trusted-append misuse
        with pytest.raises(GraphError, match="self-loop"):
            buffer.csr()

    def test_edge_buffer_rejects_out_of_range_endpoints(self):
        """Out-of-range endpoints would alias onto other edges via the
        key encoding — the public emitters must reject them."""
        buffer = EdgeBuffer(3)
        with pytest.raises(GraphError, match="outside the dense vertex range"):
            buffer.add_arc(0, 5)
        with pytest.raises(GraphError, match="outside the dense vertex range"):
            buffer.add_edge(-1, 2)
        with pytest.raises(GraphError, match="outside the dense vertex range"):
            buffer.extend_edges([(0, 1), (2, 3)])

    def test_row_mode_equals_edge_mode(self):
        rows = GraphBuilder(3)
        rows.add_row((1, 2))
        rows.add_row((0, 2))
        rows.add_row((0, 1))
        arcs = GraphBuilder(3)
        arcs.edges.extend_edges([(0, 1), (0, 2), (1, 2)])
        a, b = rows.build(), arcs.build()
        assert list(a.edges()) == list(b.edges())
        assert a.csr_adjacency() is not None

    def test_row_mode_requires_all_rows(self):
        builder = GraphBuilder(3)
        builder.add_row((1,))
        with pytest.raises(GraphError, match="1 of 3 rows"):
            builder.build()

    def test_modes_cannot_mix(self):
        builder = GraphBuilder(3)
        builder.add_row((1,))
        with pytest.raises(GraphError, match="mix"):
            builder.edges
        other = GraphBuilder(3)
        other.edges.add_edge(0, 1)
        with pytest.raises(GraphError, match="mix"):
            other.add_row((1,))

    def test_edgeless_build(self):
        graph = GraphBuilder(2).build()
        assert graph.n == 2 and graph.edge_count == 0
        assert graph.neighbors(0) == ()

    def test_from_adjacency_sets(self):
        adjacency = {0: {1, 2}, 1: {0}, 2: {0}}
        graph = from_adjacency_sets(adjacency, name="tri-star")
        assert graph.name == "tri-star"
        assert graph.neighbors(0) == (1, 2)
        assert graph.csr_adjacency() is not None

    def test_build_validate_checks_builder_output(self):
        """`build(validate=True)` runs the full structural check."""
        builder = GraphBuilder(3)
        builder.edges.add_edge(0, 1)
        builder.edges.add_edge(1, 2)
        assert builder.build(validate=True).n == 3
        asymmetric = GraphBuilder(3)
        asymmetric.edges.add_arc(0, 1)  # mirror arc never emitted
        with pytest.raises(GraphError, match="asymmetric"):
            asymmetric.build(validate=True)


class TestLazyViews:
    def test_views_materialize_on_demand(self):
        graph = complete_graph(8)
        assert graph._neighbors is None  # nothing built at construction
        assert graph.neighbors(3) == tuple(u for u in range(8) if u != 3)
        assert graph._neighbors is not None
        assert graph.neighbor_map[3] is graph.neighbors(3)  # cached, no copy

    def test_compile_and_export_never_materialize_views(self):
        """The parent-side fabric pipeline stays free of dict views."""
        graph = cycle_graph(32)
        plan = ExecutionPlan.compile(graph)
        _ = plan.neighbor_offsets, plan.neighbor_indices, plan.degrees
        assert graph._neighbors is None
        assert graph._neighbor_sets is None
        kt0 = ExecutionPlan.compile(
            graph,
            labeling=PortLabeling(graph, rng=random.Random(1)),
            port_model=PortModel.KT0,
        )
        _ = kt0.port_targets
        assert graph._neighbors is None

    def test_plan_rows_lazy_then_cached(self):
        graph = complete_graph(10)
        plan = ExecutionPlan.compile(graph)
        assert graph._neighbors is None  # compile built no rows
        rows = plan.nbr_ids  # materialized via __getattr__
        assert rows is plan.nbr_ids  # cached in the slot
        closed = plan.closed_sets  # built from the rows on first access
        assert closed is plan.closed_sets
        assert closed[0] == frozenset(range(10)) and plan.index_of[5] == 5
        assert graph._neighbor_sets is None  # not from the graph's sets

    def test_csr_graph_pickles(self):
        import pickle

        graph = random_graph_with_min_degree(20, 4, random.Random(2))
        clone = pickle.loads(pickle.dumps(graph))
        assert_same_graph(graph, clone)
        assert clone.csr_adjacency() is not None


class TestValidationStillGuardsUserInput:
    """Builder-made graphs skip validation; user adjacency must not."""

    def test_asymmetric_mapping_raises(self):
        with pytest.raises(GraphError, match="asymmetric"):
            StaticGraph({0: [1], 1: []})

    def test_self_loop_mapping_raises(self):
        with pytest.raises(GraphError, match="self-loop"):
            StaticGraph({0: [0, 1], 1: [0]})

    def test_edge_outside_graph_raises(self):
        with pytest.raises(GraphError, match="outside the graph"):
            StaticGraph({0: [1, 9], 1: [0]})

    def test_id_space_violation_raises(self):
        with pytest.raises(GraphError, match="outside declared id space"):
            StaticGraph({0: [1], 1: [0]}, id_space=1)

    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            StaticGraph.from_edges([(0, 0)])

    def test_relabeled_still_checks_id_bounds(self):
        """The builder-based relabeling keeps the identifier checks the
        old validate=True pass provided (adjacency validity is free,
        ID bounds depend on the mapping alone)."""
        graph = cycle_graph(3)
        with pytest.raises(GraphError, match="outside declared id space"):
            graph.relabeled({0: 10, 1: 20, 2: 50}, id_space=40)
        with pytest.raises(GraphError, match="non-negative"):
            graph.relabeled({0: -5, 1: 1, 2: 2})
        ok = graph.relabeled({0: 10, 1: 20, 2: 39}, id_space=40)
        assert ok.vertices == (10, 20, 39) and ok.id_space == 40
