"""Differential property tests for compiled execution plans.

An :class:`~repro.runtime.plan.ExecutionPlan` is only a *re-encoding*
of a ``(StaticGraph, PortLabeling)`` pair: every plan attribute must
agree with the dict/frozenset accessors of the objects it was compiled
from — on every registered sweep family and on graphs built through
the mapping constructor, under both port models, with shuffled and
explicit hidden labelings.  These tests pin that agreement (plus the
compile-time compatibility checks and the dense-index translation
boundary) so the engine's hot loop can trust the arrays blindly.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchedulerError
from repro.experiments.parallel import GRAPH_FAMILIES, build_graph
from repro.graphs.families import (
    complete_bipartite_graph,
    hypercube_graph,
    margulis_expander,
    stochastic_block_graph,
    torus_grid_graph,
)
from repro.graphs.generators import dilate_id_space, random_graph_with_min_degree
from repro.graphs.graph import StaticGraph
from repro.graphs.lowerbound import swapped_edge_cliques
from repro.graphs.ports import PortLabeling, PortModel
from repro.runtime.plan import ExecutionPlan


def assert_plan_matches(graph, labeling, plan):
    """Every plan attribute vs the graph/labeling dict accessors."""
    assert plan.n == graph.n
    assert plan.ids == graph.vertices
    offsets = plan.neighbor_offsets
    assert len(offsets) == plan.n + 1
    assert offsets[-1] == len(plan.neighbor_indices) == 2 * graph.edge_count
    if plan.port_model is PortModel.KT1:
        assert plan.port_targets is None
        assert plan.kt0_rows is None and plan.kt0_ports is None
    else:
        assert plan.closed_sets is None  # KT0 hides neighbor identifiers
    for index, vertex in enumerate(graph.vertices):
        assert plan.index_of[vertex] == index
        assert plan.degrees[index] == graph.degree(vertex)
        lo, hi = offsets[index], offsets[index + 1]
        # CSR slice, translated back to identifiers, is N(v) in order.
        csr_ids = tuple(plan.ids[i] for i in plan.neighbor_indices[lo:hi])
        assert csr_ids == graph.neighbors(vertex)
        assert plan.nbr_ids[index] == graph.neighbors(vertex)
        accessible = labeling.accessible_ports(vertex, plan.port_model)
        if plan.port_model is PortModel.KT1:
            assert plan.nbr_ids[index] == accessible
            # The KT1 move table row is N⁺(v), and index_of resolves
            # each member to the dense index the CSR slice holds.
            closed = plan.closed_sets[index]
            assert closed == graph.closed_neighbor_set(vertex)
            dense = sorted(plan.index_of[u] for u in closed)
            assert dense == sorted([index, *plan.neighbor_indices[lo:hi]])
            for u in closed:
                assert plan.ids[plan.index_of[u]] == u
        else:
            assert plan.kt0_ports[index] == accessible
            # The flat port table row is the hidden bijection P̂_v.
            row = plan.kt0_rows[index]
            hidden = labeling.port_table()[vertex]
            assert tuple(plan.ids[i] for i in row) == hidden
            assert tuple(plan.port_targets[lo:hi]) == row
            for port, neighbor in enumerate(hidden):
                assert labeling.resolve(vertex, port) == neighbor


@pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
@pytest.mark.parametrize("port_model", [PortModel.KT1, PortModel.KT0])
def test_every_registered_family(family, port_model):
    """Array accessors agree with dict accessors on every sweep family."""
    graph = build_graph(family, 36, "8")
    labeling = PortLabeling(graph, rng=random.Random(f"plan:{family}"))
    plan = ExecutionPlan.compile(graph, labeling=labeling, port_model=port_model)
    assert_plan_matches(graph, labeling, plan)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), kt0=st.booleans())
def test_randomized_er_graphs(seed, kt0):
    """Hypothesis sweep: random instances, shuffled hidden labelings."""
    rng = random.Random(seed)
    graph = random_graph_with_min_degree(30, 6, rng)
    labeling = PortLabeling(graph, rng=rng)
    model = PortModel.KT0 if kt0 else PortModel.KT1
    plan = ExecutionPlan.compile(graph, labeling=labeling, port_model=model)
    assert_plan_matches(graph, labeling, plan)


def test_non_contiguous_identifiers():
    """Dilated ID spaces: dense indices differ from public identifiers."""
    base = random_graph_with_min_degree(24, 6, random.Random("dilate"))
    graph = dilate_id_space(base, 4, random.Random("dilate-map"))
    assert graph.vertices != tuple(range(graph.n))  # the premise
    labeling = PortLabeling(graph, rng=random.Random("dilate-ports"))
    for model in (PortModel.KT1, PortModel.KT0):
        plan = ExecutionPlan.compile(graph, labeling=labeling, port_model=model)
        assert_plan_matches(graph, labeling, plan)


def _mapping_built():
    """Graphs from the mapping constructor, with their labelings."""
    rng = random.Random("mapping-built")
    cases = {
        "hypercube": hypercube_graph(4),
        "torus": torus_grid_graph(4, 5),
        "margulis": margulis_expander(4),
        "bipartite": complete_bipartite_graph(3, 5),
        "stochastic-block": stochastic_block_graph(6, rng, p_in=0.7, p_out=0.1),
        "from-edges-isolated": StaticGraph.from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3)], vertices=[7]
        ),
        "non-contiguous": StaticGraph(
            {3: [10, 42], 10: [3, 42], 42: [3, 10, 99], 99: [42]}, id_space=128
        ),
    }
    out = {
        name: (graph, PortLabeling(graph, rng=random.Random(f"ports:{name}")))
        for name, graph in cases.items()
    }
    graph, labeling, _, _ = swapped_edge_cliques(12, random.Random("swapped"))
    out["swapped-edge-cliques"] = (graph, labeling)  # explicit permutations
    return out


MAPPING_BUILT = _mapping_built()


@pytest.mark.parametrize("name", sorted(MAPPING_BUILT))
@pytest.mark.parametrize("port_model", [PortModel.KT1, PortModel.KT0])
def test_mapping_built_graphs(name, port_model):
    """Mapping-built graphs compile through the same zero-copy path."""
    graph, labeling = MAPPING_BUILT[name]
    plan = ExecutionPlan.compile(graph, labeling=labeling, port_model=port_model)
    assert plan.neighbor_offsets is graph.csr_adjacency()[0]
    if port_model is PortModel.KT0:
        assert plan.port_targets is labeling.flat_port_targets()
    assert_plan_matches(graph, labeling, plan)


class TestCompileContracts:
    def test_kt1_plans_skip_port_tables(self):
        graph = build_graph("complete", 16, "8")
        plan = ExecutionPlan.compile(graph)
        assert plan.port_targets is None
        assert plan.kt0_rows is None and plan.kt0_ports is None

    def test_kt1_default_labeling_is_lazy(self):
        graph = build_graph("complete", 16, "8")
        plan = ExecutionPlan.compile(graph)
        assert plan._labeling is None
        assert plan.labeling.graph is graph  # built on first access
        assert plan._labeling is plan.labeling

    def test_foreign_labeling_rejected(self):
        graph = build_graph("complete", 16, "8")
        other = build_graph("regular", 16, "8")
        with pytest.raises(SchedulerError, match="different graph"):
            ExecutionPlan.compile(graph, labeling=PortLabeling(other))

    def test_ensure_matches(self):
        graph = build_graph("regular", 16, "4")
        twin = graph.relabeled({v: v for v in graph.vertices})
        plan = ExecutionPlan.compile(graph)
        plan.ensure_matches(graph, None, PortModel.KT1)
        # A content-equal labeling is the same execution — accepted.
        plan.ensure_matches(graph, PortLabeling(graph), PortModel.KT1)
        with pytest.raises(SchedulerError, match="different graph"):
            plan.ensure_matches(twin, None, PortModel.KT1)
        with pytest.raises(SchedulerError, match="KT1, not KT0"):
            plan.ensure_matches(graph, None, PortModel.KT0)
        shuffled = PortLabeling(graph, rng=random.Random(99))
        with pytest.raises(SchedulerError, match="different port labeling"):
            plan.ensure_matches(graph, shuffled, PortModel.KT1)

    def test_plan_with_custom_labeling_governs_the_run(self):
        """A KT0 plan carries its labeling; the plan-less twin must pass
        the same labeling explicitly to reproduce the records."""
        from repro.experiments.harness import run_trial, run_trials

        graph = build_graph("regular", 24, "4")
        shuffled = PortLabeling(graph, rng=random.Random(5))
        plan = ExecutionPlan.compile(
            graph, labeling=shuffled, port_model=PortModel.KT0
        )
        batched = run_trials(
            graph, "random-walk", range(3),
            plan=plan, port_model=PortModel.KT0, max_rounds=2_000,
        )
        serial = [
            run_trial(graph, "random-walk", seed, labeling=shuffled,
                      port_model=PortModel.KT0, max_rounds=2_000)
            for seed in range(3)
        ]
        assert batched == serial
