"""Tests for Construct — Algorithm 3 / Lemmas 3-8."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constants import Constants
from repro.core.construct import ConstructOnlyProgram, construct_visits
from repro.core.dense import dense_violations, is_dense_set
from repro.graphs.generators import (
    complete_graph,
    powerlaw_graph_with_floor,
    random_geometric_dense_graph,
    random_graph_with_min_degree,
)
from repro.runtime.plan import ExecutionPlan
from repro.runtime.single import run_single_agent


def run_construct(graph, start, delta, constants, seed=0, degree_floor=None):
    program = ConstructOnlyProgram(delta, constants, degree_floor)
    run_single_agent(
        program, graph, start, rounds=10**9, seed=seed, id_space=graph.id_space
    )
    return program.outcome


class TestConstructOutput:
    def test_dense_condition_holds(self, dense_graph_small, testing_constants):
        g = dense_graph_small
        delta = g.min_degree
        outcome = run_construct(g, g.vertices[0], delta, testing_constants)
        assert outcome.completed
        violations = dense_violations(
            g, g.vertices[0], outcome.target_set, testing_constants.alpha(delta), 2
        )
        assert violations == []

    def test_target_contains_closed_neighborhood_of_selected(
        self, dense_graph_small, testing_constants
    ):
        g = dense_graph_small
        outcome = run_construct(g, g.vertices[0], g.min_degree, testing_constants)
        expected = g.closed_neighborhood_of_set(outcome.selected)
        assert frozenset(outcome.target_set) == expected

    def test_selected_within_closed_neighborhood(
        self, dense_graph_small, testing_constants
    ):
        g = dense_graph_small
        start = g.vertices[0]
        outcome = run_construct(g, start, g.min_degree, testing_constants)
        closed = g.closed_neighbor_set(start)
        assert set(outcome.selected) <= closed
        assert outcome.selected[0] == start

    def test_routes_cover_target_set(self, dense_graph_small, testing_constants):
        g = dense_graph_small
        outcome = run_construct(g, g.vertices[0], g.min_degree, testing_constants)
        for vertex in outcome.target_set:
            assert outcome.local_map.route_length(vertex) <= 2

    def test_complete_graph_single_iteration(self, testing_constants):
        g = complete_graph(50)
        outcome = run_construct(g, 0, g.min_degree, testing_constants)
        assert outcome.completed
        assert outcome.iterations == 1
        assert len(outcome.target_set) == 50

    def test_lemma6_iteration_bound(self, testing_constants):
        """Lemma 6: O(n/δ) iterations (we allow the cap's slack)."""
        rng = random.Random(11)
        g = random_graph_with_min_degree(300, 60, rng)
        outcome = run_construct(g, g.vertices[0], g.min_degree, testing_constants)
        assert outcome.completed
        assert outcome.iterations <= 8 * (300 / 60) + 16

    def test_lemma7_strict_runs_logarithmic(self, testing_constants):
        rng = random.Random(13)
        g = random_graph_with_min_degree(400, 90, rng)
        outcome = run_construct(g, g.vertices[0], g.min_degree, testing_constants)
        assert outcome.strict_runs <= 12  # O(log n) with slack

    def test_deterministic_given_seed(self, dense_graph_small, testing_constants):
        g = dense_graph_small
        first = run_construct(g, g.vertices[0], g.min_degree, testing_constants, seed=4)
        second = run_construct(g, g.vertices[0], g.min_degree, testing_constants, seed=4)
        assert first.target_set == second.target_set
        assert first.iterations == second.iterations

    def test_geometric_graphs(self, testing_constants):
        g = random_geometric_dense_graph(150, 35, random.Random(2))
        outcome = run_construct(g, g.vertices[0], g.min_degree, testing_constants)
        assert outcome.completed
        assert is_dense_set(
            g, g.vertices[0], outcome.target_set,
            testing_constants.alpha(g.min_degree), 2,
        )

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 50))
    def test_property_dense_condition_across_seeds(self, seed):
        """Lemma 8 as a property: every run yields a dense set."""
        constants = Constants.testing()
        rng = random.Random(f"prop:{seed}")
        g = random_graph_with_min_degree(120, 30, rng)
        outcome = run_construct(g, g.vertices[0], g.min_degree, constants, seed=seed)
        assert outcome.completed
        assert is_dense_set(
            g, g.vertices[0], outcome.target_set,
            constants.alpha(g.min_degree), 2,
        )


class TestDegreeGuard:
    def test_floor_below_min_degree_completes(self, dense_graph_small, testing_constants):
        g = dense_graph_small
        outcome = run_construct(
            g, g.vertices[0], g.min_degree, testing_constants,
            degree_floor=1,
        )
        assert outcome.completed

    def test_floor_above_some_degree_aborts(self, testing_constants):
        # Graph with one low-degree vertex reachable from the start.
        rng = random.Random(5)
        g = random_graph_with_min_degree(100, 20, rng)
        floor = g.max_degree + 1  # impossible floor: trips immediately
        outcome = run_construct(
            g, g.vertices[0], g.min_degree, testing_constants, degree_floor=floor
        )
        assert not outcome.completed
        assert outcome.target_set is None

    def test_abort_reports_observed_degree(self, testing_constants):
        rng = random.Random(6)
        g = random_graph_with_min_degree(100, 20, rng)
        outcome = run_construct(
            g, g.vertices[0], g.min_degree, testing_constants,
            degree_floor=g.max_degree + 1,
        )
        assert outcome.observed_min_degree <= g.max_degree


class TestConstructOnlyProgram:
    def test_report_shape(self, dense_graph_small, testing_constants):
        g = dense_graph_small
        program = ConstructOnlyProgram(g.min_degree, testing_constants)
        run_single_agent(program, g, g.vertices[0], rounds=10**9, seed=0,
                         id_space=g.id_space)
        report = program.report()
        assert report["completed"]
        assert report["iterations"] >= 1
        assert report["target_set_size"] == len(program.outcome.target_set)

    def test_report_empty_before_run(self, testing_constants):
        program = ConstructOnlyProgram(10, testing_constants)
        assert program.report() == {}


def drive_visits(graph, start, delta, constants, seed=0, degree_floor=None):
    """``Construct``'s visit coroutine answered from an execution plan.

    Each route costs two rounds per hop and is answered with the
    ``(degree, N⁺)`` the plan keeps for its end, as the lockstep
    kernels answer it.
    """
    reads = ExecutionPlan.compile(graph).visit_reads
    rounds = 0
    visits = construct_visits(
        start, *reads[start], graph.neighbors(start), graph.id_space,
        random.Random(f"{seed}:a"), delta, constants, lambda: rounds,
        degree_floor,
    )
    seen = None
    while True:
        try:
            route = visits.send(seen)
        except StopIteration as stop:
            return stop.value
        rounds += 2 * len(route)
        seen = reads[route[-1] if route else start]


def _comparable(outcome):
    """An outcome's fields, its local map as a plain route table."""
    local_map = outcome.local_map
    routes = {v: local_map.route(v) for v in local_map.known_vertices()}
    return dataclasses.replace(outcome, local_map=None), routes


class TestVisitCoroutine:
    """Driving the coroutine from plan tables gives ``construct_run``'s outcome."""

    @pytest.mark.parametrize("seed", range(6))
    def test_outcome_matches_the_per_round_program(self, seed, testing_constants):
        g = random_graph_with_min_degree(90, 14, random.Random(f"coroutine:{seed}"))
        start = g.vertices[seed]
        driven = drive_visits(g, start, g.min_degree, testing_constants, seed)
        program = run_construct(g, start, g.min_degree, testing_constants, seed)
        assert driven.completed
        assert _comparable(driven) == _comparable(program)

    @pytest.mark.parametrize("seed", range(6))
    def test_degree_floor_outcomes_match(self, seed, testing_constants):
        g = powerlaw_graph_with_floor(120, 6, random.Random(f"floor:{seed}"))
        start = max(g.vertices, key=g.degree)
        aborted = 0
        for floor in (1, g.min_degree + 4, g.degree(start) + 1):
            driven = drive_visits(
                g, start, g.min_degree, testing_constants, seed, floor
            )
            program = run_construct(
                g, start, g.min_degree, testing_constants, seed, floor
            )
            assert _comparable(driven) == _comparable(program)
            aborted += not driven.completed
        assert aborted >= 1  # the floor above the start's degree trips at once
