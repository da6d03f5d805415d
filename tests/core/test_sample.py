"""Tests for Sample(Γ, α) — Algorithm 2 / Lemma 2."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import sample as sample_module
from repro.core.constants import Constants
from repro.core.dense import heavy_set, light_set
from repro.core.knowledge import LocalMap
from repro.core.sample import SampleOutcome, route_back, sample_run, sample_visits, tally_heavy
from repro.graphs.generators import random_graph_with_min_degree, star_graph
from repro.graphs.graph import StaticGraph
from repro.runtime.agent import AgentProgram, walk
from repro.runtime.plan import ExecutionPlan
from repro.runtime.single import run_single_agent


class SampleHarness(AgentProgram):
    """Runs one ``sample`` call over Γ (default N⁺(start)).

    The local map defaults to direct routes to the start's neighbors.
    """

    def __init__(self, alpha, constants, degree_floor=None, gamma=None,
                 local_map=None, sample=sample_run):
        self._alpha = alpha
        self._constants = constants
        self._degree_floor = degree_floor
        self._gamma = gamma
        self._local_map = local_map
        self._sample = sample
        self.outcome = None
        self.home_closed = None
        self.end_vertex = None

    def run(self, ctx):
        self.home_closed = frozenset(ctx.view.closed_neighbors)
        lm = self._local_map
        if lm is None:
            lm = LocalMap(ctx.start_vertex)
            for u in ctx.view.neighbors:
                lm.add_direct(u)
        gamma = self._gamma if self._gamma is not None else sorted(self.home_closed)
        self.outcome = yield from self._sample(
            ctx, gamma, self._alpha, lm, self.home_closed, self._constants,
            degree_floor=self._degree_floor,
        )
        self.end_vertex = ctx.view.vertex


def run_harness(graph, start, harness, seed=0):
    run_single_agent(harness, graph, start, rounds=10**9, seed=seed,
                     id_space=graph.id_space)
    return harness


class TestRouteBack:
    def test_one_hop(self):
        assert route_back((3,), 0) == [0]

    def test_two_hop(self):
        assert route_back((3, 7), 0) == [3, 0]

    def test_empty(self):
        assert route_back((), 0) == [0]


class TestSampleRun:
    def test_empty_gamma_returns_empty_heavy(self):
        g = star_graph(6, center=0)
        harness = run_harness(
            g, 0, SampleHarness(2.0, Constants.testing(), gamma=[])
        )
        assert harness.outcome.heavy == frozenset()
        assert harness.outcome.visits == 0

    def test_agent_returns_home(self):
        g = random_graph_with_min_degree(60, 12, random.Random(0))
        harness = run_harness(g, g.vertices[0], SampleHarness(2.0, Constants.testing()))
        assert harness.end_vertex == g.vertices[0]

    def test_classification_matches_lemma2(self):
        """Declared-heavy are α-heavy; undeclared are 4α-light (Cor. 1)."""
        constants = Constants.testing()
        rng = random.Random(7)
        g = random_graph_with_min_degree(150, 35, rng)
        start = g.vertices[0]
        alpha = constants.alpha(g.min_degree)
        for seed in range(3):
            harness = run_harness(g, start, SampleHarness(alpha, constants), seed)
            gamma = harness.home_closed
            declared = harness.outcome.heavy
            truly_light = light_set(g, gamma, alpha, universe=gamma)
            heavy4 = heavy_set(g, gamma, 4 * alpha, universe=gamma)
            assert not declared & truly_light, "alpha-light vertex declared heavy"
            assert heavy4 <= declared, "4alpha-heavy vertex declared light"

    def test_degree_floor_trips_guard(self):
        # A star: every leaf has degree 1, so a floor of 2 must trip.
        g = star_graph(30, center=0)
        harness = run_harness(
            g, 0, SampleHarness(1.0, Constants.testing(), degree_floor=2)
        )
        assert harness.outcome.guard_tripped
        assert harness.outcome.heavy is None
        assert harness.end_vertex == 0  # walked home before returning

    def test_observed_min_degree(self):
        g = star_graph(10, center=0)
        harness = run_harness(g, 0, SampleHarness(1.0, Constants.testing()))
        assert harness.outcome.observed_min_degree == 1

    def test_visit_count_matches_constants(self):
        constants = Constants.testing()
        g = random_graph_with_min_degree(50, 10, random.Random(1))
        start = g.vertices[0]
        harness = run_harness(g, start, SampleHarness(5.0, constants))
        expected = constants.sample_count(
            len(harness.home_closed), 5.0, g.id_space
        )
        assert harness.outcome.visits == expected

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_property_deterministic_given_seed(self, seed):
        g = random_graph_with_min_degree(40, 8, random.Random(5))
        start = g.vertices[0]
        first = run_harness(g, start, SampleHarness(1.0, Constants.testing()), seed)
        second = run_harness(g, start, SampleHarness(1.0, Constants.testing()), seed)
        assert first.outcome.heavy == second.outcome.heavy


def per_visit_sample_run(
    ctx, gamma, alpha, local_map, home_closed, constants, degree_floor=None,
):
    """``Sample`` counting every candidate on every visit: the reference.

    Algorithm 2's count as written; ``sample_run``'s per-set tally must
    give the same outcome and walk exactly.
    """
    home = local_map.home
    observed_min = ctx.view.degree if ctx.view is not None else 0
    if not gamma:
        return SampleOutcome(
            heavy=frozenset(), guard_tripped=False, visits=0,
            observed_min_degree=observed_min,
        )

    total = constants.sample_count(len(gamma), alpha, ctx.id_space)
    threshold = constants.sample_threshold(ctx.id_space)
    counts = Counter()
    rng = ctx.rng

    for visit_index in range(total):
        target = gamma[rng.randrange(len(gamma))]
        route = local_map.route(target)
        yield from walk(ctx, route)

        degree_here = ctx.view.degree
        if degree_here < observed_min:
            observed_min = degree_here
        if degree_floor is not None and degree_here < degree_floor:
            yield from walk(ctx, route_back(route, home))
            return SampleOutcome(
                heavy=None,
                guard_tripped=True,
                visits=visit_index + 1,
                observed_min_degree=observed_min,
            )

        for u in ctx.view.closed_neighbors & home_closed:
            counts[u] += 1

        yield from walk(ctx, route_back(route, home))

    heavy = frozenset(u for u, c in counts.items() if c >= threshold)
    return SampleOutcome(
        heavy=heavy, guard_tripped=False, visits=total,
        observed_min_degree=observed_min,
    )


def fold_and_reference(make_source, home, id_space, seed, alpha, gamma,
                       local_map=None, degree_floor=None):
    """(outcome, positions) of the fold and of the per-visit reference."""
    runs = []
    for sample in (sample_run, per_visit_sample_run):
        harness = SampleHarness(
            alpha, Constants.testing(), degree_floor, gamma, local_map, sample,
        )
        recorder = run_single_agent(
            harness, make_source(), home, rounds=10**9, seed=seed,
            id_space=id_space,
        )
        runs.append((harness.outcome, recorder.positions))
    return runs


def two_hop_map(graph, home):
    """Routes from ``home`` to every vertex within distance two."""
    local_map = LocalMap(home)
    for u in graph.neighbors(home):
        local_map.add_direct(u)
    for u in graph.neighbors(home):
        for w in graph.neighbors(u):
            local_map.add_via(u, w)
    return local_map


def with_closed_twins(graph, originals):
    """``graph`` plus one new vertex per original with the same ``N⁺``."""
    adjacency = {v: set(graph.neighbors(v)) for v in graph.vertices}
    twin = max(graph.vertices)
    for x in originals:
        twin += 1
        adjacency[twin] = adjacency[x] | {x}
        for w in adjacency[x]:
            adjacency[w].add(twin)
        adjacency[x].add(twin)
    return StaticGraph(adjacency)


class ChurningNeighborhoods:
    """A star whose leaves' mutual edges flip as the agent arrives.

    Every leaf keeps its edge to the center; on each arrival at a leaf
    ``v`` each edge ``v–w`` to another leaf flips with probability 1/2,
    so ``N(v)`` differs from one visit to ``v`` to the next.
    """

    def __init__(self, center, leaves, seed):
        self._center = center
        self._leaves = leaves
        self._rng = random.Random(seed)
        self._adjacency = {center: set(leaves)}
        for v in leaves:
            self._adjacency[v] = {center}

    def neighbors(self, vertex):
        return tuple(sorted(self._adjacency[vertex]))

    def on_arrival(self, vertex, round_):
        if vertex == self._center:
            return
        for w in self._leaves:
            if w != vertex and self._rng.random() < 0.5:
                self._adjacency[vertex] ^= {w}
                self._adjacency[w] ^= {vertex}


def with_repeats(picks):
    """Γ as a multiset: ``picks`` followed by a repeat of its first half."""
    return picks + picks[: len(picks) // 2 + 1]


class TestFoldEqualsPerVisitCount:
    """The per-set tally gives the per-visit count's outcome and walk."""

    @settings(max_examples=25, deadline=None)
    @given(
        graph_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
        alpha=st.sampled_from([1.0, 2.0, 4.0]),
        degree_floor=st.none() | st.integers(6, 10),
        data=st.data(),
    )
    def test_random_graphs(self, graph_seed, seed, alpha, degree_floor, data):
        graph = random_graph_with_min_degree(40, 6, random.Random(graph_seed))
        home = graph.vertices[0]
        local_map = two_hop_map(graph, home)
        picks = data.draw(st.lists(
            st.sampled_from(sorted(local_map.known_vertices())),
            min_size=1, max_size=16,
        ))
        fold, reference = fold_and_reference(
            lambda: graph, home, graph.id_space, seed, alpha, with_repeats(picks),
            local_map, degree_floor,
        )
        assert fold == reference

    @settings(max_examples=25, deadline=None)
    @given(
        graph_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
        alpha=st.sampled_from([1.0, 2.0, 4.0]),
    )
    def test_twin_vertices_share_one_key(self, graph_seed, seed, alpha):
        base = random_graph_with_min_degree(30, 5, random.Random(graph_seed))
        home = base.vertices[0]
        originals = base.neighbors(home)[:3]
        graph = with_closed_twins(base, originals)
        twins = range(max(base.vertices) + 1, max(graph.vertices) + 1)
        for x, twin in zip(originals, twins):
            assert graph.closed_neighbor_set(x) == graph.closed_neighbor_set(twin)
        local_map = two_hop_map(graph, home)
        gamma = with_repeats([*originals, *twins])
        fold, reference = fold_and_reference(
            lambda: graph, home, graph.id_space, seed, alpha, gamma, local_map,
        )
        assert fold == reference

    @settings(max_examples=25, deadline=None)
    @given(
        source_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
        alpha=st.sampled_from([1.0, 2.0, 3.0]),
    )
    def test_neighborhoods_that_change_between_visits(self, source_seed, seed, alpha):
        center, leaves = 0, tuple(range(1, 7))
        fold, reference = fold_and_reference(
            lambda: ChurningNeighborhoods(center, leaves, source_seed),
            center, 64, seed, alpha, with_repeats(list(leaves)),
        )
        assert fold == reference


def counter_tally(observed, home_closed, threshold):
    """Sample's closing tally as a ``Counter`` loop over all of ``N⁺(v₀ᵃ)``.

    The reference ``tally_heavy``'s plain-dict, early-exit tally must
    give the same heavy set.
    """
    counts = Counter()
    for closed, tally in Counter(observed).items():
        for u in closed & home_closed:
            counts[u] += tally
    return frozenset(u for u, c in counts.items() if c >= threshold)


def drive_from_plan(visits, reads, home):
    """Play a visit coroutine on a plan's ``(degree, N⁺)`` reads."""
    try:
        route = next(visits)
        while True:
            route = visits.send(reads[route[-1] if route else home])
    except StopIteration as stop:
        return stop.value


class TestEarlyExitTallyEqualsCounterLoop:
    """The live-set tally gives the ``Counter`` loop's heavy set."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        family=st.lists(
            st.frozensets(st.integers(0, 15), max_size=8), min_size=1, max_size=12
        ),
        repeats=st.lists(st.integers(0, 11), max_size=16),
        home_closed=st.frozensets(st.integers(8, 23), min_size=1, max_size=12),
    )
    def test_families_with_repeats(self, family, repeats, home_closed):
        # Members 8..15 are shared, so H only partly overlaps the sets.
        observed = family + [family[i % len(family)] for i in repeats]
        counts = Counter(u for closed in observed for u in closed & home_closed)
        # 1, every count that occurs, and one above every count.
        for threshold in {1, *counts.values(), max(counts.values(), default=0) + 1}:
            assert tally_heavy(observed, home_closed, threshold) == counter_tally(
                observed, home_closed, threshold
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_sample_visits_on_plan_reads(self, monkeypatch, seed):
        graph = random_graph_with_min_degree(80, 16, random.Random(11))
        plan = ExecutionPlan.compile(graph)
        reads = plan.visit_reads
        home = graph.vertices[seed]
        degree, home_closed = reads[home]
        local_map = two_hop_map(graph, home)
        constants = Constants.testing()
        alpha = constants.alpha(graph.min_degree)
        gamma = sorted(home_closed)

        def outcome():
            return drive_from_plan(sample_visits(
                gamma, alpha, local_map, home_closed, constants, graph.id_space,
                random.Random(seed), degree,
            ), reads, home)

        fast = outcome()
        monkeypatch.setattr(sample_module, "tally_heavy", counter_tally)
        reference = outcome()
        assert fast == reference
        assert fast.heavy  # the comparison is not between empty sets
