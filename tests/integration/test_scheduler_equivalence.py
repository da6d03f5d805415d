"""Cross-validation of every execution path against its siblings.

Two families of checks:

* the k-agent scheduler generalizes the 2-agent one — with the same
  programs, starts, and seed, ``MultiAgentScheduler`` in pairwise-
  termination mode must reproduce ``SyncScheduler``'s outcome exactly
  (same meeting round, vertex, and move counts); agent names ``a``/``b``
  are passed explicitly so the private random tapes match;
* the engine-backed façades reproduce the frozen seed schedulers
  (:mod:`repro.runtime.reference`) **byte-identically** — full
  ``ExecutionResult`` equality including position traces — for every
  registered algorithm and under both port models;
* the batched trial executor (:func:`repro.experiments.harness.run_trials`
  — one compiled :class:`~repro.runtime.plan.ExecutionPlan`, one reused
  engine or the lockstep kernels) records exactly what the frozen
  engine-reset loop (:func:`repro.runtime.reference.reference_run_trials`)
  records seed by seed, for every registered algorithm.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.random_walk import RandomWalker
from repro.baselines.trivial import TrivialProbeA, WaitingB
from repro.core.api import ALGORITHMS
from repro.core.constants import Constants
from repro.core.main_rendezvous import MainRendezvousA, MarkerB
from repro.experiments.workloads import two_hop_oracle
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    random_graph_with_min_degree,
)
from repro.graphs.ports import PortLabeling, PortModel
from repro.runtime.multi import MultiAgentScheduler
from repro.runtime.reference import (
    ReferenceMultiAgentScheduler,
    ReferenceSyncScheduler,
    reference_run_single_agent,
    reference_run_trials,
)
from repro.runtime.scheduler import SyncScheduler
from repro.runtime.single import run_single_agent


def both_schedulers(graph, make_programs, start_a, start_b, seed, max_rounds):
    prog_a, prog_b = make_programs()
    two = SyncScheduler(
        graph, prog_a, prog_b, start_a, start_b, seed=seed,
        max_rounds=max_rounds,
    ).run()
    prog_a, prog_b = make_programs()
    multi = MultiAgentScheduler(
        graph, [prog_a, prog_b], [start_a, start_b], names=["a", "b"],
        seed=seed, termination="pair", max_rounds=max_rounds,
    ).run()
    return two, multi


class TestEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 200))
    def test_random_walks_identical(self, seed):
        graph = complete_graph(24)
        two, multi = both_schedulers(
            graph, lambda: (RandomWalker(), RandomWalker()), 0, 1, seed, 50_000
        )
        assert two.met == multi.completed
        assert two.rounds == multi.rounds
        assert two.meeting_vertex == multi.meeting_vertex
        assert two.moves["a"] == multi.moves["a"]
        assert two.moves["b"] == multi.moves["b"]

    def test_trivial_identical(self):
        graph = random_graph_with_min_degree(80, 20, random.Random(0))
        start_a = graph.vertices[0]
        start_b = graph.neighbors(start_a)[0]
        two, multi = both_schedulers(
            graph, lambda: (TrivialProbeA(), WaitingB()),
            start_a, start_b, 3, 10_000,
        )
        assert two.rounds == multi.rounds
        assert two.meeting_vertex == multi.meeting_vertex

    def test_main_rendezvous_identical(self):
        graph = random_graph_with_min_degree(100, 25, random.Random(1))
        start_a = graph.vertices[0]
        start_b = graph.neighbors(start_a)[0]
        target_set, via = two_hop_oracle(graph, start_a)

        def make():
            return MainRendezvousA(target_set, routes_via=via), MarkerB()

        two, multi = both_schedulers(graph, make, start_a, start_b, 7, 500_000)
        assert two.met and multi.completed
        assert two.rounds == multi.rounds
        assert two.meeting_vertex == multi.meeting_vertex
        assert two.whiteboard_writes == multi.whiteboard_writes


def _seed_vs_engine(graph, make_programs, start_a, start_b, seed, *,
                    whiteboards=True, max_rounds=500_000, port_model=PortModel.KT1,
                    make_labeling=None):
    """Run one execution through both paths; full traces recorded."""
    kwargs = dict(
        seed=seed,
        whiteboards=whiteboards,
        max_rounds=max_rounds,
        port_model=port_model,
        record_trace=True,
    )
    prog_a, prog_b = make_programs()
    old = ReferenceSyncScheduler(
        graph, prog_a, prog_b, start_a, start_b,
        labeling=make_labeling(graph) if make_labeling else None, **kwargs,
    ).run()
    prog_a, prog_b = make_programs()
    new = SyncScheduler(
        graph, prog_a, prog_b, start_a, start_b,
        labeling=make_labeling(graph) if make_labeling else None, **kwargs,
    ).run()
    return old, new


class TestEngineMatchesSeedSchedulers:
    """The engine-backed façades are byte-identical to the seed loops."""

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_all_registered_algorithms_identical(self, algorithm):
        """Every registry entry: identical results, traces included."""
        spec = ALGORITHMS[algorithm]
        graph = random_graph_with_min_degree(150, 40, random.Random("eq-engine"))
        start_a = graph.vertices[0]
        start_b = graph.neighbors(start_a)[0]
        constants = Constants.testing()
        delta = graph.min_degree if spec.uses_delta else None

        for seed in (0, 11):
            old, new = _seed_vs_engine(
                graph,
                lambda: spec.factory(delta, constants),
                start_a, start_b, seed,
                whiteboards=spec.uses_whiteboards,
                max_rounds=spec.budget(graph, constants),
            )
            assert old == new, f"{algorithm} diverged at seed {seed}"
            assert old.trace == new.trace

    @pytest.mark.parametrize("port_model", [PortModel.KT1, PortModel.KT0])
    def test_port_models_identical(self, port_model):
        """Port-agnostic walkers under both models, shuffled KT0 ports."""
        graph = cycle_graph(64)

        def shuffled(g):
            return PortLabeling(g, rng=random.Random("eq-ports"))

        for seed in range(5):
            old, new = _seed_vs_engine(
                graph,
                lambda: (RandomWalker(), RandomWalker()),
                0, 5, seed,
                whiteboards=False,
                max_rounds=50_000,
                port_model=port_model,
                make_labeling=shuffled,
            )
            assert old == new, f"port model {port_model} diverged at seed {seed}"

    def test_multi_agent_identical(self):
        """k-agent engine loop vs the seed k-agent loop, both modes."""
        graph = complete_graph(24)
        for termination in ("all", "pair"):
            for seed in range(4):
                old = ReferenceMultiAgentScheduler(
                    graph,
                    [RandomWalker(), RandomWalker(), RandomWalker()],
                    [0, 1, 2],
                    seed=seed, termination=termination, max_rounds=100_000,
                ).run()
                new = MultiAgentScheduler(
                    graph,
                    [RandomWalker(), RandomWalker(), RandomWalker()],
                    [0, 1, 2],
                    seed=seed, termination=termination, max_rounds=100_000,
                ).run()
                assert old == new, (
                    f"multi-agent {termination!r} diverged at seed {seed}"
                )

    def test_single_agent_identical(self):
        """Solo engine loop vs the seed solo loop over a static source."""
        graph = random_graph_with_min_degree(80, 10, random.Random("eq-solo"))
        for seed in range(4):
            old = reference_run_single_agent(
                RandomWalker(), graph, graph.vertices[0], 5_000, seed=seed
            )
            new = run_single_agent(
                RandomWalker(), graph, graph.vertices[0], 5_000, seed=seed
            )
            assert old == new, f"solo run diverged at seed {seed}"


def _per_seed(graph, algorithm, seeds, **kwargs):
    """The frozen engine-reset loop run once per seed, each paying its own
    set-up: the serial reference ``run_trials`` must reproduce (``run_trial``
    is itself a batch of one, so it cannot serve)."""
    return [
        reference_run_trials(graph, algorithm, [seed], **kwargs)[0]
        for seed in seeds
    ]


class TestBatchedTrialsMatchSerial:
    """run_trials (shared plan, reused engine or kernels) == per-seed runs."""

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_all_registered_algorithms_identical(self, algorithm):
        from repro.experiments.harness import run_trials

        graph = random_graph_with_min_degree(120, 35, random.Random("eq-batch"))
        constants = Constants.testing()
        seeds = [0, 7, 19]
        serial = _per_seed(graph, algorithm, seeds, constants=constants)
        batched = run_trials(graph, algorithm, seeds, constants=constants)
        assert batched == serial, f"{algorithm} batched records diverged"

    def test_kt0_and_explicit_plan_identical(self):
        from repro.experiments.harness import run_trials
        from repro.runtime.plan import ExecutionPlan

        graph = cycle_graph(48)
        plan = ExecutionPlan.compile(graph, port_model=PortModel.KT0)
        seeds = list(range(6))
        serial = _per_seed(
            graph, "random-walk", seeds,
            port_model=PortModel.KT0, max_rounds=5_000,
        )
        batched = run_trials(
            graph, "random-walk", seeds,
            plan=plan, port_model=PortModel.KT0, max_rounds=5_000,
        )
        assert batched == serial

    def test_explicit_starts_and_delta_identical(self):
        from repro.experiments.harness import run_trials

        graph = random_graph_with_min_degree(90, 25, random.Random("eq-starts"))
        start_a = graph.vertices[0]
        start_b = graph.neighbors(start_a)[0]
        constants = Constants.testing()
        kwargs = dict(
            constants=constants, delta=20, start_a=start_a, start_b=start_b
        )
        seeds = [1, 2]
        serial = _per_seed(graph, "theorem1", seeds, **kwargs)
        batched = run_trials(graph, "theorem1", seeds, **kwargs)
        assert batched == serial

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_single_seed_batch_identical(self, algorithm):
        """A batch of one equals the per-seed path (lockstep or serial)."""
        from repro.experiments.harness import run_trial, run_trials

        graph = random_graph_with_min_degree(64, 16, random.Random("eq-one"))
        constants = Constants.testing()
        serial = _per_seed(graph, algorithm, [9], constants=constants)
        assert run_trials(graph, algorithm, [9], constants=constants) == serial
        assert [run_trial(graph, algorithm, 9, constants=constants)] == serial

    def test_duplicate_seed_batch_identical(self):
        """Repeated seeds each re-run the identical trial."""
        from repro.experiments.harness import run_trials

        graph = random_graph_with_min_degree(64, 16, random.Random("eq-dup"))
        for algorithm in ("random-walk", "trivial", "explore"):
            batched = run_trials(
                graph, algorithm, [3, 3, 3], max_rounds=2_000
            )
            single = _per_seed(graph, algorithm, [3], max_rounds=2_000)
            assert batched == single * 3, algorithm

    def test_mixed_vectorizable_and_fallback_sweep(self):
        """One sweep mixing a lockstep-eligible and a fallback algorithm."""
        from repro.experiments.parallel import (
            CONSTANTS_PRESETS,
            GRAPH_FAMILIES,
            SweepSpec,
            resolve_delta,
            run_sweep,
        )

        spec = SweepSpec(
            name="mixed",
            families=("er-min-degree",),
            ns=(40,),
            deltas=("8",),
            algorithms=("random-walk", "theorem1"),
            seeds=tuple(range(3)),
            max_rounds=50_000,
        )
        swept = run_sweep(spec, workers=1)
        fresh = []
        for point in spec.points():
            delta = resolve_delta(point.delta_spec, point.n)
            rng = random.Random(
                f"sweep-graph:{point.family}:{point.n}:{point.delta_spec}"
            )
            graph = GRAPH_FAMILIES[point.family](point.n, delta, rng)
            fresh.extend(_per_seed(
                graph, point.algorithm, [point.seed],
                constants=CONSTANTS_PRESETS[spec.preset](),
                max_rounds=spec.max_rounds,
            ))
        assert list(swept.records) == fresh
