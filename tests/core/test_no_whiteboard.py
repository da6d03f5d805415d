"""Tests for the whiteboard-free algorithm (Algorithm 4 / Theorem 2)."""

from __future__ import annotations

import math
import random

import pytest

from repro.core.api import rendezvous
from repro.core.constants import Constants
from repro.core.construct import construct_run
from repro.core.no_whiteboard import (
    NoWhiteboardA,
    NoWhiteboardB,
    construct_report,
    theorem2_programs,
)
from repro.core.sample import route_back
from repro.errors import SynchronizationError
from repro.experiments.workloads import run_theorem2_oracle, two_hop_oracle
from repro.graphs.generators import random_graph_with_min_degree
from repro.runtime.actions import Move, Stay, WaitUntil
from repro.runtime.agent import AgentProgram, walk
from repro.runtime.scheduler import SyncScheduler
from repro.runtime.single import run_single_agent


@pytest.fixture(scope="module")
def t2_graph():
    return random_graph_with_min_degree(220, 60, random.Random("t2-tests"))


class TestEndToEnd:
    @pytest.mark.parametrize("seed", range(3))
    def test_meets(self, t2_graph, testing_constants, seed):
        result = rendezvous(t2_graph, "theorem2", seed=seed,
                            constants=testing_constants)
        assert result.met

    def test_no_whiteboard_accesses(self, t2_graph, testing_constants):
        result = rendezvous(t2_graph, "theorem2", seed=0,
                            constants=testing_constants)
        assert result.met
        assert result.whiteboard_reads == 0
        assert result.whiteboard_writes == 0

    def test_shared_constants_required(self):
        with pytest.raises(ValueError):
            NoWhiteboardA(0)
        with pytest.raises(ValueError):
            NoWhiteboardB(0)

    def test_theorem2_programs_share_preset(self, testing_constants):
        a, b = theorem2_programs(10, testing_constants)
        assert a._constants is b._constants  # noqa: SLF001 - deliberate check


class TestBarrier:
    def test_sync_error_when_barrier_too_small(self, t2_graph):
        """A barrier shorter than Construct raises SynchronizationError.

        Run agent a alone: in two-agent runs the incidental collision
        with the waiting agent b usually ends the execution first.
        """
        from repro.runtime.single import run_single_agent

        constants = Constants.testing().with_overrides(sync_multiplier=1e-9)
        prog_a = NoWhiteboardA(t2_graph.min_degree, constants)
        with pytest.raises(SynchronizationError):
            run_single_agent(
                prog_a, t2_graph, t2_graph.vertices[0], rounds=10**9,
                id_space=t2_graph.id_space,
            )

    def test_default_barrier_accommodates_construct(self, t2_graph, testing_constants):
        for seed in range(3):
            result = rendezvous(t2_graph, "theorem2", seed=seed,
                                constants=testing_constants)
            assert result.met


def _edge(graph, seed):
    rng = random.Random(seed)
    edges = list(graph.edges())
    return edges[rng.randrange(len(edges))]


class TestOracleMode:
    def test_oracle_skips_construct(self, t2_graph, testing_constants):
        constants = testing_constants.with_overrides(sync_multiplier=1e-9)
        start_a, start_b = _edge(t2_graph, 0)
        result = run_theorem2_oracle(t2_graph, start_a, start_b, 0, constants)
        assert result.met
        assert result.reports["a"]["construct_rounds"] == 0

    def test_oracle_meets_across_seeds(self, t2_graph, testing_constants):
        constants = testing_constants.with_overrides(sync_multiplier=1e-9)
        start_a, start_b = _edge(t2_graph, 1)
        for seed in range(5):
            result = run_theorem2_oracle(t2_graph, start_a, start_b, seed, constants)
            assert result.met, f"seed {seed}"

    def test_oracle_requires_route_info(self, t2_graph, testing_constants):
        prog_a = NoWhiteboardA(
            t2_graph.min_degree, testing_constants,
            oracle_target_set=[t2_graph.vertices[0], t2_graph.vertices[-1]],
        )
        prog_b = NoWhiteboardB(t2_graph.min_degree, testing_constants)
        start_a = t2_graph.vertices[0]
        start_b = t2_graph.neighbors(start_a)[0]
        scheduler = SyncScheduler(
            t2_graph, prog_a, prog_b, start_a, start_b,
            whiteboards=False, max_rounds=1000,
        )
        if t2_graph.vertices[-1] not in t2_graph.neighbor_set(start_a):
            with pytest.raises(ValueError):
                scheduler.run()


class TestScheduleStats:
    def test_phase_geometry_reported(self, t2_graph, testing_constants):
        constants = testing_constants.with_overrides(sync_multiplier=1e-9)
        start_a, start_b = _edge(t2_graph, 2)
        result = run_theorem2_oracle(t2_graph, start_a, start_b, 3, constants)
        report = result.reports["a"]
        beta = constants.block_width(t2_graph.min_degree)
        assert report["num_phases"] == math.ceil(t2_graph.id_space / beta)
        assert report["phase_length"] == report["dwell"] ** 2
        assert report["slot_overflows"] == 0

    def test_sparseness_holds_at_test_sizes(self, t2_graph, testing_constants):
        constants = testing_constants.with_overrides(sync_multiplier=1e-9)
        start_a, start_b = _edge(t2_graph, 3)
        result = run_theorem2_oracle(t2_graph, start_a, start_b, 4, constants)
        dwell = result.reports["a"]["dwell"]
        # b's sweep cost for its densest block fits inside one repetition.
        assert 4 * result.reports["b"]["max_block_size"] <= dwell


class _LoopA(NoWhiteboardA):
    """Agent a's phases as the per-round loop they were written as before
    the schedule coroutine: the reference the adapter must reproduce."""

    def run(self, ctx):
        constants = self._constants
        delta = float(self._delta)
        n_prime = ctx.id_space
        t_prime = constants.sync_barrier(n_prime, delta)
        outcome = yield from construct_run(ctx, delta, constants)
        if ctx.view.round > t_prime:
            raise SynchronizationError("Construct finished after the barrier")
        self._stats.update(construct_report(outcome))
        blocks, stats = self.probe_set(ctx.rng, outcome.target_set, n_prime)
        self._stats.update(stats)
        dwell = constants.dwell_rounds(n_prime)
        phase_len = constants.phase_length(n_prime)
        home = ctx.start_vertex
        yield WaitUntil(t_prime)
        for phase in range(stats["num_phases"]):
            phase_start = t_prime + phase * phase_len
            phase_end = phase_start + phase_len
            members = blocks.get(phase, [])
            for slot, u in enumerate(members):
                slot_start = phase_start + slot * dwell
                slot_end = slot_start + dwell
                if slot_end > phase_end:
                    self._stats["slot_overflows"] += len(members) - slot
                    break
                yield WaitUntil(slot_start)
                route = outcome.local_map.route(u)
                yield from walk(ctx, route)
                yield WaitUntil(slot_end - len(route))
                yield from walk(ctx, route_back(route, home))
            yield WaitUntil(phase_end)
        self._stats["finished_round"] = ctx.view.round


class _LoopB(NoWhiteboardB):
    """Agent b's phases as the per-round loop they were written as."""

    def run(self, ctx):
        constants = self._constants
        n_prime = ctx.id_space
        home = ctx.start_vertex
        t_prime, blocks, stats = self.opening(
            ctx.rng, ctx.view.closed_neighbors, n_prime
        )
        self._stats.update(stats)
        dwell = constants.dwell_rounds(n_prime)
        phase_len = constants.phase_length(n_prime)
        num_phases = math.ceil(n_prime / constants.block_width(self._delta))
        yield WaitUntil(t_prime)
        for phase in range(num_phases):
            phase_start = t_prime + phase * phase_len
            phase_end = phase_start + phase_len
            members = blocks.get(phase, [])
            if members:
                for repetition in range(dwell):
                    rep_start = phase_start + repetition * dwell
                    rep_end = rep_start + dwell
                    yield WaitUntil(rep_start)
                    for u in members:
                        if ctx.view.round + 4 > rep_end:
                            self._stats["sweep_overflows"] += 1
                            break
                        if u == home:
                            yield Stay()
                            yield Stay()
                            yield Stay()
                        else:
                            yield Move(u)
                            yield Stay()
                            yield Stay()
                            yield Move(home)
                    yield WaitUntil(rep_end)
            yield WaitUntil(phase_end)
        self._stats["finished_round"] = ctx.view.round


class _Recorded(AgentProgram):
    """Runs ``inner`` and keeps ``(round, vertex, action)`` of every fetch."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.fetches: list[tuple] = []

    def run(self, ctx):
        for action in self.inner.run(ctx):
            self.fetches.append((ctx.view.round, ctx.view.vertex, repr(action)))
            yield action

    def report(self):
        return self.inner.report()


def _solo(program, graph, start, seed):
    """Every fetch and the report of ``program`` run alone to its end."""
    recorded = _Recorded(program)
    result = run_single_agent(
        recorded, graph, start, rounds=10**9, seed=seed, id_space=graph.id_space
    )
    assert result.halted
    return recorded.fetches, result.report


class TestScheduleCoroutines:
    """The phase schedules, played per round, are the old per-round loops:
    the same ``WaitUntil`` and hop on the same round, the same reports."""

    #: (constants, δ the programs assume) per case.
    CASES = {
        "aggressive": (Constants.aggressive(), 14),
        "testing": (Constants.testing(), 14),
        # L = 4 with β = 6: slots and sweeps overflow, waits fall due late.
        "short-dwell": (Constants.aggressive().with_overrides(dwell_slack=0.02), 30),
    }

    @pytest.fixture(scope="class")
    def graph(self):
        return random_graph_with_min_degree(90, 14, random.Random("schedules"))

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", range(3))
    def test_agent_a_plays_the_old_loop(self, graph, case, seed):
        constants, delta = self.CASES[case]
        start = graph.vertices[seed]
        fetches, report = _solo(NoWhiteboardA(delta, constants), graph, start, seed)
        old_fetches, old_report = _solo(_LoopA(delta, constants), graph, start, seed)
        assert fetches == old_fetches
        assert report == old_report and list(report) == list(old_report)
        assert (report["slot_overflows"] > 0) == (case == "short-dwell")

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", range(3))
    def test_agent_b_plays_the_old_loop(self, graph, case, seed):
        constants, delta = self.CASES[case]
        start = graph.vertices[seed]
        fetches, report = _solo(NoWhiteboardB(delta, constants), graph, start, seed)
        old_fetches, old_report = _solo(_LoopB(delta, constants), graph, start, seed)
        assert fetches == old_fetches
        assert report == old_report and list(report) == list(old_report)
        assert (report["sweep_overflows"] > 0) == (case == "short-dwell")
