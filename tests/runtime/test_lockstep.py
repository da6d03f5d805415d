"""Differential fuzz suite for the lockstep executor.

The lockstep route (:mod:`repro.runtime.lockstep`) must be *invisible*:
for every eligible batch, :func:`repro.experiments.harness.run_trials`
has to return records byte-identical to both

* the serial engine path (the façade + ``Engine.reset`` loop, reached
  by making the kernels decline the batch), and
* the frozen second-tier oracle
  :func:`repro.runtime.reference.reference_run_trials`,

and every ineligible batch must fall back to the serial path with no
observable difference.  These tests sweep a randomized matrix — every
registered algorithm × both port models × several graph families ×
shuffled KT0 labelings × dilated ID spaces × mixed/duplicate seed
batches — comparing the JSON byte encoding of whole record batches,
plus call-for-call RNG-tape pinning against the serial draw sequence
(including under ``fork`` and ``spawn`` start methods).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import multiprocessing
import random
from unittest import mock

import pytest

from repro.core.api import ALGORITHMS, prepare_rendezvous
from repro.core.constants import Constants
from repro.core.no_whiteboard import NoWhiteboardA
from repro.errors import ProtocolError, ReproError, SynchronizationError
from repro.experiments import harness
from repro.experiments.harness import run_trials
from repro.experiments.parallel import build_graph
from repro.experiments.results_io import record_to_jsonable
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    dilate_id_space,
    powerlaw_graph_with_floor,
    random_graph_with_min_degree,
    random_regular_graph,
)
from repro.graphs.graph import StaticGraph
from repro.graphs.lowerbound import cliques_sharing_vertex
from repro.graphs.ports import PortLabeling, PortModel
from repro.runtime import lockstep
from repro.runtime import plan as plan_module
from repro.runtime.lockstep import (
    lockstep_supported,
    run_lockstep_batch,
    walk_choice_tape,
)
from repro.runtime.plan import ExecutionPlan
from repro.runtime.actions import Move, Stay, WaitUntil
from repro.runtime.agent import AgentProgram
from repro.runtime.reference import ReferenceSyncScheduler, reference_run_trials
from repro.runtime.scheduler import SyncScheduler
from repro.runtime.single import run_single_agent


def _record_bytes(records) -> bytes:
    """Whole-batch JSON encoding — the byte-equality currency."""
    return b"\n".join(
        json.dumps(record_to_jsonable(r), sort_keys=True).encode()
        for r in records
    )


def _declined(*args, **kwargs):
    """Stands in for ``run_lockstep_batch``: the kernels' own decline path."""
    return None


def _armed(graph, algorithm, seeds, **kwargs):
    """Seeds armed as ``run_trials`` arms them for the kernels."""
    return [
        (seed, *prepare_rendezvous(graph, algorithm, seed=seed, **kwargs)[1:])
        for seed in seeds
    ]


def _per_seed_oracle(graph, algorithm, seeds, **kwargs):
    """One frozen-oracle call per seed: the independent serial reference."""
    return [
        reference_run_trials(graph, algorithm, [seed], **kwargs)[0]
        for seed in seeds
    ]


def _classic(graph, algorithm, seeds, **kwargs):
    """The engine-reset loop: ``run_trials`` with the kernels declining."""
    with mock.patch.object(harness, "run_lockstep_batch", _declined):
        return run_trials(graph, algorithm, seeds, **kwargs)


def _assert_all_paths_identical(graph, algorithm, seeds, **kwargs):
    """Lockstep-routed, serial-engine, and frozen-oracle records agree."""
    routed = run_trials(graph, algorithm, seeds, **kwargs)
    serial = _classic(graph, algorithm, seeds, **kwargs)
    oracle = reference_run_trials(graph, algorithm, seeds, **kwargs)
    assert _record_bytes(routed) == _record_bytes(serial), (
        f"{algorithm} lockstep batch diverged from the serial engine"
    )
    assert _record_bytes(routed) == _record_bytes(oracle), (
        f"{algorithm} lockstep batch diverged from the frozen oracle"
    )
    return routed


def _fuzz_graphs():
    """The graph-family axis, including a dilated-ID-space instance."""
    rng = random.Random("lockstep-fuzz-graphs")
    graphs = [
        random_graph_with_min_degree(64, 9, rng),
        random_regular_graph(48, 7, rng),
        cycle_graph(40),
        complete_graph(18),
        powerlaw_graph_with_floor(56, 4, rng),
    ]
    graphs.append(dilate_id_space(graphs[0], 13, random.Random("dilate")))
    return graphs


class TestDifferentialFuzzMatrix:
    """Every algorithm × both port models × randomized instances."""

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize("port_model", [PortModel.KT1, PortModel.KT0])
    def test_full_matrix_byte_identical(self, algorithm, port_model):
        constants = Constants.testing()
        rng = random.Random(f"matrix:{algorithm}:{port_model}")
        graph = random_graph_with_min_degree(60, 12, rng)
        labeling = (
            PortLabeling(graph, rng=rng)
            if port_model is PortModel.KT0
            else None
        )
        seeds = [0, 3, 3, 11]  # duplicates included on purpose
        kwargs = dict(
            constants=constants, port_model=port_model, labeling=labeling
        )
        try:
            expected = _classic(graph, algorithm, seeds, **kwargs)
            failed = None
        except ProtocolError as error:
            expected, failed = None, error
        if failed is not None:
            # KT1-only algorithms must raise identically via the route.
            with pytest.raises(ProtocolError) as info:
                run_trials(graph, algorithm, seeds, **kwargs)
            assert str(info.value) == str(failed)
            return
        routed = run_trials(graph, algorithm, seeds, **kwargs)
        oracle = reference_run_trials(graph, algorithm, seeds, **kwargs)
        assert _record_bytes(routed) == _record_bytes(expected)
        assert _record_bytes(routed) == _record_bytes(oracle)

    @pytest.mark.parametrize("port_model", [PortModel.KT1, PortModel.KT0])
    def test_walk_fuzz_across_families(self, port_model):
        """Random walks over every family, shuffled KT0 labelings."""
        rng = random.Random(f"walk-fuzz:{port_model}")
        for graph in _fuzz_graphs():
            labeling = (
                PortLabeling(graph, rng=rng)
                if port_model is PortModel.KT0
                else None
            )
            seeds = [rng.randrange(1000) for _ in range(rng.randrange(1, 6))]
            cap = rng.choice([25, 200, 2500])
            _assert_all_paths_identical(
                graph, "random-walk", seeds,
                max_rounds=cap, port_model=port_model, labeling=labeling,
            )

    def test_trivial_fuzz_across_families(self):
        rng = random.Random("trivial-fuzz")
        for graph in _fuzz_graphs():
            seeds = [rng.randrange(1000) for _ in range(4)]
            # Caps straddle the probe's 2·deg + 1 halting timeline so
            # met, budget-exhausted, and both-halted outcomes all occur.
            for cap in (None, 3, 2 * graph.max_degree + 16):
                _assert_all_paths_identical(
                    graph, "trivial", seeds, max_rounds=cap
                )

    def test_seeds_retire_at_different_rounds(self):
        """One batch mixing early meetings with max_rounds exhaustion."""
        graph = random_regular_graph(36, 5, random.Random("retire"))
        records = _assert_all_paths_identical(
            graph, "random-walk", list(range(12)), max_rounds=120
        )
        met_rounds = sorted({r.rounds for r in records if r.met})
        capped = [r for r in records if not r.met]
        assert len(met_rounds) > 1, "want meetings at distinct rounds"
        assert capped, "want at least one seed hitting max_rounds"
        assert all(r.rounds == 120 for r in capped)

    def test_explicit_starts_and_plan(self):
        graph = random_graph_with_min_degree(50, 10, random.Random("starts"))
        start_a = graph.vertices[0]
        start_b = graph.neighbors(start_a)[0]
        plan = ExecutionPlan.compile(graph)
        _assert_all_paths_identical(
            graph, "random-walk", [2, 4, 8],
            plan=plan, start_a=start_a, start_b=start_b, max_rounds=600,
        )


class TestTapePinning:
    """The pre-drawn tapes replay the serial RNG streams call-for-call."""

    def test_tape_reproduces_serial_draw_sequence(self):
        """walk_choice_tape == hand-replayed random()/randrange() calls."""
        graph = random_graph_with_min_degree(40, 6, random.Random("tape"))
        plan = ExecutionPlan.compile(graph)
        offsets = list(plan.neighbor_offsets)
        table = list(plan.neighbor_indices)
        degrees = list(plan.degrees)
        bits = [d.bit_length() for d in degrees]
        for seed in range(5):
            serial_rng = random.Random(f"{seed}:a")
            pos, expected = 7, []
            for _ in range(400):
                if serial_rng.random() < 0.5:
                    expected.append(pos)
                else:
                    port = serial_rng.randrange(degrees[pos])
                    pos = table[offsets[pos] + port]
                    expected.append(pos)
            tape_rng = random.Random(f"{seed}:a")
            tape, moves = walk_choice_tape(
                tape_rng, 7, 400, offsets, table, degrees, bits, 0.5
            )
            assert tape == expected, f"seed {seed} tape diverged"
            assert moves == sum(
                1 for prev, cur in zip([7, *tape], tape) if prev != cur
            )
            # Call-for-call: the generators end in the same exact state.
            assert tape_rng.getstate() == serial_rng.getstate()

    def test_tape_matches_reference_scheduler_trace(self):
        """Tape positions == the frozen scheduler's per-round trace."""
        from repro.baselines.random_walk import RandomWalker

        graph = random_regular_graph(30, 4, random.Random("trace"))
        plan = ExecutionPlan.compile(graph)
        ids = plan.ids
        offsets = list(plan.neighbor_offsets)
        table = list(plan.neighbor_indices)
        degrees = list(plan.degrees)
        bits = [d.bit_length() for d in degrees]
        seed = 3
        result = ReferenceSyncScheduler(
            graph, RandomWalker(), RandomWalker(), ids[0], ids[1],
            seed=seed, whiteboards=False, max_rounds=500, record_trace=True,
        ).run()
        for name, start in (("a", 0), ("b", 1)):
            tape, _ = walk_choice_tape(
                random.Random(f"{seed}:{name}"), start, result.rounds,
                offsets, table, degrees, bits, 0.5,
            )
            column = 1 if name == "a" else 2
            for entry in result.trace:
                rnd = entry[0]
                assert ids[tape[rnd]] == entry[column], (
                    f"agent {name} diverged from the trace at round {rnd}"
                )

    def test_tapes_byte_identical_across_start_methods(self):
        """fork and spawn children draw the exact same tapes."""
        for method in ("fork", "spawn"):
            if method not in multiprocessing.get_all_start_methods():
                continue
            for case in [("er", 48, 8, 0), ("regular", 36, 6, 1)]:
                child = _tape_digest_in_subprocess(method, case)
                assert child == _tape_digest(*case), (
                    f"{case} tape diverged under the {method} start method"
                )


def _tape_digest(family: str, n: int, delta: int, seed: int) -> str:
    """SHA-256 over both agents' tapes for one deterministic instance."""
    rng = random.Random(f"tape-determinism:{family}:{n}:{delta}:{seed}")
    if family == "regular":
        graph = random_regular_graph(n, delta, rng)
    else:
        graph = random_graph_with_min_degree(n, delta, rng)
    plan = ExecutionPlan.compile(graph)
    offsets = list(plan.neighbor_offsets)
    table = list(plan.neighbor_indices)
    degrees = list(plan.degrees)
    bits = [d.bit_length() for d in degrees]
    digest = hashlib.sha256()
    for name, start in (("a", 0), ("b", 1)):
        tape, moves = walk_choice_tape(
            random.Random(f"{seed}:{name}"), start, 2_000,
            offsets, table, degrees, bits, 0.5,
        )
        digest.update(json.dumps([moves, tape]).encode())
    return digest.hexdigest()


def _tape_digest_child(queue, family, n, delta, seed):
    try:
        queue.put(("ok", _tape_digest(family, n, delta, seed)))
    except Exception as error:  # pragma: no cover - surfaced as test failure
        queue.put(("error", repr(error)))


def _tape_digest_in_subprocess(method: str, case: tuple) -> str:
    context = multiprocessing.get_context(method)
    queue = context.Queue()
    process = context.Process(target=_tape_digest_child, args=(queue, *case))
    process.start()
    try:
        status, payload = queue.get(timeout=60)
    finally:
        process.join(timeout=10)
    assert status == "ok", payload
    return payload


class TestFallback:
    """Ineligible batches take the serial path with identical results."""

    def test_static_eligibility(self):
        assert lockstep_supported("random-walk", PortModel.KT1)
        assert lockstep_supported("random-walk", PortModel.KT0)
        for algorithm in ("trivial", "theorem1", "theorem2"):
            assert lockstep_supported(algorithm, PortModel.KT1)
            assert not lockstep_supported(algorithm, PortModel.KT0)
        for algorithm in ("explore", "anderson-weber"):
            assert not lockstep_supported(algorithm, PortModel.KT1)
            assert not lockstep_supported(algorithm, PortModel.KT0)

    def test_unsupported_algorithm_returns_none(self):
        graph = cycle_graph(16)
        plan = ExecutionPlan.compile(graph)
        armed = _armed(graph, "explore", [0, 1])
        assert run_lockstep_batch(plan, "explore", armed) is None
        for algorithm in ("theorem1", "explore"):
            armed = _armed(graph, algorithm, [0, 1])
            # The program-type check: a walk batch armed with other
            # programs declines too.
            assert run_lockstep_batch(plan, "random-walk", armed) is None
            assert run_lockstep_batch(plan, "theorem2", armed) is None

    def test_short_kernel_result_list_raises(self, monkeypatch):
        """A route that returns one result too few cannot drop a record."""

        def short(plan, algorithm, armed):
            return run_lockstep_batch(plan, algorithm, armed)[:-1]

        monkeypatch.setattr(harness, "run_lockstep_batch", short)
        graph = random_graph_with_min_degree(40, 8, random.Random("short"))
        with pytest.raises(ValueError, match="zip"):
            run_trials(graph, "random-walk", [0, 1, 2], max_rounds=50)

    def test_degree_zero_vertex_falls_back(self, monkeypatch):
        """An isolated vertex bails out of lockstep but not run_trials.

        The plan caches the verdict: a second batch declines without
        building the walk set-up again.
        """
        graph = StaticGraph({0: [1, 2], 1: [0, 2], 2: [0, 1], 9: []})
        plan = ExecutionPlan.compile(graph)
        builds = _count_calls(monkeypatch, plan_module, "_walk_setup")
        armed = _armed(
            graph, "random-walk", [0, 1], start_a=0, start_b=1, max_rounds=50
        )
        for _ in range(2):
            assert run_lockstep_batch(plan, "random-walk", armed) is None
        assert plan.walk_setup is None
        assert builds == [plan]
        kwargs = dict(
            plan=plan, start_a=0, start_b=1, max_rounds=50, check_instance=False
        )
        batched = run_trials(graph, "random-walk", [0, 1], **kwargs)
        serial = _per_seed_oracle(graph, "random-walk", [0, 1], **kwargs)
        assert _record_bytes(batched) == _record_bytes(serial)

    def test_declined_batch_matches_per_trial_runs(self):
        graph = cycle_graph(24)
        batched = _classic(graph, "random-walk", [0, 5], max_rounds=200)
        serial = _per_seed_oracle(graph, "random-walk", [0, 5], max_rounds=200)
        assert _record_bytes(batched) == _record_bytes(serial)


def _kernel_spy(monkeypatch) -> list:
    """Wrap the kernels as ``run_trials`` calls them; collect their output.

    Each entry is ``(armed, results)``: the armed seeds of one batch and
    the kernel's list for it (``None`` for a declined batch).
    """
    batches: list = []

    def spy(plan, algorithm, armed):
        results = run_lockstep_batch(plan, algorithm, armed)
        batches.append((armed, results))
        return results

    monkeypatch.setattr(harness, "run_lockstep_batch", spy)
    return batches


def _engine_result(graph, algorithm, seed, **kwargs):
    """One seed on a fresh engine, armed as ``run_trials`` arms it."""
    entry = _armed(graph, algorithm, [seed], **kwargs)[0]
    plan = ExecutionPlan.compile(graph)
    return next(harness._engine_results(
        graph, plan, [entry], PortModel.KT1,
        ALGORITHMS[algorithm].uses_whiteboards, None,
    ))


def _paper_graphs():
    """The families the paper kernels are checked on, dilated IDs included."""
    rng = random.Random("paper-kernel-graphs")
    er = random_graph_with_min_degree(64, 14, rng)
    return [
        ("er-min-degree", er),
        ("regular", random_regular_graph(56, 12, rng)),
        ("complete", complete_graph(24)),
        ("dilated", dilate_id_space(er, 7, random.Random("dilate"))),
    ]


#: Constants presets the paper kernels are checked under.
_PAPER_PRESETS = {
    "tuned": Constants.tuned,
    "aggressive": Constants.aggressive,
    "testing": Constants.testing,
    "paper": Constants.paper,
}


def _phase(result) -> str:
    """Where a met Theorem 1 pair met: in Construct, in Main-Rendezvous,
    or after agent a halted on b's start."""
    if not result.reports["a"]:
        return "construct"
    return "halted" if result.halted["a"] else "main-rendezvous"


class TestPaperKernelDifferential:
    """Theorem 1 and 2 on the lockstep route equal the engine, seed by seed.

    Records are compared as bytes against the engine-reset loop and the
    frozen oracle; each kernel result is compared with the engine's
    field for field, fields the records drop included (``halted``,
    per-agent moves, whiteboard reads), and its report dicts in the
    programs' key order.
    """

    SEEDS = range(40)

    @pytest.mark.parametrize("preset", sorted(_PAPER_PRESETS))
    @pytest.mark.parametrize("algorithm", ["theorem1", "theorem2"])
    def test_records_and_results_match_the_engine(
        self, algorithm, preset, monkeypatch
    ):
        constants = _PAPER_PRESETS[preset]()
        ran = 0
        for _, graph in _paper_graphs():
            batches = _kernel_spy(monkeypatch)
            _assert_all_paths_identical(
                graph, algorithm, self.SEEDS, constants=constants
            )
            ((armed, results),) = batches
            for (seed, *_), result in list(zip(armed, results))[::4]:
                if result is None:
                    continue
                ran += 1
                expected = _engine_result(
                    graph, algorithm, seed, constants=constants
                )
                assert result == expected
                for name in ("a", "b"):
                    assert list(result.reports[name]) == list(
                        expected.reports[name]
                    )
        assert ran >= 10, "the kernel ran too few seeds"

    def test_results_match_on_every_family_field_for_field(self, monkeypatch):
        """Every kernel result of a Theorem 1 batch, against a fresh engine."""
        constants = Constants.aggressive()
        phases = set()
        for name, graph in _paper_graphs():
            batches = _kernel_spy(monkeypatch)
            run_trials(graph, "theorem1", self.SEEDS, constants=constants)
            ((armed, results),) = batches
            for (seed, *_), result in zip(armed, results):
                if result is None:
                    continue
                expected = _engine_result(
                    graph, "theorem1", seed, constants=constants
                )
                phases.add(_phase(result))
                assert result == expected, f"{name} seed {seed}"
                for agent in ("a", "b"):
                    assert list(result.reports[agent]) == list(
                        expected.reports[agent]
                    )
        assert phases == {"construct", "main-rendezvous", "halted"}

    @pytest.mark.parametrize("algorithm", ["theorem1", "theorem2"])
    def test_small_budget_falls_back(self, algorithm, monkeypatch):
        graph = _paper_graphs()[0][1]
        batches = _kernel_spy(monkeypatch)
        records = _assert_all_paths_identical(
            graph, algorithm, self.SEEDS, max_rounds=24,
            constants=Constants.tuned(),
        )
        ((_, results),) = batches[:1]
        declined = [r is None for r in results]
        assert any(declined) and not all(declined)
        assert any(not r.met for r in records)
        met = [r for r in records if r.met]
        assert met and all(r.rounds <= 24 for r in met)

    def test_meeting_at_the_budget_counts(self, monkeypatch):
        graph = _paper_graphs()[0][1]
        met = [
            r for r in run_trials(graph, "theorem1", self.SEEDS) if r.met
        ]
        batches = _kernel_spy(monkeypatch)
        for record in met[:6]:
            routed = run_trials(
                graph, "theorem1", [record.seed], max_rounds=record.rounds
            )
            assert _record_bytes(routed) == _record_bytes([record])
            assert _record_bytes(routed) == _record_bytes(_per_seed_oracle(
                graph, "theorem1", [record.seed], max_rounds=record.rounds
            ))
        assert all(results[0] is not None for _, results in batches)

    @pytest.mark.parametrize("algorithm", ["theorem1", "theorem2"])
    def test_distance_two_starts_fall_back(self, algorithm, monkeypatch):
        graph, start_a, start_b = cliques_sharing_vertex(33)
        batches = _kernel_spy(monkeypatch)
        _assert_all_paths_identical(
            graph, algorithm, range(8), start_a=start_a, start_b=start_b,
            check_instance=False, max_rounds=20_000,
        )
        ((_, results),) = batches[:1]
        assert results == [None] * 8

    def test_theorem2_seeds_that_outlive_construct_stay_on_the_kernel(
        self, monkeypatch
    ):
        batches = _kernel_spy(monkeypatch)
        for _, graph in _paper_graphs():
            _assert_all_paths_identical(
                graph, "theorem2", self.SEEDS, constants=Constants.aggressive()
            )
        outcomes = [r for _, results in batches for r in results]
        assert None not in outcomes
        assert any(r.reports["a"] for r in outcomes), "no seed outlived Construct"

    def test_iteration_cap_falls_back_and_raises_identically(self):
        class Capped(Constants):
            def construct_iteration_cap(self, id_space, delta):
                return 1

        constants = Capped(**vars(Constants.aggressive()))
        raised = []
        for _, graph in _paper_graphs():
            outcomes = []
            for route in (run_trials, _classic):
                try:
                    outcomes.append(_record_bytes(
                        route(graph, "theorem1", self.SEEDS, constants=constants)
                    ))
                except ReproError as error:
                    outcomes.append(str(error))
            assert outcomes[0] == outcomes[1]
            if isinstance(outcomes[0], str):
                raised.append(outcomes[0])
        assert raised, "no seed reached the cap before meeting"
        assert all("iteration cap (1)" in text for text in raised)

    def test_estimated_delta_and_oracle_sets_decline(self):
        graph = _paper_graphs()[0][1]
        plan = ExecutionPlan.compile(graph)
        armed = _armed(graph, "theorem1", [0, 1], delta="estimate")
        assert run_lockstep_batch(plan, "theorem1", armed) is None
        records = _assert_all_paths_identical(
            graph, "theorem1", [0, 1, 2], delta="estimate"
        )
        assert all(r.met for r in records)
        seed, program_a, program_b, start_a, start_b, budget = _armed(
            graph, "theorem2", [0]
        )[0]
        oracle = NoWhiteboardA(
            program_a._delta, oracle_target_set=graph.closed_neighbors(start_a)
        )
        entry = (seed, oracle, program_b, start_a, start_b, budget)
        assert run_lockstep_batch(plan, "theorem2", [entry]) is None

    def test_plan_builds_its_visit_table_once(self):
        graph = _paper_graphs()[0][1]
        plan = ExecutionPlan.compile(graph)
        with pytest.raises(AttributeError):  # nothing built at compile time
            ExecutionPlan.visit_reads.__get__(plan, ExecutionPlan)
        run_trials(graph, "theorem1", range(3), plan=plan)
        table = plan.visit_reads
        run_trials(graph, "theorem2", range(3), plan=plan)
        assert plan.visit_reads is table
        v = graph.vertices[5]
        assert table[v] == (graph.degree(v), plan.closed_sets[5])
        kt0 = ExecutionPlan.compile(graph, port_model=PortModel.KT0)
        assert kt0.visit_reads is None


def _sparse(preset: str, **overrides) -> Constants:
    """A preset whose ``Construct`` samples little, so that it seldom
    steps onto b and most seeds meet in the phases."""
    return _PAPER_PRESETS[preset]().with_overrides(
        sample_multiplier=0.05, **overrides
    )


def _meeting_kinds(graph, seed, result, **kwargs) -> set[str]:
    """How a Theorem 2 pair met after ``Construct``, read from an engine trace.

    ``out-1``: a's hop from home; ``out-2``: the second hop of a
    two-hop trip; ``dwell``: b's hop onto the vertex a dwells on;
    ``v0a``: b's hop onto a's home; ``late``: in phase 2 or later; and
    each agent's halt and overflows.
    """
    _, program_a, program_b, start_a, start_b, budget = prepare_rendezvous(
        graph, "theorem2", seed=seed, **kwargs
    )
    trace = SyncScheduler(
        graph, program_a, program_b, start_a, start_b, seed=seed,
        whiteboards=False, max_rounds=budget, record_trace=True,
        trace_limit=10**7,
    ).run().trace
    rounds = [entry[0] for entry in trace]

    def at(r: int, agent: int):
        """The agent's vertex at the start of round ``r``."""
        i = bisect.bisect_left(rounds, r) - 1
        return trace[i][1 + agent] if i >= 0 else (start_a, start_b)[agent]

    t, vertex = result.rounds, result.meeting_vertex
    report_a, report_b = result.reports["a"], result.reports["b"]
    kinds = set()
    if at(t - 1, 0) != vertex:
        if at(t - 1, 0) == start_a:
            kinds.add("out-1")
        elif at(t - 2, 0) == start_a:
            kinds.add("out-2")
    elif at(t - 1, 1) != vertex:
        kinds.add("v0a" if vertex == start_a else "dwell")
    if (t - report_a["t_prime"]) // report_a["phase_length"] >= 2:
        kinds.add("late")
    if report_a["slot_overflows"]:
        kinds.add("slot-overflow")
    if report_b["sweep_overflows"]:
        kinds.add("sweep-overflow")
    kinds.update(f"{agent}-halted" for agent in "ab" if result.halted[agent])
    return kinds


class TestPhaseTimeline:
    """Theorem 2 seeds that outlive ``Construct``: the phase schedules
    read as a timeline equal the engine, seed by seed.

    ``dwell_slack=0.02`` shrinks L to 4 rounds: sweeps and slots
    overflow, waits fall due late, and some seeds never meet.
    """

    SEEDS = range(24)

    @pytest.mark.parametrize("preset", ["aggressive", "testing"])
    def test_every_kind_of_meeting_matches_the_engine(self, preset, monkeypatch):
        kinds: set[str] = set()
        for slack in (1.5, 0.02):
            constants = _sparse(preset, dwell_slack=slack)
            for _, graph in _paper_graphs():
                batches = _kernel_spy(monkeypatch)
                _assert_all_paths_identical(
                    graph, "theorem2", self.SEEDS, constants=constants
                )
                ((armed, results),) = batches
                for (seed, *_), result in zip(armed, results):
                    expected = _engine_result(
                        graph, "theorem2", seed, constants=constants
                    )
                    if result is None:
                        assert not expected.met  # its budget ran out
                        continue
                    assert result == expected
                    for agent in ("a", "b"):
                        assert list(result.reports[agent]) == list(
                            expected.reports[agent]
                        )
                    if result.reports["a"]:
                        kinds |= _meeting_kinds(
                            graph, seed, result, constants=constants
                        )
        assert kinds >= {
            "out-1", "out-2", "dwell", "v0a", "late",
            "slot-overflow", "sweep-overflow",
        }

    @pytest.mark.parametrize("preset", ["aggressive", "testing", "tuned"])
    def test_meeting_after_b_has_halted(self, preset, monkeypatch):
        """b's schedule ends first when a's slots overrun: a meets it at home."""
        graph = complete_graph(24)
        constants = _sparse(preset, dwell_slack=0.02)
        batches = _kernel_spy(monkeypatch)
        (record,) = _assert_all_paths_identical(
            graph, "theorem2", [29], constants=constants
        )
        ((_, (result,)),) = batches
        assert record.met and result.halted == {"a": False, "b": True}
        assert result.reports["b"]["finished_round"] < result.rounds
        assert result == _engine_result(graph, "theorem2", 29, constants=constants)

    def test_meeting_exactly_at_the_budget(self, monkeypatch):
        graph = _paper_graphs()[2][1]
        constants = _sparse("aggressive")
        late = [
            r for r in run_trials(graph, "theorem2", self.SEEDS, constants=constants)
            if r.met and r.rounds > r.reports["a"].get("t_prime", r.rounds)
        ]
        assert len(late) >= 4
        batches = _kernel_spy(monkeypatch)
        for record in late[:4]:
            for budget, met in ((record.rounds, True), (record.rounds - 1, False)):
                (routed,) = _assert_all_paths_identical(
                    graph, "theorem2", [record.seed], constants=constants,
                    max_rounds=budget,
                )
                assert routed.met is met
        kernel = [results[0] for _, results in batches]
        assert [r is None for r in kernel] == [False, True] * 4

    def test_benchmark_instances_hand_back_no_seed(self, monkeypatch):
        """service-fleet's theorem2 grid runs wholly on the kernel: every
        seed meets within the budget, after a Construct that ends by t'."""
        handed_back = 0
        for n in (400, 800):
            graph = build_graph("er-min-degree", n, "n^0.75")
            plan = ExecutionPlan.compile(graph)
            batches = _kernel_spy(monkeypatch)
            for first in range(0, 512, 8):
                run_trials(
                    graph, "theorem2", range(first, first + 8), plan=plan,
                    constants=Constants.tuned(),
                )
            assert len(batches) == 64
            handed_back += sum(r is None for _, results in batches for r in results)
        assert handed_back == 0

    def test_construct_past_the_barrier_raises_identically(self):
        """A ``Construct`` that ends after t' raises on both routes."""
        constants = Constants.aggressive().with_overrides(sync_multiplier=1e-3)
        raised = []
        for _, graph in _paper_graphs():
            for seed in self.SEEDS:
                outcomes = []
                for route in (run_trials, _classic):
                    try:
                        outcomes.append(_record_bytes(
                            route(graph, "theorem2", [seed], constants=constants)
                        ))
                    except SynchronizationError as error:
                        outcomes.append(str(error))
                assert outcomes[0] == outcomes[1]
                if isinstance(outcomes[0], str):
                    raised.append(outcomes[0])
        assert raised, "no Construct ended after the barrier unmet"
        assert all("after the barrier" in text for text in raised)


class _Fetches(AgentProgram):
    """Runs ``inner`` and keeps the ``(round, vertex)`` of every fetch."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.fetches: list[tuple] = []

    def run(self, ctx):
        for action in self.inner.run(ctx):
            self.fetches.append((ctx.view.round, ctx.view.vertex))
            yield action


def _assert_same_step_function(fetches, segments, home):
    """The away segments describe where the agent stood at each fetch,
    and they change only where the fetched positions change."""
    rounds = [r for r, _ in fetches]

    def fetched(r):  # the vertex of the last fetch at or before round r
        i = bisect.bisect_right(rounds, r) - 1
        return fetches[i][1] if i >= 0 else home

    def segmented(r):
        for first, last, vertex in segments:
            if first <= r <= last:
                return vertex
        return home

    assert all(segmented(r) == v for r, v in fetches)
    for first, last, vertex in segments:
        assert fetched(first) == fetched(last) == vertex
        assert fetched(first - 1) != vertex != fetched(last + 1)


class TestTimelineReaders:
    """The kernel's readings of the phase schedules, against solo runs of
    the programs that play the same schedules."""

    @pytest.fixture(scope="class")
    def graph(self):
        return random_graph_with_min_degree(48, 12, random.Random("readers"))

    @pytest.mark.parametrize("slack", [1.5, 0.02])
    @pytest.mark.parametrize("seed", range(2))
    def test_trip_segments_are_the_rounds_a_stands_away(self, graph, seed, slack):
        from types import SimpleNamespace

        from repro.core.no_whiteboard import slot_schedule
        from repro.experiments.workloads import two_hop_oracle

        constants = Constants.aggressive().with_overrides(
            sync_multiplier=1e-3, dwell_slack=slack
        )
        start = graph.vertices[seed]
        members, via = two_hop_oracle(graph, start)
        program = NoWhiteboardA(
            12, constants, oracle_target_set=members, oracle_routes_via=via
        )
        recorded = _Fetches(program)
        run_single_agent(
            recorded, graph, start, rounds=10**9, seed=seed,
            id_space=graph.id_space,
        )
        blocks, _ = program.probe_set(
            random.Random(f"{seed}:a"), tuple(sorted(members)), graph.id_space
        )
        view = SimpleNamespace(neighbors=graph.neighbors(start))
        routes = program._oracle_map(SimpleNamespace(start_vertex=start, view=view))
        def trips():
            return slot_schedule(
                blocks, routes.route, 12.0, graph.id_space, constants, 0
            )

        reader = lockstep._trip_segments(trips())
        segments = list(iter(reader.__next__, lockstep._NEVER))
        assert any(first == last for first, last, _ in segments)  # 2 hops
        _assert_same_step_function(recorded.fetches, segments, start)
        finished = lockstep._trip_counts(trips(), 10**9)[2]
        assert finished == program.report()["finished_round"]

    @pytest.mark.parametrize("slack", [1.5, 0.1])
    @pytest.mark.parametrize("seed", range(2))
    def test_sweep_segments_are_the_rounds_b_stands_away(self, graph, seed, slack):
        from repro.core.no_whiteboard import NoWhiteboardB, sweep_schedule

        constants = Constants.aggressive().with_overrides(
            sync_multiplier=1e-3, dwell_slack=slack
        )
        start = graph.vertices[seed]
        program = NoWhiteboardB(12, constants)
        recorded = _Fetches(program)
        run_single_agent(
            recorded, graph, start, rounds=10**9, seed=seed,
            id_space=graph.id_space,
        )
        _, blocks, _ = program.opening(
            random.Random(f"{seed}:a"), graph.closed_neighbor_set(start),
            graph.id_space,
        )
        def sweeps():
            return sweep_schedule(blocks, start, 12.0, graph.id_space, constants, 0)

        # Sent round 0 every time, the reader passes nothing over.
        reader = lockstep._sweep_segments(sweeps(), None, start)
        next(reader)
        segments = list(iter(lambda: reader.send(0), lockstep._NEVER))
        assert segments
        _assert_same_step_function(recorded.fetches, segments, start)
        _, overflows, finished = lockstep._sweep_counts(sweeps(), start, 10**9)
        report = program.report()
        assert (overflows, finished) == (
            report["sweep_overflows"], report["finished_round"]
        )

    def test_counts_keep_only_fetch_rounds_before_t(self):
        from repro.core.no_whiteboard import SWEEP, TRIP, WAIT

        def trips():
            yield TRIP, 10, 10, (7, 8), 18, 18  # hops in 10, 11, 18, 19
            yield WAIT, 40, 20, 40, 3  # 3 overflows counted in round 20
            return 40  # the last fetch

        assert lockstep._trip_counts(trips(), 11) == (1, 0, None)
        assert lockstep._trip_counts(trips(), 19) == (3, 0, None)
        assert lockstep._trip_counts(trips(), 20) == (4, 0, None)
        assert lockstep._trip_counts(trips(), 40) == (4, 3, None)
        assert lockstep._trip_counts(trips(), 41) == (4, 3, 40)

        def sweeps():
            # Home 5 stays in 10-12, member 6 hops in 13 and 16, the
            # overflow is counted in round 17.
            yield SWEEP, 9, 10, (5, 6), 17, 1, 30
            yield WAIT, 40, 30, 40, 0
            return 40

        assert lockstep._sweep_counts(sweeps(), 5, 13) == (0, 0, None)
        assert lockstep._sweep_counts(sweeps(), 5, 14) == (1, 0, None)
        assert lockstep._sweep_counts(sweeps(), 5, 17) == (2, 0, None)
        assert lockstep._sweep_counts(sweeps(), 5, 18) == (2, 1, None)
        assert lockstep._sweep_counts(sweeps(), 5, 40) == (2, 1, None)
        assert lockstep._sweep_counts(sweeps(), 5, 41) == (2, 1, 40)


class _Script(AgentProgram):
    """Yields fixed actions and reports the round of every fetch."""

    def __init__(self, actions) -> None:
        self._actions = actions
        self.fetches: list[int] = []

    def run(self, ctx):
        for action in self._actions:
            self.fetches.append(ctx.view.round)
            yield action
        while True:
            self.fetches.append(ctx.view.round)
            yield Stay()

    def report(self):
        return {"fetches": list(self.fetches)}


class TestEngineRulesTheTimelineReadsFrom:
    """The engine rules the Theorem 2 timeline (``_phase_trial``) models."""

    @staticmethod
    def _run(actions_a, actions_b=(), max_rounds=50):
        graph = complete_graph(6)
        a, b = _Script(actions_a), _Script(actions_b)
        result = SyncScheduler(
            graph, a, b, 0, 1, whiteboards=False, max_rounds=max_rounds
        ).run()
        return result, a.fetches

    def test_a_wait_fetched_in_round_k_wakes_at_max_r_and_k_plus_one(self):
        _, fetches = self._run(
            [WaitUntil(0), WaitUntil(5), WaitUntil(5), WaitUntil(3)],
            max_rounds=12,
        )
        # Due waits (0 at round 0, 5 at round 5, 3 at round 6) still
        # take their round.
        assert fetches[:5] == [0, 1, 5, 6, 7]

    def test_a_move_onto_the_vertex_the_agent_stands_on_is_a_stay(self):
        result, fetches = self._run([Move(0), Move(0), Move(2)], max_rounds=5)
        assert result.moves["a"] == 1
        assert fetches[:4] == [0, 1, 2, 3]

    def test_co_location_is_checked_before_the_budget(self):
        result, _ = self._run([WaitUntil(4), Move(1)], max_rounds=5)
        assert result.met and result.rounds == 5

    def test_reports_keep_only_fetch_rounds_before_the_meeting(self):
        result, _ = self._run([WaitUntil(3), Move(1)], [WaitUntil(2)])
        assert result.met and result.rounds == 4
        assert result.reports["a"]["fetches"] == [0, 3]
        assert result.reports["b"]["fetches"] == [0, 2, 3]


def _count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` so each call appends its first argument."""
    original = getattr(module, name)
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _walk_plan_cases():
    """(id, graph, port model, labeling) cases for the per-plan set-up."""
    rng = random.Random("walk-setup-cases")
    irregular = random_graph_with_min_degree(64, 9, rng)
    regular = random_regular_graph(48, 7, rng)
    dilated = dilate_id_space(irregular, 13, random.Random("dilate"))
    return [
        ("regular-kt1", regular, PortModel.KT1, None),
        ("irregular-kt1", irregular, PortModel.KT1, None),
        ("regular-kt0", regular, PortModel.KT0, PortLabeling(regular, rng=rng)),
        ("irregular-kt0", irregular, PortModel.KT0,
         PortLabeling(irregular, rng=rng)),
        ("dilated-kt1", dilated, PortModel.KT1, None),
        ("dilated-kt0", dilated, PortModel.KT0, PortLabeling(dilated, rng=rng)),
    ]


class TestWalkSetupPerPlan:
    """The walk set-up belongs to the plan, not to the batch."""

    @pytest.mark.parametrize(
        "case", _walk_plan_cases(), ids=lambda case: case[0]
    )
    def test_records_do_not_depend_on_batch_size(self, case):
        _, graph, port_model, labeling = case
        plan = ExecutionPlan.compile(graph, labeling, port_model)
        seeds = random.Random("batch-size").sample(range(10_000), 24)
        kwargs = dict(
            plan=plan, port_model=port_model, labeling=labeling,
            max_rounds=3000,
        )
        whole = _record_bytes(run_trials(graph, "random-walk", seeds, **kwargs))
        assert plan.walk_setup is not None  # walkable: lockstep ran it
        for size in (1, 3, 8):
            split = [
                record
                for start in range(0, len(seeds), size)
                for record in run_trials(
                    graph, "random-walk", seeds[start:start + size], **kwargs
                )
            ]
            assert _record_bytes(split) == whole, f"batches of {size} diverged"

    def test_self_loop_scan_runs_once_per_plan(self, monkeypatch):
        graph = random_graph_with_min_degree(64, 9, random.Random("scan"))
        scans = _count_calls(monkeypatch, plan_module, "_table_has_self_loops")
        plan = ExecutionPlan.compile(graph)
        for start in range(0, 24, 3):
            run_trials(
                graph, "random-walk", range(start, start + 3),
                plan=plan, max_rounds=500,
            )
        assert len(scans) == 1
        fresh = ExecutionPlan.compile(graph)
        run_trials(graph, "random-walk", [0, 1], plan=fresh, max_rounds=500)
        assert len(scans) == 2
        assert scans[1] is fresh.walk_setup[0]  # the fresh plan's table


class TestSeedListEdgeCases:
    """Empty and length-1 batches, on both the lockstep and serial paths."""

    @pytest.fixture(params=["routed", "declined"])
    def route(self, request, monkeypatch):
        if request.param == "declined":
            monkeypatch.setattr(harness, "run_lockstep_batch", _declined)
        return request.param

    @pytest.mark.parametrize("algorithm", ["random-walk", "theorem1"])
    def test_empty_seed_list(self, route, algorithm):
        graph = cycle_graph(12)
        assert run_trials(graph, algorithm, []) == []
        assert run_trials(graph, algorithm, range(0)) == []

    @pytest.mark.parametrize("algorithm", ["random-walk", "trivial"])
    def test_single_seed_batch(self, route, algorithm):
        graph = random_graph_with_min_degree(40, 8, random.Random("one"))
        batched = run_trials(graph, algorithm, [7], max_rounds=400)
        assert _record_bytes(batched) == _record_bytes(
            _per_seed_oracle(graph, algorithm, [7], max_rounds=400)
        )
