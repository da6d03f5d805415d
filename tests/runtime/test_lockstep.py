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

import hashlib
import json
import multiprocessing
import random
from unittest import mock

import pytest

from repro.core.api import ALGORITHMS
from repro.core.constants import Constants
from repro.errors import ProtocolError
from repro.experiments import harness
from repro.experiments.harness import run_trial, run_trials
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
from repro.graphs.ports import PortLabeling, PortModel
from repro.runtime.lockstep import (
    lockstep_supported,
    run_lockstep_batch,
    walk_choice_tape,
)
from repro.runtime.plan import ExecutionPlan
from repro.runtime.reference import ReferenceSyncScheduler, reference_run_trials


def _record_bytes(records) -> bytes:
    """Whole-batch JSON encoding — the byte-equality currency."""
    return b"\n".join(
        json.dumps(record_to_jsonable(r), sort_keys=True).encode()
        for r in records
    )


def _declined(*args, **kwargs):
    """Stands in for ``run_lockstep_batch``: the kernels' own decline path."""
    return None


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
        assert lockstep_supported("trivial", PortModel.KT1)
        assert not lockstep_supported("trivial", PortModel.KT0)
        for algorithm in ("theorem1", "theorem2", "explore", "anderson-weber"):
            assert not lockstep_supported(algorithm, PortModel.KT1)
            assert not lockstep_supported(algorithm, PortModel.KT0)

    def test_unsupported_algorithm_returns_none(self):
        graph = cycle_graph(16)
        assert run_lockstep_batch(graph, "theorem1", [0, 1]) is None
        assert run_lockstep_batch(graph, "explore", [0, 1]) is None

    def test_degree_zero_vertex_falls_back(self):
        """An isolated vertex bails out of lockstep but not run_trials."""
        graph = StaticGraph({0: [1, 2], 1: [0, 2], 2: [0, 1], 9: []})
        plan = ExecutionPlan.compile(graph)
        assert run_lockstep_batch(
            graph, "random-walk", [0, 1],
            plan=plan, start_a=0, start_b=1, max_rounds=50,
        ) is None
        batched = run_trials(
            graph, "random-walk", [0, 1],
            plan=plan, start_a=0, start_b=1, max_rounds=50,
            check_instance=False,
        )
        serial = [
            run_trial(
                graph, "random-walk", seed,
                plan=plan, start_a=0, start_b=1, max_rounds=50,
                check_instance=False,
            )
            for seed in [0, 1]
        ]
        assert _record_bytes(batched) == _record_bytes(serial)

    def test_declined_batch_matches_per_trial_runs(self):
        graph = cycle_graph(24)
        batched = _classic(graph, "random-walk", [0, 5], max_rounds=200)
        serial = [
            run_trial(graph, "random-walk", seed, max_rounds=200)
            for seed in [0, 5]
        ]
        assert _record_bytes(batched) == _record_bytes(serial)


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
            [run_trial(graph, algorithm, 7, max_rounds=400)]
        )
