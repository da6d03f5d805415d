"""Routing regression: which batches reach the lockstep kernels.

The lockstep executor replays pre-drawn tapes over a *static* world —
its kernels cannot churn edges, corrupt whiteboards, or crash agents.
:func:`lockstep_supported` therefore declines any batch carrying an
active scenario, while no-op scenarios are normalized away before the
check and keep routing exactly as before the scenario axis existed.
Conversely, every in-process entry point of the sweep engine must hand
an eligible batch to the kernels instead of running it trial by trial,
and a single benign trial is a batch of one that takes them too.
"""

from __future__ import annotations

import random

import pytest

from repro.experiments import harness, parallel
from repro.experiments.harness import run_trial, run_trials
from repro.experiments.parallel import (
    SweepSpec,
    _ChunkTask,
    _execute_chunk_task,
    run_sweep,
)
from repro.graphs.generators import random_graph_with_min_degree
from repro.graphs.ports import PortModel
from repro.runtime.lockstep import lockstep_supported
from repro.scenarios import SCENARIOS, ScenarioSpec


@pytest.fixture
def graph():
    return random_graph_with_min_degree(48, 9, random.Random("routing"))


class _Spy:
    """Wraps run_lockstep_batch, recording whether it was consulted."""

    def __init__(self):
        self.calls = 0
        self._real = harness.run_lockstep_batch

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._real(*args, **kwargs)


@pytest.fixture
def lockstep_spy(monkeypatch):
    spy = _Spy()
    monkeypatch.setattr(harness, "run_lockstep_batch", spy)
    return spy


@pytest.fixture
def no_per_trial_runs(monkeypatch):
    """Fail any ``run_trial`` call from the harness or the sweep engine."""

    def forbidden(*args, **kwargs):
        raise AssertionError("an eligible batch ran trial by trial")

    monkeypatch.setattr(harness, "run_trial", forbidden)
    monkeypatch.setattr(parallel, "run_trial", forbidden)


class TestStaticEligibility:
    def test_active_scenario_always_declines(self):
        for name, spec in SCENARIOS.items():
            if spec.is_noop:
                continue
            for port_model in (PortModel.KT1, PortModel.KT0):
                assert not lockstep_supported("random-walk", port_model, spec), (
                    f"{name} must not be lockstep-eligible"
                )
        custom = ScenarioSpec(name="tiny-churn", churn_rate=1e-6)
        assert not lockstep_supported("random-walk", PortModel.KT1, custom)

    def test_no_scenario_keeps_historical_eligibility(self):
        assert lockstep_supported("random-walk", PortModel.KT1)
        assert lockstep_supported("random-walk", PortModel.KT1, None)
        for algorithm in ("trivial", "theorem1", "theorem2"):
            assert lockstep_supported(algorithm, PortModel.KT1, None)
            assert not lockstep_supported(algorithm, PortModel.KT0, None)
        assert not lockstep_supported("explore", PortModel.KT1, None)

    def test_active_scenario_declines_the_paper_algorithms(self):
        for name, spec in SCENARIOS.items():
            if spec.is_noop:
                continue
            for algorithm in ("theorem1", "theorem2"):
                assert not lockstep_supported(algorithm, PortModel.KT1, spec), (
                    f"{algorithm} under {name} must not be lockstep-eligible"
                )


class TestBatchRouting:
    def test_noop_scenario_batches_still_route_to_lockstep(
        self, graph, lockstep_spy
    ):
        for scenario in (None, "none", "faults-zero", "dyn-zero"):
            before = lockstep_spy.calls
            run_trials(
                graph, "random-walk", [0, 1], scenario=scenario, max_rounds=400
            )
            assert lockstep_spy.calls == before + 1, (
                f"no-op scenario {scenario!r} should route to lockstep"
            )

    def test_active_scenario_batches_never_touch_lockstep(
        self, graph, lockstep_spy
    ):
        active = [n for n, s in SCENARIOS.items() if not s.is_noop]
        assert active
        for scenario in active:
            run_trials(
                graph, "random-walk", [0, 1], scenario=scenario, max_rounds=400
            )
        assert lockstep_spy.calls == 0

    def test_serial_fallback_records_match_declined_kernels(
        self, graph, monkeypatch
    ):
        """Scenario batches behave as if the kernels declined them."""
        routed = run_trials(
            graph, "random-walk", [0, 1, 2], scenario="edge-churn",
            max_rounds=400,
        )
        monkeypatch.setattr(harness, "run_lockstep_batch", lambda *a, **k: None)
        serial = run_trials(
            graph, "random-walk", [0, 1, 2], scenario="edge-churn",
            max_rounds=400,
        )
        assert routed == serial

    def test_single_trials_route_as_batches_of_one(self, graph, lockstep_spy):
        """``run_trial`` is a batch of one: churn bypasses the kernels,
        a benign random-walk trial takes them."""
        run_trial(graph, "random-walk", 0, scenario="edge-churn", max_rounds=400)
        assert lockstep_spy.calls == 0
        run_trial(graph, "random-walk", 0, scenario=None, max_rounds=400)
        assert lockstep_spy.calls == 1


#: An eligible random-walk grid: one instance, three seeds.
WALK_SPEC = SweepSpec(
    name="routing", families=("er-min-degree",), ns=(48,), deltas=("9",),
    algorithms=("random-walk",), seeds=(0, 1, 2), max_rounds=400,
)


class TestEntryPointRouting:
    """Each in-process entry point batches eligible trials into lockstep."""

    def test_inline_sweep(self, lockstep_spy, no_per_trial_runs):
        result = run_sweep(WALK_SPEC, workers=1)
        assert len(result.records) == 3
        assert lockstep_spy.calls == 1

    def test_single_worker_service_host(self, lockstep_spy, no_per_trial_runs):
        from repro.service.worker import _execute_unit

        points = WALK_SPEC.points()
        records = _execute_unit(WALK_SPEC, points, [2, 0], 1)
        assert [record.seed for record in records] == [2, 0]
        assert lockstep_spy.calls == 1

    def test_chunk_executor(self, lockstep_spy, no_per_trial_runs):
        task = _ChunkTask(
            task_id=1, family="er-min-degree", n=48, delta_spec="9",
            preset="tuned", max_rounds=400,
            trials=((0, "random-walk", "none", 0), (1, "random-walk", "none", 1)),
            plan_handle=None,
        )
        indices, records = _execute_chunk_task(task)
        assert indices == (0, 1) and len(records) == 2
        assert lockstep_spy.calls == 1
