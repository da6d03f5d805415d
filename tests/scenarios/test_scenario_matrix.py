"""The differential fault matrix for the scenario axis.

Two guarantees, swept over every registered algorithm × both port
models:

* **No-op safety** — a trial carrying ``scenario=None``, the registered
  ``"none"`` spec, or any zero-rate spec (``"faults-zero"``,
  ``"dyn-zero"``, a custom all-zero :class:`ScenarioSpec`) produces
  records byte-identical on the JSON export surface to both a
  scenario-free run of today's engine and the frozen pre-refactor
  oracle :func:`repro.runtime.reference.reference_run_trials` (which
  predates — and knows nothing of — scenarios).
* **Graceful degradation** — every *active* registered scenario yields
  a defined outcome per trial: the agents meet, the round budget runs
  out, or the run fails with a clean :class:`ProtocolError`.  Never an
  unhandled exception, whatever the mutators do to the world.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.api import ALGORITHMS
from repro.core.constants import Constants
from repro.errors import ProtocolError, ScenarioError
from repro.experiments.harness import run_trial, run_trials
from repro.experiments.results_io import record_to_jsonable
from repro.graphs.generators import random_graph_with_min_degree
from repro.graphs.ports import PortLabeling, PortModel
from repro.runtime.reference import reference_run_trials
from repro.scenarios import SCENARIOS, ScenarioSpec, active_scenario, resolve_scenario

NOOP_SCENARIOS = [None, "none", "faults-zero", "dyn-zero"]
ACTIVE_SCENARIOS = sorted(n for n, s in SCENARIOS.items() if not s.is_noop)
PORT_MODELS = [PortModel.KT1, PortModel.KT0]


def _record_bytes(records) -> bytes:
    return b"\n".join(
        json.dumps(record_to_jsonable(r), sort_keys=True).encode()
        for r in records
    )


def _instance(algorithm: str, port_model: PortModel):
    rng = random.Random(f"scenario-matrix:{algorithm}:{port_model}")
    graph = random_graph_with_min_degree(60, 12, rng)
    labeling = (
        PortLabeling(graph, rng=rng) if port_model is PortModel.KT0 else None
    )
    return graph, labeling


class TestNoopByteIdentity:
    """No-op scenarios leave the JSON export surface byte-identical."""

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize("port_model", PORT_MODELS)
    def test_matrix_matches_engine_and_frozen_oracle(self, algorithm, port_model):
        graph, labeling = _instance(algorithm, port_model)
        seeds = [0, 2, 5]
        kwargs = dict(
            constants=Constants.testing(),
            port_model=port_model,
            labeling=labeling,
            max_rounds=20_000,
        )
        try:
            baseline = run_trials(graph, algorithm, seeds, **kwargs)
            failed = None
        except ProtocolError as error:
            baseline, failed = None, error
        if failed is not None:
            # KT1-only algorithms must raise identically under a no-op
            # scenario — the scenario axis may not mask the error.
            for scenario in NOOP_SCENARIOS:
                with pytest.raises(ProtocolError) as info:
                    run_trials(graph, algorithm, seeds, scenario=scenario, **kwargs)
                assert str(info.value) == str(failed)
            return
        oracle = reference_run_trials(graph, algorithm, seeds, **kwargs)
        assert _record_bytes(baseline) == _record_bytes(oracle)
        for scenario in NOOP_SCENARIOS:
            routed = run_trials(graph, algorithm, seeds, scenario=scenario, **kwargs)
            assert _record_bytes(routed) == _record_bytes(oracle), (
                f"{algorithm}/{port_model}: no-op scenario {scenario!r} "
                "changed the records"
            )
            assert all(r.scenario is None for r in routed)

    def test_custom_zero_rate_spec_is_noop(self):
        graph, _ = _instance("random-walk", PortModel.KT1)
        seeds = [1, 4]
        spec = ScenarioSpec(name="my-quiet-world")
        assert spec.is_noop
        assert active_scenario(spec) is None
        base = run_trials(graph, "random-walk", seeds, max_rounds=500)
        quiet = run_trials(graph, "random-walk", seeds, scenario=spec, max_rounds=500)
        assert _record_bytes(base) == _record_bytes(quiet)

    def test_per_trial_noop_matches_batch(self):
        graph, _ = _instance("trivial", PortModel.KT1)
        batch = run_trials(graph, "trivial", [0, 1], scenario="none")
        singles = [
            run_trial(graph, "trivial", seed, scenario=None) for seed in (0, 1)
        ]
        assert _record_bytes(batch) == _record_bytes(singles)


class TestActiveScenariosGraceful:
    """Nonzero rates: met, budget exhausted, or a clean ProtocolError."""

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize("port_model", PORT_MODELS)
    def test_matrix_outcomes_are_defined(self, algorithm, port_model):
        graph, labeling = _instance(algorithm, port_model)
        kwargs = dict(
            constants=Constants.testing(),
            port_model=port_model,
            labeling=labeling,
            max_rounds=5_000,
        )
        for name in ACTIVE_SCENARIOS:
            for seed in (0, 1):
                try:
                    record = run_trial(
                        graph, algorithm, seed, scenario=name, **kwargs
                    )
                except ProtocolError:
                    continue  # the graceful failure mode
                assert record.scenario == name
                assert isinstance(record.met, bool)
                assert record.rounds <= 5_000

    @pytest.mark.parametrize("port_model", PORT_MODELS)
    def test_batched_active_runs_match_per_trial(self, port_model):
        """Engine reuse across seeds may not leak scenario state."""
        graph, labeling = _instance("random-walk", port_model)
        seeds = [0, 1, 2, 3]
        for name in ACTIVE_SCENARIOS:
            batch = run_trials(
                graph, "random-walk", seeds, scenario=name,
                port_model=port_model, labeling=labeling, max_rounds=800,
            )
            singles = [
                run_trial(
                    graph, "random-walk", seed, scenario=name,
                    port_model=port_model, labeling=labeling, max_rounds=800,
                )
                for seed in seeds
            ]
            assert _record_bytes(batch) == _record_bytes(singles), (
                f"{name}/{port_model}: batched records diverged"
            )

    def test_shared_plan_is_untouched_after_churn(self):
        """A memoized plan hosting a churn batch stays pristine."""
        from repro.runtime.plan import ExecutionPlan

        graph, _ = _instance("random-walk", PortModel.KT1)
        plan = ExecutionPlan.compile(graph)
        before = [tuple(row) for row in plan.nbr_ids]
        closed_before = list(plan.closed_sets)
        benign_before = run_trials(
            graph, "random-walk", [7, 8], plan=plan, max_rounds=600
        )
        run_trials(
            graph, "random-walk", [0, 1, 2], plan=plan,
            scenario="adversarial-churn", max_rounds=600,
        )
        assert [tuple(row) for row in plan.nbr_ids] == before
        # The overlay replaced rows in its own lists, never the plan's.
        assert len(plan.closed_sets) == len(closed_before)
        assert all(a is b for a, b in zip(plan.closed_sets, closed_before))
        benign_after = run_trials(
            graph, "random-walk", [7, 8], plan=plan, max_rounds=600
        )
        assert _record_bytes(benign_before) == _record_bytes(benign_after)


class TestScenarioSurface:
    """Spec resolution, validation, and the record's scenario field."""

    def test_registry_contains_zero_and_nonzero_specs(self):
        assert SCENARIOS["none"].is_noop
        assert SCENARIOS["faults-zero"].is_noop
        assert SCENARIOS["dyn-zero"].is_noop
        assert ACTIVE_SCENARIOS, "registry must ship active scenarios"

    def test_unknown_scenario_name_raises(self):
        with pytest.raises(ScenarioError):
            resolve_scenario("no-such-world")

    def test_invalid_rates_raise(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(name="bad", churn_rate=1.5)
        with pytest.raises(ScenarioError):
            ScenarioSpec(name="bad", crash_rate=-0.1)
        with pytest.raises(ScenarioError):
            ScenarioSpec(name="bad", respawn="reincarnate")

    def test_record_scenario_field_round_trips(self):
        from repro.experiments.results_io import (
            pack_record_batch,
            record_from_jsonable,
            unpack_record_batch,
        )

        graph, _ = _instance("random-walk", PortModel.KT1)
        records = run_trials(
            graph, "random-walk", [0, 1], scenario="edge-churn", max_rounds=800
        )
        assert all(r.scenario == "edge-churn" for r in records)
        unpacked = unpack_record_batch(pack_record_batch(records))
        assert unpacked == records
        for record in records:
            payload = record_to_jsonable(record)
            assert payload["scenario"] == "edge-churn"
            assert record_from_jsonable(payload) == record
