"""Smoke + contract tests for the experiment registry.

Full experiments run in the benchmark suite; here we verify the
registry contract and a few cheap invariants (oracle helpers and the
registry's claim coverage).
"""

from __future__ import annotations

import random

import pytest

from repro.core.dense import is_dense_set
from repro.errors import ReproError
from repro.experiments import parallel
from repro.experiments.parallel import SweepSpec
from repro.experiments.workloads import (
    EXPERIMENTS,
    _met_groups,
    run_ablation_dwell,
    run_experiment,
    run_theorem2_oracle,
    two_hop_oracle,
)
from repro.graphs.generators import random_graph_with_min_degree


class TestRegistryContract:
    def test_all_paper_claims_covered(self):
        keys = set(EXPERIMENTS)
        expected = {
            "T1-SCALING", "T1-DELTA", "T2-PHASES", "T2-FULL", "CONSTRUCT",
            "SAMPLE-ACC", "MAIN-RDV", "ESTIMATION", "LB-MINDEG", "LB-KT0",
            "LB-DIST2", "LB-DET", "COMPLETE-AW", "SHOOTOUT",
            "ORACLES", "EXT-GATHER", "EXT-DIST2", "PAR-SWEEP",
            "FAULT-TOL", "DYN-CHURN",
            "ABL-CONSTANTS", "ABL-THRESHOLD", "ABL-DWELL",
        }
        assert keys == expected

    def test_specs_have_claims_and_runners(self):
        for spec in EXPERIMENTS.values():
            assert spec.claim
            assert spec.title
            assert callable(spec.runner)

    def test_every_theorem_has_an_experiment(self):
        claims = " ".join(spec.claim for spec in EXPERIMENTS.values())
        for reference in ("Theorem 1", "Theorem 2", "Theorem 3", "Theorem 4",
                          "Theorem 5", "Theorem 6", "Lemma 1", "Lemma 2",
                          "Corollary 2"):
            assert reference in claims, f"no experiment covers {reference}"


class TestTwoHopOracle:
    def test_oracle_set_is_dense(self):
        g = random_graph_with_min_degree(100, 25, random.Random(0))
        start = g.vertices[0]
        members, via = two_hop_oracle(g, start)
        assert is_dense_set(g, start, members, g.min_degree / 8, 2)

    def test_via_routes_are_valid(self):
        g = random_graph_with_min_degree(100, 25, random.Random(1))
        start = g.vertices[0]
        members, via = two_hop_oracle(g, start)
        closed = g.closed_neighbor_set(start)
        for vertex in members:
            if vertex in closed:
                assert vertex not in via
            else:
                assert g.has_edge(start, via[vertex])
                assert g.has_edge(via[vertex], vertex)

    def test_avoid_via_respected_when_possible(self):
        g = random_graph_with_min_degree(100, 25, random.Random(2))
        start = g.vertices[0]
        avoid = frozenset(sorted(g.neighbor_set(start))[:5])
        _, via = two_hop_oracle(g, start, avoid_via=avoid)
        used = set(via.values())
        # Avoided intermediates appear only as a last resort; with
        # delta = 25 alternatives almost always exist.
        assert len(used & avoid) <= 1


class TestOracleTheorem2:
    def test_runs_and_meets(self, testing_constants):
        g = random_graph_with_min_degree(150, 40, random.Random(3))
        constants = testing_constants.with_overrides(sync_multiplier=1e-9)
        edges = list(g.edges())
        start_a, start_b = edges[0]
        result = run_theorem2_oracle(g, start_a, start_b, 0, constants)
        assert result.met


class TestSweepClaims:
    """The grid experiments read their tables off ``run_sweep`` groups."""

    def _spec(self, **axes):
        return SweepSpec(
            name="claim", families=("complete",), ns=(16,),
            algorithms=("trivial",), seeds=(0, 1), **axes,
        )

    def test_groups_keyed_by_instance_and_algorithm(self):
        groups = _met_groups(self._spec())
        assert list(groups) == [("complete", 16, "n^0.75", "trivial")]
        assert groups["complete", 16, "n^0.75", "trivial"].met == 2

    def test_a_missed_meeting_is_an_error(self):
        with pytest.raises(ReproError, match="trivial met in only 0/2 trials"):
            _met_groups(self._spec(max_rounds=0))

    def test_run_experiment_drops_the_instance_memo(self):
        run_experiment("T2-FULL")
        assert parallel._instance_for.cache_info().currsize == 0


#: ABL-DWELL's quick table, as the solo runs of agent b's program print it.
ABL_DWELL_QUICK = """\
### ABL-DWELL — agent b sweep truncation vs dwell slack (n = 600)

| dwell slack | dwell L | max block sweep cost | total sweep overflows |
|---|---|---|---|
| 0.250 | 72 | 84 | 1,800 |
| 0.500 | 144 | 84 | 0 |
| 1.000 | 288 | 84 | 0 |
| 1.500 | 432 | 84 | 0 |

*overflows appear once L falls below the densest block's sweep cost; \
the shipped slack of 1.5 keeps a 50% margin*"""


class TestAblationDwell:
    def test_quick_table_is_pinned(self):
        (table,) = run_ablation_dwell(quick=True)
        assert table.to_markdown() == ABL_DWELL_QUICK
