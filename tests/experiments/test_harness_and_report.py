"""Tests for the experiment harness and table rendering."""

from __future__ import annotations

import gc
import random

import pytest

from repro.errors import GraphError
from repro.experiments.harness import (
    TrialRecord,
    aggregate_rounds,
    run_trial,
    run_trials,
)
from repro.experiments.parallel import (
    build_graph,
    clear_instance_cache,
    plan_for_instance,
)
from repro.experiments.report import Table
from repro.graphs.generators import (
    complete_graph,
    path_graph,
    random_graph_with_min_degree,
)
from repro.runtime.plan import ExecutionPlan


class TestRunTrial:
    def test_record_fields(self):
        g = complete_graph(20)
        record = run_trial(g, "trivial", seed=0)
        assert record.met
        assert record.algorithm == "trivial"
        assert record.n == 20
        assert record.delta == 19
        assert record.rounds > 0
        assert record.rounds_per_n == record.rounds / 20

    def test_instance_check_enforced(self):
        g = path_graph(5)
        with pytest.raises(GraphError):
            run_trial(g, "trivial", seed=0, start_a=0, start_b=3)

    def test_instance_check_can_be_skipped(self):
        g = path_graph(5)
        record = run_trial(
            g, "random-walk", seed=0, start_a=0, start_b=3,
            check_instance=False, max_rounds=100_000,
        )
        assert record.met

    def test_run_trials(self):
        g = complete_graph(16)
        records = run_trials(g, "trivial", range(4))
        assert len(records) == 4
        assert {r.seed for r in records} == {0, 1, 2, 3}

    def test_aggregate_rounds(self):
        g = complete_graph(16)
        records = run_trials(g, "trivial", range(4))
        summary = aggregate_rounds(records)
        assert summary.count == 4
        assert summary.mean > 0

    def test_aggregate_requires_success(self):
        record = TrialRecord(
            algorithm="x", graph_name="g", n=2, id_space=2, delta=1,
            max_degree=1, seed=0, met=False, rounds=10, total_moves=0,
            whiteboard_writes=0,
        )
        with pytest.raises(ValueError):
            aggregate_rounds([record])


class TestBatchFootprint:
    """What a finished engine batch leaves behind."""

    def test_theorem1_batch_builds_one_membership_table(self):
        """KT1 moves and views read the plan's N⁺ rows, nothing else."""
        graph = random_graph_with_min_degree(64, 8, random.Random("one-table"))
        plan = ExecutionPlan.compile(graph)
        records = run_trials(graph, "theorem1", range(3), plan=plan)
        assert all(record.met for record in records)
        assert graph._neighbor_sets is None  # the graph's frozensets
        assert not hasattr(plan, "nbr_index")
        assert len(plan.closed_sets) == graph.n

    def test_finished_batch_frees_its_plan_without_a_collection(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            clear_instance_cache()
            before = {id(o) for o in gc.get_objects() if isinstance(o, ExecutionPlan)}
            graph = build_graph("er-min-degree", 64, "n^0.5")
            plan = plan_for_instance("er-min-degree", 64, "n^0.5")
            records = run_trials(graph, "theorem1", range(3), plan=plan)
            assert len(records) == 3
            del graph, plan, records
            clear_instance_cache()
            left = [
                o for o in gc.get_objects()
                if isinstance(o, ExecutionPlan) and id(o) not in before
            ]
            assert left == []
        finally:
            if was_enabled:
                gc.enable()


class TestTable:
    def test_render_contains_everything(self):
        table = Table("demo", ["a", "b"])
        table.add_row(1, 2.5)
        table.add_row(10_000, "x")
        table.add_note("a note")
        text = table.render()
        assert "demo" in text
        assert "10,000" in text
        assert "2.500" in text
        assert "a note" in text

    def test_row_length_validated(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_markdown(self):
        table = Table("t", ["col"])
        table.add_row(True)
        md = table.to_markdown()
        assert "| col |" in md
        assert "| yes |" in md

    def test_save_markdown(self, tmp_path):
        table = Table("t", ["col"])
        table.add_row(3)
        target = table.save_markdown(tmp_path, "out")
        assert target.read_text().startswith("### t")

    def test_empty_table_renders(self):
        assert "t" in Table("t", ["a"]).render()
