"""Tests for the lazy query layer and its fused columnar kernel."""

from __future__ import annotations

import random
import statistics

import pytest

from repro.errors import QueryError, WarehouseError
from repro.experiments import query
from repro.experiments.harness import repeat_trials
from repro.experiments.query import col, from_records, lit, scan
from repro.experiments.results_io import write_records_jsonl
from repro.experiments.warehouse import write_records_warehouse
from repro.graphs.generators import complete_graph, random_graph_with_min_degree


def mixed_records():
    """Records across two algorithms × two graphs, some unmet."""
    records = []
    graphs = [complete_graph(16), random_graph_with_min_degree(40, 10,
                                                              random.Random(7))]
    for graph in graphs:
        for algorithm in ("trivial", "random-walk"):
            records.extend(
                repeat_trials(graph, algorithm, range(3), max_rounds=60)
            )
    return records


@pytest.fixture(scope="module")
def records():
    return mixed_records()


@pytest.fixture()
def warehouse(records, tmp_path):
    return write_records_warehouse(records, tmp_path / "wh")


class TestExpressions:
    def test_comparisons_and_alias(self, records):
        frame = (
            from_records(records)
            .filter(col("algorithm") == "trivial")
            .select(col("rounds"), (col("rounds") * lit(2)).alias("double"))
            .collect()
        )
        assert frame.column_names == ["rounds", "double"]
        for row in frame.iter_rows():
            assert row["double"] == row["rounds"] * 2

    def test_is_in_and_boolean_ops(self, records):
        frame = (
            from_records(records)
            .filter(col("algorithm").is_in(["trivial"]) & col("met"))
            .select(col("algorithm"), col("met"))
            .collect()
        )
        assert all(row["algorithm"] == "trivial" for row in frame.iter_rows())
        assert all(row["met"] for row in frame.iter_rows())

    def test_unnamed_select_rejected(self, records):
        with pytest.raises(QueryError):
            from_records(records).select(col("n") + lit(1))

    def test_unknown_column_rejected(self, records):
        with pytest.raises(QueryError):
            from_records(records).select(col("nope")).collect()

    def test_point_column_needs_a_warehouse(self, records):
        with pytest.raises(QueryError):
            from_records(records).select(col("_point")).collect()


class TestGroupBy:
    def test_matches_manual_fold(self, records):
        frame = (
            from_records(records)
            .group_by("algorithm")
            .agg(
                total=query.count(),
                met=query.sum_("met"),
                mean_rounds=query.mean("rounds", where=col("met")),
            )
            .collect()
        )
        by_alg = {row["algorithm"]: row for row in frame.iter_rows()}
        for algorithm in ("trivial", "random-walk"):
            mine = [r for r in records if r.algorithm == algorithm]
            met_rounds = [r.rounds for r in mine if r.met]
            assert by_alg[algorithm]["total"] == len(mine)
            assert by_alg[algorithm]["met"] == sum(r.met for r in mine)
            expected = statistics.fmean(met_rounds) if met_rounds else None
            assert by_alg[algorithm]["mean_rounds"] == expected

    def test_key_collision_rejected(self, records):
        with pytest.raises(QueryError):
            (
                from_records(records)
                .group_by("algorithm")
                .agg(algorithm=query.count())
                .collect()
            )

    def test_agg_requires_agg_objects(self, records):
        with pytest.raises(QueryError):
            from_records(records).group_by("algorithm").agg(x=col("rounds"))


class TestFusedKernel:
    def test_plan_description(self, warehouse, records):
        fused = scan(warehouse).group_by("algorithm").agg(total=query.count())
        assert "fused single pass" in fused.describe_plan()
        rowwise = (
            scan(warehouse)
            .filter(col("met"))
            .group_by("algorithm")
            .agg(total=query.count())
        )
        assert "row-wise fold" in rowwise.describe_plan()
        assert "row-wise fold" in (
            from_records(records).group_by("algorithm")
            .agg(total=query.count()).describe_plan()
        )

    def test_fused_equals_rowwise_oracle(self, warehouse, records):
        aggs = dict(
            total=query.count(),
            met=query.sum_("met"),
            best=query.min_("rounds", where=col("met")),
            worst=query.max_("rounds"),
            moves=query.sum_("total_moves"),
            rounds=query.values("rounds", where=col("met")),
            median_rounds=query.median("rounds"),
        )
        keys = ("algorithm", "graph_name", "n", "delta")
        fused = scan(warehouse).group_by(*keys).agg(**aggs)
        assert "fused single pass" in fused.describe_plan()
        oracle = from_records(records).group_by(*keys).agg(**aggs)
        assert list(fused.collect().sort_by(*keys).iter_rows()) == list(
            oracle.collect().sort_by(*keys).iter_rows()
        )

    def test_floordiv_key_runs_rowwise(self, records, tmp_path):
        # Computed keys take the row-wise fold; only the executor differs.
        path = write_records_warehouse(records, tmp_path / "wh2")
        plan = (
            scan(path)
            .group_by((col("seed") // 2).alias("pair"))
            .agg(total=query.count())
        )
        assert plan.describe_plan().endswith("-> row-wise fold")
        frame = plan.collect()
        expected: dict[int, int] = {}
        for record in records:
            expected[record.seed // 2] = expected.get(record.seed // 2, 0) + 1
        assert {
            row["pair"]: row["total"] for row in frame.iter_rows()
        } == expected

    def test_select_fused_matches_records(self, warehouse, records):
        frame = scan(warehouse).select(col("rounds"), col("algorithm")).collect()
        assert list(frame.column("rounds")) == [r.rounds for r in records]
        assert list(frame.column("algorithm")) == [r.algorithm for r in records]

    def test_select_unknown_column_matches_rowwise_error(self, warehouse):
        # Same exception type as the row-wise executor (_record_get),
        # so callers do not depend on which executor happens to run.
        with pytest.raises(QueryError, match="no such column"):
            scan(warehouse).select(col("nope")).collect()
        with pytest.raises(QueryError, match="_point"):
            scan(warehouse).select(col("_point")).collect()


class TestScan:
    def test_scan_jsonl(self, records, tmp_path):
        path = write_records_jsonl(records, tmp_path / "r.jsonl")
        frame = (
            scan(path).group_by("algorithm").agg(total=query.count()).collect()
        )
        assert sum(row["total"] for row in frame.iter_rows()) == len(records)

    def test_scan_missing_path(self, tmp_path):
        with pytest.raises(WarehouseError):
            scan(tmp_path / "missing")

    def test_scan_non_warehouse_dir(self, tmp_path):
        with pytest.raises(WarehouseError):
            scan(tmp_path)

    def test_scan_accepts_open_warehouse(self, warehouse, records):
        from repro.experiments.warehouse import SweepWarehouse

        frame = (
            scan(SweepWarehouse(warehouse))
            .group_by("algorithm")
            .agg(total=query.count())
            .collect()
        )
        assert sum(row["total"] for row in frame.iter_rows()) == len(records)


class TestFrame:
    def test_sort_and_len(self, records):
        frame = (
            from_records(records)
            .group_by("algorithm", "n")
            .agg(total=query.count())
            .collect()
        )
        ordered = frame.sort_by("n", "algorithm")
        keys = [(row["n"], row["algorithm"]) for row in ordered.iter_rows()]
        assert keys == sorted(keys)
        assert len(ordered) == len(frame)

    def test_drop(self, records):
        frame = (
            from_records(records)
            .group_by("algorithm")
            .agg(total=query.count(), extra=query.count())
            .collect()
        )
        assert "extra" not in frame.drop("extra").column_names
