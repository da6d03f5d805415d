"""Tests for the fused warehouse summary kernel.

Every ``collect()`` is checked against the record fold it replaces: one
:class:`StreamSummary` per group, fed record by record.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import WarehouseError
from repro.experiments.harness import StreamSummary, TrialRecord, run_trials
from repro.experiments.query import scan
from repro.experiments.results_io import write_records_jsonl
from repro.experiments.warehouse import (
    SweepWarehouse,
    WarehouseWriter,
    write_records_warehouse,
)
from repro.graphs.generators import complete_graph, random_graph_with_min_degree

KEYS = ("algorithm", "graph_name", "n", "delta")


def mixed_records():
    """Records across two algorithms × two graphs, some unmet."""
    records = []
    graphs = [complete_graph(16), random_graph_with_min_degree(40, 10,
                                                              random.Random(7))]
    for graph in graphs:
        for algorithm in ("trivial", "random-walk"):
            records.extend(
                run_trials(graph, algorithm, range(3), max_rounds=60)
            )
    return records


def synthetic(algorithm, n, seed, met, rounds, scenario=None):
    return TrialRecord(
        algorithm=algorithm, graph_name=f"g(n={n})", n=n, id_space=n * n,
        delta=n // 4, max_degree=n - 1, seed=seed, met=met,
        rounds=rounds, total_moves=2 * rounds, whiteboard_writes=0,
        scenario=scenario,
    )


def grid_records():
    """Three groups in grid order; group ("b", 20) never meets."""
    records = []
    for algorithm, n, met_every in (("a", 10, 2), ("b", 20, 0), ("a", 30, 1)):
        for seed in range(9):
            met = bool(met_every) and seed % met_every == 0
            records.append(synthetic(algorithm, n, seed, met, 5 * n + seed))
    return records


def record_fold(records, keys=KEYS):
    groups: dict[tuple, StreamSummary] = {}
    for record in records:
        key = tuple(getattr(record, name) for name in keys)
        groups.setdefault(key, StreamSummary()).add(record)
    return groups


def digest(groups):
    """Group contents with rounds as a multiset (the fold's contract)."""
    return {
        key: (group.total, group.met, group.delta, sorted(group.rounds))
        for key, group in groups.items()
    }


@pytest.fixture(scope="module")
def records():
    return mixed_records()


@pytest.fixture()
def warehouse(records, tmp_path):
    return write_records_warehouse(records, tmp_path / "wh")


class TestFusedKernel:
    @pytest.mark.parametrize("order", ["grid", "shuffled", "interleaved", "gapped"])
    def test_without_point(self, order, tmp_path):
        records = grid_records()
        if order == "shuffled":
            random.Random(3).shuffle(records)
        elif order == "interleaved":  # A B A: one group in two runs
            records = records[:4] + records[9:18] + records[4:9] + records[18:]
        elif order == "gapped":  # A A A B A ...: the gallop strides over B
            records = records[:3] + records[9:10] + records[3:9] + records[10:]
        path = write_records_warehouse(records, tmp_path / "wh", batch_rows=5)
        groups = scan(path).group_by(*KEYS).collect()
        oracle = record_fold(records)
        assert digest(groups) == digest(oracle)
        # No _point column: groups keep first-row order.
        assert list(groups) == list(oracle)
        assert groups["b", "g(n=20)", 20, 5].met == 0
        assert groups["b", "g(n=20)", 20, 5].summary() is None

    def test_real_trials_on_every_key_shape(self, warehouse, records):
        for keys in (KEYS, ("algorithm",), ("n", "seed"), ("scenario",)):
            groups = scan(warehouse).group_by(*keys).collect()
            assert digest(groups) == digest(record_fold(records, keys))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_with_point_orders_groups_by_first_grid_point(self, seed, tmp_path):
        records = grid_records()
        order = list(range(len(records)))
        random.Random(seed).shuffle(order)
        with WarehouseWriter(tmp_path / "wh", with_point=True) as writer:
            for start in range(0, len(order), 4):
                batch = order[start:start + 4]
                writer.append_batch([records[i] for i in batch], points=batch)
        groups = scan(tmp_path / "wh").group_by(*KEYS).collect()
        # The record fold over grid order is the oracle, order included.
        oracle = record_fold(records)
        assert digest(groups) == digest(oracle)
        assert list(groups) == list(oracle)

    def test_one_value_column_still_checks_its_codes(self, tmp_path):
        """A column whose table lists one value skips run detection, but a
        code past that table is still a corrupt warehouse."""
        records = [synthetic("a", 10, seed, True, 50) for seed in range(4)]
        path = write_records_warehouse(records, tmp_path / "wh")
        assert len(scan(path).group_by("algorithm", "scenario").collect()) == 1
        segment = next(path.glob("algorithm.*"))
        segment.write_bytes(b"\x00\x00\x01\x00")
        with pytest.raises(WarehouseError, match="algorithm code 1"):
            scan(path).group_by("algorithm", "scenario").collect()

    def test_zero_row_warehouse(self, tmp_path):
        path = write_records_warehouse([], tmp_path / "wh")
        assert scan(path).group_by(*KEYS).collect() == {}

    def test_plan_description(self, warehouse):
        plan = scan(warehouse).group_by("algorithm", "n")
        lines = plan.describe_plan().splitlines()
        assert lines[0].startswith("SCAN warehouse")
        assert lines[1] == "GROUP BY algorithm, n"
        assert lines[-1] == "-> fused single pass"

    @pytest.mark.parametrize("key", ["reports", "met", "_point", "nope"])
    def test_ungroupable_key_rejected(self, warehouse, key):
        with pytest.raises(WarehouseError, match="cannot group by"):
            scan(warehouse).group_by(key)


class TestScan:
    def test_scan_missing_path(self, tmp_path):
        with pytest.raises(WarehouseError):
            scan(tmp_path / "missing")

    def test_scan_non_warehouse_dir(self, tmp_path):
        with pytest.raises(WarehouseError, match="manifest.json"):
            scan(tmp_path)

    def test_scan_refuses_jsonl(self, records, tmp_path):
        path = write_records_jsonl(records, tmp_path / "r.jsonl")
        with pytest.raises(WarehouseError, match="not a results warehouse"):
            scan(path)

    def test_scan_accepts_open_warehouse(self, warehouse, records):
        groups = scan(SweepWarehouse(warehouse)).group_by("algorithm").collect()
        assert sum(group.total for group in groups.values()) == len(records)
