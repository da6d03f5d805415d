"""Tests for the columnar results warehouse (storage layer)."""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import WarehouseError
from repro.experiments.harness import TrialRecord, run_trial, run_trials
from repro.experiments.query import scan
from repro.experiments.results_io import record_to_jsonable
from repro.experiments.warehouse import (
    MANIFEST_NAME,
    SweepWarehouse,
    WarehouseCache,
    WarehouseWriter,
    is_warehouse,
    write_records_warehouse,
)
from repro.graphs.generators import complete_graph, random_graph_with_min_degree


def sample_records():
    return run_trials(complete_graph(20), "trivial", range(4))


def scenario_records():
    graph = random_graph_with_min_degree(40, 10, random.Random("wh"))
    records = []
    for name in ("none", "wb-corrupt", "crash-restart"):
        for seed in range(2):
            records.append(
                run_trial(graph, "theorem1", seed, scenario=name, max_rounds=50_000)
            )
    return records


#: Manifest defects the reader and the resume writer must refuse.
MALFORMED = [
    "not-json", "list", "no-values", "bad-code-type", "code-past-table",
    "negative-rows",
]


def corrupt_manifest(path, case):
    """Rewrite ``path``'s manifest with one defect of :data:`MALFORMED`."""
    manifest_path = path / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    algorithm = manifest["dict_columns"]["algorithm"]
    if case == "not-json":
        manifest_path.write_text("{not json")
        return
    if case == "list":
        manifest = [manifest]
    elif case == "no-values":
        del algorithm["values"]
    elif case == "bad-code-type":
        algorithm["type"] = "Z"
    elif case == "code-past-table":
        algorithm["values"] = []
    elif case == "negative-rows":
        manifest["rows"] = -3
    manifest_path.write_text(json.dumps(manifest))


def mutate(record: TrialRecord, **overrides) -> TrialRecord:
    return TrialRecord(**{**record_to_jsonable(record), **overrides})


class TestRoundTrip:
    def test_exact_record_round_trip(self, tmp_path):
        records = sample_records()
        path = write_records_warehouse(records, tmp_path / "wh")
        assert is_warehouse(path)
        assert list(SweepWarehouse(path).iter_records()) == records

    def test_scenario_side_channel_round_trips(self, tmp_path):
        """Satellite: scenario present (str) and absent (None) both survive."""
        records = scenario_records()
        assert {r.scenario for r in records} == {None, "wb-corrupt", "crash-restart"}
        path = write_records_warehouse(records, tmp_path / "wh")
        restored = list(SweepWarehouse(path).iter_records())
        assert [r.scenario for r in restored] == [r.scenario for r in records]
        assert restored == records

    def test_pack_persist_scan_object_identity(self, tmp_path):
        """Satellite: pack → persist → scan returns equal record objects."""
        from repro.experiments.results_io import (
            pack_record_batch,
            unpack_record_batch,
        )

        records = scenario_records()
        shipped = unpack_record_batch(pack_record_batch(records))
        path = write_records_warehouse(shipped, tmp_path / "wh")
        assert list(SweepWarehouse(path).iter_records()) == records

    def test_column_access(self, tmp_path):
        records = sample_records()
        path = write_records_warehouse(records, tmp_path / "wh")
        warehouse = SweepWarehouse(path)
        assert len(warehouse) == len(records)
        assert list(warehouse.column("rounds")) == [r.rounds for r in records]
        assert bytes(warehouse.column("met")) == bytes(
            1 if r.met else 0 for r in records
        )
        assert [
            warehouse.decode("algorithm", c) for c in warehouse.column("algorithm")
        ] == [r.algorithm for r in records]

    def test_spec_payload_persisted(self, tmp_path):
        payload = {"name": "spec", "ns": [40]}
        path = write_records_warehouse(
            sample_records(), tmp_path / "wh", spec_payload=payload
        )
        assert SweepWarehouse(path).spec == payload


class TestDictionaryEscalation:
    def test_more_than_256_values_round_trip(self, tmp_path):
        base = sample_records()[0]
        records = [mutate(base, graph_name=f"g{i:04d}", seed=i) for i in range(300)]
        with WarehouseWriter(tmp_path / "wh") as writer:
            writer.append_batch(records[:100])
            writer.append_batch(records[100:])
            writer.commit()
        assert list(SweepWarehouse(tmp_path / "wh").iter_records()) == records
        # The widened codes live under the u16 file name; the narrow
        # segment is gone once the manifest committed the new width.
        assert (tmp_path / "wh" / "graph_name.H.seg").exists()
        assert not (tmp_path / "wh" / "graph_name.B.seg").exists()

    def test_crash_during_escalation_preserves_committed_rows(
        self, tmp_path, monkeypatch
    ):
        """A crash between widening and the manifest commit loses only
        the in-flight batch — never previously committed rows."""
        base = sample_records()[0]
        records = [mutate(base, graph_name=f"g{i:04d}", seed=i) for i in range(300)]
        path = tmp_path / "wh"
        with WarehouseWriter(path) as writer:
            writer.append_batch(records[:200])

        writer = WarehouseWriter(path)
        monkeypatch.setattr(
            writer,
            "_write_manifest",
            lambda: (_ for _ in ()).throw(RuntimeError("simulated crash")),
        )
        with pytest.raises(RuntimeError):
            writer.append_batch(records[200:])  # escalates u8 -> u16
        writer.close()

        # Even before recovery runs, the manifest references the intact
        # narrow segment, so readers see the committed rows unharmed.
        assert list(SweepWarehouse(path).iter_records()) == records[:200]
        with WarehouseWriter(path) as resumed:
            assert resumed.rows == 200
            # Recovery discarded the half-written wide file.
            assert not (path / "graph_name.H.seg").exists()
            resumed.append_batch(records[200:])
        assert list(SweepWarehouse(path).iter_records()) == records


class TestCrashRecovery:
    def test_truncates_uncommitted_tail(self, tmp_path):
        records = sample_records()
        path = write_records_warehouse(records[:3], tmp_path / "wh")
        # Simulate a crash mid-append: bytes past the manifest's commit
        # point land in some segments but the manifest was never updated.
        for name in ("rounds.seg", "met.seg"):
            with open(path / name, "ab") as handle:
                handle.write(b"\xff" * 11)
        with WarehouseWriter(path) as writer:
            assert writer.rows == 3
            writer.append_batch(records[3:])
            writer.commit()
        assert list(SweepWarehouse(path).iter_records()) == records

    def test_shrunk_segment_is_an_error(self, tmp_path):
        path = write_records_warehouse(sample_records(), tmp_path / "wh")
        with open(path / "rounds.seg", "r+b") as handle:
            handle.truncate(8)
        with pytest.raises(WarehouseError):
            WarehouseWriter(path)

    def test_resume_false_wipes(self, tmp_path):
        records = sample_records()
        path = write_records_warehouse(records, tmp_path / "wh")
        with WarehouseWriter(path, resume=False) as writer:
            assert writer.rows == 0
            writer.append_batch(records[:2])
            writer.commit()
        assert list(SweepWarehouse(path).iter_records()) == records[:2]

    def test_content_hash_tracks_data(self, tmp_path):
        records = sample_records()
        a = SweepWarehouse(write_records_warehouse(records, tmp_path / "a"))
        b = SweepWarehouse(write_records_warehouse(records, tmp_path / "b"))
        c = SweepWarehouse(write_records_warehouse(records[:3], tmp_path / "c"))
        assert a.content_hash == b.content_hash
        assert a.content_hash != c.content_hash


class TestValidation:
    def test_not_a_warehouse(self, tmp_path):
        with pytest.raises(WarehouseError):
            SweepWarehouse(tmp_path)

    def test_future_version_rejected(self, tmp_path):
        path = write_records_warehouse(sample_records(), tmp_path / "wh")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["version"] = 99
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(WarehouseError, match="newer"):
            SweepWarehouse(path)
        with pytest.raises(WarehouseError, match="newer"):
            WarehouseWriter(path)

    def test_manifest_listing_fallback_rows_refused(self, tmp_path):
        """Older warehouses kept some rows in a pickled side channel and
        placeholders in their columns; neither reader nor resume may use
        them."""
        records = sample_records()
        path = write_records_warehouse(records, tmp_path / "wh")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        assert manifest["fallback"] == {}
        manifest["fallback"] = {"1": "reports"}
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        (path / "fallback.jsonl").write_text('{"kind": "reports", "row": 1}\n')
        with pytest.raises(WarehouseError, match="--no-resume"):
            SweepWarehouse(path)
        with pytest.raises(WarehouseError, match="--no-resume"):
            WarehouseWriter(path)
        # --no-resume discards it, side channel included.
        with WarehouseWriter(path, resume=False) as writer:
            writer.append_batch(records)
        assert not (path / "fallback.jsonl").exists()
        assert list(SweepWarehouse(path).iter_records()) == records

    @pytest.mark.parametrize("side", ["reader", "writer"])
    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_manifest_rejected(self, tmp_path, case, side):
        """Every case is a WarehouseError, not an AttributeError, KeyError,
        ValueError or IndexError, and negative rows never read as empty."""
        cache = WarehouseCache(tmp_path, "deadbeef")
        cache.append_indexed(list(enumerate(sample_records())))
        cache.close()
        corrupt_manifest(cache.path, case)
        if side == "reader":
            with pytest.raises(WarehouseError):
                list(SweepWarehouse(cache.path).iter_records())
            with pytest.raises(WarehouseError):
                scan(cache.path).group_by("algorithm").collect()
            return
        # Resume reads the cached pairs first, then reopens for append.
        with pytest.raises(WarehouseError):
            list(WarehouseCache(tmp_path, "deadbeef").iter_indexed())
        if case != "code-past-table":  # only decoding sees codes
            with pytest.raises(WarehouseError):
                WarehouseWriter(cache.path, with_point=True)

    def test_is_warehouse(self, tmp_path):
        assert not is_warehouse(tmp_path)
        assert not is_warehouse(tmp_path / "missing")
        path = write_records_warehouse(sample_records(), tmp_path / "wh")
        assert is_warehouse(path)


class TestWarehouseCache:
    def test_append_and_iter_indexed(self, tmp_path):
        records = sample_records()
        cache = WarehouseCache(tmp_path, "deadbeef")
        cache.append_indexed(list(enumerate(records)))
        cache.close()
        again = WarehouseCache(tmp_path, "deadbeef")
        assert list(again.iter_indexed()) == list(enumerate(records))
        again.close()

    def test_reset(self, tmp_path):
        records = sample_records()
        cache = WarehouseCache(tmp_path, "deadbeef")
        cache.append_indexed(list(enumerate(records)))
        cache.reset()
        assert list(cache.iter_indexed()) == []
        cache.close()
