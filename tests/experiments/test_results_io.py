"""Tests for raw-record persistence and the columnar batch codec."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import ALGORITHMS
from repro.experiments.harness import (
    TrialRecord,
    run_trial,
    run_trials,
)
from repro.experiments.parallel import (
    CONSTANTS_PRESETS,
    SweepSpec,
    _instance_for,
    run_sweep,
)
from repro.experiments.results_io import (
    iter_records_jsonl,
    pack_record_batch,
    read_records_jsonl,
    record_from_jsonable,
    record_to_jsonable,
    unpack_record_batch,
    write_records_csv,
    write_records_jsonl,
)
from repro.graphs.generators import complete_graph, random_graph_with_min_degree
from repro.graphs.ports import PortLabeling, PortModel


def sample_records():
    return run_trials(complete_graph(20), "trivial", range(3))


class TestJsonl:
    def test_round_trip(self, tmp_path):
        records = sample_records()
        path = write_records_jsonl(records, tmp_path / "out.jsonl")
        loaded = read_records_jsonl(path)
        assert len(loaded) == 3
        for original, restored in zip(records, loaded):
            assert restored.algorithm == original.algorithm
            assert restored.rounds == original.rounds
            assert restored.seed == original.seed
            assert restored.met == original.met

    def test_reports_survive(self, tmp_path):
        records = sample_records()
        path = write_records_jsonl(records, tmp_path / "out.jsonl")
        loaded = read_records_jsonl(path)
        assert loaded[0].reports["a"]["probes"] == records[0].reports["a"]["probes"]

    def test_lines_are_valid_json(self, tmp_path):
        path = write_records_jsonl(sample_records(), tmp_path / "out.jsonl")
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_blank_lines_skipped(self, tmp_path):
        path = write_records_jsonl(sample_records(), tmp_path / "out.jsonl")
        path.write_text(path.read_text() + "\n\n")
        assert len(read_records_jsonl(path)) == 3


class TestIterRecords:
    def test_streaming_matches_bulk_load(self, tmp_path):
        records = sample_records()
        path = write_records_jsonl(records, tmp_path / "out.jsonl")
        assert list(iter_records_jsonl(path)) == read_records_jsonl(path)

    def test_is_lazy(self, tmp_path):
        path = write_records_jsonl(sample_records(), tmp_path / "out.jsonl")
        stream = iter_records_jsonl(path)
        first = next(stream)
        assert first.algorithm == "trivial"
        stream.close()  # no exhaustion required

    def test_blank_lines_skipped(self, tmp_path):
        path = write_records_jsonl(sample_records(), tmp_path / "out.jsonl")
        path.write_text("\n" + path.read_text() + "\n\n")
        assert len(list(iter_records_jsonl(path))) == 3


def _export_bytes(records) -> bytes:
    return "\n".join(
        json.dumps(record_to_jsonable(r), sort_keys=True) for r in records
    ).encode()


def _supported_matrix():
    pairs = [(algorithm, PortModel.KT1) for algorithm in ALGORITHMS]
    pairs.append(("random-walk", PortModel.KT0))  # the only KT0-capable one
    return pairs


class TestRecordBatchCodec:
    @pytest.mark.parametrize(
        "algorithm,port_model",
        _supported_matrix(),
        ids=lambda value: getattr(value, "value", value),
    )
    def test_round_trip_byte_identical_per_algorithm(self, algorithm, port_model):
        """Acceptance: codec exactness for every algorithm × port model."""
        graph = random_graph_with_min_degree(40, 10, random.Random("codec"))
        labeling = (
            PortLabeling(graph, rng=random.Random(2))
            if port_model is PortModel.KT0
            else None
        )
        records = [
            run_trial(
                graph, algorithm, seed,
                port_model=port_model, labeling=labeling, max_rounds=400,
            )
            for seed in range(3)
        ]
        restored = unpack_record_batch(pack_record_batch(records))
        assert _export_bytes(restored) == _export_bytes(records)
        assert restored == records

    def test_empty_batch(self):
        assert unpack_record_batch(pack_record_batch([])) == []

    def test_json_native_detects_lossless_reports(self):
        from repro.experiments.harness import json_native

        assert json_native({"a": {"moves": 3, "ok": True, "note": None}})
        assert json_native({"a": {"path": [1, 2, 3], "rate": 0.5}})
        # Values JSON would change or cannot carry are not native: the
        # harness refuses reports that hold them.
        assert not json_native({"a": {"pair": (1, 2)}})
        assert not json_native({"a": {"seen": frozenset({1})}})
        assert not json_native({"a": {"obj": object()}})
        assert not json_native({1: {"non-str": "key"}})

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            unpack_record_batch(b"NOPE" + b"\x00" * 16)

    def test_int64_overflow_raises(self):
        record = sample_records()[0]
        huge = TrialRecord(**{**record_to_jsonable(record), "rounds": 2 ** 70})
        with pytest.raises(OverflowError):
            pack_record_batch([huge])

    @settings(max_examples=25, deadline=None)
    @given(
        records=st.lists(
            st.builds(
                TrialRecord,
                algorithm=st.text(max_size=8),
                graph_name=st.text(max_size=12),
                n=st.integers(min_value=1, max_value=2 ** 62),
                id_space=st.integers(min_value=1, max_value=2 ** 62),
                delta=st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
                max_degree=st.integers(min_value=0, max_value=2 ** 62),
                seed=st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
                met=st.booleans(),
                rounds=st.integers(min_value=0, max_value=2 ** 62),
                total_moves=st.integers(min_value=0, max_value=2 ** 62),
                whiteboard_writes=st.integers(min_value=0, max_value=2 ** 62),
                reports=st.dictionaries(
                    st.text(max_size=6),
                    st.dictionaries(
                        st.text(max_size=6),
                        st.one_of(
                            st.integers(min_value=-(2 ** 31), max_value=2 ** 31),
                            st.text(max_size=10),
                            st.booleans(),
                            st.none(),
                            st.lists(st.integers(), max_size=3),
                        ),
                        max_size=3,
                    ),
                    max_size=2,
                ),
            ),
            max_size=6,
        )
    )
    def test_round_trip_property(self, records):
        """Any JSON-native record list survives the wire unchanged."""
        restored = unpack_record_batch(pack_record_batch(records))
        assert restored == records
        assert _export_bytes(restored) == _export_bytes(records)


def _assert_lines_unchanged(records) -> None:
    """Each record encodes to its ``dataclasses.asdict`` line and back."""
    assert records
    for record in records:
        payload = record_to_jsonable(record)
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            dataclasses.asdict(record), sort_keys=True
        )
        assert record_from_jsonable(payload) == record


class TestRecordLines:
    """Record lines are byte-identical to the deep-copying encoder's."""

    @pytest.mark.parametrize(
        "algorithm,port_model",
        _supported_matrix(),
        ids=lambda value: getattr(value, "value", value),
    )
    def test_every_algorithm_and_port_model(self, algorithm, port_model):
        graph = random_graph_with_min_degree(40, 10, random.Random("lines"))
        labeling = (
            PortLabeling(graph, rng=random.Random(2))
            if port_model is PortModel.KT0
            else None
        )
        _assert_lines_unchanged(run_trials(
            graph, algorithm, range(4),
            port_model=port_model, labeling=labeling, max_rounds=400,
        ))

    @pytest.mark.parametrize("scenario", ["edge-churn", "crash-restart"])
    def test_scenario_records(self, scenario):
        graph = random_graph_with_min_degree(40, 10, random.Random("lines"))
        records = run_trials(
            graph, "random-walk", range(4), scenario=scenario, max_rounds=800
        )
        assert all(record.scenario == scenario for record in records)
        _assert_lines_unchanged(records)

    def test_theorem1_dense_set_reports(self):
        graph, plan = _instance_for("er-min-degree", 60, "n^0.75")
        records = run_trials(
            graph, "theorem1", range(24), plan=plan,
            constants=CONSTANTS_PRESETS["aggressive"](),
        )
        dense = [
            record for record in records
            if "target_set" in record.reports["a"]
            and "selected" in record.reports["a"]
        ]
        assert dense, "want theorem1 records that carry the dense set"
        _assert_lines_unchanged(dense)

    def test_cache_file_bytes_are_pinned(self, tmp_path):
        """The JSONL cache a small serial sweep writes, pinned by SHA-256.

        Each cache line wraps the export line of its grid point, byte
        for byte, with that point's grid index.
        """
        spec = SweepSpec(
            name="record-lines",
            families=("er-min-degree",),
            ns=(120,),
            algorithms=("theorem1", "theorem2", "trivial", "random-walk"),
            seeds=tuple(range(8)),
        )
        result = run_sweep(spec, workers=1, cache_dir=tmp_path / "cache")
        (path,) = (tmp_path / "cache").glob("*.jsonl")
        exported = result.write_jsonl(tmp_path / "export.jsonl").read_text(
            encoding="utf-8"
        ).splitlines()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert sorted(json.loads(line)["point"] for line in lines) == list(
            range(len(exported))
        )
        for line in lines:
            point = json.loads(line)["point"]
            assert line == f'{{"point": {point}, "record": {exported[point]}}}'
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "24866c300e1286777e6481101c93b9999b96193400f29109ffb9cc120cf63980"
        )


class TestCsv:
    def test_header_and_rows(self, tmp_path):
        path = write_records_csv(sample_records(), tmp_path / "out.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("algorithm,")
        assert len(lines) == 4

    def test_directories_created(self, tmp_path):
        path = write_records_csv(sample_records(), tmp_path / "a" / "b" / "o.csv")
        assert path.exists()


class TestTornTrailingLine:
    """Crash-resume: a torn final line is a warning, not a crash."""

    def _torn(self, tmp_path, tail: str):
        records = sample_records()
        path = write_records_jsonl(records, tmp_path / "out.jsonl")
        with path.open("a", encoding="utf-8") as handle:
            handle.write(tail)
        return records, path

    def test_truncated_final_line_warns_and_yields_prefix(self, tmp_path):
        records, path = self._torn(tmp_path, '{"algorithm": "triv')
        with pytest.warns(UserWarning, match="truncated final line"):
            assert list(iter_records_jsonl(path)) == records

    def test_half_written_record_payload(self, tmp_path):
        # A syntactically valid JSON line that is not a full record
        # (interrupted mid-buffer flush) is also recoverable at EOF.
        records, path = self._torn(tmp_path, '{"algorithm": "trivial"}\n')
        with pytest.warns(UserWarning, match="truncated final line"):
            assert list(iter_records_jsonl(path)) == records

    def test_trailing_blank_lines_do_not_mask_recovery(self, tmp_path):
        records, path = self._torn(tmp_path, '{"torn\n\n\n')
        with pytest.warns(UserWarning):
            assert list(iter_records_jsonl(path)) == records

    def test_mid_file_corruption_still_raises(self, tmp_path):
        records = sample_records()
        path = write_records_jsonl(records[:2], tmp_path / "out.jsonl")
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"torn\n')
        write_records_jsonl(records[2:], path.with_suffix(".rest"))
        with path.open("a", encoding="utf-8") as handle:
            handle.write(path.with_suffix(".rest").read_text())
        with pytest.raises(ValueError):
            list(iter_records_jsonl(path))

    def test_clean_file_does_not_warn(self, tmp_path):
        import warnings

        records = sample_records()
        path = write_records_jsonl(records, tmp_path / "out.jsonl")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(iter_records_jsonl(path)) == records
