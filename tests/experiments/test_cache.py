"""Tests for the content-addressed result cache."""

from __future__ import annotations

import json

import pytest

from repro.experiments.cache import ResultCache, content_hash
from repro.experiments.harness import run_trial
from repro.graphs.generators import complete_graph


def one_record():
    return run_trial(complete_graph(16), "trivial", seed=0)


class TestContentHash:
    def test_stable_across_key_order(self):
        assert content_hash({"a": 1, "b": [2, 3]}) == content_hash({"b": [2, 3], "a": 1})

    def test_sensitive_to_values(self):
        assert content_hash({"a": 1}) != content_hash({"a": 2})

    def test_hex_digest(self):
        digest = content_hash("x")
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex


class TestResultCache:
    def test_round_trip(self, tmp_path):
        record = one_record()
        with ResultCache(tmp_path, "abc123") as cache:
            cache.append_many([("k1", record)])
        loaded = list(ResultCache(tmp_path, "abc123").iter_records())
        assert loaded == [("k1", record)]

    def test_missing_file_loads_empty(self, tmp_path):
        assert list(ResultCache(tmp_path, "nothing").iter_records()) == []

    def test_corrupt_lines_skipped(self, tmp_path):
        record = one_record()
        cache = ResultCache(tmp_path, "abc123")
        cache.append_many([("k1", record)])
        cache.close()
        with cache.path.open("a", encoding="utf-8") as handle:
            handle.write("{truncated\n")
            handle.write("\n")
            handle.write(json.dumps({"no_key": 1}) + "\n")
        with pytest.warns(UserWarning, match="skipped 2 corrupt line"):
            loaded = list(ResultCache(tmp_path, "abc123").iter_records())
        assert loaded == [("k1", record)]

    def test_duplicate_keys_keep_first(self, tmp_path):
        first = one_record()
        second = run_trial(complete_graph(16), "trivial", seed=1)
        with ResultCache(tmp_path, "abc123") as cache:
            cache.append_many([("k", first)])
            cache.append_many([("k", second)])
        assert list(ResultCache(tmp_path, "abc123").iter_records()) == [("k", first)]

    def test_reset_discards(self, tmp_path):
        cache = ResultCache(tmp_path, "abc123")
        cache.append_many([("k1", one_record())])
        cache.reset()
        assert not cache.path.exists()
        assert list(cache.iter_records()) == []

    def test_manifest_written_once(self, tmp_path):
        cache = ResultCache(tmp_path, "abc123", spec_payload={"name": "demo"})
        cache.append_many([("k1", one_record())])
        cache.close()
        manifest = json.loads(cache.manifest_path.read_text())
        assert manifest == {"name": "demo"}


class TestAppendMany:
    def test_batch_round_trips_like_singles(self, tmp_path):
        records = [run_trial(complete_graph(16), "trivial", seed=s) for s in range(3)]
        with ResultCache(tmp_path, "batched") as cache:
            cache.append_many([(f"k{i}", r) for i, r in enumerate(records)])
        with ResultCache(tmp_path, "single") as cache:
            for i, record in enumerate(records):
                cache.append_many([(f"k{i}", record)])
        assert (
            (tmp_path / "batched.jsonl").read_bytes()
            == (tmp_path / "single.jsonl").read_bytes()
        )

    def test_empty_batch_touches_nothing(self, tmp_path):
        cache = ResultCache(tmp_path, "empty")
        cache.append_many([])
        cache.close()
        assert not cache.path.exists()

    def test_batches_and_singles_interleave(self, tmp_path):
        first, second, third = (
            run_trial(complete_graph(16), "trivial", seed=s) for s in range(3)
        )
        with ResultCache(tmp_path, "mix") as cache:
            cache.append_many([("a", first)])
            cache.append_many([("b", second), ("c", third)])
        loaded = list(ResultCache(tmp_path, "mix").iter_records())
        assert loaded == [("a", first), ("b", second), ("c", third)]


class TestIterRecords:
    def test_streams_in_write_order(self, tmp_path):
        records = [run_trial(complete_graph(16), "trivial", seed=s) for s in range(3)]
        with ResultCache(tmp_path, "iter") as cache:
            cache.append_many([(f"k{i}", r) for i, r in enumerate(records)])
        cache = ResultCache(tmp_path, "iter")
        assert list(cache.iter_records()) == [
            (f"k{i}", r) for i, r in enumerate(records)
        ]

    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(ResultCache(tmp_path, "nope").iter_records()) == []

    def test_corrupt_lines_and_duplicates(self, tmp_path):
        record = one_record()
        cache = ResultCache(tmp_path, "dirty")
        cache.append_many([("k", record)])
        cache.append_many([("k", record)])  # duplicate: first occurrence wins
        cache.close()
        with cache.path.open("a", encoding="utf-8") as handle:
            handle.write("{torn")
        with pytest.warns(UserWarning):
            loaded = list(ResultCache(tmp_path, "dirty").iter_records())
        assert loaded == [("k", record)]


class TestCorruptLineWarning:
    def test_iter_records_warns_on_skipped_lines(self, tmp_path):
        record = one_record()
        cache = ResultCache(tmp_path, "dirty")
        cache.append_many([("k", record)])
        cache.close()
        with cache.path.open("a", encoding="utf-8") as handle:
            handle.write("{torn")
        with pytest.warns(UserWarning, match="skipped 1 corrupt line"):
            assert list(ResultCache(tmp_path, "dirty").iter_records()) == [
                ("k", record)
            ]

    def test_iter_records_clean_file_is_silent(self, tmp_path):
        import warnings

        record = one_record()
        with ResultCache(tmp_path, "clean") as cache:
            cache.append_many([("k", record)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(ResultCache(tmp_path, "clean").iter_records()) == [
                ("k", record)
            ]
