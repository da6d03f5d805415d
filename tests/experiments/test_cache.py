"""Tests for the JSON-lines result cache and the resume path both stores share."""

from __future__ import annotations

import dataclasses
import json
import warnings

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.experiments.cache import CACHE_FORMAT_VERSION, ResultCache, content_hash
from repro.experiments.harness import run_trial
from repro.experiments.parallel import SweepSpec, _resume_pairs, open_cache, run_sweep
from repro.experiments.results_io import record_to_jsonable
from repro.graphs.generators import complete_graph


def one_record(seed=0):
    return run_trial(complete_graph(16), "trivial", seed=seed)


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
            cache.append_many([(1, record)])
        loaded = list(ResultCache(tmp_path, "abc123").iter_indexed())
        assert loaded == [(1, record)]

    def test_missing_file_loads_empty(self, tmp_path):
        assert list(ResultCache(tmp_path, "nothing").iter_indexed()) == []

    def test_corrupt_lines_skipped(self, tmp_path):
        record = one_record()
        cache = ResultCache(tmp_path, "abc123")
        cache.append_many([(1, record)])
        cache.close()
        with cache.path.open("a", encoding="utf-8") as handle:
            handle.write("{truncated\n")
            handle.write("\n")
            handle.write(json.dumps({"no_point": 1}) + "\n")
            handle.write(
                json.dumps({"point": "2", "record": record_to_jsonable(record)}) + "\n"
            )
        with pytest.warns(UserWarning, match="skipped 3 corrupt line"):
            loaded = list(ResultCache(tmp_path, "abc123").iter_indexed())
        assert loaded == [(1, record)]

    def test_repeated_indices_all_read_back(self, tmp_path):
        first = one_record()
        second = one_record(seed=1)
        with ResultCache(tmp_path, "abc123") as cache:
            cache.append_many([(0, first)])
            cache.append_many([(0, second)])
        assert list(ResultCache(tmp_path, "abc123").iter_indexed()) == [
            (0, first), (0, second),
        ]

    def test_reset_discards(self, tmp_path):
        cache = ResultCache(tmp_path, "abc123")
        cache.append_many([(0, one_record())])
        cache.reset()
        assert not cache.path.exists()
        assert list(cache.iter_indexed()) == []

    def test_manifest_written_once(self, tmp_path):
        cache = ResultCache(tmp_path, "abc123", spec_payload={"name": "demo"})
        cache.append_many([(0, one_record())])
        cache.close()
        manifest = json.loads(cache.manifest_path.read_text())
        assert manifest == {"name": "demo"}


class TestAppendMany:
    def test_batch_round_trips_like_singles(self, tmp_path):
        records = [one_record(seed=s) for s in range(3)]
        with ResultCache(tmp_path, "batched") as cache:
            cache.append_many(list(enumerate(records)))
        with ResultCache(tmp_path, "single") as cache:
            for i, record in enumerate(records):
                cache.append_many([(i, record)])
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
        first, second, third = (one_record(seed=s) for s in range(3))
        with ResultCache(tmp_path, "mix") as cache:
            cache.append_many([(0, first)])
            cache.append_many([(1, second), (2, third)])
        loaded = list(ResultCache(tmp_path, "mix").iter_indexed())
        assert loaded == [(0, first), (1, second), (2, third)]


class TestIterIndexed:
    def test_streams_in_write_order(self, tmp_path):
        records = [one_record(seed=s) for s in range(3)]
        with ResultCache(tmp_path, "iter") as cache:
            cache.append_indexed([(2, records[2]), (0, records[0]), (1, records[1])])
        assert list(ResultCache(tmp_path, "iter").iter_indexed()) == [
            (2, records[2]), (0, records[0]), (1, records[1]),
        ]

    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(ResultCache(tmp_path, "nope").iter_indexed()) == []

    def test_corrupt_lines_and_duplicates(self, tmp_path):
        record = one_record()
        cache = ResultCache(tmp_path, "dirty")
        cache.append_many([(0, record)])
        cache.append_many([(0, record)])  # every row comes back
        cache.close()
        with cache.path.open("a", encoding="utf-8") as handle:
            handle.write("{torn")
        with pytest.warns(UserWarning):
            loaded = list(ResultCache(tmp_path, "dirty").iter_indexed())
        assert loaded == [(0, record), (0, record)]

    def test_lines_wrap_the_export_line_with_the_grid_index(self, tmp_path):
        records = [one_record(seed=s) for s in range(2)]
        with ResultCache(tmp_path, "lines") as cache:
            cache.append_indexed([(7, records[1]), (3, records[0])])
        exported = [
            json.dumps(record_to_jsonable(record), sort_keys=True) for record in records
        ]
        assert cache.path.read_text(encoding="utf-8").splitlines() == [
            f'{{"point": 7, "record": {exported[1]}}}',
            f'{{"point": 3, "record": {exported[0]}}}',
        ]


class TestCorruptLineWarning:
    def test_iter_indexed_warns_on_skipped_lines(self, tmp_path):
        record = one_record()
        cache = ResultCache(tmp_path, "dirty")
        cache.append_many([(0, record)])
        cache.close()
        with cache.path.open("a", encoding="utf-8") as handle:
            handle.write("{torn")
        with pytest.warns(UserWarning, match="skipped 1 corrupt line"):
            assert list(ResultCache(tmp_path, "dirty").iter_indexed()) == [
                (0, record)
            ]

    def test_iter_indexed_clean_file_is_silent(self, tmp_path):
        record = one_record()
        with ResultCache(tmp_path, "clean") as cache:
            cache.append_many([(0, record)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(ResultCache(tmp_path, "clean").iter_indexed()) == [
                (0, record)
            ]


def small_spec() -> SweepSpec:
    return SweepSpec(
        name="resume", families=("complete",), ns=(16,), deltas=("4",),
        algorithms=("trivial",), seeds=(0, 1, 2), preset="testing",
    )


def write_keyed_cache(spec: SweepSpec, directory) -> str:
    """Write ``spec``'s JSONL cache in the earlier format; returns its path.

    That format stored each record under a SHA-256 of its grid point's
    content instead of its grid index.
    """
    lines = []
    for point, record in zip(spec.points(), run_sweep(spec, workers=1).records):
        key = content_hash({
            "version": CACHE_FORMAT_VERSION,
            "family": point.family,
            "n": point.n,
            "delta": point.delta_spec,
            "algorithm": point.algorithm,
            "seed": point.seed,
            "preset": spec.preset,
            "max_rounds": spec.max_rounds,
        })
        lines.append(json.dumps(
            {"key": key, "record": record_to_jsonable(record)}, sort_keys=True
        ) + "\n")
    path = directory / f"{spec.spec_hash()}.jsonl"
    directory.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(lines), encoding="utf-8")
    return str(path)


class TestOlderFormatRefused:
    def test_keyed_lines_are_refused_naming_the_file(self, tmp_path):
        spec = small_spec()
        path = write_keyed_cache(spec, tmp_path)
        cache = open_cache(spec, tmp_path)
        with pytest.raises(ReproError, match="--no-resume") as error:
            list(cache.iter_indexed())
        assert path in str(error.value)
        with pytest.raises(ReproError, match="older format"):
            run_sweep(spec, workers=1, cache_dir=tmp_path)

    def test_cli_prints_one_line_and_exits_1(self, capsys, tmp_path):
        args = [
            "sweep", "--name", "old-cache", "--family", "complete", "--n", "16",
            "--delta", "4", "--algorithm", "trivial", "--seeds", "3",
            "--preset", "testing", "--workers", "1", "--cache-dir", str(tmp_path),
        ]
        path = write_keyed_cache(
            dataclasses.replace(small_spec(), name="old-cache"), tmp_path
        )
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if line.strip()]
        assert line.startswith("sweep failed: ")
        assert path in line and "--no-resume" in line
        # The advice works: --no-resume recomputes the grid.
        assert main([*args, "--no-resume"]) == 0
        assert "3 trials executed, 0 served from cache" in capsys.readouterr().out


@pytest.fixture(params=["jsonl", "warehouse"])
def warehouse(request) -> bool:
    """Run a test over both sweep stores."""
    return request.param == "warehouse"


class TestResumePairs:
    """The one resume path, over both stores' raw rows."""

    def test_first_row_per_index_wins(self, tmp_path, warehouse):
        spec = small_spec()
        records = run_sweep(spec, workers=1).records
        rerun = dataclasses.replace(records[1], rounds=records[1].rounds + 1)
        cache = open_cache(spec, tmp_path, warehouse=warehouse)
        cache.append_indexed([(0, records[0]), (1, records[1])])
        cache.append_indexed([(1, rerun)])
        cache.close()
        # Neither store deduplicates; the helper keeps the first row.
        assert [index for index, _ in cache.iter_indexed()] == [0, 1, 1]
        assert list(_resume_pairs(cache, spec.points())) == [
            (0, records[0]), (1, records[1]),
        ]

    def test_rows_outside_the_grid_are_skipped(self, tmp_path, warehouse):
        spec = small_spec()
        records = run_sweep(spec, workers=1).records
        cache = open_cache(spec, tmp_path, warehouse=warehouse)
        cache.append_indexed([(3, records[0]), (-1, records[0]), (2, records[2])])
        cache.close()
        assert list(_resume_pairs(cache, spec.points())) == [(2, records[2])]

    def test_record_under_the_wrong_index_is_refused(self, tmp_path, warehouse):
        spec = small_spec()
        records = run_sweep(spec, workers=1).records
        cache = open_cache(spec, tmp_path, warehouse=warehouse)
        cache.append_indexed([(0, records[0]), (1, records[2])])
        cache.close()
        with pytest.raises(ReproError, match="grid point 1 is trivial at n=16, seed 1"):
            run_sweep(spec, workers=1, cache_dir=tmp_path, warehouse=warehouse)
