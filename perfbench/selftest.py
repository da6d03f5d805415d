"""Self-tests of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import ledger  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_end_to_end_metric_with_its_unit(workload):
    metrics = result_of(run(workload, 0))["metrics"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_run_reports_every_layer_and_sound_spans(workload):
    done = run(workload, 1)
    metrics = result_of(done)["metrics"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert "per-layer ledger" in done.stdout and "tracing overhead" in done.stdout
    assert "ledger.unattributed_s" in done.stdout
    run_dir = ROOT / ".perfbench" / "runs" / f"tiny-{workload}-s{SEED}-trace1"
    processes = ledger.load(run_dir / "spans")
    assert ledger.check_nesting(processes) == []
    names = {span[2] for proc in processes for span in proc["spans"]}
    assert any(name.startswith("harness.execute.") for name in names)
    assert json.loads((run_dir / "trace.json").read_text())["traceEvents"]


def test_check_nesting_flags_an_escaping_child():
    spans = [(1, 0, "outer", 0, 10, 1), (2, 1, "inner", 5, 20, 1)]
    problems = ledger.check_nesting([{"pid": 1, "role": "main", "spans": spans}])
    assert any("escapes" in p for p in problems)
    assert any("negative self time" in p for p in problems)


def test_corrupted_record_fails_the_run(monkeypatch):
    oracle = bench.compute_oracle("paper-grid", SEED, "tiny")
    real = bench.parallel.run_sweep

    def corrupting(*args, **kwargs):
        result = real(*args, **kwargs)
        records = list(result.records)
        records[3] = dataclasses.replace(records[3], rounds=records[3].rounds + 1)
        return dataclasses.replace(result, records=tuple(records))

    monkeypatch.setattr(bench.parallel, "run_sweep", corrupting)
    run_dir = ROOT / ".perfbench" / "runs" / "selftest-corrupt"
    result = bench.measure("paper-grid", SEED, 0.1, False, "tiny", oracle, run_dir)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["match_rate"]["value"] < 1.0


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench" / "tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run("paper-grid", 0, cwd=bare)
    assert done.returncode != 0
    assert done.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
