"""Benchmark for the columnar results warehouse and its fused reports.

PR 8's tentpole: sweep results persisted as per-column int64 segments
(:mod:`repro.experiments.warehouse`) and summarized by one fused pass
of the :mod:`repro.experiments.query` kernel over the mmap'd columns,
instead of re-parsing a JSON-lines export record by record.  Two hard
gates on a synthetic many-record sweep (~120k records quick, ~1M full):

* **report throughput** — ``summarize_warehouse`` must be **≥ 10×**
  faster than the record-streaming ``summarize_jsonl`` fold over the
  same records (tables asserted byte-identical first);
* **on-disk size** — the warehouse directory must be **≥ 5×** smaller
  than the JSONL pipeline it replaces (result cache + report export;
  the warehouse serves both roles from one directory).  The ratio
  against the export alone is printed for context, not gated.

A differential matrix then replays every registered algorithm × port
model × scenario preset (tiny graphs, the cells KT0 forbids skipped)
and asserts the warehouse report and the streaming sweep summaries are
byte-identical to the record-holding JSONL oracle.

Runs under pytest (``pytest benchmarks/bench_warehouse.py``) and as a
script (``python benchmarks/bench_warehouse.py [--quick]``, the CI
perf-smoke job).  Emits ``results/BENCH_warehouse.json`` via
:mod:`_bench_json`.
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

import _bench_json

from repro.core.api import ALGORITHMS
from repro.errors import ProtocolError
from repro.experiments.cache import ResultCache
from repro.experiments.harness import TrialRecord, run_trial
from repro.experiments.parallel import SweepSpec, run_sweep
from repro.experiments.report import (
    Table,
    summarize_jsonl,
    summarize_records,
    summarize_warehouse,
)
from repro.experiments.results_io import write_records_jsonl
from repro.experiments.warehouse import write_records_warehouse
from repro.graphs.generators import random_graph_with_min_degree
from repro.graphs.ports import PortLabeling, PortModel
from repro.scenarios import SCENARIOS

REPORT_SPEEDUP_GATE = 10.0
SIZE_GATE = 5.0


def synthetic_records(count: int) -> list[TrialRecord]:
    """A sweep-shaped record stream: grouped axes, per-agent reports.

    Mimics what a real grid leaves behind — a handful of (algorithm,
    graph, n, δ) groups with many seeds each, every record carrying
    the two agents' report dicts — without paying for a million real
    executions.  Deterministic, so both storage formats see the same
    bytes.
    """
    rng = random.Random("bench-warehouse")
    algorithms = ("trivial", "theorem1", "theorem2", "random-walk")
    sizes = (100, 200, 400)
    groups = [(a, n) for n in sizes for a in algorithms]
    seeds_per_group = -(-count // len(groups))
    records = []
    for i in range(count):
        # Grid order, seeds innermost — the layout a sweep leaves on
        # disk, and what gives the columns their long constant runs.
        algorithm, n = groups[i // seeds_per_group]
        delta = int(n ** 0.75)
        rounds = rng.randrange(1, 40 * n)
        met = rounds < 30 * n
        moves = rounds + rng.randrange(rounds + 1)
        records.append(TrialRecord(
            algorithm=algorithm,
            graph_name=f"er-min-deg(n={n},delta>={delta})",
            n=n,
            id_space=n * n,
            delta=delta,
            max_degree=delta + rng.randrange(8),
            seed=i % seeds_per_group,
            met=met,
            rounds=rounds,
            total_moves=moves,
            whiteboard_writes=rng.randrange(3 * delta),
            reports={
                "a": {"probes": rng.randrange(n), "moves": moves // 2,
                      "phase": "sampling"},
                "b": {"probes": rng.randrange(n), "moves": moves - moves // 2,
                      "phase": "waiting"},
            },
        ))
    return records


def _tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _scenario_matrix_records():
    """Per (algorithm, port model, scenario) cell: a few real trials.

    KT0 hides neighbor identifiers, so every algorithm except the
    random walk rejects it with a clean :class:`ProtocolError` at
    setup — those cells are skipped, mirroring the sweep engine's own
    capability matrix.
    """
    graph = random_graph_with_min_degree(32, 9, random.Random("bench-wh-matrix"))
    labeling = PortLabeling(graph, rng=random.Random(5))
    cells = []
    for algorithm in ALGORITHMS:
        for port_model in (PortModel.KT1, PortModel.KT0):
            for scenario in SCENARIOS:
                records = []
                skipped = 0
                for seed in (1, 2):
                    try:
                        records.append(run_trial(
                            graph, algorithm, seed,
                            port_model=port_model,
                            labeling=labeling if port_model is PortModel.KT0
                            else None,
                            scenario=scenario,
                            max_rounds=2_000,
                        ))
                    except ProtocolError:
                        skipped += 1
                name = f"{algorithm}/{port_model.value}/{scenario}"
                cells.append((name, records, skipped))
    return cells


def _differential_matrix(tmp: Path) -> tuple[int, int]:
    """Assert warehouse reports == JSONL oracle on every supported cell."""
    checked = skipped = 0
    for name, records, _ in _scenario_matrix_records():
        if not records:
            skipped += 1
            continue
        jsonl = write_records_jsonl(records, tmp / "cell.jsonl")
        warehouse = write_records_warehouse(records, tmp / "cell.wh")
        oracle = summarize_jsonl(jsonl, title=name).render()
        fused = summarize_warehouse(warehouse, title=name).render()
        assert fused == oracle, (
            f"warehouse report diverged from the JSONL oracle on {name}:\n"
            f"{fused}\n--- oracle ---\n{oracle}"
        )
        checked += 1
    return checked, skipped


def _streaming_differential(tmp: Path) -> str:
    """Streamed warehouse sweep summaries == record-holding summaries."""
    spec = SweepSpec(
        name="bench-wh",
        families=("er-min-degree",),
        ns=(48,),
        deltas=("n^0.75",),
        # Topology-preserving scenarios only: churn can abort a whole
        # sweep with a clean ProtocolError, which is the workloads'
        # per-trial story, not this differential's.
        algorithms=("trivial", "random-walk"),
        scenarios=("none", "wb-corrupt"),
        seeds=tuple(range(3)),
        preset="testing",
        max_rounds=3_000,
    )
    held = run_sweep(spec, workers=1)
    oracle = summarize_records(held.records, title="STREAM").render()
    streamed = run_sweep(
        spec, workers=1, cache_dir=tmp / "stream-cache",
        warehouse=True, stream=True,
    )
    assert (
        streamed.summary_table().rows == held.summary_table().rows
    ), "streamed warehouse summary diverged from the record-holding sweep"
    warehouse_dir = tmp / "stream-cache" / f"{spec.spec_hash()}.wh"
    fused = summarize_warehouse(warehouse_dir, title="STREAM").render()
    assert fused == oracle, (
        f"swept warehouse report diverged:\n{fused}\n--- oracle ---\n{oracle}"
    )
    return f"{len(held.records)} swept records"


def run_benchmark(quick: bool = False, repetitions: int = 3) -> Table:
    """Measure report throughput and storage size; assert both gates."""
    count = 120_000 if quick else 1_000_000
    table = Table(
        title=f"WAREHOUSE — columnar storage + fused reports vs JSONL "
              f"({'quick' if quick else 'full'} parameters, "
              f"{count:,} records)",
        headers=["path", "report time", "speedup", "bytes on disk", "size ratio"],
    )
    tmp = Path(tempfile.mkdtemp(prefix="bench-warehouse-"))
    try:
        records = synthetic_records(count)
        export = write_records_jsonl(records, tmp / "export.jsonl")
        with ResultCache(tmp, "benchcache") as cache:
            cache.append_many(
                (f"k{i}", record) for i, record in enumerate(records)
            )
        cache_file = tmp / "benchcache.jsonl"
        warehouse = write_records_warehouse(records, tmp / "sweep.wh")

        jsonl_samples: list[float] = []
        fused_samples: list[float] = []
        oracle_render = fused_render = None
        for _ in range(repetitions):
            began = time.perf_counter()
            oracle_render = summarize_jsonl(export, title="BENCH").render()
            jsonl_samples.append(time.perf_counter() - began)
            began = time.perf_counter()
            fused_render = summarize_warehouse(warehouse, title="BENCH").render()
            fused_samples.append(time.perf_counter() - began)
        assert fused_render == oracle_render, (
            "fused warehouse report diverged from the streaming JSONL fold"
        )
        jsonl_time, fused_time = min(jsonl_samples), min(fused_samples)
        speedup = jsonl_time / fused_time

        pipeline_bytes = _tree_bytes(export) + _tree_bytes(cache_file)
        warehouse_bytes = _tree_bytes(warehouse)
        size_ratio = pipeline_bytes / warehouse_bytes
        export_ratio = _tree_bytes(export) / warehouse_bytes

        table.add_row(
            "jsonl (cache + export)", f"{jsonl_time:.3f}s", "1.00x",
            pipeline_bytes, "1.00x",
        )
        table.add_row(
            "warehouse (fused)", f"{fused_time:.3f}s", f"{speedup:.2f}x",
            warehouse_bytes, f"{size_ratio:.2f}x smaller",
        )
        table.add_note(
            f"gates: report speedup >= {REPORT_SPEEDUP_GATE}x, pipeline size "
            f"ratio >= {SIZE_GATE}x (vs the export alone: "
            f"{export_ratio:.2f}x smaller, not gated)"
        )

        checked, skipped = _differential_matrix(tmp)
        table.add_note(
            f"differential matrix: {checked} algorithm x port-model x "
            f"scenario cells byte-identical to the JSONL oracle "
            f"({skipped} KT0-incompatible cells skipped); streaming: "
            f"{_streaming_differential(tmp)} byte-identical"
        )

        _bench_json.write_bench_json(
            "warehouse",
            quick=quick,
            workloads={
                "report-synthetic": {
                    "records": count,
                    "baseline": _bench_json.summarize_samples(jsonl_samples),
                    "fused": _bench_json.summarize_samples(fused_samples),
                    "speedup": speedup,
                },
            },
            metrics={
                "aggregate_speedup": speedup,
                "report_speedup_gate": REPORT_SPEEDUP_GATE,
                "size_gate": SIZE_GATE,
                "pipeline_bytes": pipeline_bytes,
                "warehouse_bytes": warehouse_bytes,
                "size_ratio": size_ratio,
                "export_only_size_ratio": export_ratio,
                "matrix_cells_checked": checked,
                "matrix_cells_skipped": skipped,
            },
        )
        assert speedup >= REPORT_SPEEDUP_GATE, (
            f"fused report speedup {speedup:.2f}x is below the "
            f"{REPORT_SPEEDUP_GATE}x gate"
        )
        assert size_ratio >= SIZE_GATE, (
            f"warehouse is only {size_ratio:.2f}x smaller than the JSONL "
            f"pipeline, below the {SIZE_GATE}x gate"
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return table


def test_warehouse(capsys):
    """Pytest entry point: quick parameters, table to the terminal."""
    table = run_benchmark(quick=True)
    with capsys.disabled():
        print()
        print(table.render())
        print()


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="~120k synthetic records instead of ~1M (CI smoke; same gates)",
    )
    args = parser.parse_args(argv)
    table = run_benchmark(quick=args.quick)
    print(table.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
