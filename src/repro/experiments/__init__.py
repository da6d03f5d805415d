"""Experiment harness: seeded trials, sweeps, tables, and the registry.

Every quantitative claim of the paper maps to one entry of
:data:`~repro.experiments.workloads.EXPERIMENTS`; the benchmark suite
(``benchmarks/``) and the CLI (``python -m repro``) both drive this
registry.  ``EXPERIMENTS.md`` records one section per entry.

Large grids run through the process-pool sweep engine
(:mod:`repro.experiments.parallel`) with its resumable result cache
(:mod:`repro.experiments.cache`); ``repro sweep`` on the command
line is the front door.  Sweeps can alternatively persist to a columnar
results warehouse (:mod:`repro.experiments.warehouse`), which ``repro
report`` summarizes with one fused kernel (:mod:`repro.experiments.query`).
Every sweep table, held or streamed, and every report, over JSONL or a
warehouse, comes from one exact fold
(:class:`~repro.experiments.harness.StreamSummary`).
"""

from repro.experiments.harness import (
    TrialRecord,
    StreamSummary,
    run_trial,
    run_trials,
    aggregate_rounds,
)
from repro.experiments.cache import ResultCache, content_hash
from repro.experiments.parallel import (
    SweepPoint,
    SweepResult,
    SweepSpec,
    SweepStreamResult,
    run_sweep,
    shutdown_fabric,
)
from repro.experiments.report import (
    Table,
    summarize_jsonl,
    summarize_path,
    summarize_records,
    summarize_warehouse,
)
from repro.experiments.results_io import (
    record_from_jsonable,
    record_to_jsonable,
    write_records_jsonl,
    read_records_jsonl,
    iter_records_jsonl,
    pack_record_batch,
    unpack_record_batch,
    write_records_csv,
)
from repro.experiments.warehouse import (
    SweepWarehouse,
    WarehouseCache,
    WarehouseWriter,
    is_warehouse,
    write_records_warehouse,
)
from repro.experiments.query import LazyFrame, scan
from repro.experiments.workloads import EXPERIMENTS, ExperimentSpec, run_experiment

__all__ = [
    "TrialRecord",
    "StreamSummary",
    "run_trial",
    "run_trials",
    "aggregate_rounds",
    "Table",
    "summarize_records",
    "summarize_jsonl",
    "summarize_warehouse",
    "summarize_path",
    "SweepWarehouse",
    "WarehouseCache",
    "WarehouseWriter",
    "is_warehouse",
    "write_records_warehouse",
    "LazyFrame",
    "scan",
    "SweepSpec",
    "SweepPoint",
    "SweepResult",
    "SweepStreamResult",
    "run_sweep",
    "shutdown_fabric",
    "ResultCache",
    "content_hash",
    "record_to_jsonable",
    "record_from_jsonable",
    "write_records_jsonl",
    "read_records_jsonl",
    "iter_records_jsonl",
    "pack_record_batch",
    "unpack_record_batch",
    "write_records_csv",
    "EXPERIMENTS",
    "ExperimentSpec",
    "run_experiment",
]
