"""Benchmark for the zero-copy sweep fabric vs the serial sweep.

PR 3 made the trials themselves cheap (compiled plans, batched
execution); this gate protects what PR 4 added around them — the
distribution fabric:

* a **persistent worker pool** (one warm pool across calls) fed by a
  dynamic work queue;
* **shared-memory plan transport**: the parent compiles each
  ``(family, n, δ)`` instance once and workers attach read-only views
  instead of regenerating the graph and recompiling per process;
* **columnar record transport**: one packed ``bytes`` batch per chunk
  instead of per-record pickles.

Both paths are driven through :func:`repro.experiments.parallel.run_sweep`
on the same many-instance grid, and both cut the grid into the same
chunks and run them through the same chunk executor (batched
``run_trials``, lockstep kernels when eligible):

* the **serial** path (``workers=1``) runs every chunk inline — the
  oracle the tests and CI compare every other path against;
* the **fabric** path (``workers=4``) fans the chunks out over the
  warm pool, so the ratio measures the fabric itself — distribution
  and transport against the cores it buys — not the executor.

Promises asserted on every machine:

* the :class:`~repro.experiments.harness.TrialRecord` streams are
  **byte-identical** (serialized JSON lines, whole grid);
* the streaming mode's final summaries equal the record-holding
  mode's, with peak resident records bounded by the batch size.

With **≥ 4 cores** (one per worker) the fabric must also reach
**≥ 2×** the serial path's trials/second (best-of-N per path).  On
smaller machines the workers time-share cores, so the speedup is
reported but not asserted — the policy of ``bench_sweep_service.py``,
and why ``tools/check_bench_trend.py`` skips near-parity committed
baselines.

Runs under pytest (``pytest benchmarks/bench_sweep_fabric.py``) and as
a script (``python benchmarks/bench_sweep_fabric.py [--quick]``, the
CI perf-smoke job).  Emits ``results/BENCH_sweep_fabric.json`` via
:mod:`_bench_json`, including peak-RSS metrics.
"""

from __future__ import annotations

import json
import os
import sys
import time

import _bench_json

from repro.experiments.parallel import (
    SweepSpec,
    run_sweep,
    shutdown_fabric,
    clear_instance_cache,
)
from repro.experiments.report import Table
from repro.experiments.results_io import record_to_jsonable

SPEEDUP_GATE = 2.0
WORKERS = 4
MIN_CORES_FOR_GATE = 4
REPETITIONS = 3


def _spec(quick: bool) -> SweepSpec:
    """A many-instance grid whose trials outweigh their dispatch.

    Every instance's plan is exported and attached on the fabric's
    first repetition.  The paper's ``theorem1`` supplies milliseconds
    of execution per trial: on its own the lockstep ``trivial`` probe
    runs the quick grid's 144 trials in about 10 ms inline, less than
    the fabric spends dispatching them, so a trivial-only grid would
    time queue round trips, not the cores the fabric buys.
    """
    if quick:
        return SweepSpec(
            name="fabric-quick",
            families=("er-min-degree", "geometric"),
            ns=(128, 192, 256),
            deltas=("n^0.75",),
            algorithms=("trivial", "theorem1"),
            seeds=tuple(range(24)),
        )
    return SweepSpec(
        name="fabric-full",
        families=("er-min-degree", "geometric", "powerlaw"),
        ns=(128, 192, 256),
        deltas=("n^0.75",),
        algorithms=("trivial", "explore", "theorem1"),
        seeds=tuple(range(32)),
    )


def _record_bytes(result) -> bytes:
    lines = [
        json.dumps(record_to_jsonable(r), sort_keys=True) for r in result.records
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def run_benchmark(quick: bool = False, repetitions: int = REPETITIONS) -> Table:
    """Measure serial-vs-fabric sweeps; assert equality, gate on cores.

    Each path runs ``repetitions`` times and the fastest wall clock is
    kept for the gate (best-of-N absorbs scheduler noise and captures
    each path's steady state: the serial path's instance memo is warm
    after its first repetition; the fabric's first repetition pays
    one-time pool spawn and plan export, later ones run on warm
    workers and attached plans, exactly like consecutive sweeps in a
    session).
    """
    cores = os.cpu_count() or 1
    spec = _spec(quick)
    trials = len(spec.points())

    shutdown_fabric()
    clear_instance_cache()

    serial_samples: list[float] = []
    serial_result = None
    for _ in range(repetitions):
        began = time.perf_counter()
        serial_result = run_sweep(spec, workers=1)
        serial_samples.append(time.perf_counter() - began)

    fabric_samples: list[float] = []
    fabric_result = None
    for _ in range(repetitions):
        began = time.perf_counter()
        fabric_result = run_sweep(spec, workers=WORKERS)
        fabric_samples.append(time.perf_counter() - began)

    assert _record_bytes(serial_result) == _record_bytes(fabric_result), (
        "fabric records diverged from the serial sweep"
    )

    # Streaming mode on the warm fabric: identical summaries, bounded
    # resident records.
    streamed = run_sweep(spec, workers=WORKERS, stream=True)
    assert (
        streamed.summary_table().rows == fabric_result.summary_table().rows
    ), "streaming summaries diverged from the record-holding path"
    assert streamed.max_resident < trials, (
        "streaming mode held the whole grid resident"
    )

    shutdown_fabric()  # reap workers so RUSAGE_CHILDREN sees their peak

    serial_time = min(serial_samples)
    fabric_time = min(fabric_samples)
    speedup = serial_time / fabric_time

    table = Table(
        title=f"SWEEP-FABRIC — persistent pool + shared plans + columnar "
              f"transport vs the serial sweep ({'quick' if quick else 'full'} "
              f"parameters, {cores} core(s))",
        headers=[
            "path", "trials", "best (s)", "trials/s", "speedup", "identical",
        ],
    )
    table.add_row(
        "serial (workers=1)", trials, round(serial_time, 3),
        round(trials / serial_time, 1), "1.00x", True,
    )
    table.add_row(
        f"fabric (workers={WORKERS})", trials, round(fabric_time, 3),
        round(trials / fabric_time, 1), f"{speedup:.2f}x", True,
    )
    table.add_note(
        f"gate: fabric speedup must be >= {SPEEDUP_GATE}x on machines with "
        f">= {MIN_CORES_FOR_GATE} cores ({WORKERS} workers, {trials} trials, "
        f"{len(spec.families) * len(spec.ns)} instances); TrialRecord JSON "
        "byte-equality asserted on every machine"
    )
    table.add_note(
        f"streaming mode: peak {streamed.max_resident} resident record(s) "
        f"of {trials}, summaries identical"
    )

    _bench_json.write_bench_json(
        "sweep_fabric",
        quick=quick,
        workloads={
            "grid": {
                "trials": trials,
                "instances": len(spec.families) * len(spec.ns),
                "serial": _bench_json.summarize_samples(serial_samples),
                "fabric": _bench_json.summarize_samples(fabric_samples),
                "speedup": speedup,
            },
        },
        metrics={
            "aggregate_speedup": speedup,
            "speedup_gate": SPEEDUP_GATE,
            "min_cores_for_gate": MIN_CORES_FOR_GATE,
            "cores": cores,
            "workers": WORKERS,
            "trials_total": trials,
            "serial_trials_per_s": trials / serial_time,
            "fabric_trials_per_s": trials / fabric_time,
            "stream_max_resident_records": streamed.max_resident,
        },
    )
    if cores >= MIN_CORES_FOR_GATE:
        assert speedup >= SPEEDUP_GATE, (
            f"fabric speedup {speedup:.2f}x is below the {SPEEDUP_GATE}x "
            f"gate on a {cores}-core machine"
        )
    return table


def test_sweep_fabric(capsys):
    """Pytest entry point: full parameters, table to the terminal."""
    table = run_benchmark(quick=False)
    with capsys.disabled():
        print()
        print(table.render())
        print()


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller grid (CI smoke; same assertions)",
    )
    args = parser.parse_args(argv)
    table = run_benchmark(quick=args.quick)
    print(table.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
