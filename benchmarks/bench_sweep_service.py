"""Benchmark for the distributed sweep service vs a single warm engine.

PR 4's fabric scaled one sweep across the cores of one machine; the
sweep service (:mod:`repro.service`) scales it across worker *hosts*
behind a broker.  This gate simulates the smallest interesting fleet —
**3 worker-host processes** on localhost, each running units inline —
and drives it against the same grids a single warm engine executes
serially, measuring what the broker costs and what the fleet buys:

* the broker and its hosts stay **warm across submissions** (one
  fleet, several jobs), exactly how a long-lived service runs, so
  best-of-N captures the steady state after host spawn;
* every repetition submits a **fresh spec name** (``svc-rep0`` …), so
  each job really shards, leases, executes, and merges — the broker's
  content-addressed cache would otherwise serve repeats for free and
  the benchmark would measure a dictionary lookup;
* the merged output is asserted **byte-identical** (TrialRecord JSON
  lines, whole grid) to the serial engine's on every machine;
* with **≥ 4 cores** (3 hosts + broker/client need their own) the
  fleet must reach ≥ 2× the serial engine's aggregate trials/s
  (near-linear for 3 hosts minus broker overhead).  On smaller
  machines the hosts time-share cores, so the speedup is reported but
  not asserted — same policy as the other multi-process gates, and
  exactly why :mod:`tools/check_bench_trend.py` skips near-parity
  committed baselines.

The grid runs ``theorem1``/``theorem2`` — the paper's algorithms, at
milliseconds per trial — so unit execution dominates the socket
round-trips the broker adds (scaling the paper's real sweeps is what
the service is *for*; a `trivial`-algorithm grid would mostly measure
framing).

Runs under pytest (``pytest benchmarks/bench_sweep_service.py``) and
as a script (``python benchmarks/bench_sweep_service.py [--quick]``,
the CI perf-smoke job).  Emits ``results/BENCH_sweep_service.json``
via :mod:`_bench_json`, including the ``topology`` block
(``service_hosts``/``workers_per_host``) that makes its numbers
interpretable next to the single-host baselines.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import tempfile
import time
from pathlib import Path

import _bench_json

from repro.experiments.parallel import SweepSpec, run_sweep
from repro.experiments.report import Table
from repro.experiments.results_io import record_to_jsonable
from repro.service import Broker, run_worker, submit_sweep

SPEEDUP_GATE = 2.0
SERVICE_HOSTS = 3
WORKERS_PER_HOST = 1
MIN_CORES_FOR_GATE = 4
REPETITIONS = 3
UNIT_SIZE = 8


def _spec(quick: bool, repetition: int) -> SweepSpec:
    """One repetition's grid — a fresh name per repetition.

    The broker dedupes jobs by spec hash and serves finished specs
    from its durable cache, so reusing one name would time the cache,
    not the fleet.  The name is outside the trial semantics: records
    are byte-identical across names.
    """
    if quick:
        return SweepSpec(
            name=f"svc-rep{repetition}",
            families=("er-min-degree",),
            ns=(256, 384),
            deltas=("n^0.75",),
            algorithms=("theorem1",),
            seeds=tuple(range(32)),
        )
    return SweepSpec(
        name=f"svc-rep{repetition}",
        families=("er-min-degree", "geometric"),
        ns=(256, 384),
        deltas=("n^0.75",),
        algorithms=("theorem1", "theorem2"),
        seeds=tuple(range(32)),
    )


def _record_bytes(result) -> bytes:
    lines = [
        json.dumps(record_to_jsonable(r), sort_keys=True) for r in result.records
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def run_benchmark(quick: bool = False, repetitions: int = REPETITIONS) -> Table:
    """Serial engine vs 3-host fleet; byte-equality always, gate on cores.

    Both paths run the *same* per-repetition specs.  The serial path
    is the single warm engine (``run_sweep(workers=1)`` — instance
    memo warm after the first repetition); the service path submits to
    one long-lived broker with ``SERVICE_HOSTS`` worker-host processes
    attached.  Best-of-N per path, aggregate trials/s for the gate.
    """
    cores = os.cpu_count() or 1
    specs = [_spec(quick, repetition) for repetition in range(repetitions)]
    trials = len(specs[0].points())

    serial_samples: list[float] = []
    serial_results = []
    for spec in specs:
        began = time.perf_counter()
        serial_results.append(run_sweep(spec, workers=1))
        serial_samples.append(time.perf_counter() - began)

    service_samples: list[float] = []
    service_results = []
    fork = multiprocessing.get_context("fork")
    with tempfile.TemporaryDirectory(prefix="bench-svc-") as tmp:
        with Broker(
            Path(tmp) / "cache", unit_size=UNIT_SIZE, lease_timeout=60.0
        ) as broker:
            hosts = [
                fork.Process(
                    target=run_worker,
                    args=(broker.address,),
                    kwargs={"workers": WORKERS_PER_HOST, "reconnect": 10.0},
                    daemon=True,
                )
                for _ in range(SERVICE_HOSTS)
            ]
            for host in hosts:
                host.start()
            try:
                for spec in specs:
                    began = time.perf_counter()
                    service_results.append(submit_sweep(broker.address, spec))
                    service_samples.append(time.perf_counter() - began)
            finally:
                for host in hosts:
                    host.terminate()
                for host in hosts:
                    host.join(timeout=10.0)

    for serial, service in zip(serial_results, service_results):
        assert _record_bytes(serial) == _record_bytes(service), (
            "service records diverged from the serial engine"
        )
    assert all(r.executed == trials for r in service_results), (
        "a repetition was served from cache — the fleet was never timed"
    )

    serial_time = min(serial_samples)
    service_time = min(service_samples)
    speedup = serial_time / service_time

    table = Table(
        title=f"SWEEP-SERVICE — {SERVICE_HOSTS} worker host(s) x "
              f"{WORKERS_PER_HOST} worker(s) behind one broker vs the serial "
              f"engine ({'quick' if quick else 'full'} parameters, "
              f"{cores} core(s))",
        headers=[
            "path", "trials", "best (s)", "trials/s", "speedup", "identical",
        ],
    )
    table.add_row(
        "serial engine", trials, round(serial_time, 3),
        round(trials / serial_time, 1), "1.00x", True,
    )
    table.add_row(
        f"service ({SERVICE_HOSTS} hosts)", trials, round(service_time, 3),
        round(trials / service_time, 1), f"{speedup:.2f}x", True,
    )
    table.add_note(
        f"gate: aggregate trials/s must be >= {SPEEDUP_GATE}x the serial "
        f"engine on machines with >= {MIN_CORES_FOR_GATE} cores (3 hosts + "
        "broker/client otherwise time-share); TrialRecord JSON byte-equality "
        "asserted on every machine, every repetition"
    )
    table.add_note(
        f"each repetition submits a fresh spec so the broker's cache cannot "
        f"serve it; executed={trials} verified per submission"
    )

    _bench_json.write_bench_json(
        "sweep_service",
        quick=quick,
        workloads={
            "grid": {
                "trials": trials,
                "baseline": _bench_json.summarize_samples(serial_samples),
                "service": _bench_json.summarize_samples(service_samples),
                "speedup": speedup,
            },
        },
        topology={
            "service_hosts": SERVICE_HOSTS,
            "workers_per_host": WORKERS_PER_HOST,
            "broker": "localhost",
            "unit_size": UNIT_SIZE,
        },
        metrics={
            "aggregate_speedup": speedup,
            "speedup_gate": SPEEDUP_GATE,
            "min_cores_for_gate": MIN_CORES_FOR_GATE,
            "cores": cores,
            "trials_total": trials,
            "serial_trials_per_s": trials / serial_time,
            "service_trials_per_s": trials / service_time,
        },
    )
    if cores >= MIN_CORES_FOR_GATE:
        assert speedup >= SPEEDUP_GATE, (
            f"service speedup {speedup:.2f}x is below the {SPEEDUP_GATE}x "
            f"gate on a {cores}-core machine"
        )
    return table


def test_sweep_service(capsys):
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
