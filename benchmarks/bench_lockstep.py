"""Benchmark for the lockstep trial engine: batched trials/s.

Fast instance *setup* is gated elsewhere; this gate protects the
layer that makes the *trials themselves* fast — the lockstep executor
(:mod:`repro.runtime.lockstep`), which plays every seed of a
``run_trials`` call over one compiled
:class:`~repro.runtime.plan.ExecutionPlan`, replacing the per-round
interpreter loop with one plain loop per walk seed that draws the
**same random numbers in the same order** as the serial engine and
stops at the meeting.

Both paths replay identical multi-seed random-walk workloads:

* **baseline** — :func:`repro.runtime.reference.reference_run_trials`,
  the frozen pre-lockstep batched executor (PR 3's engine-reset loop:
  one compiled plan, one reused engine, every round interpreted);
* **lockstep** — the wired :func:`repro.experiments.harness.run_trials`,
  exactly what sweeps and fabric workers run for eligible algorithm ×
  port-model batches.

Two promises are asserted on every machine:

* every workload's whole batch of :class:`TrialRecord`\\ s is
  **byte-identical** between the paths (JSON-lines serialization, the
  sweep export format) — meeting rounds, vertices, move counts, seeds;
* aggregate trial throughput of the lockstep path is **≥ 5×** the
  frozen baseline over random-walk-heavy multi-seed workloads.

Runs under pytest (``pytest benchmarks/bench_lockstep.py``) and as a
script (``python benchmarks/bench_lockstep.py [--quick]``, the CI
perf-smoke job).  Emits ``results/BENCH_lockstep.json`` via
:mod:`_bench_json`.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass

import _bench_json

from repro.experiments.harness import run_trials
from repro.experiments.parallel import GRAPH_FAMILIES
from repro.experiments.report import Table
from repro.experiments.results_io import record_to_jsonable
from repro.graphs.ports import PortModel
from repro.runtime.lockstep import lockstep_supported
from repro.runtime.plan import ExecutionPlan
from repro.runtime.reference import reference_run_trials

SPEEDUP_GATE = 5.0


@dataclass(frozen=True)
class _Workload:
    """One timed batch: family × size × degree × seed count × budget."""

    name: str
    family: str
    n: int
    delta: int
    seeds: int
    max_rounds: int


def _workloads(quick: bool) -> list[_Workload]:
    if quick:
        # Same shape, smaller: the ratio is per-round cost, which does
        # not depend on n while the neighbor table stays cache-resident.
        return [
            _Workload("rr-1600x7/s16", "regular", 1600, 7, 16, 2_500),
            _Workload("rr-2400x7/s16", "regular", 2400, 7, 16, 2_500),
        ]
    return [
        # Sparse random-regular graphs: long meeting times (many rounds
        # per trial, the sweep regime the lockstep engine exists for)
        # with a neighbor table small enough that both paths measure
        # executor overhead, not cache misses.
        _Workload("rr-2000x7/s32", "regular", 2000, 7, 32, 2_500),
        _Workload("rr-3000x7/s32", "regular", 3000, 7, 32, 2_500),
    ]


def _build(workload: _Workload):
    """Graph + precompiled plan, shared verbatim by both paths."""
    rng = random.Random(f"lockstep:{workload.name}")
    graph = GRAPH_FAMILIES[workload.family](workload.n, workload.delta, rng)
    plan = ExecutionPlan.compile(graph)
    return graph, plan


def _batch_bytes(records) -> bytes:
    """The sweep export serialization of a whole batch (JSON lines)."""
    return b"\n".join(
        json.dumps(record_to_jsonable(record), sort_keys=True).encode("ascii")
        for record in records
    )


def _run_baseline(graph, plan, workload: _Workload):
    return reference_run_trials(
        graph, "random-walk", range(workload.seeds),
        plan=plan, max_rounds=workload.max_rounds, check_instance=False,
    )


def _run_lockstep(graph, plan, workload: _Workload):
    return run_trials(
        graph, "random-walk", range(workload.seeds),
        plan=plan, max_rounds=workload.max_rounds, check_instance=False,
    )


def run_benchmark(quick: bool = False, repetitions: int = 3) -> Table:
    """Measure serial-vs-lockstep trial throughput; assert equality and gate."""
    assert lockstep_supported("random-walk", PortModel.KT1)

    table = Table(
        title=f"LOCKSTEP — batched trials vs the serial engine loop "
              f"({'quick' if quick else 'full'} parameters)",
        headers=[
            "workload", "trials", "baseline ms", "lockstep ms", "speedup",
            "identical",
        ],
    )
    workload_stats: dict[str, dict] = {}
    total_base = total_fast = 0.0
    for workload in _workloads(quick):
        graph, plan = _build(workload)
        base_samples: list[float] = []
        fast_samples: list[float] = []
        old = new = None
        for _ in range(repetitions):
            began = time.perf_counter()
            old = _run_baseline(graph, plan, workload)
            base_samples.append(time.perf_counter() - began)
            began = time.perf_counter()
            new = _run_lockstep(graph, plan, workload)
            fast_samples.append(time.perf_counter() - began)
        assert _batch_bytes(old) == _batch_bytes(new), (
            f"lockstep records diverged from the serial engine on {workload.name}"
        )
        base_time, fast_time = min(base_samples), min(fast_samples)
        table.add_row(
            workload.name,
            workload.seeds,
            round(base_time * 1e3, 2),
            round(fast_time * 1e3, 2),
            f"{base_time / fast_time:.2f}x",
            True,
        )
        workload_stats[workload.name] = {
            "n": workload.n,
            "trials": workload.seeds,
            "baseline": _bench_json.summarize_samples(base_samples),
            "lockstep": _bench_json.summarize_samples(fast_samples),
            "speedup": base_time / fast_time,
        }
        total_base += base_time
        total_fast += fast_time

    speedup = total_base / total_fast
    table.add_row("TOTAL", "-", round(total_base * 1e3, 2),
                  round(total_fast * 1e3, 2), f"{speedup:.2f}x", True)
    table.add_note(
        f"gate: aggregate trial throughput >= {SPEEDUP_GATE}x the frozen "
        "serial executor with byte-identical batch records on every workload"
    )
    _bench_json.write_bench_json(
        "lockstep",
        quick=quick,
        workloads=workload_stats,
        metrics={
            "aggregate_speedup": speedup,
            "speedup_gate": SPEEDUP_GATE,
        },
    )
    assert speedup >= SPEEDUP_GATE, (
        f"lockstep speedup {speedup:.2f}x is below the {SPEEDUP_GATE}x gate"
    )
    return table


def test_lockstep(capsys):
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
        help="smaller instance sizes (CI smoke; same assertions)",
    )
    args = parser.parse_args(argv)
    table = run_benchmark(quick=args.quick)
    print(table.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
