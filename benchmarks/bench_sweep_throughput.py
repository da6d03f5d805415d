"""Benchmark for batched trial execution: plan reuse vs per-trial setup.

The PR 2 engine made a *single* execution fast; this gate protects
what PR 3 added on top — the compiled
:class:`~repro.runtime.plan.ExecutionPlan` and the batched executor
:func:`~repro.experiments.harness.run_trials` — by replaying a mixed
KT0 + KT1 many-seed workload (the shape of every statistical sweep)
through both paths:

* **baseline** — per-seed calls of the frozen engine path
  (:func:`~repro.runtime.reference.reference_run_trials` with one
  seed), each paying full setup (labeling + plan compilation per
  trial) and running every round on the engine, exactly what the
  sweep engine did before execution plans;
* **planned** — one plan compiled per workload, every seed run
  through ``run_trials`` against it with a reused engine.

Two promises are asserted on every machine:

* the :class:`~repro.experiments.harness.TrialRecord` streams are
  **byte-identical** (compared as serialized JSON lines, per
  workload);
* aggregate throughput of the planned path is **≥ 2×** trials/second
  over the baseline.

Runs under pytest (``pytest benchmarks/bench_sweep_throughput.py``)
and as a script (``python benchmarks/bench_sweep_throughput.py
[--quick]``, the CI perf-smoke job).  Emits
``results/BENCH_sweep_throughput.json`` via :mod:`_bench_json`.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass
from typing import Callable

import _bench_json

from repro.experiments.harness import run_trials
from repro.experiments.report import Table
from repro.experiments.results_io import record_to_jsonable
from repro.graphs.generators import complete_graph, random_regular_graph
from repro.graphs.graph import StaticGraph
from repro.graphs.ports import PortModel
from repro.runtime.plan import ExecutionPlan
from repro.runtime.reference import reference_run_trials

SPEEDUP_GATE = 2.0


@dataclass(frozen=True)
class _Workload:
    """One (graph, algorithm, port model, seeds) batch replay unit."""

    name: str
    graph_factory: Callable[[], StaticGraph]
    algorithm: str
    port_model: PortModel
    seeds: tuple[int, ...]
    max_rounds: int | None


def _workloads(quick: bool) -> list[_Workload]:
    scale = 1 if quick else 4
    return [
        # Dense KT1: the trivial probe meets in O(Δ) rounds, so the
        # per-trial O(m) setup dominates the baseline — the shape of
        # every short-trial grid point on a dense family.
        _Workload(
            name="complete-192/trivial/KT1",
            graph_factory=lambda: complete_graph(192),
            algorithm="trivial",
            port_model=PortModel.KT1,
            seeds=tuple(range(40 * scale)),
            max_rounds=None,
        ),
        # Dense KT0: per-trial setup additionally re-materializes the
        # hidden port table; walkers are capped well before meeting is
        # guaranteed, so both outcomes appear in the records.
        _Workload(
            name="complete-128/random-walk/KT0",
            graph_factory=lambda: complete_graph(128),
            algorithm="random-walk",
            port_model=PortModel.KT0,
            seeds=tuple(range(30 * scale)),
            max_rounds=300,
        ),
        # Sparse KT1: long-ish capped walks where loop time, not setup,
        # carries most of the cost — keeps the aggregate honest about
        # workloads the plan helps least.
        _Workload(
            name="rr-256x8/random-walk/KT1",
            graph_factory=lambda: random_regular_graph(
                256, 8, random.Random("bench-sweep")
            ),
            algorithm="random-walk",
            port_model=PortModel.KT1,
            seeds=tuple(range(30 * scale)),
            max_rounds=400,
        ),
    ]


def _record_bytes(records) -> bytes:
    lines = [json.dumps(record_to_jsonable(r), sort_keys=True) for r in records]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _baseline(graph: StaticGraph, workload: _Workload):
    """Per-seed frozen engine runs: full setup every trial.

    ``run_trial`` is a batch of one and takes the lockstep kernels, so
    it would not measure the per-trial engine path this baseline
    stands for.
    """
    began = time.perf_counter()
    records = [
        reference_run_trials(
            graph, workload.algorithm, [seed],
            port_model=workload.port_model, max_rounds=workload.max_rounds,
        )[0]
        for seed in workload.seeds
    ]
    return records, time.perf_counter() - began


def _planned(graph: StaticGraph, workload: _Workload):
    """Batched run_trials: one compiled plan, one reused engine."""
    began = time.perf_counter()
    plan = ExecutionPlan.compile(graph, port_model=workload.port_model)
    records = run_trials(
        graph, workload.algorithm, list(workload.seeds),
        plan=plan, port_model=workload.port_model, max_rounds=workload.max_rounds,
    )
    return records, time.perf_counter() - began


def run_benchmark(quick: bool = False, repetitions: int = 3) -> Table:
    """Measure baseline-vs-planned throughput; assert equality and the gate.

    Each workload is replayed ``repetitions`` times per path and the
    fastest time kept for the gate (best-of-N absorbs scheduler noise
    on loaded machines); all samples land in the emitted JSON.
    """
    table = Table(
        title=f"SWEEP-THROUGHPUT — batched plan execution vs per-trial setup "
              f"({'quick' if quick else 'full'} parameters)",
        headers=[
            "workload", "trials", "baseline t/s", "planned t/s",
            "speedup", "identical",
        ],
    )
    workload_stats: dict[str, dict] = {}
    total_base = total_plan = 0.0
    total_trials = 0
    for workload in _workloads(quick):
        graph = workload.graph_factory()
        base_samples: list[float] = []
        plan_samples: list[float] = []
        base_records = plan_records = None
        for _ in range(repetitions):
            base_records, elapsed = _baseline(graph, workload)
            base_samples.append(elapsed)
            plan_records, elapsed = _planned(graph, workload)
            plan_samples.append(elapsed)
        assert _record_bytes(base_records) == _record_bytes(plan_records), (
            f"planned records diverged from per-trial records on {workload.name}"
        )
        base_time, plan_time = min(base_samples), min(plan_samples)
        trials = len(workload.seeds)
        table.add_row(
            workload.name,
            trials,
            round(trials / base_time, 1),
            round(trials / plan_time, 1),
            f"{base_time / plan_time:.2f}x",
            True,
        )
        workload_stats[workload.name] = {
            "trials": trials,
            "baseline": _bench_json.summarize_samples(base_samples),
            "planned": _bench_json.summarize_samples(plan_samples),
            "speedup": base_time / plan_time,
        }
        total_base += base_time
        total_plan += plan_time
        total_trials += trials

    speedup = total_base / total_plan
    table.add_row(
        "TOTAL",
        total_trials,
        round(total_trials / total_base, 1),
        round(total_trials / total_plan, 1),
        f"{speedup:.2f}x",
        True,
    )
    table.add_note(
        f"gate: aggregate planned-path speedup must be >= {SPEEDUP_GATE}x "
        "(TrialRecord JSON byte-equality is asserted per workload)"
    )
    _bench_json.write_bench_json(
        "sweep_throughput",
        quick=quick,
        workloads=workload_stats,
        metrics={
            "aggregate_speedup": speedup,
            "speedup_gate": SPEEDUP_GATE,
            "trials_total": total_trials,
            "baseline_trials_per_s": total_trials / total_base,
            "planned_trials_per_s": total_trials / total_plan,
        },
    )
    assert speedup >= SPEEDUP_GATE, (
        f"planned-path speedup {speedup:.2f}x is below the {SPEEDUP_GATE}x gate"
    )
    return table


def test_sweep_throughput(capsys):
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
        help="smaller seed counts (CI smoke; same assertions)",
    )
    args = parser.parse_args(argv)
    table = run_benchmark(quick=args.quick)
    print(table.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
