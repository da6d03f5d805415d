"""Workloads, serial oracle and measured run of the paper-grid benchmark.

``run.py`` is the front door; it calls this file in fresh subprocesses:

* ``bench.py oracle --workload W --seed S --out FILE`` runs the
  workload's grid once through ``run_sweep(workers=1)`` (the serial
  oracle) and writes the SHA-256 of its grid-ordered TrialRecord JSON
  lines plus a short hash per grid point;
* ``bench.py measure ... --oracle FILE --out FILE`` is one measured
  run: cold set-ups (median reported), then a closed loop of sweeps or
  submissions for ``--seconds``, every record checked against the
  oracle.  With ``--trace 1`` it runs an untraced half, then installs
  the span ledger (:mod:`ledger`), repeats set-up and loop traced, and
  reports per-layer metrics instead of end-to-end ones;
* ``bench.py report PATH...`` times ``summarize_path`` over a run's
  outputs in a fresh interpreter and writes the call and probe times;
* ``bench.py commit-oracles`` rewrites ``oracle.json``, the committed
  oracle of every workload at the default seed.

The closed loop has one client: the next sweep or submission starts
only when the previous one returned.  A workload's seed block is cut
into equal chunks, one sweep each, and the loop runs whole cycles over
the chunks; every sweep is bracketed by calibration probes
(:mod:`calibration`), so each one's time is scaled to the reference
speed by the machine speed measured around it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Any

import repro
from repro.errors import ServiceError
from repro.experiments import parallel, report
from repro.experiments.cache import content_hash
from repro.experiments.parallel import SweepSpec
from repro.experiments.results_io import record_to_jsonable
from repro.service import Broker, broker_status, run_worker, submit_sweep
from repro.service.protocol import recv_message, send_message

from calibration import REFERENCE_S, Calibrator, probe

HERE = Path(__file__).resolve().parent
COMMITTED_ORACLE = HERE / "oracle.json"
DEFAULT_SEED = 0

#: The workload seed shifts the seeds axis by this stride, so two
#: workload seeds never share a trial.
SEED_STRIDE = 1_000_000

#: Cold set-ups per run: at least the minimum, then more until their raw
#: time reaches the budget, at most the maximum; ``setup_s`` is the median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 5, 3.0

#: ``report_s`` is timed after the loop, in a fresh interpreter, so the
#: heap the calls run in is the same whatever the loop left behind.  It
#: summarizes the last grid pass's outputs in rounds, at least the
#: minimum and more until the budget is spent, and times one calibration
#: probe between calls; the median call is scaled to the reference speed
#: by the median probe.
REPORT_ROUNDS, REPORT_BUDGET_S = 5, 2.0

#: ``summarize_path`` calls per sweep output in the traced half, for the
#: ledger's ``report.summarize`` and ``query.collect`` spans.
TRACED_REPORTS = 3

#: Trials per broker work unit on ``service-fleet``.
UNIT_SIZE = 8

ALGORITHMS = ("theorem1", "theorem2", "trivial", "random-walk")

# Grid axes per workload.  The seed blocks are sized so that a run
# averages over enough trials that the workload seed moves trials/s by
# a few percent at most; chunks keep each sweep near a second, short
# enough for the calibration around it to track the machine's speed.
# ``paper-grid`` stops at n=400: the regular generator alone takes
# ~16 s at n=800, which does not fit repeated cold set-ups into a run.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "paper-grid": dict(
            families=("er-min-degree", "regular"), ns=(200, 400),
            algorithms=ALGORITHMS, seeds=192, chunks=8,
        ),
        "seed-swarm": dict(
            families=("er-min-degree",), ns=(1600,),
            algorithms=("random-walk", "trivial"), seeds=1024, chunks=2,
        ),
        "service-fleet": dict(
            families=("er-min-degree",), ns=(400, 800),
            algorithms=("theorem2", "random-walk"), seeds=512, chunks=2,
        ),
    },
    "tiny": {
        "paper-grid": dict(
            families=("er-min-degree", "regular"), ns=(32, 48),
            algorithms=ALGORITHMS, seeds=4, chunks=2,
        ),
        "seed-swarm": dict(
            families=("er-min-degree",), ns=(64,),
            algorithms=("random-walk", "trivial"), seeds=16, chunks=2,
        ),
        "service-fleet": dict(
            families=("er-min-degree",), ns=(32, 48),
            algorithms=("theorem2", "random-walk"), seeds=4, chunks=2,
        ),
    },
}
WORKLOADS = tuple(SIZES["full"])


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def workload_spec(workload: str, seed: int, scale: str = "full") -> SweepSpec:
    """The ``SweepSpec`` of a workload's whole seed block for a workload seed."""
    axes = dict(SIZES[scale][workload])
    count = axes.pop("seeds")
    axes.pop("chunks")
    base = seed * SEED_STRIDE
    return SweepSpec(
        name=f"{workload}-s{seed}",
        deltas=("n^0.75",),
        preset="tuned",
        seeds=tuple(range(base, base + count)),
        **axes,
    )


def chunk_specs(spec: SweepSpec, chunks: int) -> list[SweepSpec]:
    """The block cut into ``chunks`` specs over consecutive seed slices."""
    size = len(spec.seeds) // chunks
    return [
        dataclasses.replace(
            spec, name=f"{spec.name}-c{i}", seeds=spec.seeds[i * size:(i + 1) * size]
        )
        for i in range(chunks)
    ]


def spec_key(spec: SweepSpec) -> str:
    """Hash of the grid a spec names, independent of its name."""
    payload = spec.describe()
    payload.pop("name")
    return content_hash(payload)[:16]


def instance_keys(spec: SweepSpec) -> list[tuple[str, int, str]]:
    return [(f, n, d) for f in spec.families for n in spec.ns for d in spec.deltas]


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------


def record_hashes(records: Any) -> tuple[str, list[str]]:
    """SHA-256 of the grid-ordered JSON lines, and 8 hex chars per point."""
    whole = hashlib.sha256()
    points = []
    for record in records:
        line = json.dumps(record_to_jsonable(record), sort_keys=True).encode() + b"\n"
        whole.update(line)
        points.append(hashlib.sha256(line).hexdigest()[:8])
    return whole.hexdigest(), points


def chunk_points(oracle: dict[str, Any], seeds: int, chunks: int) -> list[list[str]]:
    """The oracle's point hashes in each chunk's own grid order.

    Seeds vary fastest in the grid, so chunk ``c`` holds, for every
    (family, n, δ, algorithm) group, the group's seeds ``c·s .. c·s+s``.
    """
    flat = oracle["points"]
    points = [flat[i:i + 8] for i in range(0, len(flat), 8)]
    size = seeds // chunks
    groups = len(points) // seeds
    return [
        [points[g * seeds + c * size + k] for g in range(groups) for k in range(size)]
        for c in range(chunks)
    ]


def failed_points(records: Any, expected: list[str]) -> int:
    """Grid points whose record is missing or differs from the oracle."""
    _, points = record_hashes(records)
    mismatched = sum(1 for got, want in zip(points, expected) if got != want)
    return mismatched + max(0, len(expected) - len(points))


def compute_oracle(workload: str, seed: int, scale: str) -> dict[str, Any]:
    spec = workload_spec(workload, seed, scale)
    result = parallel.run_sweep(spec, workers=1)
    digest, points = record_hashes(result.records)
    return {
        "workload": workload, "seed": seed, "scale": scale,
        "spec": spec_key(spec), "trials": len(points),
        "digest": digest, "points": "".join(points),
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class PaperGrid:
    """``run_sweep(workers=1)`` with a JSONL result cache, inline."""

    frame = "e2e.sweep"
    has_workers = False

    def __init__(self, spec: SweepSpec, run_dir: Path, workers: int) -> None:
        self.spec = spec
        self.run_dir = run_dir
        self.workers = workers
        self.sweeps = 0
        self.tracer: Any = None

    def next_cache_dir(self) -> Path:
        self.sweeps += 1
        return self.run_dir / f"sweep-{self.sweeps}"

    def setup(self) -> float:
        parallel.clear_instance_cache()
        began = time.perf_counter()
        for key in instance_keys(self.spec):
            parallel.plan_for_instance(*key)
        return time.perf_counter() - began

    def run(self, spec: SweepSpec) -> tuple[Any, Path | None]:
        """One timed sweep; returns it and its warehouse, if it wrote one."""
        return parallel.run_sweep(spec, workers=1, cache_dir=self.next_cache_dir()), None

    def close(self) -> None:
        pass


class SeedSwarm(PaperGrid):
    """``run_sweep(workers=nproc)`` on the warm fabric into a warehouse."""

    has_workers = True

    def setup(self) -> float:
        # One trial per worker on the same instance, far from any
        # measured seed: starts the pool, exports and attaches the plan.
        warm = dataclasses.replace(
            self.spec, name=f"{self.spec.name}-warm", algorithms=("random-walk",),
            seeds=tuple(range(10**9, 10**9 + self.workers)),
        )
        parallel.shutdown_fabric()
        parallel.clear_instance_cache()
        began = time.perf_counter()
        parallel.run_sweep(warm, workers=self.workers)
        return time.perf_counter() - began

    def run(self, spec: SweepSpec) -> tuple[Any, Path | None]:
        cache_dir = self.next_cache_dir()
        result = parallel.run_sweep(
            spec, workers=self.workers, cache_dir=cache_dir, warehouse=True
        )
        return result, cache_dir / f"{spec.spec_hash()}.wh"

    def close(self) -> None:
        parallel.shutdown_fabric()


def _host_main(conn: Any, instances: list, tracer: Any) -> None:
    """One service host: warm every instance, handshake, then serve."""
    try:
        parallel.clear_instance_cache()
        for key in instances:
            parallel.plan_for_instance(*key)
        address = tuple(conn.recv())
        with socket.create_connection(address, timeout=30.0) as sock:
            send_message(sock, "hello", workers=1)
            recv_message(sock, "welcome")
        conn.send("ready")
        conn.close()
        # A short redial budget: the only broker loss here is its stop.
        run_worker(address, workers=1, reconnect=0.25)
    except ServiceError:
        pass  # the broker stopped before this host dialled (repeated set-ups)
    finally:
        if tracer is not None:
            tracer.flush()


class ServiceFleet(PaperGrid):
    """``submit_sweep`` to an in-process broker with ``nproc`` hosts."""

    frame = "e2e.submit"
    has_workers = True

    def __init__(self, spec: SweepSpec, run_dir: Path, workers: int) -> None:
        super().__init__(spec, run_dir, workers)
        self.broker: Broker | None = None
        self.hosts: list[Any] = []
        self.fleets = 0
        self.requeues = 0

    def setup(self) -> float:
        self.close()
        self.fleets += 1
        cache_dir = self.run_dir / f"broker-{self.fleets}"
        context = multiprocessing.get_context("fork")
        began = time.perf_counter()
        # Hosts fork before the broker starts its threads.
        pipes = []
        for _ in range(self.workers):
            parent_end, child_end = context.Pipe()
            host = context.Process(
                target=_host_main,
                args=(child_end, instance_keys(self.spec), self.tracer),
                daemon=True,
            )
            host.start()
            child_end.close()
            self.hosts.append(host)
            pipes.append(parent_end)
        self.broker = Broker(cache_dir, unit_size=UNIT_SIZE)
        address = self.broker.start()
        for pipe in pipes:
            pipe.send(list(address))
        for pipe in pipes:
            if not pipe.poll(60.0) or pipe.recv() != "ready":
                raise RuntimeError("a service host failed to warm up")
            pipe.close()
        return time.perf_counter() - began

    def run(self, spec: SweepSpec) -> tuple[Any, Path | None]:
        assert self.broker is not None
        # A fresh name per submission, so the broker's cache cannot serve it.
        self.sweeps += 1
        spec = dataclasses.replace(spec, name=f"{spec.name}-{self.sweeps}")
        return submit_sweep(self.broker.address, spec), None

    def close(self) -> None:
        if self.broker is not None:
            status = broker_status(self.broker.address)
            self.requeues += sum(job["attempts"] for job in status["jobs"].values())
            self.broker.stop()
            self.broker = None
        for host in self.hosts:
            host.join(timeout=10.0)
            if host.is_alive():
                host.terminate()
                host.join(timeout=5.0)
        self.hosts = []


WORKLOAD_KINDS = {
    "paper-grid": PaperGrid,
    "seed-swarm": SeedSwarm,
    "service-fleet": ServiceFleet,
}


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


@dataclasses.dataclass
class Sweep:
    attempted: int
    failed: int
    wall: float = 0.0
    #: Calibration probe time around the sweep (mean of before and after).
    calib: float = 0.0
    warehouse: Path | None = None
    #: What ``summarize_path`` reads: the warehouse or a JSONL export.
    output: Path | None = None
    #: Peak RSS of this process (KiB) when the sweep's cycle ended, else 0.
    peak_rss: int = 0

    def scaled_wall(self) -> float:
        return self.wall * REFERENCE_S / self.calib


def timed_setups(bench: Any, calibrate: Calibrator) -> list[float]:
    """Cold set-up times, each scaled to the reference speed."""
    before = calibrate()
    times: list[float] = []
    raw_total = 0.0
    while len(times) < SETUP_MIN or (raw_total < SETUP_BUDGET_S and len(times) < SETUP_MAX):
        raw = bench.setup()
        after = calibrate()
        raw_total += raw
        times.append(raw * REFERENCE_S / ((before + after) / 2))
        before = after
    return times


def closed_loop(
    bench: Any, chunks: list[SweepSpec], expected: list[list[str]], seconds: float,
    calibrate: Calibrator, tracer: Any = None,
) -> list[Sweep]:
    """One untimed warm-up sweep, then whole cycles over the chunks until
    ``seconds`` have passed.

    The first sweep after set-up ran up to ~25% slower than the rest on
    ``service-fleet`` (first leases, first job), and runs fit 6 to 8
    sweeps, so timing it would weigh that cost differently per run.  The
    warm-up sweep is checked like any other and keeps ``wall`` at 0.
    Each sweep's output for ``summarize_path`` is its warehouse, or a
    JSONL export written untimed (a JSONL *cache* holds keyed lines that
    ``repro report`` does not read).  A sweep that raises, or that any
    cache served, counts all its grid points as failed and ends the loop.
    """
    sweeps: list[Sweep] = []
    started = time.perf_counter()
    before = calibrate()
    warming = True
    while True:
        for index in [0] if warming else range(len(chunks)):
            spec, want = chunks[index], expected[index]
            try:
                began = time.perf_counter()
                with tracer.span(bench.frame) if tracer is not None else nullcontext():
                    result, warehouse = bench.run(spec)
                wall = time.perf_counter() - began
                if result.executed != len(want):
                    raise RuntimeError(f"{result.cached} trials came from a cache")
            except Exception:
                traceback.print_exc(file=sys.stderr)
                sweeps.append(Sweep(attempted=len(want), failed=len(want)))
                return sweeps
            after = calibrate()
            sweep = Sweep(
                attempted=len(want), failed=failed_points(result.records, want),
                wall=wall, calib=(before + after) / 2, warehouse=warehouse,
                output=warehouse or result.write_jsonl(bench.run_dir / f"export-{index}.jsonl"),
            )
            if tracer is not None:
                for _ in range(TRACED_REPORTS):
                    report.summarize_path(sweep.output)
            before = calibrate()
            sweeps.append(sweep)
        if warming:
            warming = False
            sweeps[-1].wall = 0.0
            started = time.perf_counter()
            continue
        sweeps[-1].peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if time.perf_counter() - started >= seconds:
            return sweeps


def time_reports(paths: list[Path]) -> list[list[float]]:
    """``[call, probe]`` seconds per ``summarize_path`` call over ``paths``.

    One untimed round warms imports and the page cache.  ``probe`` is
    the mean of the probes right before and right after the call.
    """
    for path in paths:
        report.summarize_path(path)
    samples: list[list[float]] = []
    started = time.perf_counter()
    rounds = 0
    before = probe()
    while rounds < REPORT_ROUNDS or time.perf_counter() - started < REPORT_BUDGET_S:
        for path in paths:
            began = time.perf_counter()
            report.summarize_path(path)
            took = time.perf_counter() - began
            after = probe()
            samples.append([took, (before + after) / 2])
            before = after
        rounds += 1
    return samples


def timed_reports(sweeps: list[Sweep], chunks: int, run_dir: Path) -> list[list[float]]:
    """:func:`time_reports` over the last grid pass, in a fresh interpreter."""
    paths = [str(s.output) for s in sweeps[-chunks:] if s.output is not None]
    if not paths:
        return []
    out = run_dir / "reports.json"
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "report", *paths, "--out", str(out)],
        env=env, check=True, timeout=REPORT_BUDGET_S + 120.0,
    )
    return json.loads(out.read_text(encoding="utf-8"))


def _mib(kib: int) -> float:
    return kib / 1024.0


def end_to_end(
    bench: Any, setups: list[float], sweeps: list[Sweep], workers_kib: int,
    reports: list[list[float]],
) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics; times at the reference speed.

    ``workers_kib`` is the children's peak RSS read before the report
    interpreter ran, so that only fabric workers or service hosts count.
    """
    timed = [s for s in sweeps if s.wall > 0]
    attempted = sum(s.attempted for s in sweeps)
    failed = sum(s.failed for s in sweeps)
    # The peak after set-up and the first grid pass: a broker keeps every
    # finished job, so later passes would make it grow with the pass count.
    peak = _mib(next(
        (s.peak_rss for s in sweeps if s.peak_rss),
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    ))
    worker = _mib(workers_kib) if bench.has_workers else peak
    report_s = 0.0
    if reports:
        calls, probes = zip(*reports)
        report_s = statistics.median(calls) * REFERENCE_S / statistics.median(probes)
    return {
        "trials_per_s": (
            sum(s.attempted for s in timed) / sum(s.scaled_wall() for s in timed), "trials/s",
        ),
        "setup_s": (statistics.median(setups), "s"),
        "report_s": (report_s, "s"),
        "peak_rss_mb": (peak, "MiB"),
        "worker_rss_mb": (worker, "MiB"),
        "match_rate": (1.0 - failed / attempted, "fraction"),
    }


def per_layer(
    processes: list[dict[str, Any]],
    sweeps: list[Sweep],
    untraced: list[Sweep],
    bench: Any,
    grids: float,
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from the merged ledger of the traced half.

    Times and counts that grow with the work are per grid (one pass
    over the seed block); set-up layers are totals of the traced half.
    """
    import ledger

    count: dict[str, int] = {}
    total: dict[str, float] = {}
    child_total: dict[str, float] = {}
    frame_self = 0.0
    counters: dict[str, int] = {}
    for proc in processes:
        selfs = ledger.self_times(proc["spans"])
        for sid, _parent, name, start, end, _tid in proc["spans"]:
            seconds = (end - start) / 1e9
            count[name] = count.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + seconds
            if proc["role"] != "main":
                child_total[name] = child_total.get(name, 0.0) + seconds
            if name in ledger.FRAME_SPANS:
                frame_self += selfs[sid] / 1e9
        for key, value in proc["counters"].items():
            counters[key] = counters.get(key, 0) + value

    frame_wall = total.get(bench.frame, 0.0)

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_grid(name: str) -> float:
        return t(name) / grids

    def counter_per_grid(name: str) -> float:
        return counters.get(name, 0) / grids

    metrics: dict[str, tuple[float, str]] = {
        "graphs.generate_s": (t("graphs.generate"), "s"),
        "graphs.label_s": (t("graphs.label"), "s"),
        "plan.compile_s": (t("plan.compile"), "s"),
        "plan.export_s": (t("plan.export"), "s"),
        "fabric.spawn_s": (t("fabric.spawn"), "s"),
        "plan.attach_s": (t("plan.attach"), "s"),
        "plan.attaches": (counters.get("plan.attaches", 0), "count"),
    }
    for algorithm in ALGORITHMS:
        execute = t(f"harness.execute.{algorithm}")
        metrics[f"harness.execute_s.{algorithm}"] = (execute / grids, "s")
        metrics[f"harness.rounds_per_s.{algorithm}"] = (
            ratio(counters.get(f"harness.rounds.{algorithm}", 0), execute), "1/s",
        )
    busy = child_total.get("parallel.execute_chunk", 0.0) + child_total.get(
        "worker.execute_unit", 0.0
    )
    warehouse = sweeps[-1].warehouse
    rows = wh_bytes = 0
    if warehouse is not None and (warehouse / "manifest.json").exists():
        rows = json.loads((warehouse / "manifest.json").read_text())["rows"]
        wh_bytes = sum(p.stat().st_size for p in warehouse.rglob("*") if p.is_file())
    metrics.update({
        "harness.trials_per_call": (
            ratio(counters.get("harness.trials", 0), counters.get("harness.calls", 0)),
            "count",
        ),
        "lockstep.trial_share": (
            ratio(counters.get("lockstep.trials", 0), counters.get("lockstep.eligible_trials", 0)),
            "fraction",
        ),
        "lockstep.execute_s": (per_grid("lockstep.execute"), "s"),
        "results_io.pack_s": (per_grid("results_io.pack"), "s"),
        "results_io.unpack_s": (per_grid("results_io.unpack"), "s"),
        "results_io.bytes_per_record": (
            ratio(counters.get("results_io.packed_bytes", 0),
                  counters.get("results_io.packed_records", 0)),
            "B",
        ),
        "parallel.wait_s": (per_grid("parallel.wait"), "s"),
        "parallel.worker_busy_frac": (
            ratio(busy, bench.workers * frame_wall) if bench.has_workers else 0.0,
            "fraction",
        ),
        "cache.append_s": (per_grid("cache.append"), "s"),
        "cache.flushes": (counter_per_grid("cache.flushes"), "count"),
        "warehouse.append_s": (per_grid("warehouse.append"), "s"),
        "warehouse.bytes_per_row": (ratio(wh_bytes, rows), "B"),
        "query.collect_s": (ratio(t("query.collect"), count.get("query.collect", 0)), "s"),
        "query.fused": (
            ratio(counters.get("query.fused", 0), counters.get("query.collects", 0)),
            "fraction",
        ),
        "report.summarize_s": (
            ratio(t("report.summarize"), count.get("report.summarize", 0)), "s",
        ),
        "protocol.encode_s": (per_grid("protocol.encode"), "s"),
        "protocol.decode_s": (per_grid("protocol.decode"), "s"),
        "protocol.frames": (counter_per_grid("protocol.frames"), "count"),
        "protocol.bytes": (counter_per_grid("protocol.bytes"), "B"),
        "worker.idle_s": (per_grid("worker.idle"), "s"),
        "service.requeues": (getattr(bench, "requeues", 0), "count"),
        "ledger.unattributed_s": (frame_self / grids, "s"),
    })
    traced = statistics.mean(s.scaled_wall() for s in sweeps if s.wall > 0)
    untraced_wall = statistics.mean(s.scaled_wall() for s in untraced if s.wall > 0)
    metrics["ledger.trace_overhead"] = (traced / untraced_wall, "ratio")
    notes = [
        f"traced: {grids:g} grid pass(es), {frame_wall:.3f} s in {bench.frame} spans; "
        "time metrics are per grid pass, set-up layers are totals",
        f"ledger.unattributed_s: {frame_self / grids:.4f} s per grid pass "
        f"({ratio(frame_self, frame_wall):.1%} of the {bench.frame} wall time)",
        f"tracing overhead: mean sweep {traced:.4f} s traced / {untraced_wall:.4f} s "
        f"untraced (reference speed) = {traced / untraced_wall:.3f}x",
    ]
    return metrics, notes


def traced_half(
    bench: Any, chunks: list[SweepSpec], expected: list[list[str]], seconds: float,
    calibrate: Calibrator, run_dir: Path, untraced: list[Sweep],
) -> tuple[list[Sweep], dict[str, tuple[float, str]]]:
    """Install the ledger, set up and loop again, and report the layers."""
    import ledger

    span_dir = run_dir / "spans"
    tracer = ledger.Tracer(span_dir)
    ledger.install(tracer)
    bench.tracer = tracer
    bench.setup()
    sweeps = closed_loop(bench, chunks, expected, seconds, calibrate, tracer)
    bench.close()
    tracer.flush()
    processes = ledger.load(span_dir)
    problems = ledger.check_nesting(processes)
    if problems:
        raise RuntimeError("span ledger is inconsistent: " + "; ".join(problems[:5]))
    grids = len(sweeps) / len(chunks)
    metrics, notes = per_layer(processes, sweeps, untraced, bench, grids)
    table = ledger.render_table(ledger.layer_table(processes), notes)
    (run_dir / "layers.txt").write_text(table + "\n", encoding="utf-8")
    (run_dir / "trace.json").write_text(json.dumps(ledger.chrome_trace(processes)))
    print(f"per-layer ledger, {bench.spec.name} ({len(processes)} process(es)):")
    print(table)
    return sweeps, metrics


def measure(
    workload: str, seed: int, seconds: float, trace: bool, scale: str,
    oracle: dict[str, Any], run_dir: Path,
) -> dict[str, Any]:
    """One measured run; returns ``{correct, attempted, failed, metrics}``."""
    spec = workload_spec(workload, seed, scale)
    if oracle["spec"] != spec_key(spec):
        raise RuntimeError(f"oracle is for another grid than {spec.name}")
    count = SIZES[scale][workload]["chunks"]
    chunks = chunk_specs(spec, count)
    expected = chunk_points(oracle, len(spec.seeds), count)
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    bench = WORKLOAD_KINDS[workload](spec, run_dir, nproc())
    calibrate = Calibrator()
    reports: list[list[float]] = []
    try:
        if not trace:
            setups = timed_setups(bench, calibrate)
            sweeps = closed_loop(bench, chunks, expected, seconds, calibrate)
            bench.close()
            workers_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            reports = timed_reports(sweeps, count, run_dir)
            metrics = end_to_end(bench, setups, sweeps, workers_kib, reports)
        else:
            bench.setup()
            untraced = closed_loop(bench, chunks, expected, seconds / 2, calibrate)
            bench.close()
            traced, metrics = traced_half(
                bench, chunks, expected, seconds / 2, calibrate, run_dir, untraced
            )
            sweeps = untraced + traced
    finally:
        bench.close()
        calibrate.close()
        # Only the ledger outputs outlive the run.
        for path in run_dir.iterdir():
            if path.name not in ("layers.txt", "trace.json", "spans"):
                shutil.rmtree(path) if path.is_dir() else path.unlink()
    attempted = sum(s.attempted for s in sweeps)
    failed = sum(s.failed for s in sweeps)
    timed = [s for s in sweeps if s.wall > 0]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "calibration_s": statistics.median(s.calib for s in timed),
        "raw_trials_per_s": sum(s.attempted for s in timed) / sum(s.wall for s in timed),
        "sweeps": [[s.attempted, s.wall, s.calib] for s in sweeps],
        "reports": reports,
    }


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("oracle", "measure", "report", "commit-oracles"))
    parser.add_argument("paths", nargs="*", type=Path, help="outputs to summarize (report)")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--scale", choices=tuple(SIZES), default="full")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--oracle", type=Path)
    parser.add_argument("--run-dir", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    if args.mode == "commit-oracles":
        oracles = {w: compute_oracle(w, DEFAULT_SEED, "full") for w in WORKLOADS}
        COMMITTED_ORACLE.write_text(json.dumps(oracles, indent=1, sort_keys=True) + "\n")
        return 0
    if args.mode == "oracle":
        payload = compute_oracle(args.workload, args.seed, args.scale)
    elif args.mode == "report":
        payload = time_reports(args.paths)
    else:
        oracle = json.loads(args.oracle.read_text(encoding="utf-8"))
        payload = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale,
            oracle, args.run_dir,
        )
    tmp = args.out.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    tmp.replace(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
