"""Zero-copy sweep fabric: seeded trial grids fanned out over cores.

The serial harness (:mod:`repro.experiments.harness`) runs one trial
at a time; this module scales the same trials across CPU cores while
keeping the output *bit-for-bit deterministic*:

* a :class:`SweepSpec` names a grid — graph family × n × δ rule ×
  algorithm × scenario × seeds — and every grid point is enumerated in
  one fixed order, independent of worker count;
* one chunker (:func:`_chunk_tasks`) cuts pending points into
  per-instance :class:`_ChunkTask` chunks and one executor
  (:func:`_execute_chunk_task`) runs them, batching each run of one
  algorithm and scenario through
  :func:`~repro.experiments.harness.run_trials` (lockstep kernels
  included) — inline for ``workers=1``, in fabric workers otherwise,
  and on single-worker service hosts alike;
* a **persistent worker pool** (created on first use, reused by every
  later :func:`run_sweep` call) pulls chunks from a dynamic work
  queue, so stragglers steal work instead of the grid being dealt out
  statically up front;
* the parent compiles each ``(family, n, δ)`` instance's
  :class:`~repro.runtime.plan.ExecutionPlan` **once** and exports it
  over ``multiprocessing.shared_memory``; workers attach read-only
  views (:func:`repro.runtime.plan.attach_plan`) instead of
  regenerating the graph and recompiling per process — with a
  graceful fallback to the per-process generator memo when shared
  memory is unavailable;
* results travel back as **columnar record batches**
  (:func:`repro.experiments.results_io.pack_record_batch`) — one
  ``bytes`` object per chunk instead of one pickled record per trial
  — and cache writes land one flush per batch;
* :func:`run_sweep` reassembles records in grid order, so
  ``workers=1`` and ``workers=8`` produce byte-identical JSON lines;
  ``stream=True`` instead folds each arriving batch into per-group
  :class:`~repro.experiments.harness.StreamSummary` aggregates and
  drops the records, keeping resident memory O(batch) for grids too
  large to hold;
* an optional result cache (:mod:`repro.experiments.cache`), one per
  spec hash holding each record under its grid index, makes re-runs
  and interrupted sweeps resume instead of recompute.

:func:`run_sweep` is the only way trials fan out.
``docs/performance.md`` documents the fabric's lifetimes and layouts.
"""

from __future__ import annotations

import atexit
import itertools
import math
import os
import pickle
import queue as _queue
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import multiprocessing
import random
from multiprocessing import resource_tracker

from repro.analysis.stats import summarize
from repro.core.constants import Constants
from repro.core.api import ALGORITHMS
from repro.errors import GenerationError, ReproError, SchedulerError, WarehouseError
from repro.experiments.cache import CACHE_FORMAT_VERSION, ResultCache, content_hash
from repro.experiments.warehouse import WarehouseCache
from repro.experiments.harness import (
    _INT64_MAX,
    _INT64_MIN,
    StreamSummary,
    TrialRecord,
    run_trial,
    run_trials,
)
from repro.experiments.report import Table
from repro.experiments.results_io import (
    pack_record_batch,
    unpack_record_batch,
    write_records_jsonl,
)
from repro.graphs.generators import (
    check_min_degree_domain,
    check_powerlaw_domain,
    check_regular_domain,
    complete_graph,
    powerlaw_graph_with_floor,
    random_geometric_dense_graph,
    random_graph_with_min_degree,
    random_regular_graph,
)
from repro.graphs.graph import StaticGraph
from repro.graphs.ports import PortLabeling
from repro.scenarios.spec import resolve_scenario
from repro.runtime.plan import (
    ExecutionPlan,
    PlanShare,
    SharedPlanHandle,
    attach_plan,
    shared_plans_available,
)

__all__ = [
    "GRAPH_FAMILIES",
    "CONSTANTS_PRESETS",
    "SweepSpec",
    "SweepPoint",
    "SweepResult",
    "SweepStreamResult",
    "build_graph",
    "plan_for_instance",
    "clear_instance_cache",
    "open_cache",
    "profile_setup",
    "resolve_delta",
    "run_sweep",
    "resolve_workers",
    "shutdown_fabric",
]

#: Bound of the per-process instance memo (``_instance_for``).
_INSTANCE_CACHE_CAP = 32

#: Bound of the parent-side plan arena (exported shared-memory segments).
_PLAN_ARENA_CAP = 64

#: Graph families a sweep can range over: ``name -> builder(n, delta, rng)``.
GRAPH_FAMILIES: dict[str, Callable[[int, int, random.Random], StaticGraph]] = {
    "er-min-degree": random_graph_with_min_degree,
    "geometric": random_geometric_dense_graph,
    "regular": random_regular_graph,
    "powerlaw": powerlaw_graph_with_floor,
    "complete": lambda n, delta, rng: complete_graph(n),
}

#: Each family's feasible (n, δ) domain, checked on every grid point
#: when a :class:`SweepSpec` is built; its builder runs the same check.
#: ``complete`` ignores δ, and ``SweepSpec`` already needs n >= 2.
_FAMILY_DOMAINS: dict[str, Callable[[int, int], None]] = {
    "er-min-degree": check_min_degree_domain,
    "geometric": check_min_degree_domain,
    "regular": check_regular_domain,
    "powerlaw": check_powerlaw_domain,
}

#: Constants presets addressable by name in a spec.
CONSTANTS_PRESETS: dict[str, Callable[[], Constants]] = {
    "paper": Constants.paper,
    "tuned": Constants.tuned,
    "testing": Constants.testing,
    "aggressive": Constants.aggressive,
}


def resolve_delta(delta_spec: str, n: int) -> int:
    """Turn a δ rule into a concrete request for instance size ``n``.

    Two forms are accepted: a plain integer (``"90"``) used verbatim,
    or an exponent rule ``"n^0.75"`` resolving to ``max(8, round(n^e))``
    — the convention the registry experiments use throughout.  A rule
    with no finite real value at ``n`` (``n^inf``, ``n^nan``, a power
    too large for a float, ``0^-1``, a fractional power of a negative
    ``n``) raises :class:`ReproError`.
    """
    spec = delta_spec.strip()
    if spec.startswith("n^"):
        try:
            exponent = float(spec[2:])
        except ValueError:
            raise ReproError(f"bad delta rule {delta_spec!r}: want 'n^<float>'") from None
        try:
            value = n ** exponent
        except ArithmeticError:  # 0 ** -1, or a float overflow
            value = math.nan
        if not (isinstance(value, float) and math.isfinite(value)):
            raise ReproError(f"delta rule {delta_spec!r} has no finite value at n={n}")
        return max(8, round(value))
    try:
        return int(spec)
    except ValueError:
        raise ReproError(
            f"bad delta rule {delta_spec!r}: want an integer or 'n^<float>'"
        ) from None


@lru_cache(maxsize=_INSTANCE_CACHE_CAP)
def _instance_for(family: str, n: int, delta_spec: str) -> tuple[StaticGraph, ExecutionPlan]:
    """Per-process memo of one sweep instance and its compiled plan.

    Keyed by the generator tag alone — the same key that seeds the
    generator RNG — so every chunk a worker handles for the same
    instance reuses one graph object and one
    :class:`~repro.runtime.plan.ExecutionPlan` instead of regenerating
    both.  The cache is bounded (32 entries — a worker rarely touches
    more than a couple of instances at a time) and holds graph and
    plan together: a plan is only valid for the exact graph object it
    was compiled from, so they must be evicted as one.
    """
    try:
        builder = GRAPH_FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(GRAPH_FAMILIES))
        raise ReproError(f"unknown graph family {family!r}; known: {known}") from None
    delta = resolve_delta(delta_spec, n)
    rng = random.Random(f"sweep-graph:{family}:{n}:{delta_spec}")
    graph = builder(n, delta, rng)
    return graph, ExecutionPlan.compile(graph)


def build_graph(family: str, n: int, delta_spec: str) -> StaticGraph:
    """Deterministically build one sweep instance (memoized per process).

    The generator RNG is seeded from the ``(family, n, delta)`` tag
    alone, so every worker process — and every re-run — reconstructs
    the identical graph without any pickling.  Repeated calls with the
    same tag return the same object from a bounded per-process cache;
    graphs are immutable, so sharing is safe.
    """
    return _instance_for(family, n, delta_spec)[0]


def plan_for_instance(family: str, n: int, delta_spec: str) -> ExecutionPlan:
    """The memoized KT1 execution plan of one sweep instance."""
    return _instance_for(family, n, delta_spec)[1]


def clear_instance_cache() -> None:
    """Drop the per-process graph/plan memo (tests, long-lived daemons)."""
    _instance_for.cache_clear()


def profile_setup(spec: "SweepSpec") -> Table:
    """Per-instance timing breakdown of the setup pipeline vs trial time.

    For every unique ``(family, n, δ)`` instance of ``spec``, runs the
    parent-side pipeline *fresh* (no memo) and times each stage:

    * **generate** — the graph family builder (CSR emission included);
    * **label** — :class:`~repro.graphs.ports.PortLabeling` construction
      (zero-copy on CSR graphs, so this should be ~0);
    * **compile** — :meth:`~repro.runtime.plan.ExecutionPlan.compile`
      plus touching the flat export surface (offsets/indices/degrees);
    * **export** — shared-memory export + unlink (blank when shared
      memory is unavailable);
    * **trial** — one seeded trial of the spec's first algorithm
      against the compiled plan, for scale.

    Backs ``repro sweep --profile-setup`` (see ``docs/cli.md``), so a
    regression anywhere in the instance pipeline is visible from the
    CLI without running a benchmark.
    """
    table = Table(
        title=f"SETUP PROFILE {spec.name} — per-instance pipeline timings (ms)",
        headers=[
            "family", "n", "delta rule", "generate", "label", "compile",
            "export", "trial", "setup/trial",
        ],
    )
    algorithm = spec.algorithms[0]
    seed = spec.seeds[0]
    constants = CONSTANTS_PRESETS[spec.preset]()
    seen: set[tuple[str, int, str]] = set()
    for point in spec.points():
        key = point.graph_key()
        if key in seen:
            continue
        seen.add(key)
        family, n, delta_spec = key
        delta = resolve_delta(delta_spec, n)
        rng = random.Random(f"sweep-graph:{family}:{n}:{delta_spec}")
        builder = GRAPH_FAMILIES[family]

        began = time.perf_counter()
        graph = builder(n, delta, rng)
        t_generate = time.perf_counter() - began

        began = time.perf_counter()
        labeling = PortLabeling(graph)
        t_label = time.perf_counter() - began

        began = time.perf_counter()
        plan = ExecutionPlan.compile(graph, labeling=labeling)
        _ = plan.neighbor_offsets, plan.neighbor_indices, plan.degrees
        t_compile = time.perf_counter() - began

        t_export: float | None = None
        if shared_plans_available():
            try:
                began = time.perf_counter()
                PlanShare.export(plan).close()
                t_export = time.perf_counter() - began
            except (SchedulerError, OSError):
                t_export = None

        began = time.perf_counter()
        run_trial(
            graph, algorithm, seed,
            constants=constants, max_rounds=spec.max_rounds, plan=plan,
        )
        t_trial = time.perf_counter() - began

        setup = t_generate + t_label + t_compile + (t_export or 0.0)
        table.add_row(
            family, n, delta_spec,
            round(t_generate * 1e3, 3),
            round(t_label * 1e3, 3),
            round(t_compile * 1e3, 3),
            "-" if t_export is None else round(t_export * 1e3, 3),
            round(t_trial * 1e3, 3),
            f"{setup / t_trial:.2f}x" if t_trial > 0 else "-",
        )
    table.add_note(
        "fresh (unmemoized) parent-side pipeline per instance; trial = one "
        f"seeded {algorithm!r} run against the compiled plan"
    )
    return table


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: a single seeded trial of one algorithm."""

    index: int
    family: str
    n: int
    delta_spec: str
    algorithm: str
    seed: int
    scenario: str = "none"

    def graph_key(self) -> tuple[str, int, str]:
        """Points sharing this key run on the same instance."""
        return (self.family, self.n, self.delta_spec)


@dataclass(frozen=True)
class SweepSpec:
    """A full factorial grid of seeded trials.

    Every axis is a tuple; the grid is the cross product in the fixed
    order families × ns × deltas × algorithms × scenarios × seeds.
    The spec (not the worker count) determines the result, which is
    why its hash names the cache file.  No axis may repeat a value: a
    repeated value would only compute identical trials twice.
    """

    name: str
    families: tuple[str, ...] = ("er-min-degree",)
    ns: tuple[int, ...] = (200, 400)
    deltas: tuple[str, ...] = ("n^0.75",)
    algorithms: tuple[str, ...] = ("trivial",)
    seeds: tuple[int, ...] = tuple(range(5))
    preset: str = "tuned"
    max_rounds: int | None = None
    scenarios: tuple[str, ...] = ("none",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "families", tuple(self.families))
        object.__setattr__(self, "ns", tuple(self.ns))
        object.__setattr__(self, "deltas", tuple(str(d) for d in self.deltas))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "scenarios", tuple(str(s) for s in self.scenarios))
        for axis in ("ns", "seeds"):
            for value in getattr(self, axis):
                if type(value) is not int:  # bool and float are refused too
                    raise ReproError(
                        f"sweep {axis} must be plain integers, got {value!r}"
                    )
        for n in self.ns:
            if n < 2:  # an instance needs two adjacent vertices
                raise ReproError(f"sweep ns must be at least 2, got {n}")
        if self.max_rounds is not None and not (
            type(self.max_rounds) is int and self.max_rounds >= 0
        ):
            raise ReproError(
                "sweep max_rounds must be None or a plain integer >= 0, "
                f"got {self.max_rounds!r}"
            )
        for seed in self.seeds:
            if not _INT64_MIN <= seed <= _INT64_MAX:
                raise ReproError(f"sweep seed {seed} is outside int64")
        for family in self.families:
            if family not in GRAPH_FAMILIES:
                known = ", ".join(sorted(GRAPH_FAMILIES))
                raise ReproError(f"unknown graph family {family!r}; known: {known}")
        for algorithm in self.algorithms:
            if algorithm not in ALGORITHMS:
                known = ", ".join(sorted(ALGORITHMS))
                raise ReproError(f"unknown algorithm {algorithm!r}; known: {known}")
        if self.preset not in CONSTANTS_PRESETS:
            known = ", ".join(sorted(CONSTANTS_PRESETS))
            raise ReproError(f"unknown constants preset {self.preset!r}; known: {known}")
        for scenario in self.scenarios:
            resolve_scenario(scenario)  # raises ScenarioError on unknown names
        for delta_spec, n in ((d, n) for d in self.deltas for n in self.ns):
            delta = resolve_delta(delta_spec, n)  # raises on malformed rules
            for family in self.families:
                check = _FAMILY_DOMAINS.get(family)
                if check is None:
                    continue
                try:
                    check(n, delta)
                except GenerationError as error:
                    raise GenerationError(
                        f"family {family!r} has no instance at n={n}, "
                        f"delta={delta_spec!r} (= {delta}): {error}"
                    ) from None
        for axis in ("families", "ns", "deltas", "algorithms", "scenarios", "seeds"):
            values = getattr(self, axis)
            if not values:
                raise ReproError("every sweep axis needs at least one value")
            seen: set[Any] = set()
            for value in values:
                if value in seen:
                    raise ReproError(
                        f"sweep {axis} must not repeat a value, got {value!r} twice"
                    )
                seen.add(value)

    def points(self) -> list[SweepPoint]:
        """The grid in its one canonical enumeration order."""
        out: list[SweepPoint] = []
        for family in self.families:
            for n in self.ns:
                for delta_spec in self.deltas:
                    for algorithm in self.algorithms:
                        for scenario in self.scenarios:
                            for seed in self.seeds:
                                out.append(SweepPoint(
                                    index=len(out),
                                    family=family,
                                    n=n,
                                    delta_spec=delta_spec,
                                    algorithm=algorithm,
                                    seed=seed,
                                    scenario=scenario,
                                ))
        return out

    def describe(self) -> dict[str, Any]:
        """JSON-able description (cache manifest, spec hashing)."""
        out = {
            "version": CACHE_FORMAT_VERSION,
            "name": self.name,
            "families": list(self.families),
            "ns": list(self.ns),
            "deltas": list(self.deltas),
            "algorithms": list(self.algorithms),
            "seeds": list(self.seeds),
            "preset": self.preset,
            "max_rounds": self.max_rounds,
        }
        if self.scenarios != ("none",):
            # Included only when the axis is used, so benign-world
            # specs keep their historical hash (and their caches).
            out["scenarios"] = list(self.scenarios)
        return out

    def spec_hash(self) -> str:
        """Content hash naming this spec's cache file (16 hex chars)."""
        return content_hash(self.describe())[:16]

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "SweepSpec":
        """Rebuild a spec from its :meth:`describe` payload.

        The inverse the sweep *service* transports specs with: a
        submitting client sends ``spec.describe()`` over the wire and
        broker and workers reconstruct the identical spec — same
        axes, same :meth:`spec_hash`, so content-addressed dedupe
        works across processes and hosts.  Raises
        :class:`ReproError` for unknown versions or malformed
        payloads (axis validation runs in ``__post_init__`` as
        usual).
        """
        if not isinstance(payload, dict):
            raise ReproError("sweep spec payload must be a JSON object")
        version = payload.get("version")
        if version != CACHE_FORMAT_VERSION:
            raise ReproError(
                f"sweep spec payload version {version!r} does not match "
                f"this build's format version {CACHE_FORMAT_VERSION}"
            )
        try:
            return cls(
                name=str(payload["name"]),
                families=tuple(payload["families"]),
                ns=tuple(payload["ns"]),
                deltas=tuple(payload["deltas"]),
                algorithms=tuple(payload["algorithms"]),
                seeds=tuple(payload["seeds"]),
                preset=str(payload["preset"]),
                max_rounds=payload.get("max_rounds"),
                scenarios=tuple(payload.get("scenarios", ("none",))),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ReproError(f"malformed sweep spec payload: {error}") from None


@dataclass(frozen=True)
class SweepResult:
    """Everything :func:`run_sweep` produced, in grid order."""

    spec: SweepSpec
    records: tuple[TrialRecord, ...]
    executed: int
    cached: int
    workers: int
    elapsed: float

    def write_jsonl(self, path: str | Path) -> Path:
        """Export the raw records (byte-identical across worker counts)."""
        return write_records_jsonl(self.records, path)

    def summary_table(self) -> Table:
        """One row per grid group, aggregated over seeds."""
        sink = _StreamSink(self.spec.points())
        for index, record in enumerate(self.records):
            sink.add(index, record)
        return _summary_table(self, sink.groups)


@dataclass(frozen=True)
class SweepStreamResult:
    """What a ``stream=True`` sweep returns: aggregates, not records.

    Records were folded into per-group
    :class:`~repro.experiments.harness.StreamSummary` aggregates as
    their batches arrived and then dropped, so resident memory stayed
    O(batch) (``max_resident`` is the high-water mark, asserted in
    tests).  The final summaries are *identical* to the non-streaming
    path's: :meth:`SweepResult.summary_table` folds its records
    through the same aggregates, and each group's summary does not
    depend on the order its records arrived in.  Raw records are
    available via the result cache when the sweep ran with one.
    """

    spec: SweepSpec
    groups: dict[tuple[str, int, str, str, str], StreamSummary]
    executed: int
    cached: int
    workers: int
    elapsed: float
    max_resident: int

    def summary_table(self) -> Table:
        """One row per grid group — the table the record-holding path prints."""
        return _summary_table(
            self, self.groups,
            f" (streaming: peak {self.max_resident} resident record(s))",
        )


def _summary_table(
    result: SweepResult | SweepStreamResult,
    groups: dict[tuple[str, int, str, str, str], StreamSummary],
    streaming: str = "",
) -> Table:
    """The sweep table both result types print: one row per group.

    The pooled note summarizes every group's met rounds at once, so
    it is as exact as the rows.
    """
    spec = result.spec
    table = Table(
        title=f"SWEEP {spec.name} — preset {spec.preset}",
        headers=[
            "family", "n", "delta rule", "delta", "algorithm", "scenario",
            "met", "mean rounds", "median rounds",
        ],
    )
    pooled: list[int] = []
    for (family, n, delta_spec, algorithm, scenario), group in groups.items():
        summary = group.summary()
        table.add_row(
            family, n, delta_spec, group.delta, algorithm, scenario,
            f"{group.met}/{group.total}",
            summary.mean if summary else float("nan"),
            summary.median if summary else float("nan"),
        )
        pooled.extend(group.rounds)
    if pooled:
        overall = summarize(pooled)
        table.add_note(
            f"all groups pooled: mean rounds {overall.mean:.1f} "
            f"[{overall.ci_low:.1f}, {overall.ci_high:.1f}] "
            f"over {overall.count} successful trials"
        )
    table.add_note(
        f"{result.executed} trials executed, {result.cached} served from cache, "
        f"{result.workers} worker(s), {result.elapsed:.1f}s wall clock{streaming}"
    )
    return table


# ----------------------------------------------------------------------
# Chunks: the unit of work on every path
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _ChunkTask:
    """Pending grid trials of one instance, run as one unit of work."""

    task_id: int
    family: str
    n: int
    delta_spec: str
    preset: str
    max_rounds: int | None
    trials: tuple[tuple[int, str, str, int], ...]  # (grid index, algorithm, scenario, seed)
    plan_handle: SharedPlanHandle | None = None  # None → the per-process memo


def _chunk_tasks(
    spec: SweepSpec,
    pending: Sequence[SweepPoint],
    batch_size: int,
    handle_for: Callable[[str, int, str], SharedPlanHandle | None] | None = None,
) -> Iterator[_ChunkTask]:
    """Cut pending points into per-instance chunks of ``batch_size`` trials.

    The one chunker of every sweep path: points are grouped by
    instance in enumeration order, and each instance's trials are
    split into chunks (the fabric sizes them to keep every worker
    busy; inline runs take whole instances, or capped batches when
    streaming).  Chunking never affects results, which are
    reassembled by grid index.  A generator, so the fabric's
    ``handle_for`` exports each instance's plan right before that
    instance's chunks go out.
    """
    grouped: dict[tuple[str, int, str], list[SweepPoint]] = {}
    for point in pending:
        grouped.setdefault(point.graph_key(), []).append(point)
    task_ids = itertools.count(1)
    for (family, n, delta_spec), points in grouped.items():
        handle = handle_for(family, n, delta_spec) if handle_for else None
        for start in range(0, len(points), batch_size):
            yield _ChunkTask(
                task_id=next(task_ids),
                family=family,
                n=n,
                delta_spec=delta_spec,
                preset=spec.preset,
                max_rounds=spec.max_rounds,
                trials=tuple(
                    (p.index, p.algorithm, p.scenario, p.seed)
                    for p in points[start:start + batch_size]
                ),
                plan_handle=handle,
            )


# ----------------------------------------------------------------------
# Worker-count policy
# ----------------------------------------------------------------------


def resolve_workers(workers: int | None) -> int:
    """Normalize a ``workers`` argument (``None``/``0`` → all cores)."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ReproError(f"workers must be >= 0 (0 = one per core), got {workers}")
    return int(workers)


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap, shares the loaded package) on Linux.

    macOS offers ``fork`` too, but forking after system frameworks
    load is documented as crash-prone there (CPython's own default
    moved to ``spawn``) — so anywhere but Linux we spawn, which only
    requires ``repro`` to be importable in the child.
    """
    if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


# ----------------------------------------------------------------------
# The persistent fabric: pool, plan arena, columnar transport
# ----------------------------------------------------------------------


#: Worker-side memo of attached shared plans, keyed by segment name.
#: Bounded: the oldest attachment is closed once the cap is reached
#: (only ever between tasks, so no in-flight plan is invalidated).
_ATTACHED_CAP = 32
_attached_plans: dict[str, Any] = {}


def _attached_instance(handle: SharedPlanHandle) -> tuple[StaticGraph, ExecutionPlan] | None:
    """Attach (or reuse) a shared plan in this worker; ``None`` on failure."""
    entry = _attached_plans.get(handle.name)
    if entry is None:
        while len(_attached_plans) >= _ATTACHED_CAP:
            _attached_plans.pop(next(iter(_attached_plans))).close()
        try:
            entry = attach_plan(handle)
        except Exception:
            return None  # segment gone or platform quirk → regenerate
        _attached_plans[handle.name] = entry
    return entry.graph, entry.plan


def _release_attached_plans() -> None:
    """Close every shared-plan mapping this process holds."""
    while _attached_plans:
        _, entry = _attached_plans.popitem()
        entry.close()


def _execute_chunk_task(task: _ChunkTask) -> tuple[tuple[int, ...], list[TrialRecord]]:
    """Run one grid chunk; returns (grid indices, records) in chunk order.

    The only grid executor: inline sweeps, fabric workers, and service
    hosts all run their chunks here.  The instance comes from the
    attached shared plan when the task carries a handle (no generator
    run in this process), falling back to the per-process memo
    otherwise.  Each run of consecutive same-algorithm, same-scenario
    trials takes the batched executor
    (:func:`~repro.experiments.harness.run_trials`, byte-identical to
    per-trial calls, lockstep kernels when eligible) so one engine
    serves the whole run.
    """
    instance = None
    if task.plan_handle is not None:
        instance = _attached_instance(task.plan_handle)
    if instance is None:
        instance = _instance_for(task.family, task.n, task.delta_spec)
    graph, plan = instance
    constants = CONSTANTS_PRESETS[task.preset]()
    indices: list[int] = []
    records: list[TrialRecord] = []
    trials = task.trials
    start = 0
    while start < len(trials):
        stop = start
        algorithm = trials[start][1]
        scenario = trials[start][2]
        while (
            stop < len(trials)
            and trials[stop][1] == algorithm
            and trials[stop][2] == scenario
        ):
            stop += 1
        seeds = [trials[i][3] for i in range(start, stop)]
        batch = run_trials(
            graph, algorithm, seeds,
            plan=plan, constants=constants, max_rounds=task.max_rounds,
            scenario=scenario,
        )
        indices.extend(trials[i][0] for i in range(start, stop))
        records.extend(batch)
        start = stop
    return tuple(indices), records


def _fabric_worker(task_queue, result_queue) -> None:
    """Worker loop: pull tasks until the ``None`` sentinel arrives.

    Tasks arrive pre-pickled (the parent serializes them itself so a
    pickling failure surfaces *there*, at submit time, instead of
    being dropped by a queue feeder thread).  Results travel as
    ``("ok", task_id, indices, batch)`` where the batch is the
    columnar blob of
    :func:`~repro.experiments.results_io.pack_record_batch` — exact
    for every record, because the harness refuses reports JSON would
    change.  Failures, that refusal included, come back as
    ``("error", task_id, formatted traceback)``.
    """
    while True:
        item = task_queue.get()
        if item is None:
            break
        task = pickle.loads(item)
        try:
            indices, records = _execute_chunk_task(task)
            result_queue.put(
                ("ok", task.task_id, indices, pack_record_batch(records))
            )
        except Exception:
            result_queue.put(("error", task.task_id, traceback.format_exc()))
    _release_attached_plans()


class _FabricPool:
    """A persistent set of workers around one dynamic task queue.

    Every worker pulls from the same queue, so load balances itself:
    a straggling chunk delays only its worker while the others drain
    the rest (the work *stealing* the static round-robin chunker could
    not do).  The pool survives across :func:`run_sweep` calls —
    worker-side plan attachments and instance memos stay warm — until
    :func:`shutdown_fabric`, a mismatched worker count, or interpreter
    exit.
    """

    def __init__(self, workers: int) -> None:
        context = _pool_context()
        # Start the resource tracker before forking, so every worker
        # shares the parent's: an attached segment's registration then
        # lands in the exporter's tracker (a no-op re-add) and the
        # exporter's unlink retires it, instead of each worker's own
        # tracker unlinking segments still in use when it exits.
        resource_tracker.ensure_running()
        self.workers = workers
        self.tasks = context.Queue()
        self.results = context.Queue()
        self.processes = [
            context.Process(
                target=_fabric_worker,
                args=(self.tasks, self.results),
                daemon=True,
            )
            for _ in range(workers)
        ]
        for process in self.processes:
            process.start()

    def alive(self) -> bool:
        return all(process.is_alive() for process in self.processes)

    def submit(self, task: _ChunkTask) -> None:
        """Serialize and enqueue one task.

        Pickling happens *here*, synchronously, so an unpicklable task
        raises at the call site — were it left to the queue's feeder
        thread, the failure would be printed and the message silently
        dropped, hanging :meth:`collect` forever.
        """
        self.tasks.put(pickle.dumps(task))

    def collect(
        self,
        pending_ids: set[int],
        on_result: Callable[[int, tuple[int, ...], list[TrialRecord]], None],
    ) -> None:
        """Drain results for ``pending_ids``, dispatching each to the callback.

        The callback receives ``(task_id, indices, records)``.  Raises
        :class:`ReproError` when a worker reports a failure or dies
        without reporting (the caller shuts the fabric down so no
        stale task or result survives into a later call).
        """
        while pending_ids:
            try:
                message = self.results.get(timeout=1.0)
            except _queue.Empty:
                if not self.alive():
                    raise ReproError(
                        "a sweep worker died without reporting a result"
                    ) from None
                continue
            if message[0] == "error":
                raise ReproError(
                    f"sweep worker failed:\n{message[2]}"
                )
            _, task_id, indices, batch = message
            pending_ids.discard(task_id)
            on_result(task_id, indices, unpack_record_batch(batch))

    def shutdown(self) -> None:
        """Stop the workers (sentinels first, terminate stragglers)."""
        for _ in self.processes:
            try:
                self.tasks.put_nowait(None)
            except Exception:  # pragma: no cover - queue already broken
                break
        for process in self.processes:
            process.join(timeout=2.0)
        for process in self.processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for channel in (self.tasks, self.results):
            channel.cancel_join_thread()
            channel.close()


class _PlanArena:
    """Parent-side store of exported plans, keyed by instance tag.

    ``handle_for`` compiles an instance's plan **once** (through the
    same per-process memo the workers' fallback uses) and exports it
    to shared memory; repeated sweeps over the same instances reuse
    the segment.  Bounded (64 exports): beyond the cap the oldest
    export is unlinked (attached workers keep their mappings until
    they close — POSIX frees the pages with the last detach).
    ``close`` unlinks everything; it runs on :func:`shutdown_fabric`
    and at interpreter exit, so segments never outlive the parent.
    """

    def __init__(self) -> None:
        self._shares: dict[tuple[str, int, str], PlanShare] = {}
        self._disabled = False

    def handle_for(self, family: str, n: int, delta_spec: str) -> SharedPlanHandle | None:
        if self._disabled or not shared_plans_available():
            return None
        tag = (family, n, delta_spec)
        share = self._shares.get(tag)
        if share is None:
            while len(self._shares) >= _PLAN_ARENA_CAP:
                self._shares.pop(next(iter(self._shares))).close()
            _, plan = _instance_for(family, n, delta_spec)
            try:
                share = PlanShare.export(plan)
            except (SchedulerError, OSError):
                # /dev/shm missing or full: fall back to per-worker
                # regeneration for the rest of this process's life.
                self._disabled = True
                return None
            self._shares[tag] = share
        return share.handle

    def close(self) -> None:
        while self._shares:
            _, share = self._shares.popitem()
            share.close()


_fabric_pool: _FabricPool | None = None
_plan_arena: _PlanArena | None = None

#: Serializes all fabric use (pool creation, task submission, result
#: collection, shutdown).  The pool, its queues, and the plan arena
#: are process-wide singletons — without the lock, two threads
#: sweeping concurrently would drain each other's results.  Reentrant
#: because a failing collect shuts the fabric down while holding it.
_fabric_lock = threading.RLock()


def _get_fabric(workers: int) -> tuple[_FabricPool, _PlanArena]:
    """The warm (pool, arena) pair; caller must hold ``_fabric_lock``.

    ``run_sweep(workers=N)`` gets a pool of exactly ``N``, restarting a
    mismatched one: the worker count is an explicit concurrency
    request.
    """
    global _fabric_pool, _plan_arena
    if _fabric_pool is not None:
        if _fabric_pool.workers != workers or not _fabric_pool.alive():
            shutdown_fabric()
    if _fabric_pool is None:
        _fabric_pool = _FabricPool(workers)
    if _plan_arena is None:
        _plan_arena = _PlanArena()
    return _fabric_pool, _plan_arena


def shutdown_fabric() -> None:
    """Stop the persistent pool and unlink every exported plan segment.

    Safe to call at any time (idempotent); registered with ``atexit``
    so a process that used the fabric never leaks worker processes or
    ``/dev/shm`` segments.  The next :func:`run_sweep` call simply
    warms a fresh pool.
    """
    global _fabric_pool, _plan_arena
    with _fabric_lock:
        pool, _fabric_pool = _fabric_pool, None
        arena, _plan_arena = _plan_arena, None
    if pool is not None:
        pool.shutdown()
    if arena is not None:
        arena.close()


atexit.register(shutdown_fabric)

#: Chunks per worker the fabric aims for — fine enough for stragglers
#: to balance, cheap because re-dispatch rebuilds no graph.
_FABRIC_CHUNKS_PER_WORKER = 8

#: Inline (workers=1) streaming batch cap: bounds resident records.
_STREAM_INLINE_BATCH = 64


def _fabric_batch_size(pending: int, workers: int) -> int:
    """Chunk size targeting ``_FABRIC_CHUNKS_PER_WORKER`` per worker."""
    return max(1, -(-pending // (workers * _FABRIC_CHUNKS_PER_WORKER)))


def _run_points(
    spec: SweepSpec,
    pending: Sequence[SweepPoint],
    workers: int,
    consume: Callable[[Iterable[tuple[int, TrialRecord]]], None],
    stream: bool = False,
) -> None:
    """Execute ``pending``, feeding ``consume`` each chunk's (index, record) pairs.

    Every path cuts the points with :func:`_chunk_tasks` and runs each
    chunk through :func:`_execute_chunk_task`.  One worker (or nothing
    pending) runs the chunks inline, a whole instance at a time —
    ``_STREAM_INLINE_BATCH`` trials at a time when ``stream`` bounds
    resident records.  More workers enqueue them on the warm fabric
    instance by instance: each instance's plan is compiled and
    exported right before its chunks go out, so workers start
    executing the first instance while the parent is still exporting
    later ones.  Any fabric failure (worker error, death, interrupt)
    tears the whole fabric down before propagating, so no stale task
    or result can leak into a later call.  The fabric lock is held
    throughout: concurrent sweeps from other threads serialize rather
    than cross-reading one shared result queue.
    """
    if workers <= 1 or not pending:
        batch_size = _STREAM_INLINE_BATCH if stream else max(1, len(pending))
        for task in _chunk_tasks(spec, pending, batch_size):
            indices, records = _execute_chunk_task(task)
            consume(zip(indices, records))
        return
    with _fabric_lock:
        pool, arena = _get_fabric(workers)
        try:
            batch_size = _fabric_batch_size(len(pending), workers)
            pending_ids: set[int] = set()
            for task in _chunk_tasks(spec, pending, batch_size, arena.handle_for):
                pool.submit(task)
                pending_ids.add(task.task_id)

            def on_result(
                task_id: int, indices: tuple[int, ...], records: list[TrialRecord]
            ) -> None:
                consume(zip(indices, records))

            pool.collect(pending_ids, on_result)
        except BaseException:
            shutdown_fabric()
            raise


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


class _StreamSink:
    """Folds records into per-group aggregates and drops them.

    Streaming sweeps fold each arriving batch through it, and a held
    :class:`SweepResult` folds its records through it to print its
    table.  Groups are pre-created in canonical grid order so the
    table rows come out in grid order, whichever worker finished
    first.
    """

    def __init__(self, points: Sequence[SweepPoint]) -> None:
        self.groups: dict[tuple[str, int, str, str, str], StreamSummary] = {}
        self._group_of: list[tuple[str, int, str, str, str]] = []
        for point in points:
            key = (point.family, point.n, point.delta_spec, point.algorithm,
                   point.scenario)
            self.groups.setdefault(key, StreamSummary())
            self._group_of.append(key)

    def add(self, index: int, record: TrialRecord) -> None:
        self.groups[self._group_of[index]].add(record)


def open_cache(
    spec: SweepSpec, cache_dir: str | Path, *, warehouse: bool = False
) -> ResultCache | WarehouseCache:
    """Open ``spec``'s result cache under ``cache_dir``, indexed by grid point.

    Both kinds, named by the spec hash, read and write ``(grid index,
    record)`` pairs through ``iter_indexed`` and ``append_indexed``:
    the JSONL cache keeps the index in each line's ``"point"``, a
    warehouse (``warehouse=True``) in its ``_point`` column.
    :func:`run_sweep` and the service broker open their caches here.
    """
    store = WarehouseCache if warehouse else ResultCache
    return store(cache_dir, spec.spec_hash(), spec_payload=spec.describe())


def _resume_pairs(
    cache: ResultCache | WarehouseCache, points: Sequence[SweepPoint]
) -> Iterator[tuple[int, TrialRecord]]:
    """The ``(grid index, record)`` pairs :func:`run_sweep` and the broker resume.

    Skips rows outside the grid and keeps the first row per index (a
    repeat is a deterministic re-run).  A record whose algorithm, n or
    seed is not its grid point's raises :class:`ReproError`.
    """
    seen: set[int] = set()
    for index, record in cache.iter_indexed():
        if not 0 <= index < len(points) or index in seen:
            continue
        point = points[index]
        if (record.algorithm, record.n, record.seed) != (
            point.algorithm, point.n, point.seed
        ):
            raise ReproError(
                f"{cache.path}: grid point {index} is {point.algorithm} at "
                f"n={point.n}, seed {point.seed}, but its stored record is "
                f"{record.algorithm} at n={record.n}, seed {record.seed}; delete "
                "it, or rerun with `--no-resume` (`repro sweep` or `repro submit`), "
                "to recompute the sweep"
            )
        seen.add(index)
        yield index, record


def run_sweep(
    spec: SweepSpec,
    workers: int | None = None,
    cache_dir: str | Path | None = None,
    resume: bool = True,
    progress: Callable[[int, int], None] | None = None,
    *,
    stream: bool = False,
    warehouse: bool = False,
) -> SweepResult | SweepStreamResult:
    """Run (or finish) a sweep; records in grid order, or streamed summaries.

    Parameters
    ----------
    spec:
        The grid to run.
    workers:
        Process count; ``None`` or ``0`` use every core, ``1`` runs
        inline (no pool), more run on the persistent zero-copy
        fabric.  Both paths cut and execute chunks the same way and
        the records are identical — parallelism only changes the wall
        clock.
    cache_dir:
        When given, completed trials are streamed into the spec's
        result cache there (:func:`open_cache`, one record per grid
        index) and later runs of the same spec reuse them.
    resume:
        With a cache: load cached trials first and run only the rest.
        ``False`` discards the cache file and recomputes everything.
    progress:
        Optional ``callback(done, total)`` fired after every completed
        chunk — the CLI uses it for a stderr ticker.
    stream:
        ``True`` folds each arriving batch into per-group aggregates
        and drops the records (O(batch) resident memory), returning a
        :class:`SweepStreamResult` with summaries identical to the
        default mode's; pair with ``cache_dir`` when the raw records
        must also land on disk.
    warehouse:
        Persist records into a columnar warehouse directory
        (:mod:`repro.experiments.warehouse`) instead of the JSONL
        cache — requires ``cache_dir``.  Resume semantics are
        unchanged: both caches are read and written by grid index
        (:func:`open_cache`).
    """
    points = spec.points()
    total = len(points)
    worker_count = resolve_workers(workers)
    if warehouse and cache_dir is None:
        raise WarehouseError("run_sweep(warehouse=True) requires cache_dir=")

    # Held records land in ``done``; streamed ones fold into ``sink``.
    done: dict[int, TrialRecord] = {}
    sink = _StreamSink(points) if stream else None
    keep = done.__setitem__ if sink is None else sink.add
    started = time.perf_counter()
    cache = (
        None if cache_dir is None
        else open_cache(spec, cache_dir, warehouse=warehouse)
    )
    have: set[int] = set()
    if cache is not None:
        if resume:
            for index, record in _resume_pairs(cache, points):
                have.add(index)
                keep(index, record)
        else:
            cache.reset()
    cached_hits = len(have)
    pending = [p for p in points if p.index not in have]
    finished = cached_hits
    max_resident = 1 if cached_hits else 0  # cached records come one at a time

    def consume(results: Iterable[tuple[int, TrialRecord]]) -> None:
        nonlocal finished, max_resident
        batch = list(results)
        if cache is not None:
            cache.append_indexed(batch)
        for index, record in batch:
            keep(index, record)
        finished += len(batch)
        max_resident = max(max_resident, len(batch))
        if progress is not None:
            progress(finished, total)

    try:
        _run_points(spec, pending, worker_count, consume, stream=stream)
    finally:
        if cache is not None:
            cache.close()

    elapsed = time.perf_counter() - started
    if sink is not None:
        return SweepStreamResult(
            spec=spec,
            groups=sink.groups,
            executed=total - cached_hits,
            cached=cached_hits,
            workers=worker_count,
            elapsed=elapsed,
            max_resident=max_resident,
        )
    records = tuple(done[point.index] for point in points)
    return SweepResult(
        spec=spec,
        records=records,
        executed=total - cached_hits,
        cached=cached_hits,
        workers=worker_count,
        elapsed=elapsed,
    )
