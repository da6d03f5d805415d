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
  later :func:`run_sweep` / :func:`map_trials` call) pulls chunks
  from a dynamic work queue, so stragglers steal work instead of the
  grid being dealt out statically up front;
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
  — and cache writes land via
  :meth:`~repro.experiments.cache.ResultCache.append_many`, one flush
  per batch;
* :func:`run_sweep` reassembles records in grid order, so
  ``workers=1`` and ``workers=8`` produce byte-identical JSON lines;
  ``stream=True`` instead folds each arriving batch into per-group
  :class:`~repro.experiments.harness.StreamSummary` aggregates and
  drops the records, keeping resident memory O(batch) for grids too
  large to hold;
* an optional content-addressed cache (:mod:`repro.experiments.cache`)
  makes re-runs and interrupted sweeps resume instead of recompute.

Existing callers opt in without code changes: set the
``REPRO_PARALLEL_WORKERS`` environment variable (or call
:func:`configure`) and :func:`repro.experiments.harness.repeat_trials`
fans its seeds out through :func:`map_trials` transparently.
``docs/performance.md`` documents the fabric's lifetimes and layouts.
"""

from __future__ import annotations

import atexit
import itertools
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

from repro.analysis.stats import PartialSummary, merge_partial_summaries, summarize
from repro.core.constants import Constants
from repro.core.api import ALGORITHMS
from repro.errors import ReproError, SchedulerError, WarehouseError
from repro.experiments.cache import CACHE_FORMAT_VERSION, ResultCache, content_hash
from repro.experiments.warehouse import WarehouseCache
from repro.experiments.harness import (
    _INT64_MAX,
    _INT64_MIN,
    StreamSummary,
    TrialRecord,
    run_seeds,
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
    "profile_setup",
    "bounded_cache_size",
    "resolve_delta",
    "run_sweep",
    "map_trials",
    "configure",
    "ambient_workers",
    "resolve_workers",
    "shutdown_fabric",
]

#: Environment variable that disables shared-memory plan transport
#: (``0``/``off``) without touching the persistent pool itself.
SHM_ENV_VAR = "REPRO_SWEEP_SHM"

#: Environment variable consulted by :func:`ambient_workers`.
WORKERS_ENV_VAR = "REPRO_PARALLEL_WORKERS"

#: Environment variable bounding the per-process instance memo
#: (``_instance_for``); read once at import.  Default 32, clamped ≥ 1.
INSTANCE_CACHE_ENV_VAR = "REPRO_INSTANCE_CACHE"
DEFAULT_INSTANCE_CACHE = 32

#: Environment variable bounding the parent-side plan arena
#: (exported shared-memory segments); read when the arena is created.
#: Default 64, clamped ≥ 1.
PLAN_ARENA_ENV_VAR = "REPRO_PLAN_ARENA"
DEFAULT_PLAN_ARENA = 64


def bounded_cache_size(variable: str, default: int) -> int:
    """Resolve a cache-bound environment variable, clamped to ``>= 1``.

    An unset or blank variable yields ``default``; a non-integer value
    raises :class:`ReproError` (silently shrinking a cache on a typo
    would be a very quiet way to lose throughput).
    """
    raw = os.environ.get(variable, "").strip()
    if not raw:
        return int(default)
    try:
        return max(1, int(raw))
    except ValueError:
        raise ReproError(f"{variable}={raw!r} is not an integer") from None

#: Graph families a sweep can range over: ``name -> builder(n, delta, rng)``.
GRAPH_FAMILIES: dict[str, Callable[[int, int, random.Random], StaticGraph]] = {
    "er-min-degree": random_graph_with_min_degree,
    "geometric": random_geometric_dense_graph,
    "regular": random_regular_graph,
    "powerlaw": powerlaw_graph_with_floor,
    "complete": lambda n, delta, rng: complete_graph(n),
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
    — the convention the registry experiments use throughout.
    """
    spec = delta_spec.strip()
    if spec.startswith("n^"):
        try:
            exponent = float(spec[2:])
        except ValueError:
            raise ReproError(f"bad delta rule {delta_spec!r}: want 'n^<float>'") from None
        return max(8, round(n ** exponent))
    try:
        return int(spec)
    except ValueError:
        raise ReproError(
            f"bad delta rule {delta_spec!r}: want an integer or 'n^<float>'"
        ) from None


@lru_cache(maxsize=bounded_cache_size(INSTANCE_CACHE_ENV_VAR, DEFAULT_INSTANCE_CACHE))
def _instance_for(family: str, n: int, delta_spec: str) -> tuple[StaticGraph, ExecutionPlan]:
    """Per-process memo of one sweep instance and its compiled plan.

    Keyed by the generator tag alone — the same key that seeds the
    generator RNG — so every chunk a worker handles for the same
    instance reuses one graph object and one
    :class:`~repro.runtime.plan.ExecutionPlan` instead of regenerating
    both.  The cache is bounded (default ``32`` entries, overridable
    via ``REPRO_INSTANCE_CACHE``, clamped ≥ 1 — a worker rarely
    touches more than a couple of instances at a time) and holds graph
    and plan together: a plan is only valid for the exact graph object
    it was compiled from, so they must be evicted as one.
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
        if _shm_enabled():
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
    why its hash names the cache file.
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
            resolve_delta(delta_spec, n)  # raises on malformed rules
        if not (self.families and self.ns and self.deltas
                and self.algorithms and self.scenarios and self.seeds):
            raise ReproError("every sweep axis needs at least one value")

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
            max_rounds = payload.get("max_rounds")
            return cls(
                name=str(payload["name"]),
                families=tuple(payload["families"]),
                ns=tuple(payload["ns"]),
                deltas=tuple(payload["deltas"]),
                algorithms=tuple(payload["algorithms"]),
                seeds=tuple(payload["seeds"]),
                preset=str(payload["preset"]),
                max_rounds=None if max_rounds is None else int(max_rounds),
                scenarios=tuple(payload.get("scenarios", ("none",))),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ReproError(f"malformed sweep spec payload: {error}") from None

    def point_key(self, point: SweepPoint) -> str:
        """Content hash of one trial (what the cache is keyed by)."""
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "family": point.family,
            "n": point.n,
            "delta": point.delta_spec,
            "algorithm": point.algorithm,
            "seed": point.seed,
            "preset": self.preset,
            "max_rounds": self.max_rounds,
        }
        if point.scenario != "none":
            payload["scenario"] = point.scenario
        return content_hash(payload)


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

    def write_warehouse(self, path: str | Path) -> Path:
        """Export the raw records as a columnar warehouse directory.

        The columnar twin of :meth:`write_jsonl`: rows land in grid
        order, so ``repro report <dir>`` prints the same table as the
        JSONL export, an order of magnitude faster on big sweeps.
        """
        from repro.experiments.warehouse import write_records_warehouse

        return write_records_warehouse(
            self.records, path, spec_payload=self.spec.describe()
        )

    def grouped(self) -> dict[tuple[str, int, str, str, str], list[TrialRecord]]:
        """Records grouped by (family, n, delta rule, algorithm, scenario)."""
        points = self.spec.points()
        groups: dict[tuple[str, int, str, str, str], list[TrialRecord]] = {}
        for point, record in zip(points, self.records):
            key = (point.family, point.n, point.delta_spec, point.algorithm,
                   point.scenario)
            groups.setdefault(key, []).append(record)
        return groups

    def rounds_sketch(self) -> PartialSummary | None:
        """Overall successful-rounds sketch, merged from per-group partials.

        Each (family, n, δ, algorithm) group contributes one
        :class:`~repro.analysis.stats.PartialSummary`; the fold is the
        same merge a distributed aggregator would do with partial
        results instead of raw records.  ``None`` when no trial met.
        """
        parts = []
        for records in self.grouped().values():
            rounds = [r.rounds for r in records if r.met]
            if rounds:
                parts.append(PartialSummary.of(rounds))
        return merge_partial_summaries(parts) if parts else None

    def summary_table(self) -> Table:
        """One row per grid point family, aggregated over seeds."""
        table = Table(
            title=f"SWEEP {self.spec.name} — preset {self.spec.preset}",
            headers=[
                "family", "n", "delta rule", "delta", "algorithm", "scenario",
                "met", "mean rounds", "median rounds",
            ],
        )
        for (family, n, delta_spec, algorithm, scenario), records in self.grouped().items():
            met = [r for r in records if r.met]
            rounds = [r.rounds for r in met]
            summary = summarize(rounds) if rounds else None
            table.add_row(
                family, n, delta_spec, records[0].delta, algorithm, scenario,
                f"{len(met)}/{len(records)}",
                summary.mean if summary else float("nan"),
                summary.median if summary else float("nan"),
            )
        sketch = self.rounds_sketch()
        if sketch is not None:
            low, high = sketch.confidence_interval()
            table.add_note(
                f"all groups pooled: mean rounds {sketch.mean:.1f} "
                f"[{low:.1f}, {high:.1f}] over {sketch.count} successful trials"
            )
        table.add_note(
            f"{self.executed} trials executed, {self.cached} served from cache, "
            f"{self.workers} worker(s), {self.elapsed:.1f}s wall clock"
        )
        return table


@dataclass(frozen=True)
class SweepStreamResult:
    """What a ``stream=True`` sweep returns: aggregates, not records.

    Records were folded into per-group
    :class:`~repro.experiments.harness.StreamSummary` aggregates as
    their batches arrived and then dropped, so resident memory stayed
    O(batch) (``max_resident`` is the high-water mark, asserted in
    tests).  The final summaries are *identical* to the non-streaming
    path's: each group keeps the successful trials' rounds as compact
    int columns and restores canonical grid order before summarizing,
    so means, medians, and the pooled sketch match
    :meth:`SweepResult.summary_table` bit for bit.  Raw records are
    available via the result cache when the sweep ran with one.
    """

    spec: SweepSpec
    groups: dict[tuple[str, int, str, str, str], StreamSummary]
    executed: int
    cached: int
    workers: int
    elapsed: float
    max_resident: int

    def rounds_sketch(self) -> PartialSummary | None:
        """Merged successful-rounds sketch (as :meth:`SweepResult.rounds_sketch`)."""
        parts = [
            sketch
            for group in self.groups.values()
            if (sketch := group.sketch()) is not None
        ]
        return merge_partial_summaries(parts) if parts else None

    def summary_table(self) -> Table:
        """One row per grid group — same table the record-holding path prints."""
        table = Table(
            title=f"SWEEP {self.spec.name} — preset {self.spec.preset}",
            headers=[
                "family", "n", "delta rule", "delta", "algorithm", "scenario",
                "met", "mean rounds", "median rounds",
            ],
        )
        for (family, n, delta_spec, algorithm, scenario), group in self.groups.items():
            summary = group.summary()
            table.add_row(
                family, n, delta_spec, group.delta, algorithm, scenario,
                f"{group.met}/{group.total}",
                summary.mean if summary else float("nan"),
                summary.median if summary else float("nan"),
            )
        sketch = self.rounds_sketch()
        if sketch is not None:
            low, high = sketch.confidence_interval()
            table.add_note(
                f"all groups pooled: mean rounds {sketch.mean:.1f} "
                f"[{low:.1f}, {high:.1f}] over {sketch.count} successful trials"
            )
        table.add_note(
            f"{self.executed} trials executed, {self.cached} served from cache, "
            f"{self.workers} worker(s), {self.elapsed:.1f}s wall clock "
            f"(streaming: peak {self.max_resident} resident record(s))"
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

_configured_workers: int | None = None


def configure(workers: int | None) -> None:
    """Set (or with ``None`` clear) the process-wide default workers.

    This is the programmatic twin of ``REPRO_PARALLEL_WORKERS``: once
    set above 1 (or to 0 = one per core), every
    :func:`repro.experiments.harness.repeat_trials` call fans out
    without its callers changing.
    """
    global _configured_workers
    _configured_workers = None if workers is None else int(workers)


def ambient_workers() -> int:
    """The opt-in default worker count (1 means stay serial).

    Precedence: :func:`configure` > ``REPRO_PARALLEL_WORKERS`` > 1.
    A value of 0 means one worker per core, as everywhere in the
    engine; the serial default keeps library behaviour unchanged
    unless a caller or the environment explicitly opts in.
    """
    if _configured_workers is not None:
        return resolve_workers(_configured_workers)
    env = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if env:
        try:
            return resolve_workers(int(env))
        except ValueError:
            raise ReproError(
                f"{WORKERS_ENV_VAR}={env!r} is not an integer"
            ) from None
    return 1


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


@dataclass(frozen=True)
class _MapTask:
    """One ``map_trials`` seed batch for a fabric worker."""

    task_id: int
    graph: StaticGraph
    algorithm: str
    seeds: tuple[int, ...]
    kwargs: dict


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


def _execute_map_task(task: _MapTask) -> tuple[tuple[int, ...], list[TrialRecord]]:
    """Run one ``map_trials`` seed batch (same routing as the serial path)."""
    records = run_seeds(task.graph, task.algorithm, list(task.seeds), **task.kwargs)
    return tuple(range(len(records))), records


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
            if isinstance(task, _ChunkTask):
                indices, records = _execute_chunk_task(task)
            else:
                indices, records = _execute_map_task(task)
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
    not do).  The pool survives across :func:`run_sweep` /
    :func:`map_trials` calls — worker-side plan attachments and
    instance memos stay warm — until :func:`shutdown_fabric`, a
    mismatched worker count, or interpreter exit.
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

    def submit(self, task: "_ChunkTask | _MapTask") -> None:
        """Serialize and enqueue one task.

        Pickling happens *here*, synchronously, so an unpicklable task
        raises at the call site — were it left to the queue's feeder
        thread, the failure would be printed and the message silently
        dropped, hanging :meth:`collect` forever.
        """
        self.submit_pickled(pickle.dumps(task))

    def submit_pickled(self, payload: bytes) -> None:
        """Enqueue an already-serialized task (see :meth:`submit`)."""
        self.tasks.put(payload)

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
    the segment.  Bounded (default ``64`` exports, overridable via
    ``REPRO_PLAN_ARENA``, clamped ≥ 1): beyond the cap the oldest
    export is unlinked (attached workers keep their mappings until
    they close — POSIX frees the pages with the last detach).
    ``close`` unlinks everything; it runs on :func:`shutdown_fabric`
    and at interpreter exit, so segments never outlive the parent.
    """

    def __init__(self) -> None:
        self._shares: dict[tuple[str, int, str], PlanShare] = {}
        self._disabled = False
        self.cap = bounded_cache_size(PLAN_ARENA_ENV_VAR, DEFAULT_PLAN_ARENA)

    def handle_for(self, family: str, n: int, delta_spec: str) -> SharedPlanHandle | None:
        if self._disabled or not _shm_enabled():
            return None
        tag = (family, n, delta_spec)
        share = self._shares.get(tag)
        if share is None:
            while len(self._shares) >= self.cap:
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


def _shm_enabled() -> bool:
    """Shared-plan transport toggle (env override, platform support)."""
    if os.environ.get(SHM_ENV_VAR, "").strip().lower() in {"0", "off", "no"}:
        return False
    return shared_plans_available()


_fabric_pool: _FabricPool | None = None
_plan_arena: _PlanArena | None = None

#: Serializes all fabric use (pool creation, task submission, result
#: collection, shutdown).  The pool, its queues, and the plan arena
#: are process-wide singletons — without the lock, two threads
#: sweeping concurrently would drain each other's results.  Reentrant
#: because a failing collect shuts the fabric down while holding it.
_fabric_lock = threading.RLock()


def _get_fabric(workers: int, allow_larger: bool = False) -> tuple[_FabricPool, _PlanArena]:
    """The warm (pool, arena) pair; caller must hold ``_fabric_lock``.

    An explicit ``run_sweep(workers=N)`` gets a pool of exactly ``N``
    (restarting a mismatched one — the worker count is an explicit
    concurrency request).  ``allow_larger`` callers (``map_trials``,
    whose count is merely clamped by the seed count) reuse any warm
    pool of at least that size instead of tearing it down: they limit
    concurrency by submitting that many tasks, so idle workers stay
    idle and the warm state survives.
    """
    global _fabric_pool, _plan_arena
    if _fabric_pool is not None:
        acceptable = (
            _fabric_pool.workers >= workers
            if allow_larger
            else _fabric_pool.workers == workers
        )
        if not acceptable or not _fabric_pool.alive():
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
    ``/dev/shm`` segments.  The next :func:`run_sweep` /
    :func:`map_trials` call simply warms a fresh pool.
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


class _RecordSink:
    """Collects every record for grid-order assembly (the default mode)."""

    def __init__(self) -> None:
        self.done: dict[int, TrialRecord] = {}

    def add(self, index: int, record: TrialRecord) -> None:
        self.done[index] = record

    def count(self) -> int:
        return len(self.done)

    def end_batch(self, size: int) -> None:  # symmetric with _StreamSink
        pass


class _CountSink:
    """Drops records immediately (warehouse-backed streaming).

    When a streaming sweep persists into a warehouse, records do not
    need to be folded as they arrive: the group aggregates are rebuilt
    at the end with one fused query over the persisted columns
    (:func:`_warehouse_stream_groups`).  The sink only keeps the
    progress counter and the resident high-water mark.
    """

    def __init__(self) -> None:
        self._count = 0
        self.max_resident = 0

    def add(self, index: int, record: TrialRecord) -> None:
        self._count += 1

    def count(self) -> int:
        return self._count

    def end_batch(self, size: int) -> None:
        if size > self.max_resident:
            self.max_resident = size


class _StreamSink:
    """Folds records into per-group aggregates and drops them (streaming).

    Groups are pre-created in canonical grid order so the final table
    rows come out in exactly the order the record-holding path prints,
    regardless of which worker finished first.
    """

    def __init__(self, points: Sequence[SweepPoint]) -> None:
        self.groups: dict[tuple[str, int, str, str, str], StreamSummary] = {}
        self._group_of: list[tuple[str, int, str, str, str]] = []
        for point in points:
            key = (point.family, point.n, point.delta_spec, point.algorithm,
                   point.scenario)
            self.groups.setdefault(key, StreamSummary())
            self._group_of.append(key)
        self._count = 0
        self.max_resident = 0

    def add(self, index: int, record: TrialRecord) -> None:
        self.groups[self._group_of[index]].add(record, order=index)
        self._count += 1

    def count(self) -> int:
        return self._count

    def end_batch(self, size: int) -> None:
        if size > self.max_resident:
            self.max_resident = size


def _warehouse_stream_groups(
    spec: SweepSpec,
    points: Sequence[SweepPoint],
    warehouse_path: Path,
) -> dict[tuple[str, int, str, str, str], StreamSummary]:
    """Rebuild streaming group summaries with one fused warehouse query.

    The grid iterates seeds innermost, so ``_point // len(seeds)`` is
    the ordinal of a record's (family, n, δ, algorithm, scenario)
    group; one ``group_by`` over that key computes every group's
    totals, met counts, and the met trials' ``(_point, rounds)``
    columns in a single pass.  The parts feed
    :meth:`StreamSummary._from_parts`, whose canonical-order sort makes
    the result bit-identical to the record-by-record fold — groups are
    pre-created in grid order so table rows keep the canonical order
    however the warehouse rows arrived.
    """
    from repro.experiments import query

    seeds = max(1, len(spec.seeds))
    frame = (
        query.scan(warehouse_path)
        .group_by((query.col("_point") // seeds).alias("group"))
        .agg(
            total=query.count(),
            met=query.sum_("met"),
            delta=query.first("delta"),
            orders=query.values("_point", where=query.col("met")),
            rounds=query.values("rounds", where=query.col("met")),
        )
        .collect()
    )
    groups: dict[tuple[str, int, str, str, str], StreamSummary] = {}
    for point in points:
        key = (point.family, point.n, point.delta_spec, point.algorithm,
               point.scenario)
        groups.setdefault(key, StreamSummary())
    for row in frame.iter_rows():
        point = points[row["group"] * seeds]
        key = (point.family, point.n, point.delta_spec, point.algorithm,
               point.scenario)
        existing = groups[key]
        if existing.total:
            # Duplicate axis values map two grid ordinals onto one
            # group; merge like the fold would.
            existing.total += row["total"]
            existing.met += row["met"]
            existing._orders.extend(row["orders"])
            existing._rounds.extend(row["rounds"])
        else:
            groups[key] = StreamSummary._from_parts(
                row["total"], row["met"], row["delta"],
                row["orders"], row["rounds"],
            )
    return groups


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
        When given, completed trials are streamed into a
        content-addressed cache there and later runs of the same spec
        reuse them (see :mod:`repro.experiments.cache`).
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
        unchanged (the warehouse's ``_point`` column replaces the
        content-hash keys), and with ``stream=True`` the final group
        summaries are rebuilt by one fused query over the persisted
        columns instead of a record-by-record fold.
    """
    points = spec.points()
    total = len(points)
    worker_count = resolve_workers(workers)
    if warehouse and cache_dir is None:
        raise WarehouseError("run_sweep(warehouse=True) requires cache_dir=")

    sink: _RecordSink | _StreamSink | _CountSink
    if stream:
        sink = _CountSink() if warehouse else _StreamSink(points)
    else:
        sink = _RecordSink()
    cache: ResultCache | WarehouseCache | None = None
    cached_hits = 0
    started = time.perf_counter()
    have: set[int] = set()
    if cache_dir is not None:
        if warehouse:
            cache = WarehouseCache(
                cache_dir, spec.spec_hash(), spec_payload=spec.describe()
            )
        else:
            cache = ResultCache(
                cache_dir, spec.spec_hash(), spec_payload=spec.describe()
            )
        if resume:
            if warehouse:
                cached_pairs: Iterable[tuple[int | None, TrialRecord]] = (
                    (index if 0 <= index < total else None, record)
                    for index, record in cache.iter_indexed()
                )
            else:
                index_of_key = {spec.point_key(p): p.index for p in points}
                cached_pairs = (
                    (index_of_key.get(key), record)
                    for key, record in cache.iter_records()
                )
            for index, record in cached_pairs:
                if index is not None and index not in have:
                    have.add(index)
                    sink.add(index, record)
                    sink.end_batch(1)
        else:
            cache.reset()
    cached_hits = len(have)

    pending = [p for p in points if p.index not in have]
    key_of = (
        {p.index: spec.point_key(p) for p in pending}
        if cache is not None and not warehouse
        else {}
    )

    def consume(results: Iterable[tuple[int, TrialRecord]]) -> None:
        batch = list(results)
        if isinstance(cache, WarehouseCache):
            cache.append_indexed(batch)
        elif cache is not None:
            cache.append_many((key_of[index], record) for index, record in batch)
        for index, record in batch:
            sink.add(index, record)
        sink.end_batch(len(batch))
        if progress is not None:
            progress(sink.count(), total)

    try:
        _run_points(spec, pending, worker_count, consume, stream=stream)
    finally:
        if cache is not None:
            cache.close()

    elapsed = time.perf_counter() - started
    if stream:
        assert isinstance(sink, (_StreamSink, _CountSink))
        if isinstance(sink, _CountSink):
            assert isinstance(cache, WarehouseCache)
            groups = _warehouse_stream_groups(spec, points, cache.path)
        else:
            groups = sink.groups
        return SweepStreamResult(
            spec=spec,
            groups=groups,
            executed=total - cached_hits,
            cached=cached_hits,
            workers=worker_count,
            elapsed=elapsed,
            max_resident=sink.max_resident,
        )
    assert isinstance(sink, _RecordSink)
    records = tuple(sink.done[point.index] for point in points)
    return SweepResult(
        spec=spec,
        records=records,
        executed=total - cached_hits,
        cached=cached_hits,
        workers=worker_count,
        elapsed=elapsed,
    )


# ----------------------------------------------------------------------
# Drop-in fan-out for the serial harness
# ----------------------------------------------------------------------


#: Per-class memo of the graph picklability probe (see
#: :func:`_graph_transportable`).  Instances of one class share their
#: transportability in practice; a class whose instances genuinely
#: differ can still opt out by raising in ``__reduce__`` — the actual
#: transport failure then falls back per call.
_graph_probe_cache: dict[type, bool] = {}


def _graph_transportable(graph: StaticGraph) -> bool:
    """Whether ``graph`` can cross a process boundary — probed cheaply.

    The old probe pickled the *entire* graph (an O(m) serialization)
    on every ``map_trials`` call just to test transportability.
    :class:`StaticGraph` itself is always picklable, so the common
    case is now a type check; unknown subclasses are probed once and
    memoized per class.
    """
    cls = type(graph)
    if cls is StaticGraph:
        return True
    cached = _graph_probe_cache.get(cls)
    if cached is None:
        try:
            pickle.dumps(graph)
            cached = True
        except Exception:
            cached = False
        _graph_probe_cache[cls] = cached
    return cached


def _kwargs_transportable(kwargs: dict[str, Any]) -> bool:
    """Probe the (small) keyword arguments — cheap relative to a graph."""
    try:
        pickle.dumps(kwargs)
        return True
    except Exception:
        return False


def map_trials(
    graph: StaticGraph,
    algorithm: str,
    seeds: Sequence[int],
    workers: int,
    **kwargs: Any,
) -> list[TrialRecord]:
    """Parallel twin of the ``repeat_trials`` loop, same return value.

    The seed list is dealt round-robin into one batch per worker
    (each trial is independently seeded, so batch composition does
    not change any record), executed on the same persistent fabric
    pool the sweep engine uses (so repeated calls share warm
    workers), and results are reassembled in seed order.  Arguments
    that cannot cross a process boundary (unpicklable graph subclass
    or kwargs) fall back to the serial loop rather than failing —
    probed cheaply up front (type check plus a per-class memo; the
    graph itself is no longer serialized just to test the water).
    A caller-supplied ``plan`` never crosses the boundary: plans are
    identity-bound to the parent's graph object, so each worker batch
    recompiles its own (the records are identical either way).
    """
    seeds = [int(s) for s in seeds]
    # What crosses the boundary: everything but a caller-supplied plan.
    shipped = {key: value for key, value in kwargs.items() if key != "plan"}
    worker_count = min(resolve_workers(workers), len(seeds))
    if worker_count > 1 and not (
        _graph_transportable(graph) and _kwargs_transportable(shipped)
    ):
        worker_count = 1
    if worker_count <= 1:
        return run_seeds(graph, algorithm, seeds, **kwargs)
    batches: list[list[int]] = [[] for _ in range(worker_count)]
    for position in range(len(seeds)):
        batches[position % worker_count].append(position)
    by_position: dict[int, TrialRecord] = {}
    with _fabric_lock:
        pool, _ = _get_fabric(worker_count, allow_larger=True)
        # Serialize every task *before* submitting any: the per-class
        # probe above is only a heuristic, and an instance that turns
        # out unpicklable after all must degrade to the serial loop,
        # not strand half a fan-out on the queue.
        try:
            payloads = []
            for task_id, batch in enumerate(batches):
                task = _MapTask(
                    task_id=task_id,
                    graph=graph,
                    algorithm=algorithm,
                    seeds=tuple(seeds[i] for i in batch),
                    kwargs=shipped,
                )
                payloads.append((pickle.dumps(task), task.task_id, batch))
        except Exception:
            payloads = None
        if payloads is None:
            return run_seeds(graph, algorithm, seeds, **kwargs)
        try:
            batch_of: dict[int, list[int]] = {}
            for payload, task_id, batch in payloads:
                pool.submit_pickled(payload)
                batch_of[task_id] = batch

            def on_result(
                task_id: int, indices: tuple[int, ...], records: list[TrialRecord]
            ) -> None:
                for position, record in zip(batch_of[task_id], records):
                    by_position[position] = record

            pool.collect(set(batch_of), on_result)
        except BaseException:
            shutdown_fabric()
            raise
    return [by_position[position] for position in range(len(seeds))]
