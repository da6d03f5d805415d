"""Tests for the process-pool sweep engine."""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.analysis.stats import summarize
from repro.errors import GenerationError, ReproError
from repro.experiments.harness import aggregate_rounds, run_trial, run_trials
from repro.experiments.parallel import (
    CONSTANTS_PRESETS,
    GRAPH_FAMILIES,
    SweepSpec,
    _ChunkTask,
    _execute_chunk_task,
    build_graph,
    clear_instance_cache,
    plan_for_instance,
    resolve_delta,
    resolve_workers,
    run_sweep,
    shutdown_fabric,
)
from repro.experiments.results_io import write_records_jsonl
from repro.graphs.generators import complete_graph


def small_spec(**overrides) -> SweepSpec:
    settings = dict(
        name="test",
        families=("complete", "er-min-degree"),
        ns=(48,),
        deltas=("n^0.75",),
        algorithms=("trivial",),
        seeds=tuple(range(4)),
    )
    settings.update(overrides)
    return SweepSpec(**settings)


class TestSweepSpec:
    def test_points_enumeration_is_canonical(self):
        spec = small_spec()
        points = spec.points()
        assert len(points) == 2 * 1 * 1 * 1 * 4
        assert [p.index for p in points] == list(range(8))
        assert points[0].family == "complete"
        assert [p.seed for p in points[:4]] == [0, 1, 2, 3]
        # Two enumerations are identical objects field-for-field.
        assert points == spec.points()

    def test_validation(self):
        with pytest.raises(ReproError):
            small_spec(families=("nope",))
        with pytest.raises(ReproError):
            small_spec(algorithms=("nope",))
        with pytest.raises(ReproError):
            small_spec(preset="nope")
        with pytest.raises(ReproError):
            small_spec(deltas=("sqrt(n)",))
        with pytest.raises(ReproError):
            small_spec(seeds=())

    @pytest.mark.parametrize(
        "axes",
        [
            {"seeds": (0, 1.5)},
            {"seeds": (True,)},
            {"seeds": ("7",)},
            {"seeds": (2 ** 63,)},
            {"seeds": (-(2 ** 63) - 1,)},
            {"ns": (64.9,)},
            {"ns": (False,)},
        ],
        ids=repr,
    )
    def test_ns_and_seeds_are_checked_not_coerced(self, axes):
        with pytest.raises(ReproError, match="sweep (ns|seed)"):
            small_spec(**axes)
        # A spec read off the wire gets the same check.
        payload = {**small_spec().describe(), **{k: list(v) for k, v in axes.items()}}
        with pytest.raises(ReproError, match="sweep (ns|seed)"):
            SweepSpec.from_payload(payload)

    def test_int64_seed_bounds_accepted(self):
        spec = small_spec(seeds=(-(2 ** 63), 2 ** 63 - 1))
        assert spec.seeds == (-(2 ** 63), 2 ** 63 - 1)

    def test_resolve_delta(self):
        assert resolve_delta("90", 400) == 90
        assert resolve_delta("n^0.75", 400) == max(8, round(400 ** 0.75))
        assert resolve_delta("n^0.5", 9) == 8  # floor of 8

    def test_spec_hash_tracks_content(self):
        spec = small_spec()
        assert spec.spec_hash() == small_spec().spec_hash()
        assert spec.spec_hash() != small_spec(seeds=(0, 1)).spec_hash()
        assert spec.spec_hash() != small_spec(preset="paper").spec_hash()

    def test_build_graph_is_deterministic(self):
        first = build_graph("er-min-degree", 48, "n^0.75")
        second = build_graph("er-min-degree", 48, "n^0.75")
        assert first.n == second.n
        assert all(
            first.neighbors(v) == second.neighbors(v) for v in first.vertices
        )


@pytest.fixture
def counting_family():
    """A temporary graph family whose generator counts its calls."""
    calls: list[tuple[int, int]] = []

    def builder(n, delta, rng):
        calls.append((n, delta))
        return complete_graph(n)

    GRAPH_FAMILIES["counting-test"] = builder
    clear_instance_cache()
    try:
        yield calls
    finally:
        del GRAPH_FAMILIES["counting-test"]
        clear_instance_cache()


class TestInstanceMemoization:
    def test_build_graph_memoized_per_process(self, counting_family):
        first = build_graph("counting-test", 20, "8")
        second = build_graph("counting-test", 20, "8")
        assert first is second
        assert counting_family == [(20, 8)]
        # A different tag is a different instance (and a new call).
        build_graph("counting-test", 24, "8")
        assert counting_family == [(20, 8), (24, 8)]

    def test_one_generator_call_per_worker_per_instance(self, counting_family):
        """Two chunks of one instance in one process: one generator call."""
        chunk = _ChunkTask(
            task_id=1, family="counting-test", n=20, delta_spec="8",
            preset="tuned", max_rounds=None,
            trials=((0, "trivial", "none", 0), (1, "trivial", "none", 1)),
        )
        again = _ChunkTask(
            task_id=2, family="counting-test", n=20, delta_spec="8",
            preset="tuned", max_rounds=None,
            trials=((2, "trivial", "none", 2),),
        )
        indices, _ = _execute_chunk_task(chunk)
        more, _ = _execute_chunk_task(again)
        assert indices + more == (0, 1, 2)
        assert counting_family == [(20, 8)], (
            "the worker regenerated a graph it had already built"
        )

    def test_plan_cache_shares_the_memoized_graph(self, counting_family):
        plan = plan_for_instance("counting-test", 20, "8")
        assert plan.graph is build_graph("counting-test", 20, "8")
        assert plan_for_instance("counting-test", 20, "8") is plan
        assert counting_family == [(20, 8)]

    def test_memo_and_arena_bounds_are_fixed(self):
        from repro.experiments import parallel

        assert parallel._instance_for.cache_info().maxsize == 32
        assert parallel._PLAN_ARENA_CAP == 64

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_identical_with_and_without_plan_cache(self, workers):
        """Acceptance: cached-plan sweep == fresh per-trial execution.

        The per-trial oracle for every executor path: the sweep runs
        chunks through batched ``run_trials`` (lockstep for the
        eligible baselines), the oracle runs each point alone.
        """
        spec = small_spec(
            algorithms=("theorem1", "theorem2", "trivial", "random-walk"),
        )
        clear_instance_cache()
        swept = run_sweep(spec, workers=workers)
        fresh = []
        for point in spec.points():
            # Rebuild the instance outside every cache and run the trial
            # without any plan — the pre-plan execution path.
            delta = resolve_delta(point.delta_spec, point.n)
            rng = random.Random(
                f"sweep-graph:{point.family}:{point.n}:{point.delta_spec}"
            )
            graph = GRAPH_FAMILIES[point.family](point.n, delta, rng)
            fresh.append(run_trial(
                graph, point.algorithm, point.seed,
                constants=CONSTANTS_PRESETS[spec.preset](),
                max_rounds=spec.max_rounds,
            ))
        assert list(swept.records) == fresh


class TestRunSweepDeterminism:
    def test_workers_1_vs_4_byte_identical(self, tmp_path):
        spec = small_spec()
        serial = run_sweep(spec, workers=1)
        fanned = run_sweep(spec, workers=4)
        assert serial.records == fanned.records
        serial_path = write_records_jsonl(serial.records, tmp_path / "serial.jsonl")
        fanned_path = write_records_jsonl(fanned.records, tmp_path / "fanned.jsonl")
        assert serial_path.read_bytes() == fanned_path.read_bytes()

    def test_single_instance_grid_still_fans_out(self):
        # One family × one n: the engine must split the instance's
        # trials into sub-chunks rather than collapse to one worker.
        spec = small_spec(families=("complete",), seeds=tuple(range(8)))
        serial = run_sweep(spec, workers=1)
        fanned = run_sweep(spec, workers=4)
        assert fanned.records == serial.records
        assert fanned.workers == 4

    def test_matches_serial_run_trials(self):
        spec = small_spec(families=("er-min-degree",))
        result = run_sweep(spec, workers=2)
        graph = build_graph("er-min-degree", 48, "n^0.75")
        serial = run_trials(graph, "trivial", range(4))
        assert list(result.records) == serial

    def test_merged_summary_equals_serial_path(self):
        spec = small_spec()
        result = run_sweep(spec, workers=2)
        groups: dict[tuple[str, int, str, str], list] = {}
        for point, record in zip(spec.points(), result.records):
            key = (point.family, point.n, point.delta_spec, point.algorithm)
            groups.setdefault(key, []).append(record)
        for (family, n, delta_spec, algorithm), records in groups.items():
            graph = build_graph(family, n, delta_spec)
            serial = run_trials(graph, algorithm, spec.seeds)
            assert aggregate_rounds(records) == aggregate_rounds(serial)

    def test_pooled_note_summarizes_every_met_trial(self):
        spec = small_spec(algorithms=("trivial", "random-walk"))
        result = run_sweep(spec, workers=1)
        pooled = summarize([r.rounds for r in result.records if r.met])
        assert result.summary_table().notes[0] == (
            f"all groups pooled: mean rounds {pooled.mean:.1f} "
            f"[{pooled.ci_low:.1f}, {pooled.ci_high:.1f}] "
            f"over {pooled.count} successful trials"
        )

    def test_summary_table_shape(self):
        result = run_sweep(small_spec(), workers=1)
        table = result.summary_table()
        assert len(table.rows) == 2  # one per (family, n, delta, algorithm)
        assert result.executed == 8
        assert result.cached == 0


class TestSweepCache:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        spec = small_spec()
        first = run_sweep(spec, workers=2, cache_dir=tmp_path)
        second = run_sweep(spec, workers=2, cache_dir=tmp_path)
        assert (first.executed, first.cached) == (8, 0)
        assert (second.executed, second.cached) == (0, 8)
        assert first.records == second.records

    def test_interrupted_sweep_resumes(self, tmp_path):
        spec = small_spec()
        complete = run_sweep(spec, workers=1, cache_dir=tmp_path)
        cache_file = tmp_path / f"{spec.spec_hash()}.jsonl"
        lines = cache_file.read_text().splitlines()
        # Simulate an interrupt: drop the last 3 records and leave a
        # torn partial line behind.
        cache_file.write_text("\n".join(lines[:5]) + "\n" + lines[5][:20])
        with pytest.warns(UserWarning, match="skipped 1 corrupt line"):
            resumed = run_sweep(spec, workers=2, cache_dir=tmp_path)
        assert resumed.cached == 5
        assert resumed.executed == 3
        assert resumed.records == complete.records
        # The first resume cut the torn tail before appending, so the
        # new lines did not glue onto it: a second resume is all hits.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            again = run_sweep(spec, workers=2, cache_dir=tmp_path)
        assert not [w for w in caught if "corrupt line" in str(w.message)]
        assert (again.executed, again.cached) == (0, 8)
        assert again.records == complete.records

    def test_no_resume_recomputes(self, tmp_path):
        spec = small_spec()
        run_sweep(spec, workers=1, cache_dir=tmp_path)
        fresh = run_sweep(spec, workers=1, cache_dir=tmp_path, resume=False)
        assert (fresh.executed, fresh.cached) == (8, 0)

    def test_manifest_written(self, tmp_path):
        spec = small_spec()
        run_sweep(spec, workers=1, cache_dir=tmp_path)
        manifest = tmp_path / f"{spec.spec_hash()}.spec.json"
        payload = json.loads(manifest.read_text())
        assert payload["name"] == "test"
        assert payload["algorithms"] == ["trivial"]

    def test_progress_callback_reaches_total(self, tmp_path):
        seen = []
        run_sweep(
            small_spec(), workers=2,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1] == (8, 8)


class TestWorkerCount:
    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1
        with pytest.raises(ReproError):
            resolve_workers(-1)


#: Sweeps on one fabric, restarts it, sweeps twice more with a one-slot
#: plan arena (the second sweep evicts and unlinks the first export),
#: then reports the live export and worker pids and waits to be killed.
_SECOND_FABRIC_SCRIPT = """
import json, time
from repro.experiments import parallel
from repro.experiments.parallel import SweepSpec, run_sweep, shutdown_fabric

parallel._PLAN_ARENA_CAP = 1

def spec(n):
    return SweepSpec(name="tracker", families=("er-min-degree",), ns=(n,),
                     algorithms=("trivial",), seeds=tuple(range(8)))

run_sweep(spec(40), workers=2)
shutdown_fabric()
run_sweep(spec(40), workers=2)
run_sweep(spec(44), workers=2)
print(json.dumps({
    "segments": [s.handle.name for s in parallel._plan_arena._shares.values()],
    "workers": [p.pid for p in parallel._fabric_pool.processes],
}), flush=True)
time.sleep(120)
"""


class TestFabric:
    @pytest.mark.skipif(
        sys.platform != "linux" or not Path("/dev/shm").is_dir(),
        reason="needs fork workers and /dev/shm",
    )
    def test_parent_killed_in_a_later_fabric_leaks_no_segments(self):
        """Every fabric's workers share the exporter's resource tracker.

        A pool forked after the tracker started used to unregister the
        exporter's own segments on attach, so the exporter's unlink hit
        a tracker ``KeyError`` and a SIGKILLed parent left its exports
        in ``/dev/shm``.  Now the tracker outlives parent and workers
        and unlinks the live export, printing no traceback.
        """
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
        )
        child = subprocess.Popen(
            [sys.executable, "-c", _SECOND_FABRIC_SCRIPT],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        state = {"segments": [], "workers": []}
        try:
            line = child.stdout.readline()
            if line:
                state = json.loads(line)
        finally:
            for pid in [child.pid, *state["workers"]]:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            # stderr closes once the tracker, its last holder, has exited.
            _, stderr = child.communicate(timeout=60)
        assert state["segments"], stderr
        for name in state["segments"]:
            assert not (Path("/dev/shm") / name.lstrip("/")).exists(), name
        assert "Traceback" not in stderr, stderr

    def test_fabric_and_inline_paths_byte_identical(self, tmp_path):
        spec = small_spec()
        serial = run_sweep(spec, workers=1)
        fabric = run_sweep(spec, workers=3)
        assert serial.records == fabric.records
        paths = []
        for name, result in (("s", serial), ("f", fabric)):
            paths.append(write_records_jsonl(result.records, tmp_path / f"{name}.jsonl"))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_pool_persists_across_sweeps(self):
        from repro.experiments import parallel

        run_sweep(small_spec(), workers=3)
        first = parallel._fabric_pool
        assert first is not None and first.alive()
        run_sweep(small_spec(seeds=(0, 1)), workers=3)
        assert parallel._fabric_pool is first, "warm pool was not reused"
        processes = first.processes
        shutdown_fabric()
        assert parallel._fabric_pool is None
        for process in processes:
            process.join(timeout=5)
            assert not process.is_alive()

    def test_shared_plans_disabled_is_identical(self, monkeypatch):
        from repro.experiments import parallel

        spec = small_spec()
        with_shm = run_sweep(spec, workers=3)
        monkeypatch.setattr(parallel, "shared_plans_available", lambda: False)
        shutdown_fabric()  # new pool and arena without the transport
        without_shm = run_sweep(spec, workers=3)
        assert with_shm.records == without_shm.records

    def test_worker_failure_surfaces_and_pool_recovers(
        self, monkeypatch, refusing_family
    ):
        from repro.experiments import parallel

        # The family's generator refuses every instance, and with shared
        # plans off the parent never builds one: the trial raises in the
        # worker.  The fabric restarts after the family is registered,
        # so its forked workers know the family.
        monkeypatch.setattr(parallel, "shared_plans_available", lambda: False)
        shutdown_fabric()
        bad = SweepSpec(
            name="bad", families=(refusing_family,), ns=(21,), deltas=("9",),
            algorithms=("trivial",), seeds=(0, 1, 2, 3), preset="testing",
        )
        with pytest.raises(
            ReproError, match=r"(?s)sweep worker failed:.*no instance here"
        ):
            run_sweep(bad, workers=2)
        # The fabric tore itself down and the next sweep just works.
        good = run_sweep(small_spec(), workers=2)
        assert len(good.records) == 8

    def test_parent_failure_with_shared_plans_is_clean(self, refusing_family):
        # The generator refuses the point after the spec passed: the
        # parent trips while it builds the plan to export.
        clear_instance_cache()
        bad = SweepSpec(
            name="bad", families=(refusing_family,), ns=(21,), deltas=("9",),
            algorithms=("trivial",), seeds=(0, 1),
        )
        with pytest.raises(GenerationError, match="no instance here"):
            run_sweep(bad, workers=2)


class TestStreamingSweep:
    def test_summaries_identical_to_record_holding_path(self):
        spec = small_spec()
        held = run_sweep(spec, workers=3)
        streamed = run_sweep(spec, workers=3, stream=True)
        held_table = held.summary_table()
        stream_table = streamed.summary_table()
        assert stream_table.rows == held_table.rows
        assert stream_table.notes[0] == held_table.notes[0]  # pooled note

    def test_resident_records_bounded_by_batch(self):
        from repro.experiments.parallel import _fabric_batch_size

        spec = small_spec(seeds=tuple(range(16)))  # 32 points
        streamed = run_sweep(spec, workers=3, stream=True)
        assert streamed.executed == 32
        bound = _fabric_batch_size(32, 3)
        assert 0 < streamed.max_resident <= bound

    def test_inline_streaming_is_batched(self):
        spec = small_spec(seeds=tuple(range(8)))  # 16 points, workers=1
        streamed = run_sweep(spec, workers=1, stream=True)
        from repro.experiments.parallel import _STREAM_INLINE_BATCH

        assert streamed.max_resident <= _STREAM_INLINE_BATCH
        held = run_sweep(spec, workers=1)
        assert streamed.summary_table().rows == held.summary_table().rows

    def test_stream_resume_from_cache(self, tmp_path):
        spec = small_spec()
        held = run_sweep(spec, workers=2, cache_dir=tmp_path)
        streamed = run_sweep(spec, workers=2, cache_dir=tmp_path, stream=True)
        assert streamed.cached == 8 and streamed.executed == 0
        assert streamed.summary_table().rows == held.summary_table().rows

    def test_stream_writes_cache_for_later_runs(self, tmp_path):
        spec = small_spec()
        streamed = run_sweep(spec, workers=2, cache_dir=tmp_path, stream=True)
        assert streamed.executed == 8
        held = run_sweep(spec, workers=2, cache_dir=tmp_path)
        assert held.cached == 8 and held.executed == 0


class TestProfileSetup:
    def test_one_row_per_unique_instance(self):
        from repro.experiments.parallel import profile_setup

        spec = small_spec()  # two families x one n -> two instances
        table = profile_setup(spec)
        assert len(table.rows) == 2
        rendered = table.render()
        assert "generate" in rendered and "compile" in rendered
        assert "trial" in rendered


class TestWarehouseSweep:
    def test_requires_cache_dir(self):
        from repro.errors import WarehouseError

        with pytest.raises(WarehouseError):
            run_sweep(small_spec(), workers=1, warehouse=True)

    def test_records_identical_to_jsonl_cache(self, tmp_path):
        spec = small_spec()
        jsonl = run_sweep(spec, workers=1, cache_dir=tmp_path / "jsonl")
        columnar = run_sweep(
            spec, workers=1, cache_dir=tmp_path / "wh", warehouse=True
        )
        assert columnar.records == jsonl.records
        assert (columnar.executed, columnar.cached) == (8, 0)

    @pytest.mark.parametrize("warehouse", [False, True])
    def test_open_cache_reads_back_by_grid_index(self, tmp_path, warehouse):
        from repro.experiments.parallel import open_cache

        spec = small_spec()
        result = run_sweep(spec, workers=1, cache_dir=tmp_path, warehouse=warehouse)
        cache = open_cache(spec, tmp_path, warehouse=warehouse)
        assert dict(cache.iter_indexed()) == dict(enumerate(result.records))

    def test_second_run_is_all_cache_hits(self, tmp_path):
        spec = small_spec()
        first = run_sweep(spec, workers=2, cache_dir=tmp_path, warehouse=True)
        second = run_sweep(spec, workers=2, cache_dir=tmp_path, warehouse=True)
        assert (second.executed, second.cached) == (0, 8)
        assert second.records == first.records

    def test_stream_summaries_identical_to_jsonl_path(self, tmp_path):
        spec = small_spec()
        jsonl = run_sweep(spec, workers=2, stream=True)
        columnar = run_sweep(
            spec, workers=2, cache_dir=tmp_path, warehouse=True, stream=True
        )
        assert (
            columnar.summary_table().render() == jsonl.summary_table().render()
        )

    def test_stream_resume_from_warehouse(self, tmp_path):
        spec = small_spec()
        oracle = run_sweep(spec, workers=1, stream=True)
        run_sweep(spec, workers=1, cache_dir=tmp_path, warehouse=True)
        resumed = run_sweep(
            spec, workers=1, cache_dir=tmp_path, warehouse=True, stream=True
        )
        assert resumed.cached == 8 and resumed.executed == 0
        assert resumed.summary_table().rows == oracle.summary_table().rows

    def test_warehouse_is_reportable(self, tmp_path):
        from repro.experiments.report import summarize_jsonl, summarize_warehouse

        spec = small_spec()
        result = run_sweep(spec, workers=1, cache_dir=tmp_path, warehouse=True)
        export = write_records_jsonl(result.records, tmp_path / "export.jsonl")
        warehouse_dir = tmp_path / f"{spec.spec_hash()}.wh"
        assert (
            summarize_warehouse(warehouse_dir, title="X").render()
            == summarize_jsonl(export, title="X").render()
        )
