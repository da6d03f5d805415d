"""Differential fault proof: SIGKILL a worker host mid-sweep.

The strongest claim the service makes is that worker loss is
*invisible* in the output: the broker re-queues the dead host's leased
units, a surviving host re-runs them, and the merged export is
byte-identical to a serial :func:`run_sweep` — no lost trials, no
duplicates, no half-merged batches.  This test makes that claim
falsifiable with a real ``SIGKILL`` (no atexit handlers, no socket
shutdown — the hardest way a host can die), for both cache backends.

Determinism of the kill window: the victim host patches
``_execute_unit`` to sleep before running each unit, so every lease
stays observable via ``broker_status`` for ~150ms and the kill always
lands while at least one unit is leased.  The victim runs with
``workers=1`` (units inline) so the kill orphans no fabric children.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.experiments.parallel import SweepSpec, open_cache, run_sweep
from repro.service import Broker, broker_status, queue_sweep, submit_sweep
from repro.service.worker import run_worker


def kill_spec() -> SweepSpec:
    return SweepSpec(
        name="kill-test",
        families=("complete",),
        ns=(24,),
        deltas=("n^0.75",),
        algorithms=("trivial",),
        seeds=tuple(range(10)),
        preset="testing",
    )


def _slow_victim(address: tuple[str, int]) -> None:
    """Worker-host entry: every unit pauses first, then runs normally.

    Runs in a forked child, so patching the module only affects the
    victim; records stay byte-identical because the pause happens
    outside the trials.
    """
    import repro.service.worker as worker_module

    original = worker_module._execute_unit

    def paused_execute(spec, points, indices, workers):
        time.sleep(0.15)
        return original(spec, points, indices, workers)

    worker_module._execute_unit = paused_execute
    run_worker(address, workers=1, reconnect=2.0)


def _poll(predicate, timeout: float = 20.0, interval: float = 0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not reached before timeout")


@pytest.mark.parametrize("warehouse", [False, True], ids=["jsonl", "warehouse"])
def test_sigkilled_worker_is_invisible_in_the_output(tmp_path, warehouse):
    spec = kill_spec()
    serial = run_sweep(spec, workers=1)
    fork = multiprocessing.get_context("fork")
    with Broker(
        tmp_path / "cache", warehouse=warehouse, unit_size=1, lease_timeout=30.0
    ) as broker:
        queue_sweep(broker.address, spec)
        victim = fork.Process(target=_slow_victim, args=(broker.address,))
        victim.start()

        def job_status():
            return broker_status(broker.address)["jobs"][spec.spec_hash()]

        # The victim holds each lease ~150ms, so this observation is
        # deterministic, and the kill below always lands mid-unit.
        _poll(lambda: job_status()["leased"] >= 1)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10.0)
        assert victim.exitcode == -signal.SIGKILL

        # Disconnect detection re-queues the leased unit (no lease
        # expiry needed: the kernel closes the socket on process death).
        _poll(lambda: job_status()["leased"] == 0)
        status = job_status()
        assert status["attempts"] >= 1
        assert not status["finished"]

        # A healthy host finishes the job; the dead host's units re-ran.
        import threading

        threading.Thread(
            target=run_worker, args=(broker.address,),
            kwargs={"reconnect": 2.0}, daemon=True,
        ).start()
        result = submit_sweep(broker.address, spec)

        final = job_status()
        assert final["finished"] is True
        assert final["merged"] == final["units"] == len(spec.points())

    # The merged output is byte-identical to the serial engine's.
    assert result.records == serial.records
    svc = result.write_jsonl(tmp_path / "svc.jsonl")
    ref = serial.write_jsonl(tmp_path / "ref.jsonl")
    assert svc.read_bytes() == ref.read_bytes()

    # And the broker's durable cache holds exactly one copy of each
    # trial — duplicates from the re-run were dropped before the merge.
    # ``iter_indexed`` returns every stored row, repeats included.
    cache = open_cache(spec, tmp_path / "cache", warehouse=warehouse)
    try:
        stored = list(cache.iter_indexed())
    finally:
        cache.close()
    stored.sort(key=lambda row: row[0])
    assert [index for index, _record in stored] == list(range(len(spec.points())))
    assert [record for _index, record in stored] == list(serial.records)


def test_broker_killed_and_restarted_resumes_without_rerunning(tmp_path):
    """The broker side of the fault matrix: durable commits survive it.

    ``Broker.stop`` discards all in-memory state — jobs, leases, the
    merge queue — which is exactly what a crash loses.  The restarted
    broker must resume from the caches' commit point: already-merged
    units are never re-executed (their unit ids never reappear in the
    new shard), pending ones finish normally.
    """
    from repro.service import unit_id_for

    spec = kill_spec()
    cache_dir = tmp_path / "cache"
    broker = Broker(cache_dir, unit_size=2, lease_timeout=30.0)
    broker.start()
    try:
        queue_sweep(broker.address, spec)
        done = run_worker(broker.address, max_units=2, reconnect=2.0)
        assert done == 2
    finally:
        broker.stop()

    executed_units = {
        unit_id_for(spec.spec_hash(), indices)
        for indices in ([0, 1], [2, 3])
    }
    with Broker(cache_dir, unit_size=2, lease_timeout=30.0) as broker:
        leased_ids: list[str] = []
        accepted = queue_sweep(broker.address, spec)
        assert accepted["already"] == 4  # resumed from the durable commit point
        # Drain the remaining units, recording every unit id handed out.
        completed = run_worker(
            broker.address, reconnect=2.0, max_units=3,
            on_unit=lambda unit_id, _n: leased_ids.append(unit_id),
        )
        assert completed == 3
        # This submission arrives after the drain, so the whole grid is
        # served from the durable cache — nothing executes for it.
        result = submit_sweep(broker.address, spec)
    assert executed_units.isdisjoint(leased_ids)  # no re-run of merged work
    assert result.cached == 10
    assert result.executed == 0
    assert result.records == run_sweep(spec, workers=1).records
