"""The byte-identity soak: seeded fault schedules through real sweeps.

Every test here drives a full broker + 2-worker-host fleet with the
workers dialing through a :class:`ChaosProxy`, then holds the service
to the PR 9 contract *under fault*: a submission either returns
records byte-identical to a serial sweep (and a cache with exactly
one durable record per grid point — nothing lost, nothing duplicated)
or raises a typed :class:`~repro.errors.ServiceError`.  It never
hangs (a watchdog bounds each submission) and it never merges wrong
bytes (the frame CRC turns in-flight corruption into a redial).

The 32 curated schedules sweep the whole taxonomy — delay, slow-drip,
truncate (both directions), corrupt (both directions), drop
(blackhole), partition with refusal- and time-based healing — and one
extra randomized entry fuzzes a fresh seed per run, printing it in
every failure message so ``random_schedule(seed)`` replays the exact
perturbation.
"""

from __future__ import annotations

import json
import random
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import SweepSpec, run_sweep
from repro.experiments.warehouse import SweepWarehouse, WarehouseCache
from repro.service import Broker, broker_status, run_worker, submit_sweep
from repro.service.chaos import ChaosProxy, FaultSchedule, random_schedule

#: One tiny grid shared by every soak entry (6 trials, 3 units of 2).
SPEC = SweepSpec(
    name="chaos-soak",
    families=("complete",),
    ns=(16,),
    deltas=("n^0.75",),
    algorithms=("trivial",),
    seeds=tuple(range(6)),
    preset="testing",
)

#: Hard per-test bound on one faulted submission: generous against a
#: slow CI box, far below pytest's patience — a hang fails, fast.
WATCHDOG = 75.0


@pytest.fixture(scope="module")
def serial():
    """The ground truth every faulted run must reproduce byte-for-byte."""
    return run_sweep(SPEC, workers=1)


def _serial_bytes(serial, tmp_path) -> bytes:
    path = serial.write_jsonl(tmp_path / "serial-ref.jsonl")
    return path.read_bytes()


def _worker_host(address) -> None:
    try:
        run_worker(address, max_units=None, reconnect=8.0, op_deadline=2.0)
    except ServiceError:
        # This host lost the broker past its redial budget; the
        # surviving host (or a lease re-queue) finishes the job.
        pass


def _submit_watchdogged(label: str, address) -> dict:
    box: dict = {}

    def target() -> None:
        try:
            box["result"] = submit_sweep(address, SPEC, retry=10.0, timeout=20.0)
        except Exception as error:  # noqa: BLE001 - outcome checked below
            box["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(WATCHDOG)
    if thread.is_alive():
        pytest.fail(
            f"{label}: submission hung past {WATCHDOG}s — "
            f"the never-hangs guarantee is broken"
        )
    return box


def _assert_cache_exact(label: str, cache_dir, warehouse: bool) -> None:
    """Exactly one durable record per grid point: none lost, none doubled."""
    total = len(SPEC.points())
    if warehouse:
        cache = WarehouseCache(cache_dir, SPEC.spec_hash())
        indexed = dict(cache.iter_indexed())
        assert sorted(indexed) == list(range(total)), (
            f"{label}: warehouse cache holds grid points "
            f"{sorted(indexed)}, want 0..{total - 1}"
        )
        rows = sum(1 for _ in SweepWarehouse(cache.path).iter_records())
        assert rows == total, (
            f"{label}: warehouse holds {rows} row(s) for {total} grid "
            f"point(s) — a duplicate merge reached the writer"
        )
    else:
        cache = ResultCache(cache_dir, SPEC.spec_hash())
        lines = [
            line
            for line in cache.path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        keys = [json.loads(line)["point"] for line in lines]
        assert len(keys) == total, (
            f"{label}: cache holds {len(keys)} line(s) for {total} grid "
            f"point(s) — a record was lost or duplicated"
        )
        assert len(set(keys)) == total, f"{label}: duplicate cache keys"


def _run_schedule(label, schedule, tmp_path, serial, *, warehouse):
    """One soak iteration; returns True when the sweep merged cleanly."""
    cache_dir = tmp_path / "cache"
    with Broker(
        cache_dir, unit_size=2, lease_timeout=1.0, warehouse=warehouse
    ) as broker:
        with ChaosProxy(broker.address, schedule) as proxy:
            for _ in range(2):
                threading.Thread(
                    target=_worker_host, args=(proxy.address,), daemon=True
                ).start()
            box = _submit_watchdogged(label, broker.address)
            events = proxy.events()
    assert broker.is_clean_shutdown, (
        f"{label}: broker did not shut down cleanly (events: {events})"
    )
    if "error" in box:
        assert isinstance(box["error"], ServiceError), (
            f"{label}: terminal failure must be a typed ServiceError, "
            f"got {type(box['error']).__name__}: {box['error']} "
            f"(events: {events})"
        )
        return False
    result = box["result"]
    assert result.records == serial.records, (
        f"{label}: merged records differ from the serial sweep "
        f"(events: {events})"
    )
    merged = result.write_jsonl(tmp_path / "merged.jsonl").read_bytes()
    assert merged == _serial_bytes(serial, tmp_path), (
        f"{label}: merged JSONL is not byte-identical to serial"
    )
    _assert_cache_exact(label, cache_dir, warehouse)
    return True


def _soak_entries() -> list[tuple[str, list[dict]]]:
    """32 curated schedules covering the whole fault taxonomy.

    Connections 0 and 1 are the two worker hosts' first dials; redials
    take fresh indices, so per-connection rules heal once the victim
    reconnects.  The partition trigger rides connection 1 (the second
    host's arrival) and heals by refusal count, by timer, or both.
    """
    entries: list[tuple[str, list[dict]]] = []
    for v in range(4):
        entries.append((f"delay-all-v{v}", [
            {"kind": "delay", "ms": [5, 15, 30, 50][v]},
        ]))
        entries.append((f"delay-one-op-v{v}", [
            {"kind": "delay", "ms": 25, "op": v % 3, "conn": [0, 1]},
        ]))
        entries.append((f"slow-drip-v{v}", [
            {"kind": "slow-drip", "conn": v % 2,
             "direction": ["up", "down"][v // 2],
             "bytes": [8, 16, 24, 48][v], "chunk": [1, 2, 3, 5][v], "ms": 1},
        ]))
        entries.append((f"truncate-up-v{v}", [
            {"kind": "truncate", "conn": v % 2, "direction": "up",
             "after_bytes": [1, 9, 40, 150][v]},
        ]))
        entries.append((f"truncate-down-v{v}", [
            {"kind": "truncate", "conn": v % 2, "direction": "down",
             "after_bytes": [0, 5, 17, 80][v]},
        ]))
        entries.append((f"corrupt-v{v}", [
            {"kind": "corrupt", "conn": v % 2,
             "direction": ["up", "down"][v % 2],
             "at_byte": [0, 7, 13, 60][v], "mask": [0xFF, 0x01, 0x80, 0x55][v]},
        ]))
        entries.append((f"drop-v{v}", [
            {"kind": "drop", "conn": v % 2,
             "direction": ["up", "down"][v // 2], "after_ops": v},
        ]))
        entries.append((f"partition-v{v}", [
            {"kind": "partition", "at_conn": 1, "refuse": [1, 2, 1, 0][v],
             **({"heal_ms": 400.0} if v >= 2 else {})},
        ]))
    return entries


_ENTRIES = _soak_entries()


class TestSeededSoak:
    @pytest.mark.parametrize(
        "index,name,faults",
        [(i, name, faults) for i, (name, faults) in enumerate(_ENTRIES)],
        ids=[name for name, _faults in _ENTRIES],
    )
    def test_schedule(self, tmp_path, serial, index, name, faults):
        schedule = FaultSchedule.from_payload({"seed": index, "faults": faults})
        warehouse = index % 2 == 1  # alternate both cache backends
        merged = _run_schedule(
            f"schedule {name}", schedule, tmp_path, serial,
            warehouse=warehouse,
        )
        # Every curated schedule heals, so the non-destructive kinds
        # must land the byte-identical success path, not just a typed
        # error: anything less means a delay alone can sink a sweep.
        if name.startswith(("delay", "slow-drip")):
            assert merged, f"schedule {name}: benign fault failed the sweep"

    def test_randomized_fuzz_schedule_reports_its_seed(self, tmp_path, serial):
        seed = random.SystemRandom().randrange(2**32)
        schedule = random_schedule(seed, conns=6, rules=3)
        label = (
            f"fuzz seed {seed} — rerun with "
            f"random_schedule({seed}, conns=6, rules=3): "
            f"{schedule.to_json()}"
        )
        _run_schedule(label, schedule, tmp_path, serial, warehouse=seed % 2 == 1)


class TestBrokerDeath:
    """Satellite: submit_sweep vs a broker that dies mid-sweep."""

    def test_mid_sweep_death_is_a_typed_error_within_bounds(self, tmp_path):
        broker = Broker(tmp_path / "cache", unit_size=2)
        broker.start()
        address = broker.address
        box: dict = {}

        def target() -> None:
            try:
                box["result"] = submit_sweep(address, SPEC, retry=3.0, timeout=10.0)
            except Exception as error:  # noqa: BLE001 - checked below
                box["error"] = error
            box["at"] = time.monotonic()

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        # No workers attached: the client is mid-sweep, riding heartbeats.
        deadline = time.monotonic() + 10.0
        while SPEC.spec_hash() not in broker_status(address, retry=2.0)["jobs"]:
            assert time.monotonic() < deadline, "job never registered"
            time.sleep(0.01)
        killed_at = time.monotonic()
        broker.stop()
        thread.join(15.0)
        assert not thread.is_alive(), "client hung past the broker's death"
        error = box.get("error")
        assert isinstance(error, ServiceError), f"got {box!r}"
        # "within `retry` seconds": the stop is announced (error frame or
        # reset), so the client needs nothing close to its full budget.
        assert box["at"] - killed_at < 10.0

    def test_resubmission_after_restart_is_all_cache(self, tmp_path, serial):
        with Broker(tmp_path / "cache", unit_size=2) as broker:
            threading.Thread(
                target=_worker_host, args=(broker.address,), daemon=True
            ).start()
            first = submit_sweep(broker.address, SPEC, timeout=30.0)
        assert first.records == serial.records
        # A fresh broker process on the same cache dir: the resubmitted
        # sweep must be served 100% from cache — no worker attached.
        with Broker(tmp_path / "cache", unit_size=2) as broker:
            again = submit_sweep(broker.address, SPEC, timeout=30.0)
        assert again.records == serial.records
        assert again.cached == len(SPEC.points())
        assert again.executed == 0
