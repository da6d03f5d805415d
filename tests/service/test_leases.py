"""Lease pipelining and frame-field checks on both ends of a lease.

A worker host leases one unit ahead: while it runs a unit, the broker
already holds the next one leased to it.  These tests pin that the
look-ahead is on, that it is a single unit, and that ``max_units``
never strands a look-ahead lease.  They also send the broker and the
host frames whose fields have the wrong type or are missing: each
must drop the peer with a typed ``WireError`` (the broker re-queues
the peer's lease, the host redials), never kill a thread with a
traceback.
"""

from __future__ import annotations

import math
import socket
import threading
import time

import pytest

from repro.errors import WireError
from repro.experiments.parallel import SweepSpec
from repro.service import Broker, broker_status, queue_sweep, run_worker
from repro.service import worker as worker_module
from repro.service.protocol import encode_records, recv_message, send_frame, send_message


def spec_of(seeds: int) -> SweepSpec:
    return SweepSpec(
        name="lease-test",
        families=("complete",),
        ns=(16,),
        deltas=("n^0.75",),
        algorithms=("trivial",),
        seeds=tuple(range(seeds)),
        preset="testing",
    )


def job_status(broker: Broker, spec: SweepSpec) -> dict:
    return broker_status(broker.address)["jobs"][spec.spec_hash()]


def status_when(broker: Broker, spec: SweepSpec, timeout: float = 10.0, **want) -> dict:
    """The job's status once every field named in ``want`` has its value."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = job_status(broker, spec)
        if all(status[key] == value for key, value in want.items()):
            return status
        time.sleep(0.01)
    raise AssertionError(f"job status never reached {want}: {status}")


class TestPipelinedLeases:
    def test_a_running_host_holds_one_unit_ahead(self, tmp_path, monkeypatch):
        spec = spec_of(8)  # 4 units of 2
        started = threading.Event()
        release = threading.Event()
        original = worker_module._execute_unit

        def held_execute(spec, points, indices, workers):
            started.set()
            release.wait(10.0)
            return original(spec, points, indices, workers)

        monkeypatch.setattr(worker_module, "_execute_unit", held_execute)
        with Broker(tmp_path / "cache", unit_size=2, lease_timeout=30.0) as broker:
            queue_sweep(broker.address, spec)
            host = threading.Thread(
                target=run_worker, args=(broker.address,),
                kwargs={"max_units": 4, "reconnect": 2.0}, daemon=True,
            )
            host.start()
            try:
                assert started.wait(10.0)
                # The unit being run, and the look-ahead leased with it.
                status = status_when(broker, spec, leased=2)
                time.sleep(0.1)
                again = job_status(broker, spec)
            finally:
                release.set()
                host.join(10.0)
            final = job_status(broker, spec)
        assert status["queued"] == 2
        assert (again["leased"], again["queued"]) == (2, 2)  # one unit ahead, no more
        assert final["merged"] == 4
        assert final["attempts"] == 0

    @pytest.mark.parametrize("units", [1, 2, 3])
    def test_max_units_leases_nothing_it_will_not_run(self, tmp_path, units):
        spec = spec_of(8)  # 4 units of 2
        with Broker(tmp_path / "cache", unit_size=2, lease_timeout=30.0) as broker:
            queue_sweep(broker.address, spec)
            assert run_worker(broker.address, max_units=units, reconnect=2.0) == units
            # The host has hung up; once the broker has seen it, a
            # look-ahead lease it abandoned would have re-queued.
            status = status_when(broker, spec, leased=0)
        assert status["merged"] == units
        assert status["queued"] == 4 - units
        assert status["attempts"] == 0


# ----------------------------------------------------------------------
# The broker: a bad field drops the peer and re-queues its lease
# ----------------------------------------------------------------------


def join_broker_connections() -> None:
    """Wait for every broker connection thread, so a thread that died
    with a traceback has reported it before the test ends."""
    for thread in threading.enumerate():
        if thread.name.startswith("repro-broker-conn-"):
            thread.join(5.0)


def dropped_after(tmp_path, type_: str, fields: dict, payload: bytes = b"") -> dict:
    """Lease a unit, send one bad frame; the job's status once dropped."""
    spec = spec_of(4)
    with Broker(tmp_path / "cache", unit_size=2, lease_timeout=30.0) as broker:
        queue_sweep(broker.address, spec)
        with socket.create_connection(broker.address, timeout=10.0) as sock:
            send_message(sock, "hello", workers=1)
            recv_message(sock, "welcome")
            send_message(sock, "lease", wait=5.0)
            unit, _ = recv_message(sock, "unit")
            fields = {
                "job": unit["job"], "unit": unit["unit"], "indices": [], **fields
            }
            send_frame(sock, {"type": type_, **fields}, payload)
            with pytest.raises(WireError):
                recv_message(sock)
        join_broker_connections()
        return status_when(broker, spec, leased=0)


class TestBrokerRefusesMalformedFields:
    @pytest.mark.parametrize(
        "wait", ["abc", None, [1], math.inf], ids=["str", "null", "list", "inf"]
    )
    def test_lease_wait(self, tmp_path, wait):
        status = dropped_after(tmp_path, "lease", {"wait": wait})
        assert status["attempts"] == 1

    @pytest.mark.parametrize("indices", [5, ["a"]], ids=["int", "str-list"])
    def test_result_indices(self, tmp_path, indices):
        status = dropped_after(
            tmp_path, "result", {"indices": indices}, encode_records([])
        )
        assert status["attempts"] == 1
        assert status["merged"] == 0

    def test_result_job(self, tmp_path):
        status = dropped_after(tmp_path, "result", {"job": [1]}, encode_records([]))
        assert status["attempts"] == 1

    def test_unit_failed_job(self, tmp_path):
        status = dropped_after(tmp_path, "unit-failed", {"job": [1], "message": "x"})
        assert status["attempts"] == 1
        assert status["failed"] is None

    def test_a_long_finite_wait_is_served(self, tmp_path):
        # Past threading.TIMEOUT_MAX, yet finite: a valid lease.
        spec = spec_of(2)
        with Broker(tmp_path / "cache") as broker:
            with socket.create_connection(broker.address, timeout=10.0) as sock:
                send_message(sock, "hello", workers=1)
                recv_message(sock, "welcome")
                send_message(sock, "lease", wait=1e12)
                time.sleep(0.1)  # the lease blocks before the job arrives
                queue_sweep(broker.address, spec)
                unit, _ = recv_message(sock, "unit")
        assert unit["job"] == spec.spec_hash()


# ----------------------------------------------------------------------
# The host: a malformed unit frame is a redial
# ----------------------------------------------------------------------


def host_against(unit_fields: dict) -> tuple[int, int]:
    """Run a host against a fake broker that leases it one ``unit`` frame.

    The fake answers the first connection's lease with the frame, then
    accepts one more dial and closes everything.  Returns the units the
    host completed and the number of dials the fake saw.
    """
    server = socket.create_server(("127.0.0.1", 0))
    dials: list[int] = []

    def serve() -> None:
        conns = []
        try:
            for dial in range(2):
                conn, _ = server.accept()
                conns.append(conn)
                dials.append(dial)
                recv_message(conn, "hello")
                send_message(conn, "welcome")
                if dial == 0:
                    recv_message(conn, "lease")
                    send_frame(conn, {"type": "unit", **unit_fields})
        finally:
            server.close()
            for conn in conns:
                conn.close()

    fake = threading.Thread(target=serve, daemon=True)
    fake.start()
    try:
        done = run_worker(server.getsockname()[:2], reconnect=0.3)
    finally:
        fake.join(5.0)
    return done, len(dials)


def unit_frame(**changes) -> dict:
    spec = spec_of(2)
    fields = {
        "job": spec.spec_hash(), "unit": "u0",
        "indices": [0], "spec": spec.describe(),
    }
    for key, value in changes.items():
        if value is _MISSING:
            del fields[key]
        else:
            fields[key] = value
    return fields


_MISSING = object()


class TestHostRedialsOnMalformedUnits:
    @pytest.mark.parametrize(
        "changes",
        [
            {"job": _MISSING},
            {"job": [1]},
            {"unit": _MISSING},
            {"spec": _MISSING},
            {"indices": _MISSING},
            {"indices": 5},
            {"indices": ["a"]},
        ],
        ids=[
            "job-missing", "job-list", "unit-missing", "spec-missing",
            "indices-missing", "indices-int", "indices-str-list",
        ],
    )
    def test_malformed_unit_frame(self, changes):
        done, dials = host_against(unit_frame(**changes))
        assert done == 0
        assert dials == 2  # dropped the link and redialled
