"""Broker × worker × client integration for the sweep service.

Everything here runs in one process: the broker's threads serve real
sockets on localhost and workers run in background threads
(:func:`run_worker` is thread-safe per host since each host owns its
socket).  Process-level fault injection — SIGKILLing hosts mid-sweep
— lives in ``test_worker_kill.py``.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.errors import ReproError, ServiceError, WireError
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import SweepSpec, run_sweep
from repro.service import (
    Broker,
    broker_status,
    queue_sweep,
    run_worker,
    submit_sweep,
    unit_id_for,
)
from repro.service.protocol import recv_message, send_message


def small_spec(**overrides) -> SweepSpec:
    settings = dict(
        name="svc-test",
        families=("complete",),
        ns=(24,),
        deltas=("n^0.75",),
        algorithms=("trivial",),
        seeds=tuple(range(6)),
        preset="testing",
    )
    settings.update(overrides)
    return SweepSpec(**settings)


def start_worker_thread(address, **kwargs) -> threading.Thread:
    thread = threading.Thread(
        target=run_worker, args=(address,), kwargs=kwargs, daemon=True
    )
    thread.start()
    return thread


class TestSpecPayload:
    def test_round_trip(self):
        spec = small_spec(scenarios=("none", "edge-churn"), max_rounds=77)
        rebuilt = SweepSpec.from_payload(spec.describe())
        assert rebuilt == spec
        assert rebuilt.spec_hash() == spec.spec_hash()

    def test_default_scenarios_round_trip(self):
        # describe() omits the scenarios key for the ("none",) default.
        spec = small_spec()
        assert SweepSpec.from_payload(spec.describe()) == spec

    def test_malformed_payloads_rejected(self):
        good = small_spec().describe()
        with pytest.raises(ReproError, match="JSON object"):
            SweepSpec.from_payload(["not", "a", "dict"])  # type: ignore[arg-type]
        with pytest.raises(ReproError, match="format version"):
            SweepSpec.from_payload({**good, "version": 0})
        missing = dict(good)
        del missing["families"]
        with pytest.raises(ReproError, match="malformed"):
            SweepSpec.from_payload(missing)

    def test_broker_answers_a_non_integer_seed_with_an_error_frame(self, tmp_path):
        payload = {**small_spec().describe(), "seeds": [0, 1.5]}
        with Broker(tmp_path / "cache") as broker:
            sock = socket.create_connection(broker.address)
            try:
                send_message(sock, "submit", spec=payload, wait=False)
                header, _ = recv_message(sock, "error")
            finally:
                sock.close()
            assert "sweep seeds must be plain integers" in header["message"]
            assert broker_status(broker.address)["jobs"] == {}

    def test_unit_ids_are_stable_content_addresses(self):
        spec = small_spec()
        h = spec.spec_hash()
        assert unit_id_for(h, [0, 1, 2]) == unit_id_for(h, (0, 1, 2))
        assert unit_id_for(h, [0, 1, 2]) != unit_id_for(h, [0, 1, 3])
        assert unit_id_for(h, [0]) != unit_id_for(small_spec(ns=(32,)).spec_hash(), [0])


class TestEndToEnd:
    def test_fleet_matches_serial_sweep_byte_for_byte(self, tmp_path):
        spec = small_spec(families=("complete", "er-min-degree"), ns=(24, 32))
        serial = run_sweep(spec, workers=1)
        with Broker(tmp_path / "cache", unit_size=4) as broker:
            for _ in range(2):
                start_worker_thread(broker.address, max_units=None, reconnect=2.0)
            result = submit_sweep(broker.address, spec)
        assert result.records == serial.records
        svc = result.write_jsonl(tmp_path / "svc.jsonl")
        ref = serial.write_jsonl(tmp_path / "ref.jsonl")
        assert svc.read_bytes() == ref.read_bytes()
        assert result.executed == len(serial.records)
        assert result.cached == 0

    def test_progress_reaches_total(self, tmp_path):
        spec = small_spec()
        seen: list[tuple[int, int]] = []
        with Broker(tmp_path / "cache", unit_size=2) as broker:
            start_worker_thread(broker.address, reconnect=2.0)
            submit_sweep(broker.address, spec, progress=lambda d, t: seen.append((d, t)))
        assert seen[-1] == (len(spec.points()), len(spec.points()))
        assert all(total == len(spec.points()) for _done, total in seen)

    def test_warehouse_broker_matches_jsonl_broker(self, tmp_path):
        spec = small_spec()
        with Broker(tmp_path / "jsonl-cache", unit_size=3) as broker:
            start_worker_thread(broker.address, reconnect=2.0)
            via_jsonl = submit_sweep(broker.address, spec)
        with Broker(tmp_path / "wh-cache", warehouse=True, unit_size=3) as broker:
            start_worker_thread(broker.address, reconnect=2.0)
            via_wh = submit_sweep(broker.address, spec)
        assert via_jsonl.records == via_wh.records

    def test_multiworker_host_matches_inline_host(self, tmp_path):
        spec = small_spec(seeds=tuple(range(8)))
        serial = run_sweep(spec, workers=1)
        with Broker(tmp_path / "cache", unit_size=4) as broker:
            start_worker_thread(broker.address, workers=2, reconnect=2.0)
            result = submit_sweep(broker.address, spec)
        assert result.records == serial.records

    def test_status_reports_merged_units(self, tmp_path):
        spec = small_spec()
        with Broker(tmp_path / "cache", unit_size=2) as broker:
            start_worker_thread(broker.address, reconnect=2.0)
            submit_sweep(broker.address, spec)
            status = broker_status(broker.address)
        job = status["jobs"][spec.spec_hash()]
        assert job["finished"] is True
        assert job["merged"] == job["units"] == 3
        assert job["queued"] == job["leased"] == 0


class TestCacheSemantics:
    def test_resubmission_is_served_from_cache(self, tmp_path):
        spec = small_spec()
        with Broker(tmp_path / "cache") as broker:
            start_worker_thread(broker.address, reconnect=2.0)
            first = submit_sweep(broker.address, spec)
            again = submit_sweep(broker.address, spec)
        assert first.executed == len(spec.points())
        assert again.executed == 0
        assert again.cached == len(spec.points())
        assert again.records == first.records

    def test_broker_restart_resumes_from_cache_commit_point(self, tmp_path):
        spec = small_spec(seeds=tuple(range(8)))  # 4 units of 2
        cache_dir = tmp_path / "cache"
        broker = Broker(cache_dir, unit_size=2)
        broker.start()
        try:
            queue_sweep(broker.address, spec)
            # Drain exactly two units, then the worker exits.
            done = run_worker(broker.address, max_units=2, reconnect=2.0)
            assert done == 2
        finally:
            broker.stop()  # in-memory job state gone; cache survives
        cached = ResultCache(cache_dir, spec.spec_hash())
        try:
            assert len(list(cached.iter_records())) == 4  # 2 units x 2 trials
        finally:
            cached.close()
        # A fresh broker on the same directory resumes: 4 trials are
        # already durable, only the remaining 4 execute.
        with Broker(cache_dir, unit_size=2) as broker:
            start_worker_thread(broker.address, reconnect=2.0)
            result = submit_sweep(broker.address, spec)
        assert result.cached == 4
        assert result.executed == 4
        assert result.records == run_sweep(spec, workers=1).records

    def test_concurrent_submissions_share_one_job(self, tmp_path):
        spec = small_spec()
        results: list = []
        with Broker(tmp_path / "cache", unit_size=2) as broker:
            clients = [
                threading.Thread(
                    target=lambda: results.append(submit_sweep(broker.address, spec))
                )
                for _ in range(3)
            ]
            for client in clients:
                client.start()
            start_worker_thread(broker.address, reconnect=2.0)
            for client in clients:
                client.join(timeout=60.0)
        assert len(results) == 3
        assert results[0].records == results[1].records == results[2].records
        # One job executed the grid once; every watcher saw the merge.
        assert {r.executed for r in results} == {len(spec.points())}


class TestFaultPaths:
    def test_mid_batch_disconnect_requeues_cleanly(self, tmp_path):
        """A worker that dies mid-result never half-merges its unit."""
        spec = small_spec()
        with Broker(tmp_path / "cache", unit_size=2, lease_timeout=30.0) as broker:
            queue_sweep(broker.address, spec)
            # Hand-roll a worker that leases a unit, starts a result
            # frame, and dies after promising more bytes than it sends.
            sock = socket.create_connection(broker.address)
            send_message(sock, "hello", workers=1)
            recv_message(sock, "welcome")
            send_message(sock, "lease", wait=5.0)
            unit, _ = recv_message(sock, "unit")
            from repro.service.protocol import _PROLOGUE, MAGIC

            sock.sendall(_PROLOGUE.pack(MAGIC, 500, 10_000, 0) + b'{"type":"result"')
            sock.close()

            def leased_count() -> int:
                job = broker_status(broker.address)["jobs"][spec.spec_hash()]
                return job["leased"]

            deadline = threading.Event()
            for _ in range(200):  # disconnect re-queue is immediate-ish
                if leased_count() == 0:
                    break
                deadline.wait(0.05)
            status = broker_status(broker.address)["jobs"][spec.spec_hash()]
            assert status["leased"] == 0
            assert status["merged"] == 0  # nothing half-merged
            assert status["attempts"] >= 1
            # An honest worker now finishes the whole grid.
            start_worker_thread(broker.address, reconnect=2.0)
            result = submit_sweep(broker.address, spec)
        assert result.records == run_sweep(spec, workers=1).records

    def test_duplicate_result_is_acked_and_dropped(self, tmp_path):
        spec = small_spec(seeds=(0, 1))
        with Broker(tmp_path / "cache", unit_size=2) as broker:
            queue_sweep(broker.address, spec)
            sock = socket.create_connection(broker.address)
            try:
                send_message(sock, "hello", workers=1)
                recv_message(sock, "welcome")
                send_message(sock, "lease", wait=5.0)
                unit, _ = recv_message(sock, "unit")
                from repro.service.worker import _execute_unit

                rebuilt = SweepSpec.from_payload(unit["spec"])
                indices = [int(i) for i in unit["indices"]]
                records = _execute_unit(rebuilt, rebuilt.points(), indices, 1)
                from repro.service.protocol import encode_records

                payload = encode_records(records)
                frame = dict(job=unit["job"], unit=unit["unit"], indices=indices)
                send_message(sock, "result", payload, **frame)
                first, _ = recv_message(sock, "ack")
                send_message(sock, "result", payload, **frame)
                second, _ = recv_message(sock, "ack")
            finally:
                sock.close()
            assert first["merged"] is True
            assert second["merged"] is False  # dropped, not double-merged
            result = submit_sweep(broker.address, spec)
        assert len(result.records) == 2

    def test_deterministic_error_fails_job_fast(self, tmp_path):
        # regular graphs need n * delta even: every lease of that unit
        # would fail identically, so the worker reports unit-failed and
        # the broker fails the job instead of re-queueing five times.
        bad = SweepSpec(
            name="bad", families=("regular",), ns=(21,), deltas=("9",),
            algorithms=("trivial",), seeds=(0, 1), preset="testing",
        )
        with Broker(tmp_path / "cache") as broker:
            start_worker_thread(broker.address, reconnect=2.0)
            with pytest.raises(ServiceError, match="GenerationError"):
                submit_sweep(broker.address, bad)
            status = broker_status(broker.address)["jobs"][bad.spec_hash()]
            assert status["failed"] is not None

    def test_failed_job_can_be_resubmitted_fresh(self, tmp_path):
        spec = small_spec(seeds=(0, 1))
        with Broker(tmp_path / "cache", max_attempts=1, lease_timeout=0.2) as broker:
            queue_sweep(broker.address, spec)
            # Lease and sit on the unit until the single allowed attempt
            # burns out and the job fails.
            sock = socket.create_connection(broker.address)
            try:
                send_message(sock, "hello", workers=1)
                recv_message(sock, "welcome")
                send_message(sock, "lease", wait=5.0)
                recv_message(sock, "unit")
                for _ in range(100):
                    status = broker_status(broker.address)["jobs"][spec.spec_hash()]
                    if status["failed"]:
                        break
                    threading.Event().wait(0.05)
                assert status["failed"] is not None
            finally:
                sock.close()
            # The next submission re-registers the job from scratch.
            start_worker_thread(broker.address, reconnect=2.0)
            result = submit_sweep(broker.address, spec)
        assert len(result.records) == 2

    def test_submit_timeout_raises_service_error(self, tmp_path):
        # No workers and a heartbeat-free silence window shorter than
        # the broker's 2s beat: the client must time out, not hang.
        spec = small_spec(seeds=(0,))
        with Broker(tmp_path / "cache") as broker:
            address = broker.address
            with pytest.raises((ServiceError, WireError)):
                submit_sweep(address, spec, timeout=0.3)

    def test_unreachable_broker_is_a_service_error(self, tmp_path):
        with Broker(tmp_path / "cache") as broker:
            address = broker.address
        # Broker stopped: the port is closed, the redial budget is tiny,
        # and the first dial never succeeding is the caller's problem.
        with pytest.raises(ServiceError):
            run_worker(address, reconnect=0.2)


class TestShutdownHygiene:
    """Satellite: the broker knows (and says) whether it stopped cleanly."""

    def test_is_clean_shutdown_lifecycle(self, tmp_path):
        broker = Broker(tmp_path / "cache")
        assert broker.is_clean_shutdown is False  # never started
        broker.start()
        assert broker.is_clean_shutdown is False  # still running
        broker.stop()
        assert broker.is_clean_shutdown is True

    def test_stop_is_clean_with_an_idle_worker_attached(self, tmp_path):
        # The accept thread is parked in accept() and a conn thread is
        # parked waiting for the idle worker's next lease: both must be
        # woken by stop(), not abandoned to the join timeout.
        with Broker(tmp_path / "cache") as broker:
            start_worker_thread(broker.address, reconnect=0.5)
            spec = small_spec(seeds=(0, 1))
            result = submit_sweep(broker.address, spec)
        assert len(result.records) == 2
        assert broker.is_clean_shutdown is True


class TestStatusErrors:
    """Satellite: broker_status against dead or hung peers is typed."""

    def test_dead_address_is_a_typed_error_naming_the_peer(self, tmp_path):
        with Broker(tmp_path / "cache") as broker:
            host, port = broker.address
        # Broker stopped: the port refuses connections.
        with pytest.raises(ServiceError, match=f"{host}:{port}"):
            broker_status((host, port), retry=0.2)

    def test_hung_peer_is_a_typed_not_answering_error(self):
        # A listener that accepts and then says nothing: the client's
        # read deadline must turn the silence into a typed error, fast.
        server = socket.create_server(("127.0.0.1", 0))
        host, port = server.getsockname()[:2]
        try:
            with pytest.raises(ServiceError, match="not answering"):
                broker_status((host, port), retry=0.5, timeout=0.3)
        finally:
            server.close()

    def test_status_cli_exits_2_on_dead_broker(self, tmp_path, capsys):
        from repro.cli import main

        with Broker(tmp_path / "cache") as broker:
            host, port = broker.address
        assert main([
            "status", "--connect", f"{host}:{port}", "--retry", "0.2",
        ]) == 2
        assert f"{host}:{port}" in capsys.readouterr().err
