"""The chaos layer's own mechanics: schedules, streams, proxy plumbing.

These are the *unit* tests — schedule validation, per-stream fault
transforms against in-memory byte sinks, partition admission logic,
and the proxy forwarding real bytes through an echo server.  The
end-to-end soak (full broker + workers + faults, byte-identity
against a serial sweep) lives in ``test_chaos_soak.py``.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.errors import ChaosError, ReproError, ServiceError
from repro.service.chaos import (
    FAULT_KINDS,
    ChaosProxy,
    FaultSchedule,
    _ChaosCore,
    _StreamChaos,
    random_schedule,
)


def schedule(*faults, seed=0) -> FaultSchedule:
    return FaultSchedule.from_payload({"seed": seed, "faults": list(faults)})


def run_stream(sched, data, conn=0, direction="up", chunks=None):
    """Push ``data`` through one stream; returns (forwarded, severed)."""
    stream = _StreamChaos(_ChaosCore(sched), conn, direction)
    out: list[bytes] = []
    kept = True
    for piece in (chunks if chunks is not None else [data]):
        kept = stream.transform(piece, out.append, sleep=lambda _s: None)
        if not kept:
            break
    return b"".join(out), not kept


class TestScheduleParsing:
    def test_round_trips_through_json(self):
        sched = schedule(
            {"kind": "delay", "conn": 0, "direction": "up", "ms": 5, "op": 1},
            {"kind": "slow-drip", "bytes": 64, "chunk": 3, "ms": 1},
            {"kind": "truncate", "conn": [1, 2], "after_bytes": 100},
            {"kind": "corrupt", "at_byte": 17, "mask": 0x40},
            {"kind": "drop", "direction": "down", "after_ops": 2},
            {"kind": "partition", "at_conn": 3, "refuse": 2, "heal_ms": 50},
            seed=42,
        )
        assert FaultSchedule.from_json(sched.to_json()) == sched
        assert FaultSchedule.from_payload(sched.describe()) == sched

    def test_errors_name_the_rule_position(self):
        good = {"kind": "delay", "ms": 5}
        cases = [
            ("not-a-dict", ["nope"]),
            ("unknown kind", [{"kind": "meteor"}]),
            ("unknown key", [{"kind": "delay", "ms": 5, "meteor": 1}]),
            ("delay without ms", [{"kind": "delay"}]),
            ("slow-drip without bytes", [{"kind": "slow-drip"}]),
            ("truncate without after_bytes", [{"kind": "truncate"}]),
            ("corrupt without at_byte", [{"kind": "corrupt"}]),
            ("corrupt zero mask", [{"kind": "corrupt", "at_byte": 0, "mask": 0}]),
            ("drop without after_ops", [{"kind": "drop"}]),
            ("partition without healing",
             [{"kind": "partition", "at_conn": 1}]),
            ("bad conn", [{"kind": "delay", "ms": 5, "conn": "two"}]),
            ("bad direction", [{"kind": "delay", "ms": 5, "direction": "left"}]),
        ]
        for label, faults in cases:
            with pytest.raises(ChaosError, match=r"rule #1"):
                schedule(good, *faults)
            assert label  # silences the unused-variable linter

    def test_chaos_errors_are_typed_service_errors(self):
        with pytest.raises(ServiceError):
            FaultSchedule.from_json("{not json")
        with pytest.raises(ReproError, match="version"):
            FaultSchedule.from_payload({"version": 9, "faults": []})
        with pytest.raises(ChaosError, match="unknown fault schedule key"):
            FaultSchedule.from_payload({"faults": [], "extra": 1})

    def test_from_file_and_missing_file(self, tmp_path):
        path = tmp_path / "sched.json"
        sched = schedule({"kind": "delay", "ms": 5}, seed=3)
        path.write_text(sched.to_json(), encoding="utf-8")
        assert FaultSchedule.from_file(path) == sched
        with pytest.raises(ChaosError, match="cannot read"):
            FaultSchedule.from_file(tmp_path / "absent.json")

    def test_random_schedule_is_deterministic_in_its_seed(self):
        assert random_schedule(1234) == random_schedule(1234)
        assert random_schedule(1234) != random_schedule(1235)
        # Every kind must be reachable by the fuzzer.
        seen = set()
        for seed in range(80):
            seen.update(r.kind for r in random_schedule(seed).rules)
        assert seen == set(FAULT_KINDS)


class TestStreamTransforms:
    def test_clean_stream_is_identity(self):
        data = bytes(range(256))
        out, severed = run_stream(schedule(), data)
        assert (out, severed) == (data, False)

    def test_corrupt_flips_exactly_one_byte_at_the_offset(self):
        out, severed = run_stream(
            schedule({"kind": "corrupt", "at_byte": 10, "mask": 0xFF}),
            bytes(32),
            chunks=[bytes(8), bytes(8), bytes(16)],  # offset spans chunks
        )
        assert not severed
        assert out[10] == 0xFF
        assert out[:10] == bytes(10) and out[11:] == bytes(21)

    def test_truncate_forwards_then_severs(self):
        out, severed = run_stream(
            schedule({"kind": "truncate", "after_bytes": 5}), b"abcdefghij"
        )
        assert (out, severed) == (b"abcde", True)

    def test_drop_blackholes_after_n_ops(self):
        out, severed = run_stream(
            schedule({"kind": "drop", "after_ops": 2}),
            None,
            chunks=[b"one", b"two", b"three", b"four"],
        )
        assert (out, severed) == (b"onetwo", False)

    def test_slow_drip_preserves_bytes_exactly(self):
        data = bytes(range(100))
        out, severed = run_stream(
            schedule({"kind": "slow-drip", "bytes": 24, "chunk": 5, "ms": 0}),
            data,
        )
        assert (out, severed) == (data, False)

    def test_rules_only_fire_on_matching_conn_and_direction(self):
        sched = schedule(
            {"kind": "truncate", "after_bytes": 0, "conn": 1, "direction": "up"}
        )
        out, severed = run_stream(sched, b"data", conn=0, direction="up")
        assert (out, severed) == (b"data", False)
        out, severed = run_stream(sched, b"data", conn=1, direction="down")
        assert (out, severed) == (b"data", False)
        out, severed = run_stream(sched, b"data", conn=1, direction="up")
        assert (out, severed) == (b"", True)

    def test_fired_faults_land_in_the_event_log_with_positions(self):
        core = _ChaosCore(schedule(
            {"kind": "delay", "ms": 1},
            {"kind": "truncate", "after_bytes": 2},
        ))
        stream = _StreamChaos(core, 0, "up")
        stream.transform(b"abcd", lambda _b: None, sleep=lambda _s: None)
        positions = [(e["rule"], e["kind"]) for e in core.events()]
        assert positions == [(0, "delay"), (1, "truncate")]


class TestPartitions:
    def test_trigger_severs_refuses_then_heals(self):
        core = _ChaosCore(schedule({"kind": "partition", "at_conn": 2, "refuse": 2}))
        severed: list[int] = []
        admitted = []
        for index in range(7):
            got, refused = core.admit()
            assert got == index
            if not refused:
                core.register(index, lambda i=index: severed.append(i))
            admitted.append(not refused)
        # 0, 1 admitted; 2 triggers (severing 0 and 1); 3, 4 refused;
        # 5, 6 healed.
        assert admitted == [True, True, False, False, False, True, True]
        assert severed == [0, 1]

    def test_core_without_partitions_admits_everything(self):
        core = _ChaosCore(schedule({"kind": "delay", "ms": 1}))
        assert [core.admit() for _ in range(3)] == [
            (0, False), (1, False), (2, False),
        ]


class _EchoServer:
    """A TCP echo upstream for proxy tests."""

    def __init__(self) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _addr = self.listener.accept()
            except OSError:
                return
            def pump(conn=conn):
                try:
                    while data := conn.recv(65536):
                        conn.sendall(data)
                except OSError:
                    pass
                finally:
                    conn.close()
            threading.Thread(target=pump, daemon=True).start()

    def close(self) -> None:
        self.listener.close()


@pytest.fixture()
def echo():
    server = _EchoServer()
    yield server
    server.close()


class TestChaosProxy:
    def test_clean_schedule_is_a_transparent_pipe(self, echo):
        with ChaosProxy(echo.address, schedule()) as proxy:
            with socket.create_connection(proxy.address, timeout=5.0) as sock:
                sock.sendall(b"ping" * 1000)
                got = b""
                while len(got) < 4000:
                    got += sock.recv(65536)
        assert got == b"ping" * 1000
        assert proxy.events() == []

    def test_corrupt_rule_flips_the_byte_end_to_end(self, echo):
        sched = schedule({"kind": "corrupt", "at_byte": 2, "mask": 0x01,
                          "direction": "up"})
        with ChaosProxy(echo.address, sched) as proxy:
            with socket.create_connection(proxy.address, timeout=5.0) as sock:
                sock.sendall(b"AAAA")
                got = sock.recv(4)
        assert got == b"AA\x40A"  # 0x41 ^ 0x01
        assert [e["kind"] for e in proxy.events()] == ["corrupt"]

    def test_truncate_rule_severs_the_link(self, echo):
        sched = schedule({"kind": "truncate", "after_bytes": 2,
                          "direction": "up"})
        with ChaosProxy(echo.address, sched) as proxy:
            with socket.create_connection(proxy.address, timeout=5.0) as sock:
                sock.settimeout(5.0)
                sock.sendall(b"ABCDEF")
                got = b""
                try:
                    while chunk := sock.recv(16):
                        got += chunk
                except OSError:
                    pass  # the sever's RST can beat the echoed bytes back
        # At most the 2 surviving bytes ever reach the client, and the
        # event log pins the sever on the truncate rule.
        assert b"AB".startswith(got)
        assert [e["kind"] for e in proxy.events()] == ["truncate"]

    def test_partition_refuses_then_heals(self, echo):
        sched = schedule({"kind": "partition", "at_conn": 1, "refuse": 1})
        with ChaosProxy(echo.address, sched) as proxy:
            def roundtrip() -> bytes:
                with socket.create_connection(proxy.address, timeout=5.0) as s:
                    s.settimeout(5.0)
                    s.sendall(b"hi")
                    try:
                        return s.recv(2)
                    except OSError:
                        return b""
            assert roundtrip() == b"hi"   # conn 0: clean
            assert roundtrip() == b""     # conn 1: partition trigger
            assert roundtrip() == b""     # conn 2: refused
            assert roundtrip() == b"hi"   # conn 3: healed
        kinds = [e["kind"] for e in proxy.events()]
        assert kinds.count("partition") == 2

    def test_start_twice_is_a_chaos_error(self, echo):
        proxy = ChaosProxy(echo.address, schedule())
        proxy.start()
        try:
            with pytest.raises(ChaosError, match="already started"):
                proxy.start()
        finally:
            proxy.stop()

    def test_address_before_start_is_a_chaos_error(self, echo):
        with pytest.raises(ChaosError, match="not running"):
            ChaosProxy(echo.address, schedule()).address
