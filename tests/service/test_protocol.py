"""Wire-protocol robustness: torn frames raise, they never hang or lie.

Every malformed stream the sweep service can meet — truncated frame,
oversized length prefix, garbage header, a peer that dies mid-frame —
must surface as a typed :class:`~repro.errors.WireError` from
``recv_frame``, because the broker's re-queue logic and the worker's
reconnect loop both key off that one exception.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
import zlib

import pytest

from repro.errors import ReproError, ServiceError, WireError
from repro.experiments.harness import run_trials
from repro.graphs.generators import complete_graph
from repro.service.protocol import (
    MAGIC,
    MAX_HEADER_BYTES,
    MAX_PAYLOAD_BYTES,
    decode_records,
    encode_records,
    format_address,
    parse_address,
    recv_frame,
    recv_message,
    send_frame,
    send_message,
)

_PROLOGUE = struct.Struct("<4sIQI")


def prologue(magic: bytes, header_len: int, payload_len: int,
             body: bytes = b"") -> bytes:
    """Hand-build a prologue; ``body`` is whatever the CRC should cover."""
    return _PROLOGUE.pack(magic, header_len, payload_len, zlib.crc32(body))


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


def sample_records():
    return run_trials(complete_graph(16), "trivial", range(2))


class TestFraming:
    def test_round_trip_with_payload(self, pair):
        a, b = pair
        send_frame(a, {"type": "result", "unit": "u1"}, b"\x00\x01binary")
        header, payload = recv_frame(b)
        assert header == {"type": "result", "unit": "u1"}
        assert payload == b"\x00\x01binary"

    def test_empty_payload_default(self, pair):
        a, b = pair
        send_message(a, "lease", wait=0.5)
        header, payload = recv_frame(b)
        assert header["wait"] == 0.5
        assert payload == b""

    def test_bad_magic_rejected(self, pair):
        a, b = pair
        a.sendall(prologue(b"EVIL", 2, 0, b"{}") + b"{}")
        with pytest.raises(WireError, match="magic"):
            recv_frame(b)

    def test_oversized_header_prefix_rejected_before_allocation(self, pair):
        a, b = pair
        a.sendall(prologue(MAGIC, MAX_HEADER_BYTES + 1, 0))
        with pytest.raises(WireError, match="header length prefix"):
            recv_frame(b)

    def test_oversized_payload_prefix_rejected_before_allocation(self, pair):
        a, b = pair
        # A garbage prefix decoding as ~2**63 bytes must not allocate.
        a.sendall(prologue(MAGIC, 2, MAX_PAYLOAD_BYTES + 1, b"{}") + b"{}")
        with pytest.raises(WireError, match="payload length prefix"):
            recv_frame(b)

    def test_truncated_prologue_is_wire_error(self, pair):
        a, b = pair
        a.sendall(MAGIC + b"\x01")  # 5 of 20 prologue bytes, then EOF
        a.close()
        with pytest.raises(WireError, match="mid-frame"):
            recv_frame(b)

    def test_truncated_header_is_wire_error(self, pair):
        a, b = pair
        a.sendall(prologue(MAGIC, 100, 0) + b'{"type"')
        a.close()
        with pytest.raises(WireError, match="frame header"):
            recv_frame(b)

    def test_truncated_payload_is_wire_error(self, pair):
        a, b = pair
        # Promise 1000 payload bytes, deliver 4, die: the exact shape of
        # a worker SIGKILLed mid-report.
        raw = b'{"type":"result"}'
        a.sendall(prologue(MAGIC, len(raw), 1000) + raw + b"oops")
        a.close()
        with pytest.raises(WireError, match="frame payload"):
            recv_frame(b)

    def test_clean_eof_is_flagged(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(WireError) as excinfo:
            recv_frame(b)
        assert excinfo.value.clean_eof is True

    def test_mid_frame_eof_is_not_clean(self, pair):
        a, b = pair
        a.sendall(MAGIC)
        a.close()
        with pytest.raises(WireError) as excinfo:
            recv_frame(b)
        assert excinfo.value.clean_eof is False

    def test_garbage_header_is_wire_error(self, pair):
        a, b = pair
        raw = b"\xffnot json at all"
        a.sendall(prologue(MAGIC, len(raw), 0, raw) + raw)
        with pytest.raises(WireError, match="garbage"):
            recv_frame(b)

    def test_header_must_be_object_with_type(self, pair):
        a, b = pair
        for raw in (b"[1,2]", b'{"no_type":1}', b'{"type":7}'):
            a.sendall(prologue(MAGIC, len(raw), 0, raw) + raw)
            with pytest.raises(WireError, match="'type'"):
                recv_frame(b)

    def test_send_refuses_oversized_header(self, pair):
        a, _b = pair
        with pytest.raises(WireError, match="exceeds the cap"):
            send_frame(a, {"type": "x", "blob": "y" * (MAX_HEADER_BYTES + 1)})

    def test_large_frame_survives_socket_chunking(self, pair):
        a, b = pair
        payload = bytes(range(256)) * 4096  # 1 MiB, > any socket buffer
        received: list[bytes] = []
        reader = threading.Thread(
            target=lambda: received.append(recv_frame(b)[1])
        )
        reader.start()
        send_frame(a, {"type": "result"}, payload)
        reader.join(timeout=10.0)
        assert received == [payload]


class TestChecksum:
    def corrupted_frame(self, at: int) -> bytes:
        """A valid result frame with one byte XOR-flipped at offset ``at``."""
        a, b = socket.socketpair()
        try:
            send_frame(a, {"type": "result", "unit": "u1"}, b"payload-bytes")
            raw = bytearray(b.recv(65536))
        finally:
            a.close()
            b.close()
        raw[at] ^= 0x40
        return bytes(raw)

    def test_corrupt_payload_byte_is_caught(self, pair):
        a, b = pair
        # Flip the LAST byte — deep inside the payload, past everything
        # the header checks could see.  Without the CRC this byte would
        # merge silently as wrong record data.
        frame = self.corrupted_frame(-1)
        a.sendall(frame)
        with pytest.raises(WireError, match="checksum mismatch"):
            recv_frame(b)

    def test_corrupt_header_byte_is_caught(self, pair):
        a, b = pair
        frame = self.corrupted_frame(_PROLOGUE.size + 2)
        a.sendall(frame)
        with pytest.raises(WireError, match="checksum mismatch"):
            recv_frame(b)

    def test_clean_frame_passes_the_checksum(self, pair):
        a, b = pair
        send_frame(a, {"type": "result"}, bytes(range(256)))
        header, payload = recv_frame(b)
        assert header["type"] == "result"
        assert payload == bytes(range(256))


class TestReadDeadlines:
    def test_idle_peer_at_frame_boundary_is_not_timed_out(self, pair):
        a, b = pair
        # Nothing sent for longer than the frame deadline: the read
        # must still complete once a whole frame finally arrives.
        def late_send():
            time.sleep(0.3)
            send_frame(a, {"type": "lease"})
        threading.Thread(target=late_send, daemon=True).start()
        header, _payload = recv_frame(b, frame_timeout=0.15)
        assert header["type"] == "lease"

    def test_stalled_mid_frame_peer_times_out_typed(self, pair):
        a, b = pair
        a.sendall(MAGIC)  # first bytes arrive, then silence
        with pytest.raises(WireError, match="stalled") as excinfo:
            recv_frame(b, frame_timeout=0.15)
        assert excinfo.value.timed_out is True

    def test_slow_drip_past_the_deadline_times_out_typed(self, pair):
        a, b = pair
        frame = bytearray()
        fake = socket.socketpair()
        try:
            send_frame(fake[0], {"type": "lease"})
            frame += fake[1].recv(65536)
        finally:
            fake[0].close()
            fake[1].close()

        def drip():
            try:
                for offset in range(len(frame)):
                    a.sendall(frame[offset:offset + 1])
                    time.sleep(0.05)
            except OSError:
                pass

        threading.Thread(target=drip, daemon=True).start()
        with pytest.raises(WireError, match="stalled") as excinfo:
            recv_frame(b, frame_timeout=0.2)
        assert excinfo.value.timed_out is True

    def test_previous_socket_timeout_is_restored(self, pair):
        a, b = pair
        b.settimeout(7.5)
        send_frame(a, {"type": "lease"})
        recv_frame(b, frame_timeout=5.0)
        assert b.gettimeout() == 7.5


class TestMessages:
    def test_recv_message_checks_type(self, pair):
        a, b = pair
        send_message(a, "idle")
        with pytest.raises(WireError, match="expected 'unit'"):
            recv_message(b, "unit")

    def test_error_frames_surface_as_wire_errors(self, pair):
        a, b = pair
        send_message(a, "error", message="job failed: boom")
        with pytest.raises(WireError, match="job failed: boom"):
            recv_message(b, "done")


class TestRecordCodec:
    def test_batch_codec_round_trip(self):
        records = sample_records()
        assert decode_records(encode_records(records)) == records

    def test_undecodable_payload_is_wire_error(self):
        with pytest.raises(WireError, match="undecodable"):
            decode_records(b"this is not a batch")
        with pytest.raises(WireError, match="undecodable"):
            decode_records(b"TRB2\x05\x00\x00\x00" + b"\x00" * 7)

    def test_former_pickle_payload_is_wire_error(self, monkeypatch):
        """A pickled result payload is refused without being unpickled."""
        import pickle

        payload = pickle.dumps(sample_records())

        def forbidden(*args, **kwargs):
            raise AssertionError("decode_records unpickled a wire payload")

        monkeypatch.setattr(pickle, "loads", forbidden)
        with pytest.raises(WireError, match="undecodable"):
            decode_records(payload)


class TestAddresses:
    def test_round_trip(self):
        assert parse_address("10.0.0.7:7641") == ("10.0.0.7", 7641)
        assert format_address(("10.0.0.7", 7641)) == "10.0.0.7:7641"

    def test_bad_addresses(self):
        for text in ("nocolon", ":7641", "host:notaport"):
            with pytest.raises(WireError):
                parse_address(text)

    def test_wire_error_is_typed(self):
        # The CLI and callers catch the project-root error type.
        assert issubclass(WireError, ServiceError)
        assert issubclass(ServiceError, ReproError)
