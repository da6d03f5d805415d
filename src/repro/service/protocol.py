"""Framed wire protocol of the distributed sweep service.

Every message between a broker, a worker host, and a submitting
client is one **frame** on a stream socket::

    "RSV2" | u32 header_len | u64 payload_len | u32 crc | header | payload

* the 4-byte magic names the protocol (and version — bump on layout
  changes; ``RSV2`` added the checksum);
* the **crc** is the CRC-32 of header + payload, so a byte corrupted
  anywhere in flight — including deep inside a record batch, where a
  flipped float would otherwise merge silently — is a typed
  :class:`~repro.errors.WireError` at the receiver, never wrong data;
* the **header** is a compact JSON object; its ``"type"`` key selects
  the message (``submit``, ``lease``, ``unit``, ``result`` …) and the
  remaining keys are small scalars and lists;
* the **payload** is raw bytes for the messages that carry bulk data
  — completed trial records travel as the *same* columnar batch blob
  the in-process fabric uses
  (:func:`repro.experiments.results_io.pack_record_batch`), so the
  wire format is the fabric's batch format with a length prefix in
  front.  Nothing read off a socket is unpickled: a payload that is
  not a batch is a :class:`~repro.errors.WireError`.

Both length prefixes are capped (:data:`MAX_HEADER_BYTES`,
:data:`MAX_PAYLOAD_BYTES`): a corrupt or hostile prefix raises
:class:`~repro.errors.WireError` *before* any allocation, and a
connection that closes mid-frame raises the same typed error instead
of returning a half-read message.  Receivers treat ``WireError`` as
"this peer is gone" — the broker re-queues the peer's leased units,
a worker reconnects — so a torn frame can never half-merge a batch.

A frame round-trips over any stream socket pair:

>>> import socket
>>> a, b = socket.socketpair()
>>> send_frame(a, {"type": "lease"})
>>> header, payload = recv_frame(b)
>>> (header["type"], payload)
('lease', b'')
>>> a.close(); b.close()

The protocol has no authentication: any peer that connects can submit
work or return records, and the CRC catches accidents, not
adversaries.  Point brokers and workers only at hosts you control.
"""

from __future__ import annotations

import json
import reprlib
import socket
import struct
import time
import zlib
from typing import Any

from repro.errors import WireError
from repro.experiments.harness import TrialRecord
from repro.experiments.results_io import pack_record_batch, unpack_record_batch

__all__ = [
    "MAGIC",
    "MAX_HEADER_BYTES",
    "MAX_PAYLOAD_BYTES",
    "send_frame",
    "recv_frame",
    "send_message",
    "recv_message",
    "header_name",
    "header_indices",
    "encode_records",
    "decode_records",
    "parse_address",
    "format_address",
]

#: Protocol magic + version; a peer speaking anything else is rejected.
MAGIC = b"RSV2"

#: Fixed-size frame prologue: magic, header length, payload length,
#: CRC-32 of header + payload.
_PROLOGUE = struct.Struct("<4sIQI")

#: Headers are small JSON objects; anything bigger is a corrupt or
#: hostile length prefix, refused before allocation.
MAX_HEADER_BYTES = 1 << 20  # 1 MiB

#: Payloads are record batches; one unit is at most a few thousand
#: records, so this cap is generous while still rejecting garbage
#: prefixes (which tend to decode as astronomical lengths).
MAX_PAYLOAD_BYTES = 1 << 30  # 1 GiB


def _recv_exact(
    sock: socket.socket,
    count: int,
    what: str,
    deadline: float | None = None,
) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`WireError`.

    A clean EOF at a frame boundary (``count`` requested, zero bytes
    ever received, ``what`` is the prologue) is still a ``WireError``
    — callers that want to treat idle disconnects gracefully catch it
    and inspect :attr:`WireError.clean_eof`.

    With a ``deadline`` (a :func:`time.monotonic` instant), the read
    must finish by then: a peer that stalls or slow-drips raises a
    ``WireError`` with ``timed_out`` set instead of wedging the
    reader forever.
    """
    chunks: list[bytes] = []
    received = 0
    while received < count:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                error = WireError(
                    f"peer stalled mid-frame: read deadline expired while "
                    f"reading {what} ({received} of {count} bytes)"
                )
                error.timed_out = True
                raise error
        try:
            if deadline is not None:
                sock.settimeout(remaining)
            chunk = sock.recv(min(65536, count - received))
        except TimeoutError:
            error = WireError(
                f"peer stalled: read deadline expired while reading "
                f"{what} ({received} of {count} bytes)"
            )
            error.timed_out = True
            raise error from None
        except OSError as error:
            raise WireError(f"connection lost while reading {what}: {error}") from None
        if not chunk:
            error = WireError(
                f"connection closed mid-frame while reading {what} "
                f"({received} of {count} bytes)"
            )
            error.clean_eof = received == 0 and what == "frame prologue"
            raise error
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def send_frame(
    sock: socket.socket,
    header: dict[str, Any],
    payload: bytes = b"",
    *,
    timeout: float | None = None,
) -> None:
    """Write one frame (header JSON + optional binary payload).

    With ``timeout``, the whole send must finish within that many
    seconds — a peer that accepts the connection but never drains its
    receive buffer raises a :class:`WireError` instead of wedging the
    sender (the broker bounds every per-connection send this way).
    The socket's previous timeout is restored afterwards.
    """
    raw_header = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(raw_header) > MAX_HEADER_BYTES:
        raise WireError(f"header of {len(raw_header)} bytes exceeds the cap")
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise WireError(f"payload of {len(payload)} bytes exceeds the cap")
    crc = zlib.crc32(payload, zlib.crc32(raw_header))
    prologue = _PROLOGUE.pack(MAGIC, len(raw_header), len(payload), crc)
    previous = sock.gettimeout() if timeout is not None else None
    try:
        if timeout is not None:
            sock.settimeout(timeout)
        sock.sendall(prologue + raw_header + payload)
    except TimeoutError:
        error = WireError(
            f"peer stalled: send deadline ({timeout:g}s) expired mid-frame"
        )
        error.timed_out = True
        raise error from None
    except OSError as error:
        raise WireError(f"connection lost while sending a frame: {error}") from None
    finally:
        if timeout is not None:
            try:
                sock.settimeout(previous)
            except OSError:  # pragma: no cover - socket already dead
                pass


def recv_frame(
    sock: socket.socket, *, frame_timeout: float | None = None
) -> tuple[dict[str, Any], bytes]:
    """Read one frame; returns ``(header, payload)``.

    Raises :class:`WireError` — never hangs on a malformed stream and
    never returns partial data — for bad magic, oversized length
    prefixes, truncation anywhere inside the frame, and headers that
    are not a JSON object with a string ``"type"``.

    ``frame_timeout`` adds a *mid-frame* read deadline: waiting at a
    frame boundary is unbounded (an idle peer is fine), but once the
    first byte of a frame arrives the rest must follow within
    ``frame_timeout`` seconds.  A slow-dripping or stalled peer then
    raises ``WireError`` (with ``timed_out`` set) instead of holding
    the reader hostage — this is how the broker keeps one wedged
    connection from pinning a handler thread forever.  The socket's
    previous timeout is restored afterwards.
    """
    previous = sock.gettimeout() if frame_timeout is not None else None
    try:
        if frame_timeout is None:
            prologue = _recv_exact(sock, _PROLOGUE.size, "frame prologue")
            deadline = None
        else:
            # Idle at the boundary is allowed: wait for the first byte
            # without a deadline, then the clock starts.
            try:
                sock.settimeout(None)
            except OSError as error:
                raise WireError(
                    f"connection lost before the frame prologue: {error}"
                ) from None
            first = _recv_exact(sock, 1, "frame prologue")
            deadline = time.monotonic() + frame_timeout
            prologue = first + _recv_exact(
                sock, _PROLOGUE.size - 1, "frame prologue", deadline
            )
        magic, header_len, payload_len, crc = _PROLOGUE.unpack(prologue)
        if magic != MAGIC:
            raise WireError(f"bad frame magic {magic!r} (want {MAGIC!r})")
        if header_len > MAX_HEADER_BYTES:
            raise WireError(
                f"header length prefix {header_len} exceeds the "
                f"{MAX_HEADER_BYTES}-byte cap"
            )
        if payload_len > MAX_PAYLOAD_BYTES:
            raise WireError(
                f"payload length prefix {payload_len} exceeds the "
                f"{MAX_PAYLOAD_BYTES}-byte cap"
            )
        raw_header = _recv_exact(sock, header_len, "frame header", deadline)
        payload = (
            _recv_exact(sock, payload_len, "frame payload", deadline)
            if payload_len
            else b""
        )
        if zlib.crc32(payload, zlib.crc32(raw_header)) != crc:
            raise WireError(
                "frame checksum mismatch — corrupted in flight, dropping "
                "the connection instead of trusting its bytes"
            )
        try:
            header = json.loads(raw_header.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise WireError(f"garbage frame header: {error}") from None
        if not isinstance(header, dict) or not isinstance(header.get("type"), str):
            raise WireError(
                "frame header must be a JSON object with a string 'type' key"
            )
        return header, payload
    finally:
        if frame_timeout is not None:
            try:
                sock.settimeout(previous)
            except OSError:  # pragma: no cover - socket already dead
                pass


def send_message(
    sock: socket.socket, type_: str, payload: bytes = b"", **fields: Any
) -> None:
    """Convenience wrapper: ``send_frame`` with ``type`` spliced in."""
    send_frame(sock, {"type": type_, **fields}, payload)


def recv_message(
    sock: socket.socket, *expect: str
) -> tuple[dict[str, Any], bytes]:
    """``recv_frame`` that checks the message type against ``expect``.

    An ``error`` frame from the peer is surfaced as a
    :class:`WireError` carrying the peer's message, so every
    request/response call site propagates broker-side failures as one
    typed error.
    """
    header, payload = recv_frame(sock)
    if header["type"] == "error" and "error" not in expect:
        raise WireError(f"peer reported: {header.get('message', 'unknown error')}")
    if expect and header["type"] not in expect:
        raise WireError(
            f"expected {' or '.join(expect)!r} frame, got {header['type']!r}"
        )
    return header, payload


def header_name(header: dict[str, Any], key: str) -> str:
    """The string field ``key`` of a frame header, or :class:`WireError`.

    Job hashes and unit ids key the peers' tables, so a missing or
    non-string value is a garbage header, never a lookup.
    """
    value = header.get(key)
    if not isinstance(value, str):
        raise WireError(
            f"{header['type']} frame needs a string {key!r}, got {reprlib.repr(value)}"
        )
    return value


def header_indices(header: dict[str, Any]) -> list[int]:
    """A frame's ``indices``: a list of plain ints, or :class:`WireError`."""
    value = header.get("indices")
    if not isinstance(value, list) or any(
        isinstance(i, bool) or not isinstance(i, int) for i in value
    ):
        raise WireError(
            f"{header['type']} frame needs a list of grid indices, "
            f"got {reprlib.repr(value)}"
        )
    return value


# ----------------------------------------------------------------------
# Record transport: the fabric's batch codec as the wire codec
# ----------------------------------------------------------------------


def encode_records(records: list[TrialRecord]) -> bytes:
    """Encode a completed batch as the fabric's columnar batch blob."""
    return pack_record_batch(records)


def decode_records(payload: bytes) -> list[TrialRecord]:
    """Inverse of :func:`encode_records`; :class:`WireError` on anything else."""
    try:
        return unpack_record_batch(payload)
    except (ValueError, TypeError, LookupError, struct.error, RecursionError) as error:
        raise WireError(f"undecodable record payload: {error}") from None


# ----------------------------------------------------------------------
# Address helpers
# ----------------------------------------------------------------------


def parse_address(text: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (the ``--connect`` argument) into a tuple."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise WireError(f"bad address {text!r}: want HOST:PORT")
    try:
        return host, int(port)
    except ValueError:
        raise WireError(f"bad port in address {text!r}") from None


def format_address(address: tuple[str, int]) -> str:
    """Inverse of :func:`parse_address`."""
    return f"{address[0]}:{address[1]}"
