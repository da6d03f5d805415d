"""Deterministic network-fault injection for the sweep service.

PR 9's crash-safety claim — merged output byte-identical to a serial
sweep no matter how workers, links, or the broker fail — was proven
for three hand-picked faults.  This module makes the *infrastructure*
fault space enumerable the way :mod:`repro.scenarios` made the
in-model fault space enumerable: a :class:`FaultSchedule` is a
seeded, JSON-describable list of concrete fault rules, and the same
schedule replays the same perturbations, so a failing soak run is a
seed you can rerun, not wall-clock luck.

The fault taxonomy (one rule kind each):

========== ==========================================================
``delay``     pause ``ms`` before forwarding an op on a connection
``slow-drip`` forward the next ``bytes`` bytes ``chunk`` at a time
              with ``ms`` between pieces (stalls a frame mid-read)
``truncate``  forward exactly ``after_bytes`` bytes, then sever the
              connection — a peer dying mid-frame
``corrupt``   XOR the byte at stream offset ``at_byte`` with ``mask``
              — caught by the wire framing, never half-merged
``drop``      after ``after_ops`` forwarded ops, silently discard the
              direction (blackhole; the socket stays open, so only a
              lease timeout or read deadline can recover)
``partition`` when connection ``at_conn`` arrives: sever every live
              connection, refuse it and the next ``refuse`` attempts
              (or refuse for ``heal_ms``), then heal
========== ==========================================================

Schedules run through :class:`ChaosProxy`, a TCP proxy that sits
between real broker and worker processes, so end-to-end CLI runs can
be faulted without patching any code (``repro chaos-proxy``).

Connections are numbered in acceptance order (0, 1, 2 …) and each
direction of each connection is an independent byte/op stream, so a
rule like *"corrupt byte 17 of connection 2's worker→broker stream"*
is exact.  Every fault that fires is appended to an event log
(:meth:`ChaosProxy.events`) naming its rule position, which is how a
soak failure is traced back to the schedule entry that caused it.

A schedule round-trips through JSON:

>>> from repro.service.chaos import FaultSchedule
>>> schedule = FaultSchedule.from_payload({
...     "seed": 7,
...     "faults": [{"kind": "delay", "conn": 0, "direction": "up", "ms": 5}],
... })
>>> FaultSchedule.from_payload(schedule.describe()) == schedule
True

Faults injected by this layer never raise anything of their own: they
surface as the symptom they simulate (a torn frame, a refused dial, a
silent peer) exactly as real infrastructure failures would, and the
hardened retry/deadline code under test must turn each one into a
typed :class:`~repro.errors.ServiceError` or a clean recovery.
:class:`~repro.errors.ChaosError` is reserved for *misuse* — a
malformed schedule names the offending rule's position.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.errors import ChaosError

__all__ = [
    "FaultRule",
    "FaultSchedule",
    "ChaosProxy",
    "random_schedule",
    "FAULT_KINDS",
]

#: Directions are named from the service's point of view: ``"up"`` is
#: the stream toward the broker (worker/client sends), ``"down"`` is
#: the stream from the broker.  ``"*"`` matches both.
_DIRECTIONS = ("up", "down", "*")

#: The complete fault taxonomy, in documentation order.
FAULT_KINDS = ("delay", "slow-drip", "truncate", "corrupt", "drop", "partition")


@dataclass(frozen=True)
class FaultRule:
    """One concrete fault.  Built via :meth:`FaultSchedule.from_payload`."""

    kind: str
    conn: tuple[int, ...] | None = None  # None matches every connection
    direction: str = "*"
    op: int | None = None           # delay: nth op only (None = every op)
    ms: float = 0.0                 # delay / slow-drip pacing
    bytes: int | None = None        # slow-drip: bytes dripped before resuming
    chunk: int = 1                  # slow-drip: piece size
    after_bytes: int | None = None  # truncate: bytes forwarded before sever
    at_byte: int | None = None      # corrupt: absolute stream offset
    mask: int = 0xFF                # corrupt: XOR mask
    after_ops: int | None = None    # drop: ops forwarded before blackhole
    at_conn: int | None = None      # partition: triggering connection index
    refuse: int = 0                 # partition: refusals after the trigger
    heal_ms: float = 0.0            # partition: alternative timed healing

    def matches(self, conn: int, direction: str) -> bool:
        if self.conn is not None and conn not in self.conn:
            return False
        return self.direction in ("*", direction)

    def describe(self) -> dict[str, Any]:
        """The JSON form this rule was parsed from (minimal keys)."""
        out: dict[str, Any] = {"kind": self.kind}
        if self.conn is not None:
            out["conn"] = self.conn[0] if len(self.conn) == 1 else list(self.conn)
        if self.direction != "*":
            out["direction"] = self.direction
        for key in ("op", "bytes", "after_bytes", "at_byte", "after_ops", "at_conn"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.ms:
            out["ms"] = self.ms
        if self.chunk != 1:
            out["chunk"] = self.chunk
        if self.mask != 0xFF:
            out["mask"] = self.mask
        if self.refuse:
            out["refuse"] = self.refuse
        if self.heal_ms:
            out["heal_ms"] = self.heal_ms
        return out


def _parse_rule(position: int, raw: Any) -> FaultRule:
    """Validate one schedule entry; :class:`ChaosError` names ``position``."""

    def bad(why: str) -> ChaosError:
        return ChaosError(f"fault schedule rule #{position}: {why}")

    if not isinstance(raw, dict):
        raise bad(f"must be a JSON object, got {type(raw).__name__}")
    kind = raw.get("kind")
    if kind not in FAULT_KINDS:
        raise bad(f"unknown kind {kind!r} (want one of {', '.join(FAULT_KINDS)})")
    known = {
        "kind", "conn", "direction", "op", "ms", "bytes", "chunk",
        "after_bytes", "at_byte", "mask", "after_ops", "at_conn",
        "refuse", "heal_ms",
    }
    unknown = set(raw) - known
    if unknown:
        raise bad(f"unknown key(s) {sorted(unknown)}")

    conn_raw = raw.get("conn", "*")
    conn: tuple[int, ...] | None
    if conn_raw == "*" or conn_raw is None:
        conn = None
    elif isinstance(conn_raw, int) and not isinstance(conn_raw, bool):
        conn = (conn_raw,)
    elif isinstance(conn_raw, list) and conn_raw and all(
        isinstance(c, int) and not isinstance(c, bool) for c in conn_raw
    ):
        conn = tuple(conn_raw)
    else:
        raise bad(f"conn must be an int, a list of ints, or '*', got {conn_raw!r}")
    direction = raw.get("direction", "*")
    if direction not in _DIRECTIONS:
        raise bad(f"direction must be one of {_DIRECTIONS}, got {direction!r}")

    def number(key: str, default: float, *, minimum: float = 0.0) -> float:
        value = raw.get(key, default)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise bad(f"{key} must be a number, got {value!r}")
        if not value >= minimum:
            raise bad(f"{key} must be >= {minimum}, got {value!r}")
        return float(value)

    def count(key: str, *, required: bool = False, minimum: int = 0) -> int | None:
        if key not in raw:
            if required:
                raise bad(f"kind {kind!r} requires {key!r}")
            return None
        value = raw[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            raise bad(f"{key} must be an int >= {minimum}, got {value!r}")
        return value

    rule = FaultRule(
        kind=kind,
        conn=conn,
        direction=direction,
        op=count("op"),
        ms=number("ms", 0.0),
        bytes=count("bytes"),
        chunk=count("chunk", minimum=1) or 1,
        after_bytes=count("after_bytes"),
        at_byte=count("at_byte"),
        mask=count("mask") if "mask" in raw else 0xFF,
        after_ops=count("after_ops"),
        at_conn=count("at_conn"),
        refuse=count("refuse") or 0,
        heal_ms=number("heal_ms", 0.0),
    )
    if kind == "delay" and rule.ms <= 0:
        raise bad("delay needs ms > 0")
    if kind == "slow-drip" and (rule.ms < 0 or rule.bytes is None):
        raise bad("slow-drip needs 'bytes' (and optionally ms/chunk)")
    if kind == "truncate" and rule.after_bytes is None:
        raise bad("truncate needs 'after_bytes'")
    if kind == "corrupt":
        if rule.at_byte is None:
            raise bad("corrupt needs 'at_byte'")
        if not 1 <= rule.mask <= 0xFF:
            raise bad(f"mask must be in [1, 255], got {rule.mask}")
    if kind == "drop" and rule.after_ops is None:
        raise bad("drop needs 'after_ops'")
    if kind == "partition":
        if rule.at_conn is None:
            raise bad("partition needs 'at_conn'")
        if rule.refuse == 0 and rule.heal_ms == 0.0:
            raise bad("partition needs 'refuse' and/or 'heal_ms' to heal from")
    return rule


@dataclass(frozen=True)
class FaultSchedule:
    """A seeded, ordered list of concrete fault rules (immutable)."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    @classmethod
    def from_payload(cls, payload: Any) -> "FaultSchedule":
        if not isinstance(payload, dict):
            raise ChaosError(
                f"a fault schedule is a JSON object, got {type(payload).__name__}"
            )
        version = payload.get("version", 1)
        if version != 1:
            raise ChaosError(f"unsupported fault schedule version {version!r}")
        unknown = set(payload) - {"version", "seed", "faults"}
        if unknown:
            raise ChaosError(f"unknown fault schedule key(s) {sorted(unknown)}")
        seed = payload.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ChaosError(f"fault schedule seed must be an int, got {seed!r}")
        faults = payload.get("faults", [])
        if not isinstance(faults, list):
            raise ChaosError("fault schedule 'faults' must be a list")
        rules = tuple(_parse_rule(i, raw) for i, raw in enumerate(faults))
        return cls(seed=seed, rules=rules)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as error:
            raise ChaosError(f"fault schedule is not valid JSON: {error}") from None
        return cls.from_payload(payload)

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultSchedule":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as error:
            raise ChaosError(f"cannot read fault schedule {path}: {error}") from None
        return cls.from_json(text)

    def describe(self) -> dict[str, Any]:
        """The JSON payload form (``from_payload`` round-trips it)."""
        return {
            "version": 1,
            "seed": self.seed,
            "faults": [rule.describe() for rule in self.rules],
        }

    def to_json(self) -> str:
        return json.dumps(self.describe(), separators=(",", ":"))


def random_schedule(
    seed: int, *, conns: int = 6, rules: int = 4
) -> FaultSchedule:
    """Generate a concrete schedule from ``seed`` (the fuzz entry point).

    The draw is deterministic in ``seed``, so a soak failure that
    prints its seed is reproducible by rebuilding the same schedule.
    Generated faults stay inside soak-friendly bounds (delays <= 50 ms,
    byte offsets inside the first few frames, short partitions).
    """
    import random as _random

    rng = _random.Random(seed)
    faults: list[dict[str, Any]] = []
    for _ in range(rules):
        kind = rng.choice(FAULT_KINDS)
        fault: dict[str, Any] = {
            "kind": kind,
            "conn": rng.randrange(conns),
            "direction": rng.choice(["up", "down"]),
        }
        if kind == "delay":
            fault["ms"] = rng.choice([5, 20, 50])
            if rng.random() < 0.5:
                fault["op"] = rng.randrange(3)
        elif kind == "slow-drip":
            fault["ms"] = rng.choice([1, 2])
            fault["bytes"] = rng.choice([8, 24, 64])
            fault["chunk"] = rng.choice([1, 3])
        elif kind == "truncate":
            fault["after_bytes"] = rng.randrange(1, 300)
        elif kind == "corrupt":
            fault["at_byte"] = rng.randrange(300)
            fault["mask"] = rng.randrange(1, 256)
        elif kind == "drop":
            fault["after_ops"] = rng.randrange(4)
        else:  # partition
            fault = {
                "kind": "partition",
                "at_conn": rng.randrange(1, conns),
                "refuse": rng.randrange(1, 3),
            }
        faults.append(fault)
    return FaultSchedule.from_payload({"seed": seed, "faults": faults})


# ----------------------------------------------------------------------
# The armed rule engine
# ----------------------------------------------------------------------


class _ChaosCore:
    """One armed schedule: connection numbering, partitions, event log."""

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self._lock = threading.Lock()
        self._next_conn = 0
        self._refusing = 0
        self._heal_at: float | None = None
        self._live: dict[int, Callable[[], None]] = {}
        self._events: list[dict[str, Any]] = []

    def log(self, rule: int | None, kind: str, conn: int | None,
            direction: str | None, detail: str) -> None:
        with self._lock:
            self._events.append({
                "rule": rule, "kind": kind, "conn": conn,
                "direction": direction, "detail": detail,
            })

    def events(self) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._events)

    def register(self, conn: int, closer: Callable[[], None]) -> None:
        with self._lock:
            self._live[conn] = closer

    def unregister(self, conn: int) -> None:
        with self._lock:
            self._live.pop(conn, None)

    def admit(self) -> tuple[int, bool]:
        """Allocate the next connection index; returns ``(index, refused)``.

        Evaluates partition rules: the triggering connection severs
        every live link and is itself refused, the next ``refuse``
        attempts are refused too (or attempts within ``heal_ms``), and
        the partition heals after that.
        """
        to_sever: list[Callable[[], None]] = []
        with self._lock:
            index = self._next_conn
            self._next_conn += 1
            refused = False
            triggered: int | None = None
            for position, rule in enumerate(self.schedule.rules):
                if rule.kind == "partition" and rule.at_conn == index:
                    triggered = position
                    self._refusing += rule.refuse
                    if rule.heal_ms:
                        self._heal_at = time.monotonic() + rule.heal_ms / 1000.0
                    to_sever = list(self._live.values())
                    self._live.clear()
                    refused = True
            if not refused and self._heal_at is not None:
                if time.monotonic() < self._heal_at:
                    refused = True
                else:
                    self._heal_at = None
            if not refused and self._refusing > 0:
                self._refusing -= 1
                refused = True
            if refused:
                detail = (
                    "partition triggered: severing live connections"
                    if triggered is not None
                    else "partition: connection refused"
                )
                self._events.append({
                    "rule": triggered, "kind": "partition", "conn": index,
                    "direction": None, "detail": detail,
                })
        for closer in to_sever:
            closer()
        return index, refused


class _StreamChaos:
    """Fault state of one direction of one connection."""

    def __init__(self, core: _ChaosCore, conn: int, direction: str) -> None:
        self._core = core
        self._conn = conn
        self._direction = direction
        self._rules = [
            (position, rule)
            for position, rule in enumerate(core.schedule.rules)
            if rule.kind != "partition" and rule.matches(conn, direction)
        ]
        self._offset = 0
        self._op = 0
        self._dropped: int | None = None
        self._drip_left = {
            position: rule.bytes or 0
            for position, rule in self._rules
            if rule.kind == "slow-drip"
        }

    @property
    def faulted(self) -> bool:
        """Whether any rule can still fire on this stream (fast-path check)."""
        return bool(self._rules)

    def transform(
        self,
        data: bytes,
        emit: Callable[[bytes], None],
        sleep: Callable[[float], None] = time.sleep,
    ) -> bool:
        """Push one chunk through the fault pipeline.

        Calls ``emit`` zero or more times with the bytes to forward
        and returns ``False`` when the connection must be severed
        (a ``truncate`` rule fired).
        """
        op, self._op = self._op, self._op + 1
        base, self._offset = self._offset, self._offset + len(data)

        def fire(position: int, rule: FaultRule, detail: str) -> None:
            self._core.log(position, rule.kind, self._conn, self._direction, detail)

        for position, rule in self._rules:
            if rule.kind == "delay" and (rule.op is None or rule.op == op):
                fire(position, rule, f"op {op}: +{rule.ms:g}ms")
                sleep(rule.ms / 1000.0)
        if self._dropped is not None:
            return True
        for position, rule in self._rules:
            if rule.kind == "drop" and op >= (rule.after_ops or 0):
                self._dropped = position
                fire(position, rule, f"blackholed from op {op}")
                return True
        buffer = bytearray(data)
        for position, rule in self._rules:
            if (
                rule.kind == "corrupt"
                and rule.at_byte is not None
                and base <= rule.at_byte < base + len(buffer)
            ):
                buffer[rule.at_byte - base] ^= rule.mask
                fire(position, rule, f"byte {rule.at_byte} ^= {rule.mask:#x}")
        sever = False
        for position, rule in self._rules:
            if (
                rule.kind == "truncate"
                and rule.after_bytes is not None
                and base + len(buffer) > rule.after_bytes
            ):
                keep = max(0, rule.after_bytes - base)
                del buffer[keep:]
                sever = True
                fire(position, rule, f"severed after byte {rule.after_bytes}")
        dripped = False
        for position, rule in self._rules:
            left = self._drip_left.get(position, 0)
            if rule.kind == "slow-drip" and left > 0 and buffer:
                budget = min(left, len(buffer))
                head, rest = buffer[:budget], bytes(buffer[budget:])
                for start in range(0, len(head), rule.chunk):
                    emit(bytes(head[start:start + rule.chunk]))
                    sleep(rule.ms / 1000.0)
                self._drip_left[position] = left - budget
                if left - budget == 0:
                    fire(position, rule, f"dripped {rule.bytes} byte(s)")
                if rest:
                    emit(rest)
                dripped = True
                break
        if not dripped and buffer:
            emit(bytes(buffer))
        return not sever


# ----------------------------------------------------------------------
# ChaosProxy: fault a real broker <-> worker link between processes
# ----------------------------------------------------------------------


class _Link:
    """One proxied connection: the client socket, the upstream socket."""

    def __init__(self, index: int, client: socket.socket, upstream: socket.socket) -> None:
        self.index = index
        self.client = client
        self.upstream = upstream
        self._closed = threading.Event()

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        for sock in (self.client, self.upstream):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


class ChaosProxy:
    """A TCP proxy that perturbs broker↔peer traffic per a schedule.

    Point workers (and, for client-fault scenarios, submitters) at the
    proxy's address instead of the broker's; every byte of every
    connection flows through the schedule's rule engine.  The broker
    and workers run unmodified — this is how end-to-end CLI runs are
    faulted (``repro chaos-proxy``).

    ``stop()`` severs every live link; the proxy keeps no durable
    state.  :meth:`events` returns the fault log (rule position, kind,
    connection, detail) for post-mortem correlation.
    """

    def __init__(
        self,
        upstream: tuple[str, int],
        schedule: FaultSchedule,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        connect_timeout: float = 5.0,
    ) -> None:
        self.upstream = upstream
        self.schedule = schedule
        self._bind = (host, port)
        self._connect_timeout = connect_timeout
        self._core = _ChaosCore(schedule)
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._running = False
        #: Set by :meth:`stop`; :meth:`serve_forever` waits on it.
        self._stopping = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise ChaosError("chaos proxy is not running")
        return self._listener.getsockname()[:2]

    def events(self) -> list[dict[str, Any]]:
        return self._core.events()

    def start(self) -> tuple[str, int]:
        if self._running:
            raise ChaosError("chaos proxy already started")
        self._listener = socket.create_server(self._bind)
        self._running = True
        self._stopping.clear()
        accept = threading.Thread(
            target=self._accept_loop, name="repro-chaos-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        return self.address

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        self._stopping.set()
        if self._listener is not None:
            # shutdown() first: close() alone does not wake a thread
            # already blocked in accept() on Linux.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        # Sever every live link so pump threads unblock and exit.
        with self._core._lock:
            closers = list(self._core._live.values())
            self._core._live.clear()
        for closer in closers:
            closer()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()
        self._listener = None

    def __enter__(self) -> "ChaosProxy":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def serve_forever(self) -> None:
        """:meth:`start` (if needed) and block until interrupted."""
        if not self._running:
            self.start()
        try:
            self._stopping.wait()
        except KeyboardInterrupt:  # pragma: no cover - interactive use
            pass
        finally:
            self.stop()

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while self._running:
            try:
                client, _addr = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            index, refused = self._core.admit()
            if refused:
                try:
                    client.close()
                except OSError:
                    pass
                continue
            try:
                upstream = socket.create_connection(
                    self.upstream, timeout=self._connect_timeout
                )
                upstream.settimeout(None)
            except OSError as error:
                self._core.log(
                    None, "upstream", index, None, f"upstream unreachable: {error}"
                )
                try:
                    client.close()
                except OSError:
                    pass
                continue
            link = _Link(index, client, upstream)
            self._core.register(index, link.close)
            for src, dst, direction in (
                (client, upstream, "up"),
                (upstream, client, "down"),
            ):
                pump = threading.Thread(
                    target=self._pump,
                    args=(link, src, dst, direction),
                    name=f"repro-chaos-{index}-{direction}",
                    daemon=True,
                )
                pump.start()
                self._threads.append(pump)

    def _pump(
        self,
        link: _Link,
        src: socket.socket,
        dst: socket.socket,
        direction: str,
    ) -> None:
        stream = _StreamChaos(self._core, link.index, direction)

        def forward(piece: bytes) -> None:
            dst.sendall(piece)

        try:
            while True:
                try:
                    data = src.recv(65536)
                except OSError:
                    break
                if not data:
                    break
                try:
                    if not stream.transform(data, forward):
                        break  # a truncate rule severed the connection
                except OSError:
                    break
        finally:
            self._core.unregister(link.index)
            link.close()
