"""A sweep-service worker host: lease units, run trials, report batches.

One worker host is one process that joins a fleet with
``repro work --connect HOST:PORT`` (or :func:`run_worker` from code).
It pulls content-addressed work units from the broker, executes their
trials through the exact machinery local sweeps use, and streams the
completed records back as columnar batches:

* the instance for a unit comes from the same bounded per-process
  memo (:func:`repro.experiments.parallel.plan_for_instance`) a
  fabric worker uses, so consecutive units of one instance pay the
  generator and plan compilation once;
* with ``workers > 1`` the host fans each unit out over its **own
  warm local fabric** (:func:`repro.experiments.parallel._run_points`
  — persistent pool, shared-memory plans, lockstep batches), so the
  service *composes with* the single-host stack instead of replacing
  it: a fleet of 4-worker hosts is 4 warm fabrics behind one broker;
* results are encoded by :func:`repro.service.protocol.encode_records`
  — the fabric's columnar batch codec — and each unit is reported in
  one frame, so a host that dies mid-unit simply never reports and
  the broker re-queues the lease.

Deterministic trial errors (:class:`~repro.errors.ReproError`) are
reported as unit failures — re-running them would only fail again —
while connection loss triggers a bounded reconnect loop, so a broker
restart does not strand its fleet.
"""

from __future__ import annotations

import random
import socket
import time
import traceback
from typing import Any, Callable

from repro.errors import ReproError, ServiceError, WireError
from repro.experiments.harness import TrialRecord
from repro.experiments.parallel import SweepPoint, SweepSpec, _run_points, resolve_workers
from repro.service.backoff import DEFAULT_POLICY, BackoffPolicy
from repro.service.protocol import (
    encode_records,
    recv_message,
    send_message,
)

__all__ = ["connect_with_retry", "run_worker", "DEFAULT_OP_DEADLINE"]

#: How long a unit lease request may block broker-side before an
#: ``idle`` reply (the worker immediately asks again).
_LEASE_PATIENCE = 1.0

#: Spec payloads memoized per job hash (a host rarely serves more).
_SPEC_MEMO_CAP = 8

#: Seconds a worker waits on any single broker reply before treating
#: the connection as dead and redialing.  The broker answers a lease
#: within ``_LEASE_PATIENCE`` and acks a result immediately, so a
#: silence this long means the link is blackholed (a silently dropped
#: route, a chaos ``drop`` rule) even though the socket looks open.
DEFAULT_OP_DEADLINE = 30.0


def connect_with_retry(
    address: tuple[str, int],
    retry: float,
    what: str = "broker",
    *,
    policy: BackoffPolicy = DEFAULT_POLICY,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    rng: random.Random | None = None,
) -> socket.socket:
    """Dial ``address``, retrying for up to ``retry`` seconds.

    Covers both a fleet booting in any order (workers before the
    broker) and a broker restarting mid-job.  Retries follow the
    shared jittered-exponential :class:`BackoffPolicy` — a restarted
    broker sees the fleet's redials spread out, not a synchronized
    thundering herd on a fixed beat — and the give-up is a typed
    :class:`ServiceError` naming the peer, the attempt count, and the
    last cause.  ``clock``/``sleep``/``rng`` are injectable for
    deterministic tests.
    """
    session = policy.session(
        retry,
        f"cannot reach {what} at {address[0]}:{address[1]}",
        clock=clock, sleep=sleep, rng=rng,
    )
    while True:
        try:
            return socket.create_connection(address)
        except OSError as error:
            session.wait(error)  # raises the typed give-up at the deadline


def _dial(
    address: tuple[str, int],
    budget: float,
    workers: int,
    *,
    policy: BackoffPolicy = DEFAULT_POLICY,
    op_deadline: float = DEFAULT_OP_DEADLINE,
) -> socket.socket:
    """Connect *and* complete the hello/welcome handshake, retrying.

    A broker that accepts the TCP connection but resets before
    ``welcome`` (it was just stopped, the listener's backlog drained)
    counts as unreachable, not as a protocol error — so the whole
    dial-plus-handshake retries under one deadline (one shared
    :class:`BackoffPolicy` session) and the caller sees a single
    :class:`ServiceError` when the budget runs out.  The returned
    socket carries ``op_deadline`` as its timeout, so every later
    exchange on it is bounded.
    """
    deadline = time.monotonic() + max(0.0, budget)
    session = policy.session(
        budget, f"broker at {address[0]}:{address[1]} dropped the handshake"
    )
    while True:
        sock = connect_with_retry(
            address, max(0.0, deadline - time.monotonic()), policy=policy
        )
        try:
            # The handshake itself is bounded too: a broker that
            # accepts but never answers must not hang the dial.
            sock.settimeout(max(1.0, op_deadline))
            send_message(sock, "hello", workers=workers)
            recv_message(sock, "welcome")
            sock.settimeout(op_deadline)
            return sock
        except WireError as error:
            try:
                sock.close()
            except OSError:
                pass
            session.wait(error)  # raises the typed give-up at the deadline


class _SpecMemo:
    """Per-host memo of ``(spec, points)`` keyed by the job's spec hash."""

    def __init__(self) -> None:
        self._entries: dict[str, tuple[SweepSpec, list[SweepPoint]]] = {}

    def resolve(
        self, spec_hash: str, payload: dict[str, Any]
    ) -> tuple[SweepSpec, list[SweepPoint]]:
        entry = self._entries.get(spec_hash)
        if entry is None:
            try:
                spec = SweepSpec.from_payload(payload)
            except ReproError as error:
                raise WireError(f"unit carried a malformed spec: {error}") from None
            if spec.spec_hash() != spec_hash:
                # A corrupted-in-flight spec that still parses must not
                # silently compute wrong records under the job's name:
                # treat it like any other torn frame and redial.
                raise WireError(
                    f"unit spec hashes to {spec.spec_hash()[:12]}, "
                    f"not the job's {spec_hash[:12]} — corrupted in flight"
                )
            while len(self._entries) >= _SPEC_MEMO_CAP:
                self._entries.pop(next(iter(self._entries)))
            entry = (spec, spec.points())
            self._entries[spec_hash] = entry
        return entry


def _execute_unit(
    spec: SweepSpec, points: list[SweepPoint], indices: list[int], workers: int
) -> list[TrialRecord]:
    """Run one unit's trials; records returned in the unit's index order.

    Multi-worker hosts fan the unit out over the warm local fabric
    (dynamic queue, shared plans, columnar transport); single-worker
    hosts run inline through the same chunk executor the fabric's
    processes use.  Both paths produce byte-identical records.
    """
    done: dict[int, TrialRecord] = {}
    _run_points(spec, [points[index] for index in indices], workers, done.update)
    return [done[index] for index in indices]


def run_worker(
    address: tuple[str, int],
    *,
    workers: int = 1,
    max_units: int | None = None,
    reconnect: float = 10.0,
    op_deadline: float = DEFAULT_OP_DEADLINE,
    backoff: BackoffPolicy = DEFAULT_POLICY,
    on_unit: Callable[[str, int], None] | None = None,
) -> int:
    """Serve one worker host until the broker goes away; returns units done.

    Parameters
    ----------
    address:
        The broker's ``(host, port)``.
    workers:
        Local fabric width per unit; ``1`` runs units inline and ``0``
        uses every core, as in
        :func:`~repro.experiments.parallel.run_sweep`.  A negative
        count raises :class:`~repro.errors.ReproError` before the
        broker is dialled.
    max_units:
        Stop after this many completed units (tests, drain-and-exit
        deployments); ``None`` serves forever.
    reconnect:
        Seconds to keep redialing after a connection drops before
        giving up — also the initial connection budget.
    op_deadline:
        Seconds any single broker reply may take before the link
        counts as dead and the reconnect loop takes over
        (:data:`DEFAULT_OP_DEADLINE`) — a silently blackholed broker
        can stall a unit, never wedge the host.
    backoff:
        The retry pacing for dials and redials
        (:data:`~repro.service.backoff.DEFAULT_POLICY`).
    on_unit:
        Optional ``callback(unit_id, n_trials)`` after each report
        (the CLI's ticker).
    """
    workers = resolve_workers(workers)
    memo = _SpecMemo()
    completed = 0
    sock: socket.socket | None = None
    try:
        while max_units is None or completed < max_units:
            if sock is None:
                # The first dial propagates ServiceError — a broker that
                # never existed is the caller's problem; later redials
                # (below) give up gracefully with the completed count.
                sock = _dial(
                    address, reconnect, workers,
                    policy=backoff, op_deadline=op_deadline,
                )
            try:
                send_message(sock, "lease", wait=_LEASE_PATIENCE)
                header, _payload = recv_message(sock, "unit", "idle")
                if header["type"] == "idle":
                    continue
                spec, points = memo.resolve(header["job"], header["spec"])
                indices = [int(i) for i in header["indices"]]
                if any(not 0 <= i < len(points) for i in indices):
                    # Corrupted in flight; a redial re-leases it intact.
                    raise WireError(
                        f"unit {header['unit']} names indices outside the "
                        f"{len(points)}-point grid"
                    )
                try:
                    records = _execute_unit(spec, points, indices, workers)
                except ReproError as error:
                    # Deterministic failure: re-running cannot help, so
                    # tell the broker to fail the job with the cause.
                    send_message(
                        sock, "unit-failed",
                        job=header["job"], unit=header["unit"],
                        message=f"{type(error).__name__}: {error}",
                    )
                    recv_message(sock, "ack")
                    continue
                except Exception:
                    send_message(
                        sock, "unit-failed",
                        job=header["job"], unit=header["unit"],
                        message=traceback.format_exc(),
                    )
                    recv_message(sock, "ack")
                    continue
                send_message(
                    sock, "result", encode_records(records),
                    job=header["job"], unit=header["unit"], indices=indices,
                )
                recv_message(sock, "ack")
                completed += 1
                if on_unit is not None:
                    on_unit(header["unit"], len(indices))
            except WireError:
                # Broker gone mid-exchange: drop the socket and redial
                # within the reconnect budget.  Anything we were about
                # to report re-queues broker-side.
                try:
                    sock.close()
                except OSError:
                    pass
                sock = None
                try:
                    sock = _dial(
                        address, reconnect, workers,
                        policy=backoff, op_deadline=op_deadline,
                    )
                except ServiceError:
                    break
    finally:
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
    return completed
