"""Submitting client of the sweep service: queue a grid, stream progress.

:func:`submit_sweep` is the socket twin of
:func:`repro.experiments.parallel.run_sweep`: it sends a
:class:`~repro.experiments.parallel.SweepSpec` to a broker, relays
progress callbacks while the fleet executes, and returns the same
:class:`~repro.experiments.parallel.SweepResult` a local sweep would
— records in canonical grid order, byte-identical to a serial run,
with ``executed``/``cached`` reflecting how much the broker's durable
cache already held ("served from cache" across restarts and duplicate
submissions).  Many clients can point at one warm fleet; submissions
of the same spec share one job broker-side.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import ServiceError, WireError
from repro.experiments.parallel import SweepResult, SweepSpec
from repro.service.protocol import (
    decode_records,
    header_count,
    header_seconds,
    header_table,
    recv_message,
    send_message,
)
from repro.service.worker import connect_with_retry

__all__ = ["submit_sweep", "queue_sweep", "broker_status"]


def submit_sweep(
    address: tuple[str, int],
    spec: SweepSpec,
    *,
    progress: Callable[[int, int], None] | None = None,
    retry: float = 10.0,
    timeout: float | None = 60.0,
    resume: bool = True,
) -> SweepResult:
    """Queue ``spec`` on the broker at ``address`` and wait for the merge.

    ``progress`` receives ``(done, total)`` for every broker progress
    frame (at least one heartbeat every couple of seconds, so a silent
    fleet is distinguishable from a dead one).  ``timeout`` bounds any
    single silence on the socket, not the whole sweep; since the
    broker heartbeats every ~2 s even with no workers attached, the
    60 s default turns a silently blackholed broker into a typed
    error instead of an unbounded hang (``None`` restores
    wait-forever).  ``retry`` is the connection budget.  Raises
    :class:`ServiceError` when the broker reports a failed job, when
    it goes silent past ``timeout``, or when the connection itself
    dies (:class:`WireError`) — a sweep submission either returns
    merged records or raises a typed error, never hangs.  A reply whose
    counts are not ints ``>= 0``, or whose ``elapsed`` is not a finite
    number, is a :class:`WireError` too.

    ``resume=False`` has the broker discard the spec's stored records
    and recompute the grid, as ``run_sweep(resume=False)`` does; the
    broker refuses it while a job for the spec is still running.
    """
    sock = connect_with_retry(address, retry)
    try:
        if timeout is not None:
            sock.settimeout(timeout)
        send_message(
            sock, "submit", spec=spec.describe(), wait=True, records=True,
            resume=resume,
        )
        recv_message(sock, "accepted")
        while True:
            try:
                header, payload = recv_message(sock, "progress", "done")
            except WireError as error:
                if getattr(error, "timed_out", False):
                    raise ServiceError(
                        f"broker at {address[0]}:{address[1]} went silent "
                        f"for {timeout:.0f}s mid-sweep"
                    ) from None
                raise
            total = header_count(header, "total")
            if header["type"] == "progress":
                done = header_count(header, "done")
                if progress is not None:
                    progress(done, total)
                continue
            executed = header_count(header, "executed")
            cached = header_count(header, "cached")
            workers = header_count(header, "workers")
            elapsed = header_seconds(header, "elapsed")
            records = decode_records(payload)
            if len(records) != total:
                raise WireError(
                    f"broker sent {len(records)} record(s) for a "
                    f"{total}-trial grid"
                )
            if progress is not None:
                progress(total, total)
            return SweepResult(
                spec=spec,
                records=tuple(records),
                executed=executed,
                cached=cached,
                workers=workers,
                elapsed=elapsed,
            )
    finally:
        sock.close()


def queue_sweep(
    address: tuple[str, int],
    spec: SweepSpec,
    *,
    retry: float = 10.0,
    timeout: float = 30.0,
) -> dict[str, Any]:
    """Register ``spec`` without waiting; returns the ``accepted`` header.

    Fire-and-forget submission: the job keeps executing broker-side
    and any later :func:`submit_sweep` of the same spec attaches to it
    (or, after completion, is served from the cache).  ``timeout``
    bounds the acceptance round-trip; a broker that accepts the
    connection but never answers raises a typed error, never hangs.
    """
    sock = connect_with_retry(address, retry)
    try:
        sock.settimeout(timeout)
        send_message(sock, "submit", spec=spec.describe(), wait=False)
        header, _payload = recv_message(sock, "accepted")
        return header
    finally:
        sock.close()


def broker_status(
    address: tuple[str, int], *, retry: float = 10.0, timeout: float = 10.0
) -> dict[str, Any]:
    """The broker's job table (unit states, attempts, worker counts).

    Every failure mode is a typed :class:`ServiceError` naming the
    address: a dead address exhausts the ``retry`` connection budget,
    and a hung broker — one that accepts the connection but never
    answers the status request within ``timeout`` seconds — surfaces
    as ``"not answering"`` instead of a raw ``socket.timeout`` or an
    unbounded wait, and a torn reply, or one whose ``jobs`` is not a
    table of job objects, as ``"gave no usable status reply"``.
    ``repro status`` maps this to exit code 2.
    """
    sock = connect_with_retry(address, retry)
    try:
        sock.settimeout(timeout)
        send_message(sock, "status")
        header, _payload = recv_message(sock, "status-reply")
        header_table(header, "jobs")
        return header
    except WireError as error:
        if getattr(error, "timed_out", False):
            raise ServiceError(
                f"broker at {address[0]}:{address[1]} is not answering "
                f"(no status reply within {timeout:.0f}s)"
            ) from None
        raise ServiceError(
            f"broker at {address[0]}:{address[1]} gave no usable status "
            f"reply: {error}"
        ) from None
    finally:
        sock.close()
