"""The sweep broker: shards grids into leased work units, merges results.

One broker process owns a cache directory and serves any number of
submitting clients and worker hosts over the framed socket protocol
(:mod:`repro.service.protocol`).  The life of a sweep:

1. **submit** — a client sends a
   :class:`~repro.experiments.parallel.SweepSpec` payload.  Jobs are
   keyed by ``spec_hash``, so a duplicate submission (same grid,
   different client, retry after a dropped connection) attaches to
   the in-flight job instead of duplicating work.  The job's result
   cache (:class:`~repro.experiments.cache.ResultCache`, or the
   columnar :class:`~repro.experiments.warehouse.WarehouseCache` when
   the broker runs with ``warehouse=True``) is opened first and every
   already-cached trial is loaded as ``run_sweep`` loads it — a
   broker restart therefore resumes from the last durable commit
   point and never re-runs a completed unit.
2. **shard** — the sweep's chunker groups the still-pending grid
   points by instance and cuts them into **work units** of at most
   ``unit_size`` trials.  A unit is content-addressed: its id is the
   hash of
   ``(spec_hash, grid indices)``, so the same pending work always
   produces the same unit ids and retries dedupe for free.
3. **lease** — worker hosts pull units.  A leased unit carries a
   deadline; if the worker's connection drops (crash, SIGKILL,
   network cut) its leased units re-queue *immediately*, and a
   background monitor re-queues units whose lease expired without a
   result.  Re-runs are safe because trials are deterministic: a
   re-executed unit produces byte-identical records, and grid-index
   reassembly makes merge order irrelevant.
4. **merge** — completed batches stream back as columnar record
   batches and pass through a **single-writer merge loop**: one
   thread appends each batch to the job's cache (one flush per batch
   — exactly the crash boundary :meth:`ResultCache.append_many`
   documents) before the unit is counted done.  A batch a worker was
   sending when it died is simply never merged; its unit re-queues.
5. **done** — when every grid index is durable, watchers receive the
   merged records (grid order, byte-identical to a serial
   :func:`~repro.experiments.parallel.run_sweep`) and summary counts.

Deterministic trial errors (a generator rejecting the grid's
parameters, say) are *not* re-queued — the worker reports them as a
unit failure and the job fails fast with the worker's message, since
a deterministic error would only recur.  Only lease expiry and
connection loss re-queue, capped at ``max_attempts`` per unit so a
crash-looping fleet cannot spin forever.
"""

from __future__ import annotations

import collections
import logging
import math
import reprlib
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from queue import Empty, Queue
from typing import Any, Iterable

from repro.errors import ReproError, ServiceError, WireError
from repro.experiments.cache import ResultCache, content_hash
from repro.experiments.harness import TrialRecord
from repro.experiments.parallel import SweepSpec, _chunk_tasks, _resume_pairs, open_cache
from repro.experiments.warehouse import WarehouseCache
from repro.service.protocol import (
    decode_records,
    header_indices,
    header_name,
    recv_frame,
    send_frame,
)

__all__ = [
    "WorkUnit",
    "Broker",
    "DEFAULT_UNIT_SIZE",
    "DEFAULT_LEASE_TIMEOUT",
    "DEFAULT_READ_DEADLINE",
]

logger = logging.getLogger("repro.service.broker")

#: Trials per work unit (the lease/retry granularity).
DEFAULT_UNIT_SIZE = 16

#: Seconds a leased unit may stay unreported before it re-queues.
DEFAULT_LEASE_TIMEOUT = 60.0

#: Seconds a peer may stall *mid-frame* (and a send may stall against
#: a non-draining peer) before its connection is dropped.  Idle peers
#: at a frame boundary are unbounded; this only bounds half-sent
#: traffic, so a slow-dripping or wedged peer cannot pin a handler
#: thread — its leases re-queue like any other disconnect.
DEFAULT_READ_DEADLINE = 30.0

#: Times a unit may be re-queued (disconnect or lease expiry) before
#: its job fails — a guard against a crash-looping fleet, not a retry
#: policy for deterministic errors (those fail the job immediately).
DEFAULT_MAX_ATTEMPTS = 5

_QUEUED, _LEASED, _MERGED = "queued", "leased", "merged"


@dataclass
class WorkUnit:
    """One content-addressed shard of a job's pending grid points."""

    unit_id: str
    indices: tuple[int, ...]
    state: str = _QUEUED
    worker: str | None = None
    deadline: float = 0.0
    attempts: int = 0


def unit_id_for(spec_hash: str, indices: Iterable[int]) -> str:
    """Content address of one work unit (16 hex chars).

    Derived from the spec hash and the grid indices alone, so the same
    pending work shards to the same ids on every broker (re)start —
    duplicate submissions and post-crash re-shards dedupe for free.
    """
    return content_hash({"service": 1, "spec": spec_hash, "indices": list(indices)})[:16]


def _count_at_least_one(name: str, value: Any) -> int:
    """``value`` when it is a plain int >= 1 (not a bool), else ServiceError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ServiceError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def _positive_seconds(name: str, value: Any) -> float:
    """``value`` as float when it is a number > 0 (not NaN or a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
        raise ServiceError(f"{name} must be a number of seconds > 0, got {value!r}")
    return float(value)


def _lease_wait(header: dict[str, Any]) -> float:
    """A lease's ``wait`` (default 1 s): finite seconds >= 0, not a bool."""
    value = header.get("wait", 1.0)
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            seconds = float(value)
        except OverflowError:  # an int past the float range
            seconds = math.inf
        if 0.0 <= seconds < math.inf:
            return seconds
    raise WireError(
        f"lease wait must be a finite number of seconds >= 0, got {reprlib.repr(value)}"
    )


class _Job:
    """Broker-side state of one submitted spec (single-lock discipline:
    every mutable field below is guarded by the broker's one lock)."""

    def __init__(self, spec: SweepSpec, cache: ResultCache | WarehouseCache) -> None:
        self.spec = spec
        self.spec_hash = spec.spec_hash()
        self.points = spec.points()
        self.total = len(self.points)
        self.cache = cache
        self.records: dict[int, TrialRecord] = {}
        self.units: dict[str, WorkUnit] = {}
        self.queue: collections.deque[str] = collections.deque()
        self.workers: set[str] = set()
        self.failed: str | None = None
        self.started = time.perf_counter()

    def finished(self) -> bool:
        return len(self.records) == self.total

    def shard(self, unit_size: int) -> None:
        """Cut the not-yet-cached points into content-addressed units (sweep chunks)."""
        pending = [p for p in self.points if p.index not in self.records]
        for task in _chunk_tasks(self.spec, pending, unit_size):
            indices = tuple(trial[0] for trial in task.trials)
            unit = WorkUnit(unit_id_for(self.spec_hash, indices), indices)
            self.units[unit.unit_id] = unit
            self.queue.append(unit.unit_id)


class Broker:
    """A long-running sweep broker bound to one TCP address.

    Parameters
    ----------
    cache_dir:
        Directory of per-spec result caches — the broker's only
        durable state, and the commit point restarts resume from.
    host, port:
        Bind address; port ``0`` picks a free port (see
        :attr:`address` after :meth:`start`).
    warehouse:
        Persist results as columnar warehouses instead of JSONL
        caches; the merge loop and crash semantics are identical.
    unit_size, lease_timeout, max_attempts:
        Sharding granularity and the re-queue policy (module
        constants document the defaults).  ``unit_size`` and
        ``max_attempts`` must be ints >= 1 and ``lease_timeout`` a
        number of seconds > 0; anything else raises
        :class:`ServiceError` before the broker binds.
    read_deadline:
        Seconds a peer may stall mid-frame before its connection is
        dropped and its leases re-queue (:data:`DEFAULT_READ_DEADLINE`).
    """

    def __init__(
        self,
        cache_dir: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        warehouse: bool = False,
        unit_size: int = DEFAULT_UNIT_SIZE,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        read_deadline: float = DEFAULT_READ_DEADLINE,
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.warehouse = warehouse
        self.unit_size = _count_at_least_one("unit_size", unit_size)
        self.lease_timeout = _positive_seconds("lease_timeout", lease_timeout)
        self.max_attempts = _count_at_least_one("max_attempts", max_attempts)
        self.read_deadline = float(read_deadline)
        self._clean_shutdown = False
        self._bind = (host, port)
        self._listener: socket.socket | None = None
        self._lock = threading.RLock()
        #: Work became available (new job, re-queue) — wakes lease waits.
        self._work = threading.Condition(self._lock)
        #: Job progressed (merge, failure) — wakes submit watchers.
        self._watch = threading.Condition(self._lock)
        #: Set by :meth:`stop` — wakes the lease monitor and
        #: :meth:`serve_forever` at once instead of after their interval.
        self._stopping = threading.Event()
        self._jobs: dict[str, _Job] = {}
        self._merge_queue: Queue[tuple[_Job, str, list[int], list[TrialRecord]] | None] = Queue()
        self._threads: list[threading.Thread] = []
        self._connections: set[socket.socket] = set()
        self._next_conn = 0
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — valid after :meth:`start`."""
        if self._listener is None:
            raise ServiceError("broker is not running")
        return self._listener.getsockname()[:2]

    @property
    def is_clean_shutdown(self) -> bool:
        """Whether the last :meth:`stop` joined every service thread.

        ``False`` while running (or never stopped); after a ``stop``
        it reports whether the accept, merge, and lease-monitor
        threads all exited within the join timeout — a stuck thread
        is also logged as a warning naming it.  Tests assert this to
        prove a faulted broker still tears down completely.
        """
        return self._clean_shutdown

    def start(self) -> tuple[str, int]:
        """Bind, spawn the accept/merge/lease-monitor threads, return the address."""
        if self._running:
            raise ServiceError("broker already started")
        self._listener = socket.create_server(self._bind)
        self._running = True
        self._clean_shutdown = False
        self._stopping.clear()
        for name, target in (
            ("accept", self._accept_loop),
            ("merge", self._merge_loop),
            ("leases", self._lease_monitor),
        ):
            thread = threading.Thread(
                target=target, name=f"repro-broker-{name}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self.address

    def stop(self) -> None:
        """Stop serving, close every connection and cache (idempotent).

        In-memory job state is discarded; everything durable is already
        in the caches, which is exactly what a restarted broker resumes
        from.
        """
        with self._lock:
            if not self._running:
                return
            self._running = False
            self._work.notify_all()
            self._watch.notify_all()
            connections = list(self._connections)
        self._stopping.set()
        if self._listener is not None:
            # shutdown() before close(): closing a listening socket does
            # not interrupt a blocked accept() on Linux, so without it
            # the accept thread only notices at its *next* connection
            # and every stop eats the full join timeout.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._merge_queue.put(None)
        stuck: list[str] = []
        for thread in self._threads:
            thread.join(timeout=5.0)
            if thread.is_alive():
                stuck.append(thread.name)
                logger.warning(
                    "broker thread %s did not stop within 5s; "
                    "proceeding with a dirty shutdown", thread.name,
                )
        self._clean_shutdown = not stuck
        self._threads.clear()
        with self._lock:
            jobs, self._jobs = list(self._jobs.values()), {}
        for job in jobs:
            job.cache.close()
        self._listener = None

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

    def __enter__(self) -> "Broker":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Accept loop and per-connection handlers
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while self._running:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            with self._lock:
                if not self._running:
                    conn.close()
                    break
                self._next_conn += 1
                conn_id = f"conn-{self._next_conn}"
                self._connections.add(conn)
            thread = threading.Thread(
                target=self._handle_connection,
                args=(conn, conn_id),
                name=f"repro-broker-{conn_id}",
                daemon=True,
            )
            thread.start()

    def _handle_connection(self, conn: socket.socket, conn_id: str) -> None:
        """Serve one peer until it disconnects or speaks garbage.

        Any :class:`WireError` — truncated frame, oversized prefix,
        garbage header, mid-batch disconnect — lands here: the
        connection is dropped and every unit this peer still leases is
        re-queued, so a dying worker can delay its units but never
        lose or half-merge them.
        """
        try:
            while self._running:
                try:
                    header, payload = recv_frame(
                        conn, frame_timeout=self.read_deadline
                    )
                except WireError:
                    break
                try:
                    self._dispatch(conn, conn_id, header, payload)
                except WireError:
                    break
                except ReproError as error:
                    # A bad request (unknown spec, malformed grid) is
                    # the peer's problem, not the broker's: report and
                    # keep serving the connection.
                    try:
                        self._send(conn, {"type": "error", "message": str(error)})
                    except WireError:
                        break
        finally:
            with self._lock:
                self._connections.discard(conn)
                self._requeue_leases_locked(conn_id)
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def _send(
        self, conn: socket.socket, header: dict[str, Any], payload: bytes = b""
    ) -> None:
        """Every broker-side send is bounded by the read deadline, so a
        peer that stops draining its socket cannot wedge a handler."""
        send_frame(conn, header, payload, timeout=self.read_deadline)

    def _dispatch(
        self, conn: socket.socket, conn_id: str,
        header: dict[str, Any], payload: bytes,
    ) -> None:
        kind = header["type"]
        if kind == "hello":
            self._send(conn, {"type": "welcome", "broker": "repro-service/1"})
        elif kind == "lease":
            self._handle_lease(conn, conn_id, header)
        elif kind == "result":
            self._handle_result(conn, conn_id, header, payload)
        elif kind == "unit-failed":
            self._handle_unit_failed(conn, header)
        elif kind == "submit":
            self._handle_submit(conn, header)
        elif kind == "status":
            self._handle_status(conn)
        else:
            raise WireError(f"unknown message type {kind!r}")

    # -- worker side ----------------------------------------------------

    def _handle_lease(
        self, conn: socket.socket, conn_id: str, header: dict[str, Any]
    ) -> None:
        """Hand out one queued unit, blocking briefly when none is ready.

        ``wait: 0`` answers at once: a host asks that way for the unit
        it runs next while its current unit runs.
        """
        deadline = time.monotonic() + _lease_wait(header)
        leased: tuple[_Job, WorkUnit] | None = None
        with self._lock:
            while self._running:
                leased = self._next_unit_locked(conn_id)
                if leased is not None:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._work.wait(min(remaining, threading.TIMEOUT_MAX))
        if leased is None:
            self._send(conn, {"type": "idle"})
            return
        job, unit = leased
        self._send(conn, {
            "type": "unit",
            "job": job.spec_hash,
            "unit": unit.unit_id,
            "indices": list(unit.indices),
            "spec": job.spec.describe(),
        })

    def _next_unit_locked(self, conn_id: str) -> tuple[_Job, WorkUnit] | None:
        for job in self._jobs.values():
            if job.failed is not None:
                continue
            while job.queue:
                unit = job.units[job.queue.popleft()]
                if unit.state != _QUEUED:
                    continue  # stale queue entry (merged while queued twice)
                unit.state = _LEASED
                unit.worker = conn_id
                unit.deadline = time.monotonic() + self.lease_timeout
                job.workers.add(conn_id)
                return job, unit
        return None

    def _handle_result(
        self, conn: socket.socket, conn_id: str,
        header: dict[str, Any], payload: bytes,
    ) -> None:
        """Accept one completed unit; duplicates are acked and dropped."""
        job_hash, unit_id = header_name(header, "job"), header_name(header, "unit")
        indices = header_indices(header)
        records = decode_records(payload)
        if len(indices) != len(records):
            raise WireError(
                f"result carried {len(records)} record(s) for "
                f"{len(indices)} grid index(es)"
            )
        with self._lock:
            job = self._jobs.get(job_hash)
            unit = job.units.get(unit_id) if job is not None else None
            if job is None or unit is None or unit.state == _MERGED:
                # Unknown job (broker restarted) or a re-queued unit
                # that another worker already finished: the records
                # are byte-identical re-runs, so dropping is safe.
                self._send(conn, {"type": "ack", "merged": False})
                return
            if set(indices) != set(unit.indices):
                raise WireError(
                    f"result for unit {unit.unit_id} covers the wrong grid indices"
                )
            unit.state = _MERGED
            unit.worker = conn_id
        self._merge_queue.put((job, unit.unit_id, indices, records))
        self._send(conn, {"type": "ack", "merged": True})

    def _handle_unit_failed(self, conn: socket.socket, header: dict[str, Any]) -> None:
        """A deterministic trial error: fail the job fast, keep the cache."""
        job_hash = header_name(header, "job")
        with self._lock:
            job = self._jobs.get(job_hash)
            if job is not None and job.failed is None:
                job.failed = str(header.get("message", "worker reported a failure"))
                self._watch.notify_all()
        self._send(conn, {"type": "ack", "merged": False})

    def _requeue_leases_locked(self, conn_id: str) -> None:
        for job in self._jobs.values():
            for unit in job.units.values():
                if unit.state == _LEASED and unit.worker == conn_id:
                    self._requeue_unit_locked(job, unit, "worker disconnected")

    def _requeue_unit_locked(self, job: _Job, unit: WorkUnit, why: str) -> None:
        unit.attempts += 1
        unit.worker = None
        if unit.attempts >= self.max_attempts:
            job.failed = (
                f"unit {unit.unit_id} was re-queued {unit.attempts} times "
                f"(last cause: {why}) — giving up"
            )
            self._watch.notify_all()
            return
        unit.state = _QUEUED
        job.queue.appendleft(unit.unit_id)
        self._work.notify_all()

    def _lease_monitor(self) -> None:
        """Re-queue units whose lease expired without a result.

        Rescans every ``interval`` seconds, and returns as soon as
        :meth:`stop` sets ``_stopping``, so a stop never waits out the
        interval.
        """
        interval = max(0.2, min(2.0, self.lease_timeout / 4.0))
        while True:
            with self._lock:
                if not self._running:
                    return
                now = time.monotonic()
                for job in self._jobs.values():
                    for unit in job.units.values():
                        if unit.state == _LEASED and unit.deadline <= now:
                            self._requeue_unit_locked(job, unit, "lease expired")
            if self._stopping.wait(interval):
                return

    # -- the single-writer merge loop -----------------------------------

    def _merge_loop(self) -> None:
        """The only thread that touches a job's cache writer.

        One append (one flush) per completed unit, *then* the job's
        in-memory progress advances — so everything a watcher is told
        about is already durable, and a broker killed at any point
        resumes from exactly what the caches hold.
        """
        while True:
            item = self._merge_queue.get()
            if item is None:
                return
            job, unit_id, indices, records = item
            try:
                job.cache.append_indexed(list(zip(indices, records)))
            except Exception as error:  # disk full, cache corrupt …
                with self._lock:
                    if job.failed is None:
                        job.failed = f"merge failed: {error}"
                    self._watch.notify_all()
                continue
            with self._lock:
                for index, record in zip(indices, records):
                    job.records[index] = record
                self._watch.notify_all()

    # -- client side ----------------------------------------------------

    def _register_job_locked(self, spec: SweepSpec, resume: bool = True) -> _Job:
        """The job for ``spec``: the live one, or a new one over its store.

        A new job resumes the records its store holds, or with
        ``resume=False`` resets the store first, as ``run_sweep`` does.
        A store cannot be reset under a live job.
        """
        spec_hash = spec.spec_hash()
        job = self._jobs.get(spec_hash)
        if job is not None and job.failed is None:
            if resume:
                return job  # duplicate submission: attach, don't duplicate
            if not job.finished():
                raise ServiceError(
                    f"a job for spec {spec_hash} is still running; its store "
                    "cannot be reset until it finishes"
                )
        if job is not None:
            job.cache.close()  # failed or replaced job: re-register fresh
        job = _Job(spec, open_cache(spec, self.cache_dir, warehouse=self.warehouse))
        try:
            if resume:
                job.records.update(_resume_pairs(job.cache, job.points))
            else:
                job.cache.reset()
        except BaseException:
            job.cache.close()
            raise
        job.shard(self.unit_size)
        self._jobs[spec_hash] = job
        self._work.notify_all()
        return job

    def _handle_submit(self, conn: socket.socket, header: dict[str, Any]) -> None:
        """Register (or attach to) a job; stream progress until done."""
        spec = SweepSpec.from_payload(header.get("spec") or {})
        with self._lock:
            job = self._register_job_locked(spec, bool(header.get("resume", True)))
            already = len(job.records)
        self._send(conn, {
            "type": "accepted",
            "job": job.spec_hash,
            "total": job.total,
            "already": already,
        })
        if not header.get("wait", True):
            return
        started = time.perf_counter()
        reported = -1
        last_beat = time.monotonic()
        while True:
            with self._lock:
                while (
                    self._running
                    and job.failed is None
                    and not job.finished()
                    and len(job.records) == reported
                    and time.monotonic() - last_beat < 2.0
                ):
                    self._watch.wait(0.5)
                done = len(job.records)
                failed = job.failed
                finished = job.finished()
                workers = len(job.workers)
                running = self._running
            if failed is not None:
                self._send(conn, {"type": "error", "message": failed})
                return
            if finished:
                break
            if not running:
                self._send(conn, {"type": "error", "message": "broker shut down"})
                return
            # Progress when something merged; otherwise a heartbeat, so
            # a watching client can distinguish "no workers yet" from a
            # dead broker with a plain socket timeout.
            reported = done
            last_beat = time.monotonic()
            self._send(conn, {"type": "progress", "done": done, "total": job.total})
        records = [job.records[i] for i in range(job.total)]
        done_header = {
            "type": "done",
            "job": job.spec_hash,
            "total": job.total,
            "executed": job.total - already,
            "cached": already,
            "workers": workers,
            "elapsed": time.perf_counter() - started,
        }
        if header.get("records", True):
            from repro.service.protocol import encode_records

            self._send(conn, done_header, encode_records(records))
        else:
            self._send(conn, done_header)

    def _handle_status(self, conn: socket.socket) -> None:
        """One JSON snapshot of every job — tests and operators poll this."""
        with self._lock:
            jobs: dict[str, Any] = {}
            for spec_hash, job in self._jobs.items():
                states = collections.Counter(u.state for u in job.units.values())
                jobs[spec_hash] = {
                    "name": job.spec.name,
                    "total": job.total,
                    "done": len(job.records),
                    "finished": job.finished(),
                    "failed": job.failed,
                    "units": len(job.units),
                    "queued": states[_QUEUED],
                    "leased": states[_LEASED],
                    "merged": states[_MERGED],
                    "attempts": sum(u.attempts for u in job.units.values()),
                    "workers": len(job.workers),
                }
        self._send(conn, {
            "type": "status-reply",
            "warehouse": self.warehouse,
            "unit_size": self.unit_size,
            "jobs": jobs,
        })
