"""Span ledger for the traced benchmark run.

Tracing is installed from the benchmark's own files: every layer's
public entry point is replaced, at *every* module that bound it by name,
with a wrapper that records one span (name, start, end, parent span,
pid, thread).  Spans stay in memory; forked children (fabric workers,
service hosts) inherit the wrappers, start with an empty ledger, and
flush it to ``spans-<pid>.json`` when their loop returns.  The parent
merges every flushed file into one Chrome trace-event JSON and a
per-layer table of self time and call counts.

A span's self time is its duration minus the durations of its direct
children (same process, same thread).  Nothing here is imported by the
untraced run, so the end-to-end metrics pay no tracing cost.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: Span names whose time belongs to the benchmark's own closed loop; the
#: ledger's "unattributed" time is their self time.
FRAME_SPANS = ("e2e.sweep", "e2e.submit")


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self, out_dir: Path, role: str = "main") -> None:
        self.out_dir = Path(out_dir)
        self.role = role
        self.pid = os.getpid()
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.counters: collections.Counter[str] = collections.Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def reset_for_child(self, role: str) -> None:
        """Forget the parent's spans in a freshly forked child."""
        self.role = role
        self.pid = os.getpid()
        # Cleared in place: the installed wrappers hold these objects.
        self.spans.clear()
        self.counters.clear()
        self._local = threading.local()

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str | Callable[..., str],
        after: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call; ``after(args, kwargs, result)``
        updates counters once the call returned."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name(*args, **kwargs) if callable(name) else name
            with _Span(tracer, label):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def flush(self) -> Path:
        """Write this process's spans and counters for the parent to merge."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.json"
        payload = {
            "pid": self.pid,
            "role": self.role,
            "spans": self.spans,
            "counters": dict(self.counters),
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        tmp.replace(path)
        return path


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else 0
        self.sid = next(self.tracer._ids)
        stack.append(self.sid)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter_ns()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            (self.sid, self.parent, self.name, self.start, end,
             threading.get_native_id())
        )


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------


def _rebind(original: Any, replacement: Any) -> int:
    """Replace ``original`` at every ``repro`` module that bound it by name."""
    sites = 0
    for module in list(sys.modules.values()):
        if module is None or not getattr(module, "__name__", "").startswith("repro"):
            continue
        names = [k for k, v in vars(module).items() if v is original]
        for attr in names:
            setattr(module, attr, replacement)
            sites += 1
    if not sites:
        raise RuntimeError(f"no binding site found for {original!r}")
    return sites


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the ledger reports; call once per process."""
    from repro.experiments import cache, harness, parallel, query, report, results_io, warehouse
    from repro.graphs import ports
    from repro.runtime import lockstep, plan
    from repro.service import client, protocol, worker

    counters = tracer.counters

    # graphs: the family builders are bound only in GRAPH_FAMILIES.
    for family, builder in list(parallel.GRAPH_FAMILIES.items()):
        parallel.GRAPH_FAMILIES[family] = tracer.wrap(builder, "graphs.generate")
    ports.PortLabeling.__init__ = tracer.wrap(ports.PortLabeling.__init__, "graphs.label")

    # plan: compile / export / attach.
    compile_fn = plan.ExecutionPlan.__dict__["compile"].__func__
    plan.ExecutionPlan.compile = classmethod(tracer.wrap(compile_fn, "plan.compile"))
    export_fn = plan.PlanShare.__dict__["export"].__func__
    plan.PlanShare.export = classmethod(tracer.wrap(export_fn, "plan.export"))

    def count_attach(args: tuple, kwargs: dict, result: Any) -> None:
        counters["plan.attaches"] += 1

    _rebind(plan.attach_plan, tracer.wrap(plan.attach_plan, "plan.attach", count_attach))

    # harness: one span per run_trial / run_trials call, named by algorithm.
    def algorithm_of(graph: Any, algorithm: str, *rest: Any, **kw: Any) -> str:
        return algorithm

    def execute_name(*args: Any, **kwargs: Any) -> str:
        return f"harness.execute.{algorithm_of(*args, **kwargs)}"

    def count_trials(args: tuple, kwargs: dict, result: Any) -> None:
        records = result if isinstance(result, list) else [result]
        algorithm = algorithm_of(*args, **kwargs)
        counters["harness.calls"] += 1
        counters["harness.trials"] += len(records)
        counters[f"harness.rounds.{algorithm}"] += sum(r.rounds for r in records)
        if lockstep.lockstep_supported(algorithm, kwargs.get("port_model", ports.PortModel.KT1)):
            counters["lockstep.eligible_trials"] += len(records)

    for fn in (harness.run_trial, harness.run_trials):
        _rebind(fn, tracer.wrap(fn, execute_name, count_trials))

    def count_lockstep(args: tuple, kwargs: dict, result: Any) -> None:
        if result is not None:
            counters["lockstep.trials"] += len(result)

    _rebind(
        lockstep.run_lockstep_batch,
        tracer.wrap(lockstep.run_lockstep_batch, "lockstep.execute", count_lockstep),
    )

    # results_io: the columnar batch codec (fabric pipe and wire codec).
    def count_pack(args: tuple, kwargs: dict, result: bytes) -> None:
        counters["results_io.packed_records"] += len(args[0])
        counters["results_io.packed_bytes"] += len(result)

    _rebind(
        results_io.pack_record_batch,
        tracer.wrap(results_io.pack_record_batch, "results_io.pack", count_pack),
    )
    _rebind(
        results_io.unpack_record_batch,
        tracer.wrap(results_io.unpack_record_batch, "results_io.unpack"),
    )

    # parallel: worker-side chunk execution, pool start, parent-side waits.
    _rebind(
        parallel._execute_chunk_task,
        tracer.wrap(parallel._execute_chunk_task, "parallel.execute_chunk"),
    )
    original_worker = parallel._fabric_worker

    def fabric_worker(*args: Any) -> None:
        try:
            original_worker(*args)
        finally:
            tracer.flush()

    parallel._fabric_worker = fabric_worker
    pool_init = parallel._FabricPool.__init__

    def spawn(self: Any, workers: int) -> None:
        with tracer.span("fabric.spawn"):
            pool_init(self, workers)
        self.results.get = tracer.wrap(self.results.get, "parallel.wait")

    parallel._FabricPool.__init__ = spawn

    # persistence: JSONL cache and warehouse commits.
    def count_flush(args: tuple, kwargs: dict, result: Any) -> None:
        counters["cache.flushes"] += 1

    cache.ResultCache.append_many = tracer.wrap(
        cache.ResultCache.append_many, "cache.append", count_flush
    )
    warehouse.WarehouseCache.append_indexed = tracer.wrap(
        warehouse.WarehouseCache.append_indexed, "warehouse.append"
    )

    # query / report.
    def count_collect(args: tuple, kwargs: dict, result: Any) -> None:
        counters["query.collects"] += 1
        if args[0].describe_plan().endswith("-> fused single pass"):
            counters["query.fused"] += 1

    query.LazyFrame.collect = tracer.wrap(query.LazyFrame.collect, "query.collect", count_collect)
    _rebind(report.summarize_path, tracer.wrap(report.summarize_path, "report.summarize"))

    # service: wire codec, frames, host execution and lease waits.
    _rebind(protocol.encode_records, tracer.wrap(protocol.encode_records, "protocol.encode"))
    _rebind(protocol.decode_records, tracer.wrap(protocol.decode_records, "protocol.decode"))
    send_frame = protocol.send_frame

    def counted_send(sock: Any, header: dict, payload: bytes = b"", **kw: Any) -> None:
        counters["protocol.frames"] += 1
        counters["protocol.bytes"] += len(payload) + len(
            json.dumps(header, separators=(",", ":"))
        )
        send_frame(sock, header, payload, **kw)

    _rebind(send_frame, tracer.wrap(counted_send, "protocol.send"))
    _rebind(worker._execute_unit, tracer.wrap(worker._execute_unit, "worker.execute_unit"))

    def host_wait_name(sock: Any, *expect: str) -> str:
        return "worker.idle" if "unit" in expect else "worker.wait_reply"

    worker.recv_message = tracer.wrap(worker.recv_message, host_wait_name)
    client.recv_message = tracer.wrap(client.recv_message, "client.wait")

    os.register_at_fork(after_in_child=lambda: tracer.reset_for_child("child"))


# ----------------------------------------------------------------------
# Merging and reporting
# ----------------------------------------------------------------------


def load(out_dir: Path) -> list[dict[str, Any]]:
    """Every flushed process ledger under ``out_dir``."""
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(Path(out_dir).glob("spans-*.json"))
    ]


def self_times(spans: list) -> dict[int, int]:
    """Self time (ns) of every span id of one process."""
    child_time: collections.Counter[int] = collections.Counter()
    for _sid, parent, _name, start, end, _tid in spans:
        if parent:
            child_time[parent] += end - start
    return {
        sid: (end - start) - child_time[sid]
        for sid, _parent, _name, start, end, _tid in spans
    }


def check_nesting(processes: list[dict[str, Any]]) -> list[str]:
    """Problems with span structure: unknown parents, children escaping
    their parent's interval, negative self time.  Empty when sound."""
    problems: list[str] = []
    for proc in processes:
        spans = proc["spans"]
        by_id = {s[0]: s for s in spans}
        for sid, parent, name, start, end, tid in spans:
            if end < start:
                problems.append(f"pid {proc['pid']}: {name} ends before it starts")
            if parent:
                up = by_id.get(parent)
                if up is None:
                    problems.append(f"pid {proc['pid']}: {name} has unknown parent {parent}")
                elif up[5] != tid or start < up[3] or end > up[4]:
                    problems.append(f"pid {proc['pid']}: {name} escapes parent {up[2]}")
        for sid, value in self_times(spans).items():
            if value < 0:
                problems.append(f"pid {proc['pid']}: span {by_id[sid][2]} has negative self time")
    return problems


def layer_table(processes: list[dict[str, Any]]) -> list[tuple[str, str, int, float, float]]:
    """Rows ``(layer, role, count, total_s, self_s)``, largest self time first."""
    rows: dict[tuple[str, str], list[float]] = {}
    for proc in processes:
        role = "main" if proc["role"] == "main" else "child"
        selfs = self_times(proc["spans"])
        for sid, _parent, name, start, end, _tid in proc["spans"]:
            row = rows.setdefault((name, role), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (end - start) / 1e9
            row[2] += selfs[sid] / 1e9
    return sorted(
        ((name, role, int(v[0]), v[1], v[2]) for (name, role), v in rows.items()),
        key=lambda r: -r[4],
    )


def render_table(rows: list[tuple[str, str, int, float, float]], notes: list[str]) -> str:
    width = max([len("layer")] + [len(r[0]) for r in rows])
    lines = [f"{'layer':<{width}}  {'proc':<5}  {'count':>8}  {'total s':>10}  {'self s':>10}"]
    for name, role, count, total, own in rows:
        lines.append(f"{name:<{width}}  {role:<5}  {count:>8}  {total:>10.4f}  {own:>10.4f}")
    lines.extend(notes)
    return "\n".join(lines)


def chrome_trace(processes: list[dict[str, Any]]) -> dict[str, Any]:
    """Chrome trace-event JSON (opens in Perfetto or chrome://tracing)."""
    events: list[dict[str, Any]] = []
    for proc in processes:
        events.append({
            "name": "process_name", "ph": "M", "pid": proc["pid"],
            "args": {"name": f"{proc['role']} {proc['pid']}"},
        })
        for sid, parent, name, start, end, tid in proc["spans"]:
            events.append({
                "name": name, "ph": "X", "pid": proc["pid"], "tid": tid,
                "ts": start / 1e3, "dur": (end - start) / 1e3,
                "args": {"id": sid, "parent": parent},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
