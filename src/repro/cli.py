"""Command-line interface: ``python -m repro`` or ``repro-experiments``.

Commands
--------
``list``
    Show every registered experiment with its paper claim.
``describe <KEY>``
    Print an experiment's full docstring (what it measures and how).
``run <KEY> [--full] [--save DIR]``
    Run one experiment (quick parameters by default) and print its
    tables; ``--save`` also writes markdown into a directory.
``run-all [--full] [--save DIR]``
    Run the entire registry in order.
``sweep [grid options] [--workers N] [--resume] [--out FILE] [--stream]``
    Fan a (family × n × δ × algorithm × scenario × seeds) trial grid
    out over the persistent worker fabric
    (:mod:`repro.experiments.parallel`).
    Results are byte-identical for every worker count; with
    ``--cache-dir`` the sweep streams into a per-spec result cache
    and ``--resume`` (the default) finishes interrupted runs instead
    of recomputing.  ``--stream`` folds records into summaries as
    they arrive (O(batch) memory, grids too large to hold);
    ``--warehouse`` persists the cache as a columnar results
    warehouse (:mod:`repro.experiments.warehouse`) instead of JSONL.
``report PATH [PATH ...]``
    Summarize exported records as grouped tables.  JSON-lines files
    are folded record by record (streaming, arbitrarily large);
    warehouse directories by one fused pass of the summary kernel
    (:mod:`repro.experiments.query`) over their columns — same
    table, orders of magnitude faster.
``serve [--port P] [--cache-dir DIR] [--local-workers N]``
    Run a sweep-service broker (:mod:`repro.service`): shard
    submitted grids into content-addressed work units, lease them to
    worker hosts over sockets, merge results into the shared cache.
    ``--local-workers`` also spawns worker-host processes on this
    machine, so one command is a self-contained fleet.
``work --connect HOST:PORT [--workers N]``
    Join a fleet as one worker host; ``--workers`` fans each unit out
    over a warm local fabric.
``submit --connect HOST:PORT [grid options] [--no-resume] [--out FILE]``
    Queue a sweep on a running broker, stream progress, and print the
    merged summary — the socket twin of ``sweep``, byte-identical
    records, with the broker's cache giving "served from cache"
    semantics across clients and restarts; ``--no-resume`` has the
    broker discard the spec's cached trials first.
``status --connect HOST:PORT``
    Print a running broker's job table; a dead or hung broker is a
    one-line typed error and exit code 2, never a hang.
``chaos-proxy --listen HOST:PORT --connect HOST:PORT --fault-schedule F``
    Interpose a deterministic network-fault proxy
    (:mod:`repro.service.chaos`) between real broker and worker
    processes — delays, truncation, corruption, blackholes, and
    healing partitions, all replayable from a seeded JSON schedule.

Run ``python -m repro --help`` (or ``<command> --help``) for the full
option reference; ``docs/cli.md`` documents every subcommand with
copy-pasteable examples.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.workloads import EXPERIMENTS, run_experiment

__all__ = ["main"]

_EPILOG = """\
commands (run `<command> --help` for its options):
  list                  list registered experiments and their claims
  describe KEY [...]    print what an experiment measures and how
  run KEY [...]         run experiments and print their tables
  run-all               run the whole registry in order
  sweep                 fan a trial grid out over the worker fabric,
                        with an optional resumable result cache
  report PATH [...]     summarize record exports: JSONL files (streaming)
                        or columnar warehouse directories (fused kernel)
  serve                 run a sweep-service broker (optionally with
                        local worker hosts) that many clients can
                        queue sweeps against
  work                  join a running broker as one worker host
  submit                queue a sweep on a broker and wait for the
                        merged, byte-identical records
  status                print a broker's job table (exit 2 if the
                        broker is dead or not answering)
  chaos-proxy           fault broker<->worker traffic per a seeded,
                        replayable JSON schedule (docs/performance.md
                        section "Fault model and chaos testing")

examples:
  python -m repro list
  python -m repro run T1-SCALING --save results/
  python -m repro sweep --family er-min-degree --n 200 --n 400 \\
      --algorithm trivial --seeds 10 --workers 0 --out sweep.jsonl
  python -m repro report sweep.jsonl
  python -m repro serve --port 7641 --cache-dir .svc --local-workers 2
  python -m repro submit --connect 127.0.0.1:7641 \\
      --family complete --n 64 --seeds 8 --out fleet.jsonl

full reference with copy-pasteable examples: docs/cli.md
"""


def _cmd_list() -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for key, spec in EXPERIMENTS.items():
        print(f"{key.ljust(width)}  {spec.title}  [{spec.claim}]")
    return 0


def _cmd_describe(keys: list[str]) -> int:
    import inspect

    for key in keys:
        if key not in EXPERIMENTS:
            print(f"unknown experiment {key!r}; try `list`", file=sys.stderr)
            return 2
        spec = EXPERIMENTS[key]
        print(f"{key} — {spec.title}")
        print(f"claim: {spec.claim}")
        doc = inspect.getdoc(spec.runner)
        if doc:
            print(doc)
        print()
    return 0


def _cmd_run(keys: list[str], full: bool, save: str | None) -> int:
    for key in keys:
        if key not in EXPERIMENTS:
            print(f"unknown experiment {key!r}; try `list`", file=sys.stderr)
            return 2
        started = time.perf_counter()
        tables = run_experiment(key, quick=not full, save_dir=save)
        elapsed = time.perf_counter() - started
        for table in tables:
            print(table.render())
            print()
        print(f"[{key} finished in {elapsed:.1f}s]")
        print()
    return 0


def _cmd_report(paths: list[str]) -> int:
    from repro.errors import ReproError
    from repro.experiments.report import summarize_path

    for path in paths:
        try:
            table = summarize_path(path)
        except (OSError, ReproError) as error:
            # OSError: unreadable path; ReproError (WarehouseError):
            # missing/empty paths, non-record files, corrupt warehouses.
            print(f"cannot read {path}: {error}", file=sys.stderr)
            return 2
        print(table.render())
        print()
    return 0


def _spec_from_args(args: argparse.Namespace):
    """Build the SweepSpec shared by ``sweep`` and ``submit`` grids.

    Returns the spec, or ``None`` after printing the validation error
    (the caller exits 2) — both commands must reject a bad grid the
    same way.
    """
    from repro.errors import ReproError
    from repro.experiments.parallel import SweepSpec

    try:
        return SweepSpec(
            name=args.name,
            families=tuple(args.family or ["er-min-degree"]),
            ns=tuple(args.n or [200, 400]),
            deltas=tuple(args.delta or ["n^0.75"]),
            algorithms=tuple(args.algorithm or ["trivial"]),
            scenarios=tuple(args.scenario or ["none"]),
            seeds=tuple(range(args.seeds)),
            preset=args.preset,
            max_rounds=args.max_rounds,
        )
    except ReproError as error:
        print(f"bad sweep spec: {error}", file=sys.stderr)
        return None


def _worker_count(command: str, option: str, workers: int) -> int | None:
    """Resolve a worker-count option (``0`` = one per core).

    Returns ``None`` after printing why a negative count is refused;
    the caller exits 2.
    """
    from repro.errors import ReproError
    from repro.experiments.parallel import resolve_workers

    try:
        return resolve_workers(workers)
    except ReproError as error:
        print(f"{command}: bad {option}: {error}", file=sys.stderr)
        return None


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.experiments.parallel import run_sweep

    if args.stream and args.out:
        print(
            "sweep: --stream keeps only O(batch) records, so --out has "
            "nothing to write; use --cache-dir to persist raw records",
            file=sys.stderr,
        )
        return 2
    if args.warehouse and not args.cache_dir:
        print(
            "sweep: --warehouse persists the result cache as a columnar "
            "warehouse, so it needs --cache-dir",
            file=sys.stderr,
        )
        return 2
    if _worker_count("sweep", "--workers", args.workers) is None:
        return 2
    spec = _spec_from_args(args)
    if spec is None:
        return 2

    def progress(completed: int, total: int) -> None:
        print(
            f"\r[{spec.name}] {completed}/{total} trials",
            end="", file=sys.stderr, flush=True,
        )

    try:
        result = run_sweep(
            spec,
            workers=args.workers,
            cache_dir=args.cache_dir,
            resume=args.resume,
            progress=progress,
            stream=args.stream,
            warehouse=args.warehouse,
        )
    except ReproError as error:
        # e.g. a family/parameter combination the generator rejects
        # (regular graphs need n·δ even) — a user error, not a crash.
        print(file=sys.stderr)
        print(f"sweep failed: {error}", file=sys.stderr)
        return 1
    print(file=sys.stderr)
    print(result.summary_table().render())
    if args.out and not args.stream:
        target = result.write_jsonl(args.out)
        print(f"[{len(result.records)} records written to {target}]")
    if args.profile_setup:
        from repro.experiments.parallel import profile_setup

        print()
        print(profile_setup(spec).render())
    return 0


def _interrupt(signum: int, frame: object) -> None:
    """SIGTERM handler: stop the way Ctrl-C does."""
    raise KeyboardInterrupt


def _cmd_serve(args: argparse.Namespace) -> int:
    import multiprocessing
    import signal

    from repro.errors import ReproError
    from repro.service import Broker, format_address, run_worker

    tuning = {
        key: value
        for key, value in (
            ("unit_size", args.unit_size),
            ("lease_timeout", args.lease_timeout),
        )
        if value is not None
    }
    if args.local_workers < 0:
        print(
            f"serve: bad --local-workers: host count must be >= 0, "
            f"got {args.local_workers}",
            file=sys.stderr,
        )
        return 2
    per_host = _worker_count("serve", "--workers-per-host", args.workers_per_host)
    if per_host is None:
        return 2
    try:
        broker = Broker(
            args.cache_dir,
            host=args.host,
            port=args.port,
            warehouse=args.warehouse,
            **tuning,
        )
    except ReproError as error:
        print(f"serve: bad broker settings: {error}", file=sys.stderr)
        return 2
    try:
        broker.start()
    except (OSError, ReproError) as error:
        print(f"serve: cannot start broker: {error}", file=sys.stderr)
        return 1
    hosts: list[multiprocessing.Process] = []
    previous_sigterm = None
    try:
        print(
            f"[broker] listening on {format_address(broker.address)} "
            f"(cache: {args.cache_dir}"
            + (", warehouse" if args.warehouse else "")
            + ")",
            file=sys.stderr,
        )
        for index in range(args.local_workers):
            # Worker hosts must NOT be daemons: with --workers-per-host
            # above 1 each host runs its own fabric pool, and daemonic
            # processes cannot have children.
            host = multiprocessing.Process(
                target=run_worker,
                args=(broker.address,),
                kwargs={"workers": per_host},
                name=f"repro-worker-host-{index}",
            )
            host.start()
            hosts.append(host)
        if hosts:
            print(
                f"[broker] {len(hosts)} local worker host(s) x "
                f"{per_host} worker(s)",
                file=sys.stderr,
            )
        # SIGTERM takes the Ctrl-C path, so a plain `kill` stops the
        # local hosts too.  Installed after they fork: the hosts keep
        # the default disposition, so terminate() still ends them.
        previous_sigterm = signal.signal(signal.SIGTERM, _interrupt)
        broker.serve_forever()
    except KeyboardInterrupt:
        print("\n[broker] shutting down", file=sys.stderr)
    finally:
        broker.stop()
        for host in hosts:
            host.terminate()
        for host in hosts:
            host.join(timeout=5.0)
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
    return 0


def _cmd_work(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.service import parse_address, run_worker

    try:
        address = parse_address(args.connect)
    except ReproError as error:
        print(f"work: {error}", file=sys.stderr)
        return 2
    if _worker_count("work", "--workers", args.workers) is None:
        return 2

    def on_unit(unit_id: str, n_trials: int) -> None:
        print(f"[worker] unit {unit_id}: {n_trials} trial(s)", file=sys.stderr)

    try:
        units = run_worker(
            address,
            workers=args.workers,
            max_units=args.max_units,
            reconnect=args.reconnect,
            on_unit=on_unit,
        )
    except ReproError as error:
        print(f"work: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("\n[worker] interrupted", file=sys.stderr)
        return 0
    print(f"[worker] done: {units} unit(s) completed", file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.service import parse_address, submit_sweep

    spec = _spec_from_args(args)
    if spec is None:
        return 2
    try:
        address = parse_address(args.connect)
    except ReproError as error:
        print(f"submit: {error}", file=sys.stderr)
        return 2

    def progress(done: int, total: int) -> None:
        print(
            f"\r[{spec.name}] {done}/{total} trials",
            end="", file=sys.stderr, flush=True,
        )

    try:
        result = submit_sweep(
            address, spec,
            progress=progress, retry=args.retry,
            timeout=args.timeout if args.timeout > 0 else None,
            resume=args.resume,
        )
    except ReproError as error:
        # ServiceError (failed job, dead broker) and WireError (framing)
        # both land here; either way the sweep did not merge.
        print(file=sys.stderr)
        print(f"submit failed: {error}", file=sys.stderr)
        return 1
    print(file=sys.stderr)
    print(result.summary_table().render())
    if args.out:
        target = result.write_jsonl(args.out)
        print(f"[{len(result.records)} records written to {target}]")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.service import broker_status, parse_address

    try:
        address = parse_address(args.connect)
        status = broker_status(
            address, retry=args.retry, timeout=args.timeout
        )
    except ServiceError as error:
        # Dead address, hung broker, torn or malformed reply: one typed
        # line, exit 2.
        print(f"status: {error}", file=sys.stderr)
        return 2
    jobs = status["jobs"]
    print(
        f"broker {args.connect}: {len(jobs)} job(s)"
        + (", warehouse cache" if status.get("warehouse") else "")
        + f", unit size {status.get('unit_size', '?')}"
    )
    for spec_hash, job in jobs.items():
        state = (
            "failed" if job.get("failed")
            else "finished" if job.get("finished")
            else "running"
        )
        print(
            f"  {job.get('name', '?')} [{spec_hash[:12]}]  {state}  "
            f"done={job.get('done', '?')}/{job.get('total', '?')}  "
            f"queued={job.get('queued', '?')} leased={job.get('leased', '?')} "
            f"merged={job.get('merged', '?')}  "
            f"workers={job.get('workers', '?')}"
        )
    return 0


def _cmd_chaos_proxy(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.service import parse_address
    from repro.service.chaos import ChaosProxy, FaultSchedule

    try:
        upstream = parse_address(args.connect)
        listen = parse_address(args.listen)
        schedule = FaultSchedule.from_file(args.fault_schedule)
    except (OSError, ReproError) as error:
        print(f"chaos-proxy: {error}", file=sys.stderr)
        return 2
    proxy = ChaosProxy(upstream, schedule, host=listen[0], port=listen[1])
    try:
        host, port = proxy.start()
    except (OSError, ReproError) as error:
        print(f"chaos-proxy: cannot listen: {error}", file=sys.stderr)
        return 1
    print(
        f"[chaos] proxying {host}:{port} -> {args.connect} "
        f"({len(schedule.rules)} rule(s), seed {schedule.seed})",
        file=sys.stderr,
    )
    try:
        proxy.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        proxy.stop()
        for event in proxy.events():
            print(f"[chaos] {event}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Fast Neighborhood Rendezvous (ICDCS 2020) experiment runner",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list registered experiments")

    describe_parser = sub.add_parser("describe", help="explain experiments")
    describe_parser.add_argument("keys", nargs="+")

    run_parser = sub.add_parser("run", help="run one or more experiments")
    run_parser.add_argument("keys", nargs="+", help="experiment keys (see `list`)")
    run_parser.add_argument("--full", action="store_true", help="use the larger sweeps")
    run_parser.add_argument("--save", default=None, help="directory for markdown tables")

    all_parser = sub.add_parser("run-all", help="run the whole registry")
    all_parser.add_argument("--full", action="store_true")
    all_parser.add_argument("--save", default=None)

    def add_grid_arguments(grid_parser: argparse.ArgumentParser) -> None:
        # The (family × n × δ × algorithm × scenario × seeds) grid axes,
        # identical for `sweep` (local) and `submit` (via a broker).
        grid_parser.add_argument(
            "--name", default="cli", help="sweep name for reports"
        )
        grid_parser.add_argument(
            "--family", action="append",
            help="graph family axis, repeatable (default: er-min-degree)",
        )
        grid_parser.add_argument(
            "--n", action="append", type=int,
            help="instance size axis, repeatable (default: 200 400)",
        )
        grid_parser.add_argument(
            "--delta", action="append",
            help="min-degree rule axis: an integer or 'n^<exp>' (default: n^0.75)",
        )
        grid_parser.add_argument(
            "--algorithm", action="append",
            help="algorithm axis, repeatable (default: trivial)",
        )
        grid_parser.add_argument(
            "--scenario", action="append",
            help="scenario axis, repeatable: a registered scenario name such "
                 "as edge-churn or wb-corrupt (default: none)",
        )
        grid_parser.add_argument(
            "--seeds", type=int, default=5,
            help="seeds 0..N-1 per grid point (default 5)",
        )
        grid_parser.add_argument(
            "--preset", default="tuned",
            help="constants preset: paper|tuned|testing|aggressive (default tuned)",
        )
        grid_parser.add_argument(
            "--max-rounds", type=int, default=None, help="round budget override"
        )

    sweep_parser = sub.add_parser(
        "sweep", help="run a parallel trial grid (see --help epilog)"
    )
    add_grid_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--workers", type=int, default=0,
        help="worker processes; 0 = one per core, 1 = inline (default 0)",
    )
    sweep_parser.add_argument(
        "--cache-dir", default=None,
        help="result cache directory, one file per spec (enables resume)",
    )
    sweep_parser.add_argument(
        "--warehouse", action="store_true",
        help="persist the cache as a columnar results warehouse instead of "
             "JSONL (requires --cache-dir); summarize it with "
             "`repro report <cache-dir>/<hash>.wh`",
    )
    sweep_parser.add_argument(
        "--resume", action=argparse.BooleanOptionalAction, default=True,
        help="reuse cached trials of this spec (--no-resume recomputes)",
    )
    sweep_parser.add_argument(
        "--out", default=None, help="write raw records as JSON lines to this file"
    )
    sweep_parser.add_argument(
        "--stream", action="store_true",
        help="fold records into summaries as they arrive (O(batch) memory); "
             "incompatible with --out, pair with --cache-dir for raw records",
    )
    sweep_parser.add_argument(
        "--profile-setup", action="store_true",
        help="after the sweep, print a per-instance timing breakdown of "
             "the setup pipeline (generate / label / compile / export) "
             "vs one trial's runtime",
    )

    report_parser = sub.add_parser(
        "report", help="summarize record exports (JSONL files or warehouse dirs)"
    )
    report_parser.add_argument(
        "files", nargs="+",
        help="JSON-lines record files (`sweep --out`) or warehouse "
             "directories (`sweep --warehouse`)",
    )

    serve_parser = sub.add_parser(
        "serve", help="run a sweep-service broker (optionally with local hosts)"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="interface to listen on (default 127.0.0.1; 0.0.0.0 for a LAN fleet)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=7641,
        help="port to listen on; 0 picks a free one (default 7641)",
    )
    serve_parser.add_argument(
        "--cache-dir", default=".service-cache",
        help="durable result cache shared by every job; a restarted broker "
             "resumes from it (default .service-cache)",
    )
    serve_parser.add_argument(
        "--warehouse", action="store_true",
        help="persist the cache as a columnar results warehouse instead of JSONL",
    )
    serve_parser.add_argument(
        "--unit-size", type=int, default=None,
        help="trials per work unit (default 16); smaller units re-queue "
             "less work after a crash, larger ones amortize framing",
    )
    serve_parser.add_argument(
        "--lease-timeout", type=float, default=None,
        help="seconds before a silent worker's unit is re-queued (default 60)",
    )
    serve_parser.add_argument(
        "--local-workers", type=int, default=0,
        help="also spawn N worker-host processes against this broker "
             "(a self-contained fleet in one command; default 0)",
    )
    serve_parser.add_argument(
        "--workers-per-host", type=int, default=1,
        help="fabric width inside each local worker host; 0 = one per "
             "core (default 1)",
    )

    work_parser = sub.add_parser(
        "work", help="join a running broker as one worker host"
    )
    work_parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the broker's address",
    )
    work_parser.add_argument(
        "--workers", type=int, default=1,
        help="fan each unit out over a warm local fabric of N processes; "
             "0 = one per core (default 1: run units inline)",
    )
    work_parser.add_argument(
        "--max-units", type=int, default=None,
        help="exit after completing N units (default: serve forever)",
    )
    work_parser.add_argument(
        "--reconnect", type=float, default=10.0,
        help="seconds to keep redialing a lost broker before giving up "
             "(default 10)",
    )

    submit_parser = sub.add_parser(
        "submit", help="queue a sweep on a broker and wait for the merge"
    )
    submit_parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the broker's address",
    )
    add_grid_arguments(submit_parser)
    submit_parser.add_argument(
        "--out", default=None,
        help="write the merged records as JSON lines to this file",
    )
    submit_parser.add_argument(
        "--resume", action=argparse.BooleanOptionalAction, default=True,
        help="reuse the broker's cached trials of this spec (--no-resume "
             "discards them and recomputes; refused while the spec's job runs)",
    )
    submit_parser.add_argument(
        "--retry", type=float, default=10.0,
        help="seconds to keep dialing the broker before giving up (default 10)",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=60.0,
        help="fail if the broker stays silent this long mid-sweep "
             "(default 60; progress heartbeats arrive every ~2s, so this "
             "catches a blackholed broker; 0 waits forever)",
    )

    status_parser = sub.add_parser(
        "status", help="print a running broker's job table"
    )
    status_parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the broker's address",
    )
    status_parser.add_argument(
        "--retry", type=float, default=5.0,
        help="seconds to keep dialing before giving up (default 5)",
    )
    status_parser.add_argument(
        "--timeout", type=float, default=10.0,
        help="seconds a connected broker may take to answer (default 10)",
    )

    chaos_parser = sub.add_parser(
        "chaos-proxy",
        help="fault broker<->worker traffic per a seeded JSON schedule",
    )
    chaos_parser.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="address to accept faulted peers on (default 127.0.0.1:0 — "
             "a free port, printed at startup)",
    )
    chaos_parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the real broker's address",
    )
    chaos_parser.add_argument(
        "--fault-schedule", required=True, metavar="FILE",
        help="seeded JSON fault schedule (taxonomy and format: "
             "docs/performance.md 'Fault model and chaos testing')",
    )

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "describe":
        return _cmd_describe(args.keys)
    if args.command == "run":
        return _cmd_run(args.keys, args.full, args.save)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "report":
        return _cmd_report(args.files)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "work":
        return _cmd_work(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "chaos-proxy":
        return _cmd_chaos_proxy(args)
    return _cmd_run(list(EXPERIMENTS), args.full, args.save)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
