"""End-to-end paper-grid benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 12 --trace 0

Each run happens in a fresh subprocess (``bench.py measure``), so the
instance memo, the fabric pool and peak RSS all start cold.  Before it,
the serial oracle for the workload seed is taken from ``oracle.json``
(default seed) or from the cache under ``.perfbench/oracle/``, and
computed in another subprocess when missing.  After it, any child
process or ``/dev/shm`` plan segment left behind is removed and fails
the run.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}`` with every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).  The line before it is the environment stamp.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

from calibration import speed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-grid", "seed-swarm", "service-fleet")
DEFAULT_SEED = 0

#: Every run must end within this many seconds, oracle included.
RUN_BUDGET = 170.0

_PR_SET_CHILD_SUBREAPER = 36


def environment_stamp() -> dict:
    """Context for judging steadiness: machine, interpreter, load, speed."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return {
        "nproc": cpus,
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "calibration_s": round(speed(), 5),
    }


def child_env(root: Path, state: Path) -> dict[str, str]:
    """The program sees only its sources: no inherited ``REPRO_*`` knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(state / "tmp")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def shm_segments() -> set[str]:
    """Shared-memory segments of the kind the sweep fabric exports."""
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {p.name for p in shm.iterdir() if p.name.startswith("psm_")}


def become_subreaper() -> None:
    """Adopt orphaned descendants, so leaked processes can be found."""
    if sys.platform.startswith("linux"):
        ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def child_pids() -> list[int]:
    """Live children of this process, from ``/proc``; zombies are reaped."""
    me = os.getpid()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) != me:
            continue
        if fields[0] == "Z":
            try:
                os.waitpid(int(entry.name), 0)
            except ChildProcessError:
                pass
        else:
            pids.append(int(entry.name))
    return pids


def reap_leaks(before: set[str], grace: float = 5.0) -> int:
    """Kill leftover descendants and unlink leftover segments; count both.

    Descendants get ``grace`` seconds to finish exiting first: the
    ``multiprocessing`` resource tracker outlives its parent briefly.
    """
    until = time.monotonic() + grace
    while child_pids() and time.monotonic() < until:
        time.sleep(0.05)
    leaks = 0
    for pid in child_pids():
        leaks += 1
        print(f"perfbench: leaked process {pid}; killing it", file=sys.stderr)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    for name in shm_segments() - before:
        leaks += 1
        print(f"perfbench: leaked /dev/shm/{name}; unlinking it", file=sys.stderr)
        try:
            os.unlink(f"/dev/shm/{name}")
        except FileNotFoundError:
            pass
    return leaks


def run_child(args: list[str], env: dict[str, str], deadline: float) -> None:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for " + args[0])
    subprocess.run(
        [sys.executable, str(HERE / "bench.py"), *args],
        env=env, check=True, timeout=timeout,
    )


def oracle_file(
    workload: str, seed: int, scale: str, state: Path, env: dict[str, str], deadline: float,
) -> Path:
    """The serial oracle for this workload seed, computing it if needed."""
    cached = state / "oracle" / f"{scale}-{workload}-s{seed}.json"
    if cached.exists():
        return cached
    cached.parent.mkdir(parents=True, exist_ok=True)
    if seed == DEFAULT_SEED and scale == "full":
        committed = json.loads((HERE / "oracle.json").read_text(encoding="utf-8"))
        cached.write_text(json.dumps(committed[workload]), encoding="utf-8")
        return cached
    run_child(
        ["oracle", "--workload", workload, "--seed", str(seed), "--scale", scale,
         "--out", str(cached)],
        env, deadline,
    )
    return cached


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny grids for the benchmark's self-tests",
    )
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_BUDGET

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    state = root / ".perfbench"
    (state / "tmp").mkdir(parents=True, exist_ok=True)
    env = child_env(root, state)
    stamp = environment_stamp()

    tag = f"{args.scale}-{args.workload}-s{args.seed}-trace{args.trace}"
    out = state / "results" / f"{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    segments = shm_segments()
    become_subreaper()
    try:
        oracle = oracle_file(args.workload, args.seed, args.scale, state, env, deadline)
        run_child(
            ["measure", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", args.scale, "--oracle", str(oracle),
             "--run-dir", str(state / "runs" / tag), "--out", str(out)],
            env, deadline,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, TimeoutError) as error:
        reap_leaks(segments)
        print(f"perfbench: run failed: {error}", file=sys.stderr)
        return 1
    leaks = reap_leaks(segments)
    result = json.loads(out.read_text(encoding="utf-8"))
    if leaks:
        result["correct"] = False
        result["failed"] = result["attempted"]
    stamp["run_calibration_s"] = round(result.pop("calibration_s"), 5)
    stamp["raw_trials_per_s"] = result.pop("raw_trials_per_s")
    stamp["wall_s"] = round(time.monotonic() - started, 3)
    raw = {key: result.pop(key) for key in ("sweeps", "reports")}
    out.write_text(json.dumps({"env": stamp, "result": result, **raw}), encoding="utf-8")
    print("env " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
