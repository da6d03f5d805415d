"""A fixed pure-Python probe that measures how fast the machine runs right now.

On a shared machine the same code runs up to ~1.8x slower for stretches
of seconds to minutes, and CPU time inflates with wall time.  The
benchmark therefore times this probe around each operation it measures
and scales the operation's time by ``REFERENCE_S / probe time``: the
figures it reports are at the reference speed, so code changes show and
machine drift cancels out.

The probe is an integer loop plus a parse of fixed JSON lines.  The
program does both kinds of work (exact statistics, record objects), and
they slow down by different amounts: under memory contention the loop
alone missed up to half of the slowdown of a report call.

``python3 perfbench/calibration.py CPU`` serves one pinned measurement
per line read on standard input, answering with the probe time in seconds.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Probe time at the reference speed (a fast moment of a 2-CPU shared box).
REFERENCE_S = 0.004

#: Fixed JSON lines shaped like sweep records.
LINES = [
    json.dumps({
        "algorithm": ("theorem1", "theorem2", "trivial", "random-walk")[i % 4],
        "graph_name": f"er-min-degree(n={100 * (i % 3 + 2)})", "n": 100 * (i % 3 + 2),
        "delta": 40 + i % 7, "seed": 1_000_000 + i, "met": i % 5 != 0,
        "rounds": (i * 7919) % 1000, "meeting_node": i % 97, "notes": [i, i + 1],
    })
    for i in range(600)
]


def probe() -> float:
    """Time of one run of the integer loop and one parse of ``LINES``."""
    began = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i
    groups: dict[tuple, list[int]] = {}
    for line in LINES:
        row = json.loads(line)
        key = (row["algorithm"], row["graph_name"], row["n"], row["delta"])
        groups.setdefault(key, []).append(row["rounds"])
    return time.perf_counter() - began


def speed(runs: int = 9) -> float:
    """Median time of ``runs`` probes."""
    return statistics.median(probe() for _ in range(runs))


class Calibrator:
    """One pinned probe server per CPU; a call measures all CPUs at once."""

    def __init__(self) -> None:
        try:
            cpus = sorted(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            cpus = [-1]
        self._servers = [
            subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for cpu in cpus
        ]

    def __call__(self) -> float:
        for server in self._servers:
            server.stdin.write("go\n")
            server.stdin.flush()
        return statistics.mean(float(s.stdout.readline()) for s in self._servers)

    def close(self) -> None:
        for server in self._servers:
            server.stdin.close()
        for server in self._servers:
            try:
                server.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
            server.stdout.close()
        self._servers = []


def _serve(cpu: int) -> None:
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    for _line in sys.stdin:
        print(speed(), flush=True)


if __name__ == "__main__":
    _serve(int(sys.argv[1]))
