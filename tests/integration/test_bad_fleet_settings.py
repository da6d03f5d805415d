"""Bad broker settings and worker counts are refused before anything runs.

A broker takes its tuning from ``Broker(...)`` or ``repro serve``
flags, and every command that starts worker processes takes a worker
count.  A bad value must end in a typed error — on the CLI, exit 2
with one line — before a port is bound or a broker is dialled.  It
must never be bent into a value that runs (``unit_size=0`` as 1, a
negative count as inline) or into a lease that expires at once.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.errors import ReproError, ServiceError
from repro.service import Broker, run_worker
from repro.service import worker as worker_module

BAD_TUNING = {
    "unit-size-zero": ({"unit_size": 0}, "unit_size"),
    "unit-size-negative": ({"unit_size": -4}, "unit_size"),
    "unit-size-float": ({"unit_size": 2.7}, "unit_size"),
    "unit-size-bool": ({"unit_size": True}, "unit_size"),
    "unit-size-str": ({"unit_size": "3"}, "unit_size"),
    "max-attempts-zero": ({"max_attempts": 0}, "max_attempts"),
    "max-attempts-float": ({"max_attempts": 1.5}, "max_attempts"),
    "max-attempts-bool": ({"max_attempts": False}, "max_attempts"),
    "lease-timeout-negative": ({"lease_timeout": -1}, "lease_timeout"),
    "lease-timeout-zero": ({"lease_timeout": 0}, "lease_timeout"),
    "lease-timeout-nan": ({"lease_timeout": math.nan}, "lease_timeout"),
    "lease-timeout-str": ({"lease_timeout": "5"}, "lease_timeout"),
    "lease-timeout-bool": ({"lease_timeout": True}, "lease_timeout"),
}


@pytest.fixture
def nothing_starts(monkeypatch):
    """Record every broker start and worker dial; serving returns at once.

    ``serve_forever`` is patched so that a command which wrongly
    accepts its arguments ends instead of serving.
    """
    calls: list[str] = []
    original_start = Broker.start

    def start(self):
        calls.append("bind")
        return original_start(self)

    def dial(address, budget, workers, **kwargs):
        calls.append("dial")
        raise ServiceError("test stand-in: no broker here")

    monkeypatch.setattr(Broker, "start", start)
    monkeypatch.setattr(Broker, "serve_forever", lambda self: None)
    monkeypatch.setattr(worker_module, "_dial", dial)
    return calls


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    return err


@pytest.mark.parametrize("name", sorted(BAD_TUNING))
def test_broker_refuses_bad_tuning(name, tmp_path):
    kwargs, fragment = BAD_TUNING[name]
    with pytest.raises(ServiceError, match=fragment):
        Broker(tmp_path, **kwargs)


def test_broker_keeps_good_tuning(tmp_path):
    broker = Broker(tmp_path, unit_size=3, lease_timeout=2, max_attempts=1)
    assert (broker.unit_size, broker.max_attempts) == (3, 1)
    assert broker.lease_timeout == 2.0 and isinstance(broker.lease_timeout, float)


@pytest.mark.parametrize(
    "flags",
    [
        ["--unit-size", "0"],
        ["--unit-size", "-4"],
        ["--lease-timeout", "-1"],
        ["--lease-timeout", "0"],
        ["--lease-timeout", "nan"],
    ],
    ids=lambda flags: " ".join(flags),
)
def test_serve_refuses_bad_tuning_before_binding(
    flags, tmp_path, capsys, nothing_starts
):
    argv = ["serve", "--port", "0", "--cache-dir", str(tmp_path), *flags]
    assert main(argv) == 2
    assert "serve: bad broker settings:" in _one_line_error(capsys)
    assert nothing_starts == []


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--family", "complete", "--n", "16", "--seeds", "1",
         "--workers", "-1"],
        ["work", "--connect", "127.0.0.1:9", "--reconnect", "0",
         "--workers", "-2"],
        ["serve", "--port", "0", "--local-workers", "1",
         "--workers-per-host", "-2"],
        ["serve", "--port", "0", "--local-workers", "-1"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_negative_worker_counts_exit_2(argv, tmp_path, capsys, nothing_starts):
    if argv[0] == "serve":
        argv = [*argv, "--cache-dir", str(tmp_path)]
    assert main(argv) == 2
    err = _one_line_error(capsys)
    assert err.startswith(f"{argv[0]}: bad --")
    assert nothing_starts == []


def _group_alive(group: int) -> bool:
    try:
        os.killpg(group, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX process groups")
def test_serve_stops_its_local_hosts_on_sigterm(tmp_path):
    """A plain `kill` ends `serve` the way Ctrl-C does: hosts and all."""
    log = tmp_path / "serve.log"
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    with open(log, "w") as stderr:
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(tmp_path / "cache"), "--local-workers", "2"],
            env=env, stdout=subprocess.DEVNULL, stderr=stderr,
            start_new_session=True,
        )
    group = serve.pid  # a session leader's group id is its pid
    try:
        deadline = time.monotonic() + 60
        while "local worker host(s)" not in log.read_text():
            assert serve.poll() is None, log.read_text()
            assert time.monotonic() < deadline, log.read_text()
            time.sleep(0.05)
        serve.send_signal(signal.SIGTERM)
        assert serve.wait(timeout=30) == 0, log.read_text()
        deadline = time.monotonic() + 5
        while _group_alive(group):
            assert time.monotonic() < deadline, "a worker host outlived serve"
            time.sleep(0.1)
    finally:
        if _group_alive(group):
            os.killpg(group, signal.SIGKILL)
        serve.wait(timeout=30)


def test_run_worker_resolves_zero_to_one_per_core(monkeypatch):
    seen: list[int] = []

    def dial(address, budget, workers, **kwargs):
        seen.append(workers)
        raise ServiceError("test stand-in: no broker here")

    monkeypatch.setattr(worker_module, "_dial", dial)
    with pytest.raises(ServiceError):
        run_worker(("127.0.0.1", 9), workers=0, reconnect=0)
    assert seen == [os.cpu_count() or 1]
    with pytest.raises(ReproError, match="workers must be >= 0"):
        run_worker(("127.0.0.1", 9), workers=-2, reconnect=0)
    assert seen == [os.cpu_count() or 1]


def test_removed_fault_schedule_flag_is_a_usage_error(tmp_path, capsys, nothing_starts):
    """Schedules fault a fleet through `repro chaos-proxy`, never the broker."""
    argv = ["serve", "--port", "0", "--cache-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--fault-schedule", str(tmp_path / "chaos.json")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --fault-schedule" in capsys.readouterr().err
    assert nothing_starts == []
    # Without the flag the broker binds, reports its address and stops
    # when (stubbed) serving ends.
    assert main(argv) == 0
    assert "[broker] listening on 127.0.0.1:" in capsys.readouterr().err
    assert nothing_starts == ["bind"]
