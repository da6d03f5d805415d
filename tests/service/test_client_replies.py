"""The submitting client and ``repro status`` against malformed broker replies.

A scripted broker answers one request with frames whose fields have
the wrong type or are missing.  ``submit_sweep`` must raise its
documented ``WireError`` and ``repro status`` must print one line and
exit 2; neither may end in a ``TypeError``, ``KeyError`` or
``AttributeError`` traceback, or take a garbage count at face value.
"""

from __future__ import annotations

import contextlib
import math
import socket
import threading

import pytest

from repro.cli import main
from repro.errors import WireError
from repro.experiments.parallel import SweepSpec, run_sweep
from repro.service import submit_sweep
from repro.service.protocol import encode_records, recv_frame, send_frame

SPEC = SweepSpec(
    name="reply-test",
    families=("complete",),
    ns=(16,),
    deltas=("n^0.75",),
    algorithms=("trivial",),
    seeds=(0, 1),
    preset="testing",
)

_MISSING = object()


@contextlib.contextmanager
def scripted_broker(*frames: tuple[dict, bytes]):
    """A fake broker that answers one client request with ``frames``.

    It accepts one connection, reads the request frame, sends each
    ``(header, payload)`` pair in order, and then waits for the client
    to hang up.  Yields the address to dial.
    """
    server = socket.create_server(("127.0.0.1", 0))

    def serve() -> None:
        try:
            conn, _ = server.accept()
        except OSError:
            return
        with conn:
            conn.settimeout(5.0)
            recv_frame(conn)
            for header, payload in frames:
                send_frame(conn, header, payload)
            with contextlib.suppress(OSError):
                conn.recv(1)

    fake = threading.Thread(target=serve, daemon=True)
    fake.start()
    try:
        yield server.getsockname()[:2]
    finally:
        server.close()
        fake.join(5.0)


def changed(fields: dict, changes: dict) -> dict:
    fields = dict(fields)
    for key, value in changes.items():
        if value is _MISSING:
            del fields[key]
        else:
            fields[key] = value
    return fields


@pytest.fixture(scope="module")
def records():
    return list(run_sweep(SPEC, workers=1).records)


def done_frame(records, **changes) -> tuple[dict, bytes]:
    header = {
        "type": "done", "job": SPEC.spec_hash(), "total": len(records),
        "executed": len(records), "cached": 0, "workers": 1, "elapsed": 0.25,
    }
    return changed(header, changes), encode_records(records)


def submit_against(*frames, progress=None):
    accepted = ({"type": "accepted", "job": SPEC.spec_hash()}, b"")
    with scripted_broker(accepted, *frames) as address:
        return submit_sweep(address, SPEC, progress=progress, retry=2.0, timeout=5.0)


class TestSubmitRefusesMalformedReplies:
    def test_a_well_formed_reply_is_the_sweep_result(self, records):
        seen = []
        result = submit_against(
            ({"type": "progress", "done": 1, "total": 2}, b""),
            done_frame(records),
            progress=lambda done, total: seen.append((done, total)),
        )
        assert list(result.records) == records
        assert (result.executed, result.cached, result.workers) == (2, 0, 1)
        assert result.elapsed == 0.25
        assert seen == [(1, 2), (2, 2)]

    @pytest.mark.parametrize(
        "changes",
        [
            {"done": None},
            {"done": -1},
            {"done": True},
            {"total": _MISSING},
            {"total": "2"},
        ],
        ids=["done-null", "done-negative", "done-bool", "total-missing", "total-str"],
    )
    def test_malformed_progress_frame(self, changes):
        frame = changed({"type": "progress", "done": 1, "total": 2}, changes)
        with pytest.raises(WireError, match="progress frame needs"):
            submit_against((frame, b""), progress=lambda done, total: None)

    @pytest.mark.parametrize(
        "changes",
        [
            {"total": [1]},
            {"total": 2.0},
            {"executed": _MISSING},
            {"executed": 1.5},
            {"cached": -1},
            {"workers": False},
            {"elapsed": _MISSING},
            {"elapsed": "0.25"},
            {"elapsed": math.nan},
            {"elapsed": math.inf},
        ],
        ids=[
            "total-list", "total-float", "executed-missing", "executed-float",
            "cached-negative", "workers-bool", "elapsed-missing", "elapsed-str",
            "elapsed-nan", "elapsed-inf",
        ],
    )
    def test_malformed_done_frame(self, records, changes):
        with pytest.raises(WireError, match="done frame needs"):
            submit_against(done_frame(records, **changes))


class TestStatusRefusesMalformedReplies:
    @pytest.mark.parametrize(
        "jobs",
        [[1], {"abc": 1}, _MISSING],
        ids=["jobs-list", "job-not-an-object", "jobs-missing"],
    )
    def test_status_cli_prints_one_line_and_exits_2(self, jobs, capsys):
        reply = {"type": "status-reply", "warehouse": False, "unit_size": 8}
        if jobs is not _MISSING:
            reply["jobs"] = jobs
        with scripted_broker((reply, b"")) as (host, port):
            code = main(["status", "--connect", f"{host}:{port}", "--retry", "2"])
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("status: ") and f"{host}:{port}" in lines[0]
        assert "jobs" in lines[0]
        assert captured.out == ""
