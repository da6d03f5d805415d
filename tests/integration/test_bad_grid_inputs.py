"""Bad sweep grids end in a typed error on every surface.

A grid reaches the library three ways: ``repro sweep`` arguments, a
:class:`SweepSpec` built in code, and a spec payload a client sends
to a broker.  Each grid below is refused when the spec is built: the
CLI exits 2 with one ``bad sweep spec:`` line, the constructor and
``from_payload`` raise :class:`ReproError`, and a broker answers an
``error`` frame and keeps serving the connection.  None of them may
end in a traceback, in a failure blamed on an agent, in a silently
converted value, or in a cache that grows on every resume.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.experiments.parallel import SweepSpec, resolve_delta
from repro.service import Broker
from repro.service.protocol import recv_message, send_message

_SWEEP = ["sweep", "--family", "complete", "--seeds", "2", "--workers", "1"]
_GOOD = SweepSpec(name="bad-grid", families=("complete",), ns=(16,), seeds=(0, 1))

#: name -> (sweep arguments, payload fields, error message fragment).
BAD_GRIDS = {
    "n-negative": (["--n", "-3"], {"ns": [-3]}, "at least 2"),
    "n-one": (["--n", "1"], {"ns": [1]}, "at least 2"),
    "n-zero-exponent-negative": (
        ["--n", "0", "--delta", "n^-1"], {"ns": [0], "deltas": ["n^-1"]},
        "at least 2",
    ),
    "delta-inf": (["--delta", "n^inf"], {"deltas": ["n^inf"]}, "no finite value"),
    "delta-nan": (["--delta", "n^nan"], {"deltas": ["n^nan"]}, "no finite value"),
    "delta-1e400": (
        ["--delta", "n^1e400"], {"deltas": ["n^1e400"]}, "no finite value",
    ),
    "delta-overflow": (
        ["--n", "400", "--delta", "n^1000"], {"ns": [400], "deltas": ["n^1000"]},
        "no finite value",
    ),
    "max-rounds-negative": (["--max-rounds", "-5"], {"max_rounds": -5}, "max_rounds"),
    "n-repeated": (["--n", "16", "--n", "16"], {"ns": [16, 16]}, "must not repeat"),
    # Points outside a family's (n, δ) domain: each generator would
    # refuse them only after set-up has begun.
    "regular-degree-above-n": (
        ["--family", "regular", "--n", "5"],
        {"families": ["regular"], "ns": [5]},
        "need 1 <= degree <= n - 1",
    ),
    "regular-odd-degree-sum": (
        ["--family", "regular", "--n", "7", "--delta", "3"],
        {"families": ["regular"], "ns": [7], "deltas": ["3"]},
        "degree must be even",
    ),
    "powerlaw-floor-above-n": (
        ["--family", "powerlaw", "--n", "10", "--delta", "20"],
        {"families": ["powerlaw"], "ns": [10], "deltas": ["20"]},
        "need 1 <= min_degree <= n - 2",
    ),
    "er-min-degree-zero": (
        ["--family", "er-min-degree", "--n", "10", "--delta", "0"],
        {"families": ["er-min-degree"], "ns": [10], "deltas": ["0"]},
        "need 1 <= min_degree <= n - 1",
    ),
    "geometric-delta-above-n": (
        ["--family", "geometric", "--n", "10", "--delta", "12"],
        {"families": ["geometric"], "ns": [10], "deltas": ["12"]},
        "need 1 <= min_degree <= n - 1",
    ),
}


@pytest.fixture(scope="module")
def broker(tmp_path_factory):
    with Broker(tmp_path_factory.mktemp("bad-grid-broker")) as running:
        yield running


def _submit_then_status(address, payload):
    """Send a raw ``submit`` frame, then ``status`` on the same connection."""
    sock = socket.create_connection(address, timeout=10)
    try:
        send_message(sock, "submit", spec=payload, wait=False)
        reply, _ = recv_message(sock, "error")
        send_message(sock, "status")
        status, _ = recv_message(sock, "status-reply")
    finally:
        sock.close()
    return reply, status


@pytest.mark.parametrize("name", sorted(BAD_GRIDS))
def test_bad_grid_is_refused_on_every_surface(name, capsys, broker):
    arguments, fields, fragment = BAD_GRIDS[name]
    assert main([*_SWEEP, *arguments]) == 2
    err = capsys.readouterr().err
    assert err.count("bad sweep spec:") == 1, err
    assert fragment in err and "Traceback" not in err

    payload = {**_GOOD.describe(), **fields}
    with pytest.raises(ReproError, match=fragment):
        SweepSpec.from_payload(payload)
    reply, status = _submit_then_status(broker.address, payload)
    assert fragment in reply["message"]
    assert status["jobs"] == {}


@pytest.mark.parametrize("max_rounds", [-5, 1.5, "7", True])
def test_max_rounds_is_checked_not_coerced(max_rounds, broker):
    with pytest.raises(ReproError, match="max_rounds"):
        SweepSpec(name="bad-grid", max_rounds=max_rounds)
    payload = {**_GOOD.describe(), "max_rounds": max_rounds}
    with pytest.raises(ReproError, match="max_rounds"):
        SweepSpec.from_payload(payload)
    reply, _ = _submit_then_status(broker.address, payload)
    assert "max_rounds" in reply["message"]


def test_zero_max_rounds_records_every_trial_as_not_met(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    assert main([*_SWEEP, "--n", "16", "--max-rounds", "0", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 2
    assert not any(record["met"] for record in records)
    spec = SweepSpec(name="zero", max_rounds=0)
    assert SweepSpec.from_payload(spec.describe()).max_rounds == 0


@pytest.mark.parametrize(
    "axis, values",
    [
        ("families", ("complete", "complete")),
        ("ns", (16, 16)),
        ("deltas", ("n^0.75", "n^0.75")),
        ("algorithms", ("trivial", "trivial")),
        ("scenarios", ("none", "none")),
        ("seeds", (0, 1, 0)),
    ],
)
def test_no_axis_repeats_a_value(axis, values):
    with pytest.raises(ReproError, match=f"sweep {axis} must not repeat"):
        SweepSpec(name="repeat", **{axis: values})


def test_repeated_axis_value_never_grows_the_cache(tmp_path, capsys):
    """The same run three times: the cache never collects duplicates."""
    cache = tmp_path / "cache"
    arguments = [
        *_SWEEP, "--n", "16", "--n", "16", "--seeds", "3",
        "--cache-dir", str(cache),
    ]
    for _ in range(3):
        assert main(arguments) == 2
        assert "bad sweep spec:" in capsys.readouterr().err
    assert not cache.exists()


@pytest.mark.parametrize(
    "rule, n",
    [("n^inf", 16), ("n^nan", 16), ("n^1e400", 16), ("n^1000", 400),
     ("n^-1", 0), ("n^0.75", -3)],
)
def test_resolve_delta_refuses_rules_without_a_finite_value(rule, n):
    with pytest.raises(ReproError, match="no finite value"):
        resolve_delta(rule, n)
