"""The paper algorithms' records, pinned by digest.

Theorem 1 and Theorem 2 build agent ``a``'s dense set with
``Construct`` and ``Sample``; a change under ``core/`` that alters how
they draw, move or decide changes their records.  Speed-ups there must
not, so this module pins the records themselves: the SHA-256 of the
grid-ordered JSON lines, written the way the end-to-end benchmark
hashes its oracle (``json.dumps(record_to_jsonable(r), sort_keys=True)``),
over the sweep's own instances.

Under the ``crash-restart`` scenario a restarted agent can stand away
from its start vertex, so a move that assumes it is home is refused.
Those trials end in a ``ProtocolError``; its text is pinned per seed
with the same care as a record, because it shows which hop an agent
took after the restart.

The lower-bound experiments and the structured families build their
graphs through the mapping constructor, and LB-KT0 adds an explicit
KT0 port labeling, so their records are pinned too
(``HAND_BUILT_DIGESTS``): they cover the construction path and the
start draw the generator instances never take.  Each of those digests
is checked twice, once over per-seed ``run_trial`` calls and once over
the single ``run_trials`` call the lower-bound experiments make.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.core.constants import Constants
from repro.errors import ProtocolError
from repro.experiments.harness import run_trial, run_trials
from repro.experiments.parallel import CONSTANTS_PRESETS, _instance_for
from repro.experiments.results_io import record_to_jsonable
from repro.graphs.families import torus_grid_graph
from repro.graphs.lowerbound import (
    cliques_sharing_vertex,
    double_star,
    swapped_edge_cliques,
)
from repro.graphs.ports import PortModel

DELTA_RULE = "n^0.75"
SEEDS = range(24)

#: (preset, family, n, algorithm, delta) -> SHA-256 of the 24 seeds'
#: JSON lines.  Under ``tuned`` (the sweep default) the agents meet at
#: these sizes before any ``Sample`` result steers agent ``a``, so those
#: groups pin draws and moves; under ``aggressive`` agent ``a`` finishes
#: ``Construct`` in about a third of the theorem1 trials, so the heavy
#: sets reach the records as well.
GRID_DIGESTS = {
    ("tuned", "er-min-degree", 60, "theorem1", None):
        "e8570338c96276731e9e59c949f95aeeb42a0026b66656e62908ed63d8676ccc",
    ("tuned", "er-min-degree", 60, "theorem1", "estimate"):
        "e8570338c96276731e9e59c949f95aeeb42a0026b66656e62908ed63d8676ccc",
    ("tuned", "er-min-degree", 60, "theorem2", None):
        "ef17d1f7d9279bd60597ac4300ab9c653a33f07ce8bc90b4039cac3d53260f3b",
    ("tuned", "er-min-degree", 120, "theorem1", None):
        "b1bff5cc3362a9763a8d9a8466a744d9ed5350f7a64de99893b71beb108152c9",
    ("tuned", "er-min-degree", 120, "theorem1", "estimate"):
        "b1bff5cc3362a9763a8d9a8466a744d9ed5350f7a64de99893b71beb108152c9",
    ("tuned", "er-min-degree", 120, "theorem2", None):
        "2d0da8b9a14f11d9e9085d011d21bb02384a563dec5c52879db8f7537bc35c8a",
    ("tuned", "regular", 60, "theorem1", None):
        "6cdd9e47e703923db419679297766b9ffb22a611d2c2f2dc3a33121b3cac472b",
    ("tuned", "regular", 60, "theorem1", "estimate"):
        "6cdd9e47e703923db419679297766b9ffb22a611d2c2f2dc3a33121b3cac472b",
    ("tuned", "regular", 60, "theorem2", None):
        "438f4650f7cb2c416016ea2865e5eba4ed20ecf2570da11d6fc64b7575d17a23",
    ("tuned", "regular", 120, "theorem1", None):
        "bfdf35c55e38495d0b861d9a341255f636ea0dabeae60e31eb9b5e5045855726",
    ("tuned", "regular", 120, "theorem1", "estimate"):
        "bfdf35c55e38495d0b861d9a341255f636ea0dabeae60e31eb9b5e5045855726",
    ("tuned", "regular", 120, "theorem2", None):
        "133451719940ec6fcd7ebec320b84b9cfeb0ce2d406f79fe80cf9c4422b8027c",
    ("aggressive", "er-min-degree", 60, "theorem1", None):
        "03262137bf5d25ad35bd519ebb3230d800edc54799a661070f3cb58e72fe693b",
    ("aggressive", "er-min-degree", 60, "theorem1", "estimate"):
        "8baf6722a231bd851ea7d24be58ef179d95c4dbc7962f868d8f21af9faa05c9a",
    ("aggressive", "er-min-degree", 60, "theorem2", None):
        "00e4b4a656a217fa65ab0738dadf5eb45fad7a89aec2e21d976594b4c3651ac9",
    ("aggressive", "er-min-degree", 120, "theorem1", None):
        "857bec893fcc54f3a51d3020a8e88a3855ff89429f88b2fa707122a2afc568d0",
    ("aggressive", "er-min-degree", 120, "theorem1", "estimate"):
        "23917d2dba468a2f95810317af54bab5e60f7c50efb93b98fac49c9c84fdb810",
    ("aggressive", "er-min-degree", 120, "theorem2", None):
        "b6d8f74b79b6a614ce91b9549494ed1eeb2f1291189952c5f7a14749e34d9ff5",
    ("aggressive", "regular", 60, "theorem1", None):
        "57fc52337f9cbfe4296d4dc2efb010e8b61943fcc82607abeffacd4f445adeb0",
    ("aggressive", "regular", 60, "theorem1", "estimate"):
        "fd2830bb7dd6b4e7afddc203cdda41b0e604ba8e2c4d6264d138df85805089bf",
    ("aggressive", "regular", 60, "theorem2", None):
        "1b99c21cf42c3fe1f15b1165a71178dabae39c1fdb075f4ea32c632e8897be0a",
    ("aggressive", "regular", 120, "theorem1", None):
        "b0196385f00d7765af6b12fd1f3574c113e72d129f0bf204cf94aff402fb57d9",
    ("aggressive", "regular", 120, "theorem1", "estimate"):
        "aaca0a12e74370e514a405a87032f45d209f07b7d81dcf16badc3d195016e208",
    ("aggressive", "regular", 120, "theorem2", None):
        "abded25a590cda88fbef1b5d1784209f4321007c94ea716e2689bce9088d8352",
}

#: (n, algorithm) -> SHA-256 of the 24 seeds' crash-restart outcomes
#: on the er-min-degree instance.
CRASH_RESTART_DIGESTS = {
    (60, "theorem1"): "940b295b32010ce8d3c67175df9c5fd2da76ce9f31da7dc5b8257b74d82debc2",
    (60, "theorem2"): "be9877ce2b22e7ca600b9b4e59d36a3f41335ddc97135796cb5bf12a3c248de3",
    (120, "theorem1"): "43ee934f7fc9575da304ac2c62f24a3c1bc429f75c83b6f4bf55c6f884821bc0",
    (120, "theorem2"): "bc002cfa9c82c6fef60f48034793b01c22173fb4bfc3b5c25c2de7c8097ff95d",
}

#: Crash-restart trials whose outcome depends on how a visit's return
#: hop is taken: (n, algorithm, seed, error text).
CRASH_RESTART_ERRORS = [
    (60, "theorem1", 114, "agent at 21 tried to move to non-neighbor 47"),
    (60, "theorem2", 114, "agent at 21 tried to move to non-neighbor 47"),
    (120, "theorem1", 27, "agent at 96 tried to move to non-neighbor 116"),
    (120, "theorem2", 83, "agent at 30 tried to move to non-neighbor 92"),
]


#: name -> SHA-256 of the 24 seeds' JSON lines on one hand-built
#: instance (see ``hand_built_records``).
HAND_BUILT_DIGESTS = {
    "lb-kt0-walk": "62700d5417f3327cb0a04734773ecb18188e1186b67372cc7ced53bce88490d6",
    "lb-dist2-trivial": "8794ed6e247c49e7b7104f9205a25bf8aa42c1ed0e72e5b21d2327ebd4ab194a",
    "lb-dist2-walk": "9f4c806f645d0b6955c8da73428209d0540aa96a809cf05f2ec3f054e296c440",
    "lb-mindeg-trivial": "3816ac88668bd9c2875b38507b349c8114336fb5c4f02f10401f113585576254",
    "lb-mindeg-walk": "df5b3c169f28757c7fbcae5598dba006ad85b1f082c693ced66f439e63563702",
    "torus-theorem1": "0a2a78f742120cb6c4ba8332c3914276997f99a431387b2aa37f07dfaaea6399",
}


def _line(record) -> bytes:
    return json.dumps(record_to_jsonable(record), sort_keys=True).encode() + b"\n"


def grid_digest(preset: str, family: str, n: int, algorithm: str, delta) -> str:
    """SHA-256 of one group's records, in seed order, as JSON lines."""
    graph, plan = _instance_for(family, n, DELTA_RULE)
    records = run_trials(
        graph, algorithm, SEEDS, plan=plan,
        constants=CONSTANTS_PRESETS[preset](), delta=delta,
    )
    digest = hashlib.sha256()
    for record in records:
        digest.update(_line(record))
    return digest.hexdigest()


def crash_restart_outcome(n: int, algorithm: str, seed: int) -> str:
    """One crash-restart trial: its record's SHA-256, or the error text."""
    graph, _ = _instance_for("er-min-degree", n, DELTA_RULE)
    try:
        record = run_trial(
            graph, algorithm, seed, constants=Constants.tuned(),
            scenario="crash-restart",
        )
    except ProtocolError as error:
        return f"ProtocolError: {error}"
    return hashlib.sha256(_line(record)).hexdigest()


def crash_restart_digest(n: int, algorithm: str) -> str:
    """SHA-256 over the per-seed crash-restart outcomes, one per line."""
    digest = hashlib.sha256()
    for seed in SEEDS:
        digest.update(crash_restart_outcome(n, algorithm, seed).encode() + b"\n")
    return digest.hexdigest()


def hand_built_instance(name: str) -> tuple:
    """One hand-built instance: its graph, algorithm and trial keywords."""
    if name == "torus-theorem1":  # seeded starts on a mapping-built graph
        return torus_grid_graph(8, 8), "theorem1", {}
    if name == "lb-kt0-walk":  # explicit KT0 ports
        n = 64
        graph, labeling, v_a, v_b = swapped_edge_cliques(n, random.Random("pin:kt0"))
        return graph, "random-walk", {
            "start_a": v_a, "start_b": v_b, "max_rounds": 800 * n,
            "port_model": PortModel.KT0, "labeling": labeling,
        }
    if name.startswith("lb-dist2-"):  # starts at distance two
        n = 65
        graph, start_a, start_b = cliques_sharing_vertex(n)
        kwargs = {"check_instance": False}
    else:
        n = 64
        graph, start_a, start_b = double_star(n)
        kwargs = {}
    kwargs.update(start_a=start_a, start_b=start_b)
    if name.endswith("-walk"):
        kwargs["max_rounds"] = 400 * n
        return graph, "random-walk", kwargs
    return graph, "trivial", kwargs


def hand_built_records(name: str, batched: bool = False) -> list:
    """The 24 seeds' records of one hand-built instance: one ``run_trial``
    per seed, or one batched ``run_trials`` call as the lower-bound
    experiments make it."""
    graph, algorithm, kwargs = hand_built_instance(name)
    if batched:
        return run_trials(graph, algorithm, SEEDS, **kwargs)
    return [run_trial(graph, algorithm, seed, **kwargs) for seed in SEEDS]


@pytest.mark.parametrize("key", list(GRID_DIGESTS), ids=str)
def test_grid_records_are_pinned(key):
    assert grid_digest(*key) == GRID_DIGESTS[key]


@pytest.mark.parametrize("n, algorithm", list(CRASH_RESTART_DIGESTS))
def test_crash_restart_outcomes_are_pinned(n, algorithm):
    assert crash_restart_digest(n, algorithm) == CRASH_RESTART_DIGESTS[n, algorithm]


@pytest.mark.parametrize("n, algorithm, seed, text", CRASH_RESTART_ERRORS)
def test_crash_restart_errors_are_pinned(n, algorithm, seed, text):
    assert crash_restart_outcome(n, algorithm, seed) == f"ProtocolError: {text}"


@pytest.mark.parametrize("name", list(HAND_BUILT_DIGESTS))
def test_hand_built_records_are_pinned(name):
    digest = hashlib.sha256()
    for record in hand_built_records(name):
        digest.update(_line(record))
    assert digest.hexdigest() == HAND_BUILT_DIGESTS[name]


@pytest.mark.parametrize("name", list(HAND_BUILT_DIGESTS))
def test_hand_built_batched_records_are_pinned(name):
    """The batch (lockstep for the KT0 walk) gives the per-seed records."""
    digest = hashlib.sha256()
    for record in hand_built_records(name, batched=True):
        digest.update(_line(record))
    assert digest.hexdigest() == HAND_BUILT_DIGESTS[name]
