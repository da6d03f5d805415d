"""The registry's claim gates hold under ``python -O``.

An experiment whose trials miss, or whose oracle run fails, must stop
with a :class:`~repro.errors.ReproError` rather than print a table, and
``python -O`` strips every ``assert`` statement.  So the registry
module (``experiments/workloads.py``) gates with explicit checks, and
this scan fails on any ``assert`` statement in it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

_WORKLOADS = Path(repro.__file__).parent / "experiments" / "workloads.py"


def _asserts(source: str) -> list[int]:
    """Line numbers of every ``assert`` statement in ``source``."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
    )


def test_scan_detects_asserts():
    source = (
        "def f(x):\n"
        "    assert x\n"
        "    if x:\n"
        "        assert x > 1, 'big'\n"
        "    return 'assert x'\n"
    )
    assert _asserts(source) == [2, 4]


def test_registry_gates_survive_optimization():
    assert _asserts(_WORKLOADS.read_text(encoding="utf-8")) == []
