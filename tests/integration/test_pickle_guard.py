"""Nothing that reads a socket or a results file can unpickle.

Unpickling runs arbitrary code, so the modules that decode bytes from
peers (the sweep service) or from disk (JSON lines, the result cache,
the warehouse and its summary kernel) must not import ``pickle`` at all.
The sweep fabric keeps it for tasks on its own process pipes.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

_SRC = Path(repro.__file__).parent
_READERS = sorted((_SRC / "service").glob("*.py")) + [
    _SRC / "experiments" / name
    for name in ("results_io.py", "cache.py", "warehouse.py", "query.py")
]


def _pickle_imports(path: Path) -> list[int]:
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] in ("pickle", "_pickle") for name in names):
            lines.append(node.lineno)
    return lines


def test_reader_list_covers_the_service():
    assert _SRC / "service" / "protocol.py" in _READERS


@pytest.mark.parametrize("path", _READERS, ids=lambda path: path.name)
def test_module_does_not_import_pickle(path):
    assert _pickle_imports(path) == [], f"{path} imports pickle"
