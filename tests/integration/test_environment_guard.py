"""Nothing in the library reads or writes the process environment.

A trial is a pure function of its graph, algorithm, seed, constants
and round budget, so which code path produces a record must show on
the command line or in the call, never in an environment variable.
This scan fails on any use of ``os.environ`` (and its relatives) in a
module under ``src/repro``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

_SRC = Path(repro.__file__).parent
_MODULES = sorted(_SRC.rglob("*.py"))
_FORBIDDEN = frozenset({
    "environ", "environb", "getenv", "getenvb", "putenv", "unsetenv",
})


def _environment_uses(source: str) -> list[int]:
    """Line numbers of every environment access in ``source``."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "os"
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if (
                node.attr in _FORBIDDEN
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in _FORBIDDEN for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_scan_detects_every_form():
    source = (
        "import os\n"
        "import os as system\n"
        "from os import getenv\n"
        "a = os.environ['X']\n"
        "b = system.getenv('X')\n"
        "os.putenv('X', '1')\n"
        "c = os.cpu_count()\n"
    )
    assert _environment_uses(source) == [3, 4, 5, 6]


def test_scan_covers_the_library():
    names = {path.relative_to(_SRC).as_posix() for path in _MODULES}
    assert {"cli.py", "experiments/parallel.py", "runtime/lockstep.py"} <= names


def test_no_module_touches_the_environment():
    offenders = [
        f"{path.relative_to(_SRC)}:{line}"
        for path in _MODULES
        for line in _environment_uses(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
