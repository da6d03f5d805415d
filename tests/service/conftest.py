"""Service tests fail when a broker or host thread dies with a traceback.

A connection handler that raises past its own error handling still
closes its socket and re-queues its leases on the way out, so the
peer sees an ordinary disconnect and the test would pass.  pytest
reports such a death as a ``PytestUnhandledThreadExceptionWarning``;
here that warning is an error.
"""

from __future__ import annotations

from pathlib import Path

import pytest

_HERE = Path(__file__).resolve().parent

_THREAD_TRACEBACKS_FAIL = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)


def pytest_collection_modifyitems(items: list[pytest.Item]) -> None:
    # Every conftest sees the whole session's items: mark only ours.
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(_THREAD_TRACEBACKS_FAIL)
