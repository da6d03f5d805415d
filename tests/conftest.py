"""Shared fixtures for the test-suite.

Graph fixtures are module-scoped where construction is expensive; all
randomness flows through explicit seeds so the suite is deterministic.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings

from repro.core.constants import Constants
from repro.graphs.generators import (
    complete_graph,
    random_graph_with_min_degree,
)

# A deeper, still derandomized run of the properties that leave their
# example count to the profile: HYPOTHESIS_PROFILE=deep gives them ten
# times Hypothesis's default.  Properties that set ``max_examples``
# themselves keep it.
settings.register_profile(
    "deep", max_examples=10 * settings.default.max_examples, derandomize=True
)
if os.environ.get("HYPOTHESIS_PROFILE") == "deep":
    settings.load_profile("deep")


@pytest.fixture(scope="session")
def dense_graph_small():
    """A 200-vertex graph with min degree ~50 (fast integration runs)."""
    return random_graph_with_min_degree(200, 50, random.Random("fixture:dense-small"))


@pytest.fixture(scope="session")
def dense_graph_medium():
    """A 500-vertex graph with min degree ~105."""
    return random_graph_with_min_degree(500, 105, random.Random("fixture:dense-medium"))


@pytest.fixture(scope="session")
def complete_graph_small():
    """K_64."""
    return complete_graph(64)


@pytest.fixture(scope="session")
def testing_constants():
    """The constants preset used by statistical tests."""
    return Constants.testing()


@pytest.fixture(scope="session")
def tuned_constants():
    """The default benchmark preset."""
    return Constants.tuned()


@pytest.fixture
def refusing_family(monkeypatch):
    """Register a sweep family whose generator refuses every instance.

    A spec over it passes validation (the family has no domain check),
    so its trials fail at run time, with ``GenerationError: no instance
    here``, in whichever process builds the instance.  Returns the
    family's name.
    """
    from repro.errors import GenerationError
    from repro.experiments.parallel import GRAPH_FAMILIES

    def refuse(n, delta, rng):
        raise GenerationError("no instance here")

    monkeypatch.setitem(GRAPH_FAMILIES, "refusing-test", refuse)
    return "refusing-test"
