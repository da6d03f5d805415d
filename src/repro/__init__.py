"""repro — a reproduction of *Fast Neighborhood Rendezvous* (ICDCS 2020).

Two computing agents placed at **adjacent** vertices of an n-vertex
graph must meet.  Trivially solvable in ``O(Δ)`` rounds, the paper by
Eguchi, Kitamura and Izumi gives two randomized algorithms that beat
that bound on dense graphs:

* the **whiteboard algorithm** (Theorem 1): ``O(n/δ·log²n +
  √(nΔ)/δ·log n)`` rounds w.h.p. for ``δ ≥ √n``;
* the **whiteboard-free algorithm** (Theorem 2, tight naming):
  ``O(n/√δ·log²n)`` rounds w.h.p. past a synchronization barrier;

plus four Ω(n)-round lower bounds showing its assumptions (bounded min
degree, neighborhood-ID access, initial distance one, randomization)
are each necessary.

Quickstart::

    import random
    from repro import rendezvous, random_graph_with_min_degree

    graph = random_graph_with_min_degree(600, 90, random.Random(42))
    result = rendezvous(graph, algorithm="theorem1", seed=42)
    print(result.met, result.rounds)

Package map — see ``DESIGN.md`` for the full inventory:

* :mod:`repro.graphs` — graph substrate, generators, hard instances;
* :mod:`repro.runtime` — the synchronous mobile-agent scheduler;
* :mod:`repro.core` — the paper's algorithms;
* :mod:`repro.baselines` — trivial / exploration / random-walk /
  Anderson-Weber comparators;
* :mod:`repro.lowerbound` — the Lemma 9 adaptive adversary;
* :mod:`repro.analysis` — bounds, fits, statistics;
* :mod:`repro.experiments` — the experiment registry and harness.
"""

from repro.core.api import ALGORITHMS, default_round_budget, pick_adjacent_starts, rendezvous
from repro.core.constants import Constants
from repro.errors import (
    AdversaryError,
    EstimationError,
    GenerationError,
    GraphError,
    ProtocolError,
    ReproError,
    RoundLimitExceeded,
    SchedulerError,
    SynchronizationError,
    WhiteboardDisabledError,
)
from repro.graphs import (
    StaticGraph,
    EdgeBuffer,
    GraphBuilder,
    PortLabeling,
    PortModel,
    barbell_graph,
    cliques_sharing_vertex,
    complete_graph,
    cycle_graph,
    dilate_id_space,
    double_star,
    double_star_with_cliques,
    path_graph,
    powerlaw_graph_with_floor,
    random_geometric_dense_graph,
    random_graph_with_min_degree,
    random_regular_graph,
    star_graph,
    swapped_edge_cliques,
)
from repro.runtime import ExecutionResult, SyncScheduler

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # API
    "rendezvous",
    "ALGORITHMS",
    "default_round_budget",
    "pick_adjacent_starts",
    "Constants",
    # graphs
    "StaticGraph",
    "EdgeBuffer",
    "GraphBuilder",
    "PortLabeling",
    "PortModel",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "barbell_graph",
    "random_graph_with_min_degree",
    "random_regular_graph",
    "random_geometric_dense_graph",
    "powerlaw_graph_with_floor",
    "dilate_id_space",
    "double_star",
    "double_star_with_cliques",
    "swapped_edge_cliques",
    "cliques_sharing_vertex",
    # runtime
    "ExecutionResult",
    "SyncScheduler",
    # errors
    "ReproError",
    "GraphError",
    "GenerationError",
    "ProtocolError",
    "WhiteboardDisabledError",
    "SchedulerError",
    "RoundLimitExceeded",
    "SynchronizationError",
    "EstimationError",
    "AdversaryError",
]
