"""High-level entry point: run any registered algorithm on any instance.

:func:`rendezvous` is the one-call public API::

    from repro import rendezvous, random_graph_with_min_degree
    import random

    graph = random_graph_with_min_degree(800, 120, random.Random(7))
    result = rendezvous(graph, algorithm="theorem1", seed=7)
    assert result.met

The :data:`ALGORITHMS` registry maps algorithm names to specifications
carrying the model requirements (whiteboards, δ knowledge, ports) and a
program factory; the experiment harness iterates over it.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable

from repro._typing import VertexId
from repro.analysis import bounds
from repro.baselines import (
    anderson_weber_programs,
    explore_programs,
    random_walk_programs,
    trivial_programs,
)
from repro.core.constants import Constants
from repro.core.no_whiteboard import theorem2_programs
from repro.core.whiteboard_algorithm import theorem1_programs
from repro.errors import ReproError
from repro.graphs.graph import StaticGraph
from repro.runtime.agent import AgentProgram
from repro.runtime.plan import ExecutionPlan
from repro.runtime.scheduler import ExecutionResult, SyncScheduler

__all__ = [
    "AlgorithmSpec",
    "ALGORITHMS",
    "rendezvous",
    "prepare_rendezvous",
    "default_round_budget",
    "pick_adjacent_starts",
]


@dataclass(frozen=True)
class AlgorithmSpec:
    """Registry entry describing one rendezvous algorithm."""

    #: Registry key, e.g. ``"theorem1"``.
    name: str
    #: One-line description for reports.
    description: str
    #: Whether the algorithm needs whiteboards (scheduler disables them
    #: otherwise, so whiteboard-free claims are machine-checked).
    uses_whiteboards: bool
    #: Whether ``delta`` is consumed by the program factory.
    uses_delta: bool
    #: ``factory(delta, constants) -> (program_a, program_b)``.
    factory: Callable[[int | None, Constants], tuple[AgentProgram, AgentProgram]]
    #: ``budget(graph, constants) -> int`` default round budget.
    budget: Callable[[StaticGraph, Constants], int]


def _theorem1_budget(graph: StaticGraph, constants: Constants) -> int:
    n, delta = graph.n, max(1, graph.min_degree)
    construct = bounds.theorem1_construct_bound(n, delta)
    meeting = bounds.theorem1_meeting_bound(n, delta, graph.max_degree)
    return int(80 * constants.sample_multiplier * (construct + meeting) + 50_000)


def _theorem2_budget(graph: StaticGraph, constants: Constants) -> int:
    delta = max(1, graph.min_degree)
    t_prime = constants.sync_barrier(graph.id_space, delta)
    phases = math.ceil(graph.id_space / constants.block_width(delta))
    return t_prime + (phases + 2) * constants.phase_length(graph.id_space) + 10_000


def _trivial_budget(graph: StaticGraph, constants: Constants) -> int:
    return 2 * graph.max_degree + 16


def _explore_budget(graph: StaticGraph, constants: Constants) -> int:
    return 2 * graph.n + 16


def _walk_budget(graph: StaticGraph, constants: Constants) -> int:
    # Worst-case meeting times are O(n·m); cap pragmatically.
    return min(4_000_000, 64 * graph.n * graph.max_degree + 10_000)


def _anderson_weber_budget(graph: StaticGraph, constants: Constants) -> int:
    return int(400 * math.sqrt(graph.n) * math.log(max(2, graph.n)) + 10_000)


ALGORITHMS: dict[str, AlgorithmSpec] = {
    "theorem1": AlgorithmSpec(
        name="theorem1",
        description="Whiteboard algorithm (Construct + Main-Rendezvous), Theorem 1",
        uses_whiteboards=True,
        uses_delta=True,
        factory=lambda delta, constants: theorem1_programs(delta, constants),
        budget=_theorem1_budget,
    ),
    "theorem2": AlgorithmSpec(
        name="theorem2",
        description="Whiteboard-free algorithm (Algorithm 4), Theorem 2",
        uses_whiteboards=False,
        uses_delta=True,
        factory=lambda delta, constants: theorem2_programs(
            delta if delta is not None else 1, constants
        ),
        budget=_theorem2_budget,
    ),
    "trivial": AlgorithmSpec(
        name="trivial",
        description="Trivial O(Δ) neighbor probe",
        uses_whiteboards=False,
        uses_delta=False,
        factory=lambda delta, constants: trivial_programs(),
        budget=_trivial_budget,
    ),
    "explore": AlgorithmSpec(
        name="explore",
        description="Wait-and-explore via online DFS, O(n)",
        uses_whiteboards=False,
        uses_delta=False,
        factory=lambda delta, constants: explore_programs(),
        budget=_explore_budget,
    ),
    "random-walk": AlgorithmSpec(
        name="random-walk",
        description="Two independent lazy random walks",
        uses_whiteboards=False,
        uses_delta=False,
        factory=lambda delta, constants: random_walk_programs(),
        budget=_walk_budget,
    ),
    "anderson-weber": AlgorithmSpec(
        name="anderson-weber",
        description="Anderson-Weber O(√n) algorithm for complete graphs [6]",
        uses_whiteboards=True,
        uses_delta=False,
        factory=lambda delta, constants: anderson_weber_programs(),
        budget=_anderson_weber_budget,
    ),
}


def default_round_budget(
    algorithm: str, graph: StaticGraph, constants: Constants | None = None
) -> int:
    """A generous round budget for ``algorithm`` on ``graph``.

    Budgets exist only to bound pathological executions; they exceed
    the theoretical bounds by large factors so legitimate runs are
    never clipped.
    """
    spec = _lookup(algorithm)
    return spec.budget(graph, constants if constants is not None else Constants.tuned())


def pick_adjacent_starts(
    graph: StaticGraph, rng: random.Random
) -> tuple[VertexId, VertexId]:
    """A uniformly random ordered pair of adjacent vertices."""
    # Uniform over edges: pick a random arc, i.e. a vertex weighted by
    # degree and then one of its neighbors.  The CSR offsets are the
    # cumulative degree sums, so offsets[i] <= pick < offsets[i+1]
    # names the vertex and indices[pick] its picked neighbor.
    pick = rng.randrange(2 * graph.edge_count)
    offsets, indices = graph.csr_adjacency()
    ids = graph.vertices
    return ids[bisect_right(offsets, pick) - 1], ids[indices[pick]]


def _lookup(algorithm: str) -> AlgorithmSpec:
    try:
        return ALGORITHMS[algorithm]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise ReproError(f"unknown algorithm {algorithm!r}; known: {known}") from None


def prepare_rendezvous(
    graph: StaticGraph,
    algorithm: str,
    start_a: VertexId | None = None,
    start_b: VertexId | None = None,
    seed: int = 0,
    delta: int | str | None = None,
    constants: Constants | None = None,
    max_rounds: int | None = None,
) -> tuple[AlgorithmSpec, AgentProgram, AgentProgram, VertexId, VertexId, int]:
    """Resolve one execution's inputs exactly as :func:`rendezvous` does.

    Returns ``(spec, program_a, program_b, start_a, start_b, budget)``
    — the algorithm spec, freshly built programs, the (possibly
    seed-chosen) start vertices, and the round budget.  This is the
    shared front half of :func:`rendezvous` and the batched executor
    :func:`repro.experiments.harness.run_trials`; the resolution order
    (registry lookup, start selection, δ handling, program factory,
    budget) matches the seed implementation so error behavior and the
    seeded start draw are identical on both paths.
    """
    spec = _lookup(algorithm)
    constants = constants if constants is not None else Constants.tuned()

    if start_a is None or start_b is None:
        start_a, start_b = pick_adjacent_starts(graph, random.Random(f"starts:{seed}"))

    if spec.uses_delta:
        if delta is None:
            delta_value: int | None = graph.min_degree
        elif delta == "estimate":
            if algorithm != "theorem1":
                raise ReproError(
                    "doubling estimation is implemented for the theorem1 "
                    "algorithm (Section 4.1); theorem2 assumes a commonly "
                    "known delta"
                )
            delta_value = None
        else:
            delta_value = int(delta)
    else:
        delta_value = None

    program_a, program_b = spec.factory(delta_value, constants)
    budget = max_rounds if max_rounds is not None else spec.budget(graph, constants)
    return spec, program_a, program_b, start_a, start_b, budget


def rendezvous(
    graph: StaticGraph,
    algorithm: str = "theorem1",
    start_a: VertexId | None = None,
    start_b: VertexId | None = None,
    seed: int = 0,
    delta: int | str | None = None,
    constants: Constants | None = None,
    max_rounds: int | None = None,
    plan: ExecutionPlan | None = None,
    **scheduler_kwargs: Any,
) -> ExecutionResult:
    """Run one rendezvous execution and return its result.

    Parameters
    ----------
    graph:
        The instance graph.
    algorithm:
        A key of :data:`ALGORITHMS`.
    start_a, start_b:
        Initial vertices.  When omitted, a uniformly random *adjacent*
        pair is chosen (seeded) — the neighborhood-rendezvous setting.
    seed:
        Drives start selection and both agents' random tapes.
    delta:
        Minimum-degree knowledge for algorithms that use it:
        ``None`` (default) passes the true ``graph.min_degree``
        (δ known, as the theorems assume); ``"estimate"`` activates the
        Section 4.1 doubling estimation (Theorem 1 algorithm only); an
        integer passes that value verbatim.
    constants:
        Constants preset (default: :meth:`Constants.tuned`).
    max_rounds:
        Round budget; default from :func:`default_round_budget`.
    plan:
        Optional pre-compiled
        :class:`~repro.runtime.plan.ExecutionPlan` for this graph —
        the fast path when many trials share one instance (see
        ``docs/performance.md``).  The plan's port labeling governs
        the run when no explicit ``labeling`` is passed, so a plan
        compiled with the default labeling (the only kind the library
        caches) yields results byte-identical to the plan-less call;
        mismatched graphs, port models, or labelings raise.
    scheduler_kwargs:
        Extra :class:`~repro.runtime.scheduler.SyncScheduler` options
        (port model, labeling, trace recording, ...).  Execution runs
        on the unified runtime engine
        (:class:`repro.runtime.engine.Engine`); ``docs/runtime.md``
        specifies the round semantics.
    """
    spec, program_a, program_b, start_a, start_b, budget = prepare_rendezvous(
        graph,
        algorithm,
        start_a=start_a,
        start_b=start_b,
        seed=seed,
        delta=delta,
        constants=constants,
        max_rounds=max_rounds,
    )

    scheduler = SyncScheduler(
        graph,
        program_a,
        program_b,
        start_a,
        start_b,
        seed=seed,
        whiteboards=spec.uses_whiteboards,
        max_rounds=budget,
        plan=plan,
        **scheduler_kwargs,
    )
    return scheduler.run()
