"""``Construct`` — Algorithm 3: building the (a, δ/8, 2)-dense set ``T^a``.

Agent ``a`` grows a set ``S^a ⊆ N⁺(v₀ᵃ)`` one vertex per iteration,
maintaining ``NS = N⁺(S^a)``.  Each iteration:

1. **Optimistic decision** — run ``Sample`` only on the *newly added*
   part ``Γ = N⁺(S^a_i) \\ N⁺(S^a_{i-1})``; by Proposition 1 anything
   heavy for Γ is heavy for the whole ``N⁺(S^a_i)``.
2. **Direct checks** — probe ``⌈4·log n⌉`` random remaining candidates
   in person, measuring ``|N⁺(S^a_i) ∩ N⁺(u)|`` exactly; a δ/2-light
   one becomes ``x_i``.
3. **Strict decision** — if all probes were heavy, re-run ``Sample`` on
   all of ``N⁺(S^a_i)`` to flush the wrongly-light candidates into
   ``H``; any survivor becomes ``x_i``.

The loop ends when ``R = N⁺(v₀ᵃ) \\ H`` empties, at which point every
closed neighbor of the start is (δ/8)-heavy for ``NS`` — i.e. ``NS``
satisfies the (a, δ/8, 2)-dense condition (Lemma 6) — and ``NS`` is
returned as ``T^a`` along with the accumulated length-≤2 routes.

The optional ``degree_floor`` implements the Section 4.1 doubling
estimation: visiting any vertex of degree below the current estimate
aborts the run (the caller halves the estimate and restarts).

Like ``Sample``, the algorithm is written once, as the visit coroutine
:func:`construct_visits`: Sample's visits, the direct checks and the
visit to a strictly chosen ``x_i`` are all yielded as routes, and each
receives the ``(degree, N⁺)`` read at its end.  :func:`construct_run`
plays it one round at a time inside an agent program
(:func:`~repro.core.sample.visit_rounds`); the lockstep kernels
(:mod:`repro.runtime.lockstep`) drive it from the execution plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Generator, Sequence

from repro._typing import VertexId
from repro.core.constants import Constants
from repro.core.knowledge import LocalMap
from repro.core.sample import SampleOutcome, Seen, sample_visits, visit_rounds
from repro.errors import ReproError
from repro.runtime.actions import Action
from repro.runtime.agent import AgentContext

__all__ = [
    "ConstructOutcome",
    "construct_run",
    "construct_visits",
    "ConstructOnlyProgram",
]


@dataclass(frozen=True)
class ConstructOutcome:
    """Result of one ``Construct`` run."""

    #: False when the degree guard tripped (caller should halve δ' and
    #: restart — Section 4.1); the fields below are then partial.
    completed: bool
    #: The constructed ``T^a = N⁺(S^a)``, sorted (``None`` if aborted).
    target_set: tuple[VertexId, ...] | None
    #: Routes (length ≤ 2) from home to every vertex of ``T^a``.
    local_map: LocalMap | None
    #: The chosen ``S^a`` (home first, then each ``x_i`` in order).
    selected: tuple[VertexId, ...]
    #: Iteration count (Lemma 6 bounds it by ``2n/δ`` + slack).
    iterations: int
    #: Number of strict ``Sample`` runs (Lemma 7: O(log n) w.h.p.).
    strict_runs: int
    #: Total random visits across all ``Sample`` runs.
    sample_visits: int
    #: Direct candidate probes performed.
    direct_checks: int
    #: Round at which the run started / ended (for time accounting).
    start_round: int
    end_round: int
    #: Smallest vertex degree observed (feeds the δ estimation).
    observed_min_degree: int


def construct_run(
    ctx: AgentContext,
    delta: float,
    constants: Constants,
    degree_floor: int | None = None,
) -> Generator[Action, None, ConstructOutcome]:
    """Run ``Construct`` from the agent's home vertex.

    The agent must be at its start vertex when this generator begins;
    it is back at the start vertex when the generator returns,
    regardless of completion or abort.  The per-round adapter of
    :func:`construct_visits`: it reads the home view, then plays the
    coroutine with :func:`~repro.core.sample.visit_rounds`.
    """
    view = ctx.view
    visits = construct_visits(
        ctx.start_vertex, view.degree, view.closed_neighbors, view.neighbors,
        ctx.id_space, ctx.rng, delta, constants, lambda: ctx.view.round,
        degree_floor,
    )
    return (yield from visit_rounds(ctx, ctx.start_vertex, visits))


def construct_visits(
    home: VertexId,
    home_degree: int,
    home_closed: frozenset[VertexId],
    home_neighbors: Sequence[VertexId],
    id_space: int,
    rng: random.Random,
    delta: float,
    constants: Constants,
    clock: Callable[[], int],
    degree_floor: int | None = None,
) -> Generator[tuple[VertexId, ...], Seen, ConstructOutcome]:
    """``Construct`` as a visit coroutine (Algorithm 3, written once).

    ``home_degree``, ``home_closed`` and ``home_neighbors`` are what
    the agent reads at its start vertex ``home``; ``id_space`` is its
    ``n'`` and ``rng`` its random tape.  Each yielded route is one
    out-and-back visit, answered with the ``(degree, N⁺)`` read at
    its end.  ``clock()`` is the caller's round counter, read when the
    run starts and when it returns, for the outcome's round fields.
    """
    start_round = clock()
    observed_min = home_degree

    home_closed = frozenset(home_closed)
    local_map = LocalMap(home, home_neighbors)

    alpha = constants.alpha(delta)
    light_bound = constants.light_bound(delta)
    check_count = constants.candidate_check_count(id_space)
    iteration_cap = constants.construct_iteration_cap(id_space, delta)
    randrange = rng.randrange

    selected: list[VertexId] = [home]
    ns: set[VertexId] = set(home_closed)
    heavy: set[VertexId] = set()
    remaining: set[VertexId] = set(home_closed)
    gamma: list[VertexId] = sorted(home_closed)

    iterations = 0
    strict_runs = 0
    sample_visits_done = 0
    direct_checks = 0

    def outcome(completed: bool) -> ConstructOutcome:
        return ConstructOutcome(
            completed=completed,
            target_set=tuple(sorted(ns)) if completed else None,
            local_map=local_map,
            selected=tuple(selected),
            iterations=iterations,
            strict_runs=strict_runs,
            sample_visits=sample_visits_done,
            direct_checks=direct_checks,
            start_round=start_round,
            end_round=clock(),
            observed_min_degree=observed_min,
        )

    if degree_floor is not None and home_degree < degree_floor:
        return outcome(False)

    while remaining:
        iterations += 1
        if iterations > iteration_cap:
            raise ReproError(
                f"Construct exceeded its iteration cap ({iteration_cap}); "
                "this indicates a broken constants preset or a bug"
            )

        # --- Step 1: optimistic run on the newly added part Γ ---------
        sampled: SampleOutcome = yield from sample_visits(
            gamma, alpha, local_map, home_closed, constants, id_space, rng,
            home_degree, degree_floor,
        )
        sample_visits_done += sampled.visits
        observed_min = min(observed_min, sampled.observed_min_degree)
        if sampled.guard_tripped:
            return outcome(False)
        heavy |= sampled.heavy
        remaining = set(home_closed) - heavy

        chosen: VertexId | None = None
        chosen_closed: frozenset[VertexId] | None = None

        if remaining:
            # --- Step 2: direct checks of random candidates -----------
            candidates = sorted(remaining)
            for _ in range(check_count):
                probe = candidates[randrange(len(candidates))]
                degree_here, probe_closed = yield local_map.route(probe)
                direct_checks += 1
                observed_min = min(observed_min, degree_here)
                if degree_floor is not None and degree_here < degree_floor:
                    return outcome(False)
                if len(probe_closed & ns) < light_bound:
                    chosen = probe
                    chosen_closed = probe_closed
                    break

            if chosen is None:
                # --- Strict decision: re-sample all of N⁺(S^a) --------
                strict_runs += 1
                sampled = yield from sample_visits(
                    sorted(ns), alpha, local_map, home_closed, constants,
                    id_space, rng, home_degree, degree_floor,
                )
                sample_visits_done += sampled.visits
                observed_min = min(observed_min, sampled.observed_min_degree)
                if sampled.guard_tripped:
                    return outcome(False)
                heavy |= sampled.heavy
                remaining = set(home_closed) - heavy
                if remaining:
                    # "Choose any vertex" — prefer one not already in S
                    # (re-selecting an S member adds nothing; see the
                    # w.h.p. argument in Lemma 5).
                    fresh = sorted(remaining - set(selected)) or sorted(remaining)
                    chosen = fresh[randrange(len(fresh))]

            if chosen is not None:
                if chosen_closed is None:
                    # Selected without an in-person visit (strict path):
                    # visit it now to learn N⁺(x_i).
                    degree_here, chosen_closed = yield local_map.route(chosen)
                    observed_min = min(observed_min, degree_here)
                    if degree_floor is not None and degree_here < degree_floor:
                        return outcome(False)

                selected.append(chosen)
                new_vertices = sorted(chosen_closed - ns)
                for w in new_vertices:
                    local_map.add_via(chosen, w)
                ns.update(new_vertices)
                gamma = new_vertices
                remaining.discard(chosen)
            else:
                gamma = []

    return outcome(True)


class ConstructOnlyProgram:
    """Run ``Construct`` alone and stop — for Lemma 6-8 measurements.

    Used with the single-agent driver
    (:func:`repro.runtime.single.run_single_agent`), so ``Construct``'s
    round counts and iteration statistics can be measured without a
    partner agent colliding with the run.  Implements the
    :class:`~repro.runtime.agent.AgentProgram` protocol.
    """

    def __init__(self, delta: float, constants: Constants, degree_floor: int | None = None) -> None:
        self._delta = delta
        self._constants = constants
        self._degree_floor = degree_floor
        #: The :class:`ConstructOutcome`, populated when the run ends.
        self.outcome: ConstructOutcome | None = None

    def run(self, ctx) -> Generator[Action, None, None]:
        self.outcome = yield from construct_run(
            ctx, self._delta, self._constants, self._degree_floor
        )

    def report(self) -> dict:
        if self.outcome is None:
            return {}
        return {
            "completed": self.outcome.completed,
            "iterations": self.outcome.iterations,
            "strict_runs": self.outcome.strict_runs,
            "sample_visits": self.outcome.sample_visits,
            "direct_checks": self.outcome.direct_checks,
            "rounds": self.outcome.end_round - self.outcome.start_round,
            "target_set_size": (
                len(self.outcome.target_set) if self.outcome.target_set else 0
            ),
        }
