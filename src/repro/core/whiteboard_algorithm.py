"""The full Theorem 1 algorithm: ``Construct`` + ``Main-Rendezvous``.

Agent ``a`` first builds an (a, δ/8, 2)-dense set ``T^a`` (Algorithm 3,
``O(n·log²n/δ)`` rounds), then runs the sampling loop of Algorithm 1
(``O(√(nΔ)/δ·log n)`` additional rounds).  Agent ``b`` runs its
oblivious marking loop from round 0 — correct because ``b``'s behaviour
is independent of ``a``'s progress, and marks only accumulate
(Proposition 1 ensures heaviness is monotone under set growth).

When ``delta`` is not supplied, agent ``a`` estimates it by the
Section 4.1 doubling scheme at no asymptotic cost (Corollary 2).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.constants import Constants
from repro.core.construct import ConstructOutcome, construct_run
from repro.core.estimation import estimate_and_construct
from repro.core.main_rendezvous import MarkerB, main_rendezvous_a_run
from repro.runtime.actions import Action
from repro.runtime.agent import AgentContext, AgentProgram

__all__ = ["WhiteboardRendezvousA", "construct_stats", "theorem1_programs"]


class WhiteboardRendezvousA(AgentProgram):
    """Agent ``a`` of the Theorem 1 whiteboard algorithm.

    Parameters
    ----------
    delta:
        The graph's minimum degree when known; ``None`` activates the
        doubling estimation of Section 4.1.
    constants:
        Constants preset; defaults to :meth:`Constants.tuned`.
    """

    def __init__(self, delta: int | None = None, constants: Constants | None = None) -> None:
        self._delta = delta
        self._constants = constants if constants is not None else Constants.tuned()
        self._stats: dict[str, Any] = {}

    def run(self, ctx: AgentContext) -> Generator[Action, None, None]:
        constants = self._constants
        if self._delta is not None:
            outcome = yield from construct_run(ctx, float(self._delta), constants)
            delta_used = int(self._delta)
            restarts = 0
        else:
            estimated = yield from estimate_and_construct(ctx, constants)
            outcome = estimated.outcome
            delta_used = estimated.delta_estimate
            restarts = estimated.restarts

        self._stats.update(construct_stats(outcome, delta_used, restarts, constants))
        yield from main_rendezvous_a_run(
            ctx, outcome.target_set, outcome.local_map, self._stats
        )

    def report(self) -> dict[str, Any]:
        return dict(self._stats)


def construct_stats(
    outcome: ConstructOutcome, delta_used: int, restarts: int, constants: Constants
) -> dict[str, Any]:
    """Agent ``a``'s report entries once ``Construct`` has completed.

    Shared by :class:`WhiteboardRendezvousA` and the lockstep kernel,
    which builds the same report without running the program.
    """
    return {
        "construct_rounds": outcome.end_round - outcome.start_round,
        "construct_iterations": outcome.iterations,
        "strict_runs": outcome.strict_runs,
        "sample_visits": outcome.sample_visits,
        "direct_checks": outcome.direct_checks,
        "target_set_size": len(outcome.target_set),
        "selected_size": len(outcome.selected),
        "delta_used": delta_used,
        "estimation_restarts": restarts,
        "constants_preset": constants.preset,
        # The constructed set, for test-side verification of the dense
        # condition (Lemma 8), as lists: reports must be JSON-native.
        "target_set": list(outcome.target_set),
        "selected": list(outcome.selected),
    }


def theorem1_programs(
    delta: int | None = None, constants: Constants | None = None
) -> tuple[WhiteboardRendezvousA, MarkerB]:
    """The (agent a, agent b) program pair of the Theorem 1 algorithm."""
    return WhiteboardRendezvousA(delta=delta, constants=constants), MarkerB()
