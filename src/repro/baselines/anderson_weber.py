"""The Anderson–Weber ``O(√n)`` complete-graph algorithm ([6]).

The closest prior work: on a complete graph with whiteboards, agent
``b`` marks uniformly random vertices with its location while agent
``a`` probes uniformly random vertices; a birthday-paradox argument
meets in ``O(√n)`` expected rounds.  The neighborhood rendezvous
problem generalizes this setting (in a complete graph every pair of
agents is adjacent), and the paper's ``Main-Rendezvous`` is exactly
this strategy with the probe set narrowed from ``V`` to ``T^a``.

Our implementation reuses :class:`~repro.core.main_rendezvous.MarkerB`
for agent ``b`` and gives agent ``a`` the whole vertex set as its probe
set — which agent ``a`` can enumerate on a complete graph since
``V = N⁺(v₀ᵃ)``.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.knowledge import LocalMap
from repro.core.main_rendezvous import MarkerB, main_rendezvous_a_run
from repro.errors import ProtocolError
from repro.runtime.actions import Action
from repro.runtime.agent import AgentContext, AgentProgram

__all__ = ["AndersonWeberSearcherA", "anderson_weber_programs"]


class AndersonWeberSearcherA(AgentProgram):
    """Agent ``a``: probe uniformly random vertices of a complete graph."""

    def __init__(self) -> None:
        self._stats: dict[str, Any] = {}

    def run(self, ctx: AgentContext) -> Generator[Action, None, None]:
        neighbors = ctx.view.neighbors
        if len(neighbors) != len(ctx.view.closed_neighbors) - 1:
            raise ProtocolError("inconsistent neighborhood view")
        local_map = LocalMap(ctx.start_vertex, neighbors)
        probe_set = tuple(sorted(ctx.view.closed_neighbors))
        if len(probe_set) != ctx.view.degree + 1:
            raise ProtocolError("complete-graph searcher needs N⁺(v₀) = V")
        yield from main_rendezvous_a_run(ctx, probe_set, local_map, self._stats)

    def report(self) -> dict[str, Any]:
        return dict(self._stats)


def anderson_weber_programs() -> tuple[AndersonWeberSearcherA, MarkerB]:
    """The (agent a, agent b) pair of the Anderson–Weber baseline."""
    return AndersonWeberSearcherA(), MarkerB()
