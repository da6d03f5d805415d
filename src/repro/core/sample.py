"""``Sample(Γ, α)`` — Algorithm 2 of the paper.

The agent repeatedly visits vertices of ``Γ`` chosen uniformly at
random (with replacement) and counts, for each ``u ∈ N⁺(v₀ᵃ)``, how
many visited vertices have ``u`` in their closed neighborhood.  After
``⌈c·|Γ|·ln n / α⌉`` visits, vertices whose counter reaches the
threshold ``l`` are declared α-heavy for Γ (Lemma 2: true α-heavy
vertices pass and 4α-light vertices fail, each with error ≤ 1/n⁸).

Implemented as a sub-generator to be driven inside agent ``a``'s
program with ``yield from``.  Every visit walks a stored route of
length ≤ 2 out and back, so one visit costs at most 4 rounds — the
same asymptotics as the paper's unit-cost visits.

The counts are kept per distinct observed closed neighborhood.  Each
visit adds one to the tally of the frozenset ``N⁺(v)`` it reads; after
the last visit each set's tally is added to every
``u ∈ N⁺(v) ∩ N⁺(v₀ᵃ)``.  This is exact: ``u``'s counter is the number
of visits whose observed set holds ``u`` however the visits are
grouped, and the random draws, the walks and the degree guard (which
returns before any tally is read) do not depend on the counts.  It is
cheap because a run visits each member of Γ several times, and a repeat
visit costs one probe on the cached hash of the frozenset the execution
plan keeps per vertex.  A view that builds a fresh set per read, or a
neighborhood changed by edge churn, only adds keys.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Generator, Sequence

from repro._typing import VertexId
from repro.core.constants import Constants
from repro.core.knowledge import LocalMap
from repro.runtime.actions import Action
from repro.runtime.agent import AgentContext, walk

__all__ = ["SampleOutcome", "sample_run", "route_back"]


@dataclass(frozen=True)
class SampleOutcome:
    """Result of one ``Sample(Γ, α)`` run."""

    #: Vertices of ``N⁺(v₀ᵃ)`` concluded α-heavy for Γ (the paper's H').
    #: ``None`` when the degree guard tripped.
    heavy: frozenset[VertexId] | None
    #: Whether a visited vertex had degree below the guard's floor
    #: (used by the doubling δ-estimation, Section 4.1).
    guard_tripped: bool
    #: Number of random visits performed.
    visits: int
    #: Smallest vertex degree observed during the run.
    observed_min_degree: int


def route_back(route: Sequence[VertexId], home: VertexId) -> list[VertexId]:
    """The reverse of a home-based route: retrace intermediates, end at home."""
    return [*route[:-1][::-1], home]


def sample_run(
    ctx: AgentContext,
    gamma: Sequence[VertexId],
    alpha: float,
    local_map: LocalMap,
    home_closed: frozenset[VertexId],
    constants: Constants,
    degree_floor: int | None = None,
) -> Generator[Action, None, SampleOutcome]:
    """Run ``Sample(Γ, α)`` from the home vertex; return a :class:`SampleOutcome`.

    Parameters
    ----------
    ctx:
        The running agent's context (must currently be at home).
    gamma:
        The multiset Γ to sample from; every member needs a route in
        ``local_map``.  An empty Γ returns an empty heavy set for free.
    alpha:
        The heaviness scale (the paper's δ/8).
    local_map:
        Routes from home (length ≤ 2) to every member of Γ.
    home_closed:
        ``N⁺(v₀ᵃ)`` — the candidate set whose heaviness is measured.
    constants:
        Constants preset supplying the sample count and threshold.
    degree_floor:
        Optional minimum-degree guard: if a visited vertex has degree
        below this value the run aborts (agent walks home first) with
        ``guard_tripped=True`` — the restart signal of Section 4.1.
    """
    home = local_map.home
    observed_min = ctx.view.degree if ctx.view is not None else 0
    if not gamma:
        return SampleOutcome(
            heavy=frozenset(), guard_tripped=False, visits=0,
            observed_min_degree=observed_min,
        )

    total = constants.sample_count(len(gamma), alpha, ctx.id_space)
    threshold = constants.sample_threshold(ctx.id_space)
    tallies: dict[frozenset[VertexId], int] = {}
    rng = ctx.rng

    for visit_index in range(total):
        target = gamma[rng.randrange(len(gamma))]
        route = local_map.route(target)
        yield from walk(ctx, route)

        degree_here = ctx.view.degree
        if degree_here < observed_min:
            observed_min = degree_here
        if degree_floor is not None and degree_here < degree_floor:
            yield from walk(ctx, route_back(route, home))
            return SampleOutcome(
                heavy=None,
                guard_tripped=True,
                visits=visit_index + 1,
                observed_min_degree=observed_min,
            )

        closed = ctx.view.closed_neighbors
        tallies[closed] = tallies.get(closed, 0) + 1

        yield from walk(ctx, route_back(route, home))

    counts: Counter[VertexId] = Counter()
    for closed, tally in tallies.items():
        for u in closed & home_closed:
            counts[u] += tally
    heavy = frozenset(u for u, c in counts.items() if c >= threshold)
    return SampleOutcome(
        heavy=heavy, guard_tripped=False, visits=total,
        observed_min_degree=observed_min,
    )
