"""``Sample(Γ, α)`` — Algorithm 2 of the paper.

The agent repeatedly visits vertices of ``Γ`` chosen uniformly at
random (with replacement) and counts, for each ``u ∈ N⁺(v₀ᵃ)``, how
many visited vertices have ``u`` in their closed neighborhood.  After
``⌈c·|Γ|·ln n / α⌉`` visits, vertices whose counter reaches the
threshold ``l`` are declared α-heavy for Γ (Lemma 2: true α-heavy
vertices pass and 4α-light vertices fail, each with error ≤ 1/n⁸).

The algorithm is written once, as a *visit coroutine*
(:func:`sample_visits`): it yields the route of each visit and receives
the ``(degree, N⁺)`` read at the route's end.  It knows nothing of
rounds.  :func:`visit_rounds` plays such a coroutine one round at a
time inside an agent program — walk the route out with ``walk``, read
the view, walk back with :func:`route_back` — and :func:`sample_run`
is that adapter around :func:`sample_visits`.  The lockstep kernels
(:mod:`repro.runtime.lockstep`) drive the same coroutine straight from
the execution plan's tables.  Every visit walks a stored route of
length ≤ 2 out and back, so one visit costs at most 4 rounds — the
same asymptotics as the paper's unit-cost visits — and a visit to the
home vertex itself costs none.

The counts are kept per distinct observed closed neighborhood.  Each
visit keeps the frozenset ``N⁺(v)`` it reads; after the last visit
:func:`tally_heavy` groups them by set and adds each set's tally to
every ``u ∈ N⁺(v)`` that is still *live*: a member of ``N⁺(v₀ᵃ)`` whose
count has not reached the threshold.  This is exact.  ``u``'s counter
is the number of visits whose observed set holds ``u``, however the
visits are grouped; a count never falls, so a member that reached the
threshold is heavy whatever later sets add; and the random draws, the
walks and the degree guard (which returns before any tally is read) do
not depend on the counts.  It is cheap because a run visits each
member of Γ several times, a repeat visit costs one probe on the
cached hash of the frozenset the execution plan keeps per vertex, and
each later set meets a smaller live set.  A view that builds a fresh
set per read, or a neighborhood changed by edge churn, only adds keys.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Generator, Sequence

from repro._typing import VertexId
from repro.core.constants import Constants
from repro.core.knowledge import LocalMap
from repro.runtime.actions import Action
from repro.runtime.agent import AgentContext, walk

__all__ = [
    "SampleOutcome",
    "Seen",
    "sample_run",
    "sample_visits",
    "tally_heavy",
    "visit_rounds",
    "route_back",
]

#: What a visit reads at its route's end: ``(degree, N⁺)`` of the vertex.
Seen = tuple[int, frozenset[VertexId]]


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


def visit_rounds(
    ctx: AgentContext,
    home: VertexId,
    visits: Generator[tuple[VertexId, ...], Seen, object],
) -> Generator[Action, None, object]:
    """Play a visit coroutine one round at a time; return its result.

    For each route the coroutine yields, walk it out with ``walk``,
    read the view's ``(degree, closed_neighbors)`` at its end, walk
    back to ``home`` along :func:`route_back`, and send the reading.
    So every draw the coroutine makes happens on the round the agent
    is home again, and every hop and view read on the round the
    per-round programs always took it.
    """
    try:
        route = next(visits)
        while True:
            yield from walk(ctx, route)
            view = ctx.view
            seen = (view.degree, view.closed_neighbors)
            yield from walk(ctx, route_back(route, home))
            route = visits.send(seen)
    except StopIteration as stop:
        return stop.value


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

    The per-round adapter of :func:`sample_visits`, played by
    :func:`visit_rounds` with the agent's own random tape.

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
    observed_min = ctx.view.degree if ctx.view is not None else 0
    visits = sample_visits(
        gamma, alpha, local_map, home_closed, constants, ctx.id_space,
        ctx.rng, observed_min, degree_floor,
    )
    return (yield from visit_rounds(ctx, local_map.home, visits))


def sample_visits(
    gamma: Sequence[VertexId],
    alpha: float,
    local_map: LocalMap,
    home_closed: frozenset[VertexId],
    constants: Constants,
    id_space: int,
    rng: random.Random,
    observed_min: int,
    degree_floor: int | None = None,
) -> Generator[tuple[VertexId, ...], Seen, SampleOutcome]:
    """``Sample(Γ, α)`` as a visit coroutine (Algorithm 2, written once).

    Yields the route of each random visit and receives the
    ``(degree, N⁺)`` read at its end; ``id_space`` is the agents'
    ``n'`` and ``rng`` agent ``a``'s random tape.  ``observed_min`` is
    the degree read where the run starts.  The other parameters are
    :func:`sample_run`'s.
    """
    if not gamma:
        return SampleOutcome(
            heavy=frozenset(), guard_tripped=False, visits=0,
            observed_min_degree=observed_min,
        )

    total = constants.sample_count(len(gamma), alpha, id_space)
    threshold = constants.sample_threshold(id_space)
    observed: list[frozenset[VertexId]] = []
    getrandbits = rng.getrandbits
    route = local_map.route
    size = len(gamma)
    bits = size.bit_length()

    for visit_index in range(total):
        # ``rng.randrange(size)``, inlined as CPython draws it: getrandbits
        # of the bit width of ``size`` until the value falls below it.
        pick = getrandbits(bits)
        while pick >= size:
            pick = getrandbits(bits)
        degree_here, closed = yield route(gamma[pick])
        if degree_here < observed_min:
            observed_min = degree_here
        if degree_floor is not None and degree_here < degree_floor:
            return SampleOutcome(
                heavy=None,
                guard_tripped=True,
                visits=visit_index + 1,
                observed_min_degree=observed_min,
            )
        observed.append(closed)

    return SampleOutcome(
        heavy=tally_heavy(observed, home_closed, threshold),
        guard_tripped=False, visits=total, observed_min_degree=observed_min,
    )


def tally_heavy(
    observed: Sequence[frozenset[VertexId]],
    home_closed: frozenset[VertexId],
    threshold: int,
) -> frozenset[VertexId]:
    """The members of ``home_closed`` that at least ``threshold`` sets hold.

    ``observed`` lists the ``N⁺`` read on each visit, repeats included.
    The counts live in a plain ``dict`` keyed by ``home_closed`` (a
    ``Counter`` subscript misses the exact-dict fast path), and a member
    leaves the live set as soon as its count reaches ``threshold``, so
    each later set is intersected with fewer candidates.
    """
    counts = dict.fromkeys(home_closed, 0)
    live = set(home_closed)
    heavy = []
    for closed, tally in Counter(observed).items():
        for u in closed & live:
            count = counts[u] + tally
            if count < threshold:
                counts[u] = count
            else:
                heavy.append(u)
                live.remove(u)
    return frozenset(heavy)
