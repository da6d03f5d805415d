"""The whiteboard-free algorithm — Algorithm 4 / Theorem 2.

Assumes *tight naming* (``n' = O(n)``) and a commonly known δ.  Agent
``a`` builds ``T^a`` with ``Construct`` (which never touches
whiteboards), then both agents synchronize on the barrier round
``t' = c₁·n'·ln²n/δ`` and run ``⌈n'/β⌉`` phases over the β-partition
``I_1, I_2, ...`` of the ID space, ``β = ⌈√δ⌉``:

* agent ``a`` keeps every ``u ∈ T^a`` in its probe set Φ_a with
  probability ``φ·ln n/√δ``; in phase ``i`` it visits the members of
  ``Φ_a ∩ I_i`` in ascending ID order, **dwelling one L-round slot** at
  each (``L = ⌈4c₂·ln n⌉`` scaled by our slack factor);
* agent ``b`` does the same sampling over ``N⁺(v₀ᵇ)`` to get Φ_b; in
  phase ``i`` it sweeps ``Φ_b ∩ I_i`` (3 rounds of presence per vertex)
  once per L-round *repetition*, padding each repetition to exactly L
  rounds, for L repetitions — filling the ``L²``-round phase.

Because slots and repetitions share the same L-aligned boundaries
within a phase, agent ``a``'s dwell at any common vertex
``r ∈ Φ_a ∩ Φ_b ∩ I_l`` fully contains one of ``b``'s sweeps, which
visits ``r`` — guaranteeing the meeting (Theorem 2's argument, made
boundary-explicit; see DESIGN.md deviation #5).

The intersection property (``Φ_a ∩ Φ_b ≠ ∅`` w.h.p.) follows from
``v₀ᵇ`` being (δ/8)-heavy for ``T^a``: at least δ/8 common candidate
vertices each join both sets independently with probability
``(φ·ln n)²/δ``.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from typing import Any, Generator, Sequence

from repro._typing import VertexId
from repro.core.constants import Constants
from repro.core.construct import construct_run
from repro.core.knowledge import LocalMap
from repro.core.sample import route_back
from repro.errors import SynchronizationError
from repro.runtime.actions import Action, Move, Stay, WaitUntil
from repro.runtime.agent import AgentContext, AgentProgram, walk

__all__ = ["NoWhiteboardA", "NoWhiteboardB", "theorem2_programs"]


def _blocks(members: list[VertexId], beta: int) -> dict[int, list[VertexId]]:
    """Group ``members`` by ID block ``I_i = [i·β, (i+1)·β)``."""
    grouped: dict[int, list[VertexId]] = defaultdict(list)
    for u in members:
        grouped[u // beta].append(u)
    for block in grouped.values():
        block.sort()
    return dict(grouped)


def _draw_phi(
    rng: random.Random,
    candidates: Sequence[VertexId],
    delta: float,
    n_prime: int,
    constants: Constants,
) -> tuple[list[VertexId], dict[int, list[VertexId]]]:
    """Keep each candidate with probability ``φ·ln n/√δ``; group by block."""
    probability = constants.phi_probability(delta, n_prime)
    phi = [u for u in candidates if rng.random() < probability]
    return phi, _blocks(phi, constants.block_width(delta))


class NoWhiteboardA(AgentProgram):
    """Agent ``a`` of the whiteboard-free algorithm (Algorithm 4).

    Parameters
    ----------
    delta:
        The commonly known minimum degree.
    constants:
        Constants preset shared with agent ``b``.
    oracle_target_set, oracle_routes_via:
        When provided, skip ``Construct`` and use this dense set
        directly (members must be the start's closed neighbors or have
        an intermediate hop in ``oracle_routes_via``).  This isolates
        the phase mechanism for the Theorem 2 scaling experiments —
        in full end-to-end runs, ``Construct``'s wandering usually
        steps onto the waiting agent ``b`` and ends the execution long
        before the barrier (see EXPERIMENTS.md).
    """

    def __init__(
        self,
        delta: int,
        constants: Constants | None = None,
        oracle_target_set=None,
        oracle_routes_via: dict[VertexId, VertexId] | None = None,
    ) -> None:
        if delta < 1:
            raise ValueError("the whiteboard-free algorithm requires delta >= 1")
        self._delta = int(delta)
        self._constants = constants if constants is not None else Constants.tuned()
        self._oracle_target_set = (
            tuple(sorted(oracle_target_set)) if oracle_target_set is not None else None
        )
        self._oracle_routes_via = dict(oracle_routes_via or {})
        self._stats: dict[str, Any] = {}

    def _oracle_map(self, ctx: AgentContext) -> LocalMap:
        local_map = LocalMap(ctx.start_vertex)
        direct = set(ctx.view.neighbors)
        for vertex in self._oracle_target_set:
            if vertex == ctx.start_vertex:
                continue
            if vertex in direct:
                local_map.add_direct(vertex)
            else:
                via = self._oracle_routes_via.get(vertex)
                if via is None:
                    raise ValueError(
                        f"no route information for oracle dense-set member {vertex}"
                    )
                local_map.add_direct(via)
                local_map.add_via(via, vertex)
        return local_map

    def run(self, ctx: AgentContext) -> Generator[Action, None, None]:
        constants = self._constants
        delta = float(self._delta)
        n_prime = ctx.id_space
        t_prime = constants.sync_barrier(n_prime, delta)

        if self._oracle_target_set is not None:
            target_set = self._oracle_target_set
            local_map = self._oracle_map(ctx)
            construct_stats = {
                "construct_rounds": 0,
                "construct_iterations": 0,
                "strict_runs": 0,
            }
        else:
            outcome = yield from construct_run(ctx, delta, constants)
            if ctx.view.round > t_prime:
                raise SynchronizationError(
                    f"Construct finished at round {ctx.view.round}, after the "
                    f"barrier t' = {t_prime}; increase sync_multiplier"
                )
            target_set = outcome.target_set
            local_map = outcome.local_map
            construct_stats = {
                "construct_rounds": outcome.end_round - outcome.start_round,
                "construct_iterations": outcome.iterations,
                "strict_runs": outcome.strict_runs,
            }
        self._stats.update(construct_stats)

        phi, blocks = _draw_phi(ctx.rng, target_set, delta, n_prime, constants)
        beta = constants.block_width(delta)
        dwell = constants.dwell_rounds(n_prime)
        phase_len = constants.phase_length(n_prime)
        num_phases = math.ceil(n_prime / beta)

        self._stats.update(
            target_set_size=len(target_set),
            target_set=list(target_set),
            phi_size=len(phi),
            max_block_size=max((len(b) for b in blocks.values()), default=0),
            t_prime=t_prime,
            dwell=dwell,
            phase_length=phase_len,
            num_phases=num_phases,
            slot_overflows=0,
            constants_preset=constants.preset,
        )

        home = ctx.start_vertex
        yield WaitUntil(t_prime)

        for phase in range(num_phases):
            phase_start = t_prime + phase * phase_len
            phase_end = phase_start + phase_len
            members = blocks.get(phase, [])
            for slot, u in enumerate(members):
                slot_start = phase_start + slot * dwell
                slot_end = slot_start + dwell
                if slot_end > phase_end:
                    self._stats["slot_overflows"] += len(members) - slot
                    break
                yield WaitUntil(slot_start)
                route = local_map.route(u)
                yield from walk(ctx, route)
                yield WaitUntil(slot_end - len(route))
                yield from walk(ctx, route_back(route, home))
            yield WaitUntil(phase_end)
        self._stats["finished_round"] = ctx.view.round

    def report(self) -> dict[str, Any]:
        return dict(self._stats)


class NoWhiteboardB(AgentProgram):
    """Agent ``b`` of the whiteboard-free algorithm (Algorithm 4)."""

    def __init__(self, delta: int, constants: Constants | None = None) -> None:
        if delta < 1:
            raise ValueError("the whiteboard-free algorithm requires delta >= 1")
        self._delta = int(delta)
        self._constants = constants if constants is not None else Constants.tuned()
        self._stats: dict[str, Any] = {}

    def run(self, ctx: AgentContext) -> Generator[Action, None, None]:
        constants = self._constants
        delta = float(self._delta)
        n_prime = ctx.id_space
        home = ctx.start_vertex

        t_prime, blocks, stats = self.opening(ctx.rng, ctx.view.closed_neighbors, n_prime)
        self._stats.update(stats)
        dwell = constants.dwell_rounds(n_prime)
        phase_len = constants.phase_length(n_prime)
        num_phases = math.ceil(n_prime / constants.block_width(delta))

        yield WaitUntil(t_prime)

        for phase in range(num_phases):
            phase_start = t_prime + phase * phase_len
            phase_end = phase_start + phase_len
            members = blocks.get(phase, [])
            if members:
                # One sweep per L-round repetition; pad each repetition
                # to exactly L rounds so boundaries align with agent a's
                # dwell slots.
                for repetition in range(dwell):
                    rep_start = phase_start + repetition * dwell
                    rep_end = rep_start + dwell
                    yield WaitUntil(rep_start)
                    for u in members:
                        if ctx.view.round + 4 > rep_end:
                            self._stats["sweep_overflows"] += 1
                            break
                        if u == home:
                            yield Stay()
                            yield Stay()
                            yield Stay()
                        else:
                            yield Move(u)
                            yield Stay()
                            yield Stay()
                            yield Move(home)
                    yield WaitUntil(rep_end)
            yield WaitUntil(phase_end)
        self._stats["finished_round"] = ctx.view.round

    def opening(
        self, rng: random.Random, closed: frozenset[VertexId], n_prime: int
    ) -> tuple[int, dict[int, list[VertexId]], dict[str, Any]]:
        """Agent ``b``'s round-0 work: ``(t', Φ_b by block, report entries)``.

        Draws Φ_b over ``N⁺(v₀ᵇ)`` (``closed``) from ``rng``.  Shared by
        :meth:`run` and the lockstep kernel, which parks ``b`` at its
        start until ``t'`` without running the program.
        """
        constants = self._constants
        delta = float(self._delta)
        phi, blocks = _draw_phi(rng, sorted(closed), delta, n_prime, constants)
        t_prime = constants.sync_barrier(n_prime, delta)
        stats = {
            "phi_size": len(phi),
            "max_block_size": max((len(b) for b in blocks.values()), default=0),
            "t_prime": t_prime,
            "sweep_overflows": 0,
            "constants_preset": constants.preset,
        }
        return t_prime, blocks, stats

    def report(self) -> dict[str, Any]:
        return dict(self._stats)


def theorem2_programs(
    delta: int, constants: Constants | None = None
) -> tuple[NoWhiteboardA, NoWhiteboardB]:
    """The (agent a, agent b) program pair of the Theorem 2 algorithm."""
    shared = constants if constants is not None else Constants.tuned()
    return NoWhiteboardA(delta, shared), NoWhiteboardB(delta, shared)
