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

After the barrier each agent's work is a fixed schedule of waits and
short trips, written once per agent as a coroutine of timed items:
:func:`slot_schedule` (agent ``a``) and :func:`sweep_schedule` (agent
``b``).  Each item carries the ``WaitUntil`` targets the program issues
and the rounds the engine acts on them.  :class:`NoWhiteboardA` and
:class:`NoWhiteboardB` play the items one round at a time, the way
:func:`~repro.core.construct.construct_run` plays ``Construct``'s visit
coroutine; the lockstep kernels (:mod:`repro.runtime.lockstep`) read
them as step functions of the round.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import defaultdict
from itertools import accumulate
from typing import Any, Callable, Generator, Sequence

from repro._typing import VertexId
from repro.core.constants import Constants
from repro.core.construct import ConstructOutcome, construct_run
from repro.core.knowledge import LocalMap
from repro.core.sample import route_back
from repro.errors import SynchronizationError
from repro.runtime.actions import Action, Move, Stay, WaitUntil
from repro.runtime.agent import AgentContext, AgentProgram, walk

__all__ = [
    "NoWhiteboardA",
    "NoWhiteboardB",
    "SWEEP",
    "TRIP",
    "WAIT",
    "construct_report",
    "slot_schedule",
    "sweep_schedule",
    "theorem2_programs",
]

#: Tags of the schedule items (see :func:`slot_schedule`).
WAIT, TRIP, SWEEP = "wait", "trip", "sweep"


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


def _geometry(constants: Constants, delta: float, n_prime: int) -> tuple[int, int, int, int]:
    """``(t', L, phase length, number of phases)``, as both agents compute them."""
    return (
        constants.sync_barrier(n_prime, delta),
        constants.dwell_rounds(n_prime),
        constants.phase_length(n_prime),
        math.ceil(n_prime / constants.block_width(delta)),
    )


def _wake(target: int, fetch: int) -> int:
    """The round a ``WaitUntil(target)`` fetched in round ``fetch`` wakes.

    A wait that is already due still takes its round.
    """
    return target if target > fetch else fetch + 1


def slot_schedule(
    blocks: dict[int, list[VertexId]],
    route_of: Callable[[VertexId], tuple[VertexId, ...]],
    delta: float,
    n_prime: int,
    constants: Constants,
    now: int,
) -> Generator[tuple, None, int]:
    """Agent ``a``'s phases as timed trips (Algorithm 4, written once).

    ``blocks`` is Φ_a by ID block, ``route_of`` the local map's routes
    and ``now`` the round of the agent's next fetch, at home.  Yields,
    in order of their rounds:

    * ``(WAIT, target, fetch, wake, overflows)``: in round ``fetch``
      the agent counts ``overflows`` members whose slot does not fit in
      the phase and issues ``WaitUntil(target)``; it fetches next in
      round ``wake``.  The barrier and every phase end are waits.
    * ``(TRIP, slot_start, leave, route, back_at, back)``: one slot.
      The agent issues ``WaitUntil(slot_start)``, hops along ``route``
      in the rounds from ``leave``, issues ``WaitUntil(back_at)`` at its
      end, and hops home along :func:`~repro.core.sample.route_back` in
      the rounds from ``back``.

    Returns the round of its last fetch, the report's
    ``finished_round``.
    """
    t_prime, dwell, phase_len, num_phases = _geometry(constants, delta, n_prime)
    wake = _wake(t_prime, now)
    yield WAIT, t_prime, now, wake, 0
    now = wake
    for phase in range(num_phases):
        phase_start = t_prime + phase * phase_len
        phase_end = phase_start + phase_len
        members = blocks.get(phase, ())
        overflows = 0
        for slot, u in enumerate(members):
            slot_start = phase_start + slot * dwell
            slot_end = slot_start + dwell
            if slot_end > phase_end:
                overflows = len(members) - slot
                break
            route = route_of(u)
            hops = len(route)
            leave = _wake(slot_start, now)
            back = _wake(slot_end - hops, leave + hops)
            yield TRIP, slot_start, leave, route, slot_end - hops, back
            now = back + hops
        wake = _wake(phase_end, now)
        yield WAIT, phase_end, now, wake, overflows
        now = wake
    return now


def sweep_schedule(
    blocks: dict[int, list[VertexId]],
    home: VertexId,
    delta: float,
    n_prime: int,
    constants: Constants,
    now: int,
) -> Generator[tuple, None, int]:
    """Agent ``b``'s phases as timed sweeps (Algorithm 4, written once).

    ``blocks`` is Φ_b by ID block and ``now`` the round of the agent's
    next fetch, at ``home``.  Yields :func:`slot_schedule`'s ``WAIT``
    items (with no overflows) for the barrier and the phase ends, and
    one item per L-round repetition of a phase with members:

    * ``(SWEEP, rep_start, start, visited, end, overflow, rep_end)``:
      the agent issues ``WaitUntil(rep_start)``.  From round ``start``
      it spends 4 rounds on each member of ``visited`` in turn (out,
      two stays, back), or 3 stays on ``home``.  In round ``end`` it
      counts ``overflow``, 1 when the next member would not be home by
      ``rep_end``, and issues ``WaitUntil(rep_end)``.

    Returns the round of its last fetch.
    """
    t_prime, dwell, phase_len, num_phases = _geometry(constants, delta, n_prime)
    wake = _wake(t_prime, now)
    yield WAIT, t_prime, now, wake, 0
    now = wake
    for phase in range(num_phases):
        phase_start = t_prime + phase * phase_len
        members = tuple(blocks.get(phase, ()))
        if members:
            size = len(members)
            # offsets[j]: rounds from the sweep's start to member j's.
            offsets = list(accumulate(
                (3 if u == home else 4 for u in members), initial=0
            ))
            # One sweep per L-round repetition, each padded to exactly L
            # rounds so its boundaries align with agent a's dwell slots.
            for repetition in range(dwell):
                rep_start = phase_start + repetition * dwell
                rep_end = rep_start + dwell
                start = _wake(rep_start, now)
                # Member j is visited if, in its first round, 4 rounds
                # remain before rep_end.
                fits = bisect_right(offsets, rep_end - 4 - start, 0, size)
                end = start + offsets[fits]
                yield (
                    SWEEP, rep_start, start, members[:fits], end,
                    int(fits < size), rep_end,
                )
                now = _wake(rep_end, end)
        phase_end = phase_start + phase_len
        wake = _wake(phase_end, now)
        yield WAIT, phase_end, now, wake, 0
        now = wake
    return now


def construct_report(outcome: ConstructOutcome) -> dict[str, int]:
    """Agent ``a``'s report entries for its ``Construct`` run."""
    return {
        "construct_rounds": outcome.end_round - outcome.start_round,
        "construct_iterations": outcome.iterations,
        "strict_runs": outcome.strict_runs,
    }


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
            t_prime = constants.sync_barrier(n_prime, delta)
            if ctx.view.round > t_prime:
                raise SynchronizationError(
                    f"Construct finished at round {ctx.view.round}, after the "
                    f"barrier t' = {t_prime}; increase sync_multiplier"
                )
            target_set = outcome.target_set
            local_map = outcome.local_map
            construct_stats = construct_report(outcome)
        self._stats.update(construct_stats)
        blocks, stats = self.probe_set(ctx.rng, target_set, n_prime)
        self._stats.update(stats)

        home = ctx.start_vertex
        for item in slot_schedule(
            blocks, local_map.route, delta, n_prime, constants, ctx.view.round
        ):
            if item[0] is WAIT:
                self._stats["slot_overflows"] += item[4]
                yield WaitUntil(item[1])
                continue
            _, slot_start, _, route, back_at, _ = item
            yield WaitUntil(slot_start)
            yield from walk(ctx, route)
            yield WaitUntil(back_at)
            yield from walk(ctx, route_back(route, home))
        self._stats["finished_round"] = ctx.view.round

    def probe_set(
        self, rng: random.Random, target_set: Sequence[VertexId], n_prime: int
    ) -> tuple[dict[int, list[VertexId]], dict[str, Any]]:
        """Agent ``a``'s work after ``Construct``: ``(Φ_a by block, report entries)``.

        Draws Φ_a over ``target_set`` from ``rng``.  Shared by
        :meth:`run` and the lockstep kernel, which plays
        :func:`slot_schedule` without running the program.
        """
        constants = self._constants
        delta = float(self._delta)
        phi, blocks = _draw_phi(rng, target_set, delta, n_prime, constants)
        t_prime, dwell, phase_len, num_phases = _geometry(constants, delta, n_prime)
        stats = {
            "target_set_size": len(target_set),
            "target_set": list(target_set),
            "phi_size": len(phi),
            "max_block_size": max((len(b) for b in blocks.values()), default=0),
            "t_prime": t_prime,
            "dwell": dwell,
            "phase_length": phase_len,
            "num_phases": num_phases,
            "slot_overflows": 0,
            "constants_preset": constants.preset,
        }
        return blocks, stats

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
        n_prime = ctx.id_space
        home = ctx.start_vertex
        _, blocks, stats = self.opening(ctx.rng, ctx.view.closed_neighbors, n_prime)
        self._stats.update(stats)

        for item in sweep_schedule(
            blocks, home, float(self._delta), n_prime, self._constants,
            ctx.view.round,
        ):
            if item[0] is WAIT:
                yield WaitUntil(item[1])
                continue
            _, rep_start, _, visited, _, overflow, rep_end = item
            yield WaitUntil(rep_start)
            for u in visited:
                if u == home:
                    yield Stay()
                    yield Stay()
                    yield Stay()
                else:
                    yield Move(u)
                    yield Stay()
                    yield Stay()
                    yield Move(home)
            self._stats["sweep_overflows"] += overflow
            yield WaitUntil(rep_end)
        self._stats["finished_round"] = ctx.view.round

    def opening(
        self, rng: random.Random, closed: frozenset[VertexId], n_prime: int
    ) -> tuple[int, dict[int, list[VertexId]], dict[str, Any]]:
        """Agent ``b``'s round-0 work: ``(t', Φ_b by block, report entries)``.

        Draws Φ_b over ``N⁺(v₀ᵇ)`` (``closed``) from ``rng``.  Shared by
        :meth:`run` and the lockstep kernel, which plays
        :func:`sweep_schedule` without running the program.
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
