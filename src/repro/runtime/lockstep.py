"""Lockstep vectorized trial execution — the batched hot path's hot path.

:func:`repro.experiments.harness.run_trials` amortizes *setup* across a
seed batch (one compiled :class:`~repro.runtime.plan.ExecutionPlan`, one
reused engine), but every round of every trial still runs the full
interpreter loop: generator resume, action object, class dispatch,
per-agent bookkeeping.  For the round-dominated baselines that loop *is*
the trial — ``BENCH_engine.json``'s rr-400x8 random-walk workload spends
>95% of its time inside it.

This module executes a whole seed batch in **lockstep** over one plan
instead:

* **Struct-of-arrays state.**  One ``array('q')`` per role holds the S
  agents' dense positions (plus parallel move/round/budget columns);
  live seeds advance together in growing round *chunks* and retire from
  the live set the moment they meet or exhaust their budget.
* **Tape-drawn rounds.**  Each seed's per-round choices are pre-drawn
  into per-seed position tapes by a tight kernel over the plan's flat
  int64 buffers (CSR adjacency for KT1, the flattened hidden port table
  for KT0).  Meeting detection, meeting rounds, and move counts are then
  recovered from the tapes with C-level bulk operations
  (``map``/``eq``/``compress``/``sum`` over ``array('q')``), never by
  re-entering Python per round.
* **Byte-identical RNG streams.**  The tape kernel replays the exact
  ``random.Random(f"{seed}:{name}")`` call sequence the serial
  :class:`~repro.runtime.engine.Engine` makes — one ``random()`` per
  round plus, on non-lazy rounds, CPython's ``randrange`` rejection
  loop (``getrandbits(k)`` until the draw falls below the degree) — so
  every observable field of every :class:`ExecutionResult` is identical
  to the serial path.  ``tests/runtime/test_lockstep.py`` proves it
  differentially against both the engine and the frozen oracles in
  :mod:`repro.runtime.reference`.

Only algorithms whose per-round behavior is statically analyzable are
vectorized: the lazy random walk (both port models) and the trivial
probe (KT1, where its meeting round is a closed form of the shuffled
probe order).  Everything else — and any batch that trips a
non-vectorizable condition at runtime (unexpected program subclass,
degree-0 vertices, self-loops) — returns ``None`` so the caller falls
back to the per-seed engine path with no behavior change; see
``docs/performance.md``.
"""

from __future__ import annotations

import random
from array import array
from itertools import chain, compress, count, islice, repeat
from operator import eq

from typing import TYPE_CHECKING

from repro._typing import VertexId
from repro.errors import SchedulerError
from repro.graphs.graph import StaticGraph
from repro.graphs.ports import PortLabeling, PortModel
from repro.runtime.engine import ExecutionResult
from repro.runtime.plan import ExecutionPlan

if TYPE_CHECKING:  # the baselines/core layers import runtime — keep
    from repro.core.constants import Constants  # runtime import-cycle-free

__all__ = [
    "lockstep_supported",
    "run_lockstep_batch",
    "walk_choice_tape",
]

#: Chunk growth bounds: start small so short trials draw short tapes,
#: grow by 1.25x up to the cap so long trials amortize per-chunk
#: overhead while bounding the tape rounds drawn past a meeting.
_CHUNK_START = 128
_CHUNK_CAP = 4096


def lockstep_supported(
    algorithm: str, port_model: PortModel, scenario: object = None
) -> bool:
    """Whether ``algorithm`` under ``port_model`` has a lockstep executor.

    This is the *static* half of eligibility — the per-batch dynamic
    checks (program types, degree-0 vertices, self-loops) live in
    :func:`run_lockstep_batch`, which returns ``None`` when any fails.

    ``scenario`` is the batch's *active* scenario (an already
    normalized :class:`~repro.scenarios.ScenarioSpec`, or ``None``).
    Any active scenario declines the batch unconditionally — the
    lockstep kernels advance many seeds over one shared immutable
    plan and know nothing about per-round mutation, so faulty and
    dynamic batches always take the serial engine.
    """
    if scenario is not None:
        return False
    if algorithm == "random-walk":
        return True
    if algorithm == "trivial":
        # TrivialProbeA reads ``view.neighbors``, which KT0 forbids;
        # the serial path must raise that ProtocolError, not us.
        return port_model is PortModel.KT1
    return False


# ---------------------------------------------------------------------------
# The random-walk tape kernel
# ---------------------------------------------------------------------------


def _rejected(getrandbits, k: int, d: int) -> int:
    """The tail of CPython's ``Random._randbelow`` rejection loop.

    Called only after a first ``getrandbits(k)`` draw came back
    ``>= d``; keeps drawing exactly as the ``while`` body does.
    """
    r = getrandbits(k)
    while r >= d:
        r = getrandbits(k)
    return r


def walk_choice_tape(
    rng: random.Random,
    pos: int,
    span: int,
    offsets: "list | array",
    table: "list | array",
    degrees: "list | array",
    bits: "list | array",
    laziness: float,
) -> tuple[list[int], int]:
    """Advance one lazy walker ``span`` rounds; return its position tape.

    ``tape[j]`` is the walker's dense index after round ``j``'s movement
    (the engine's beginning-of-round ``j + 1`` position); the second
    return value is the number of moved (non-lazy) rounds, counted
    in-kernel so no separate move pass is needed on the common path.
    The draw sequence is exactly the serial :class:`RandomWalker`
    round: one ``rng.random()`` laziness draw, then — on non-lazy
    rounds — the inlined body of CPython's ``Random.randrange(degree)``
    (``getrandbits(degree.bit_length())`` rejection-sampled), indexing
    the flat neighbor table.  ``bits`` caches per-vertex bit lengths,
    and the tape is built by one list comprehension so the per-round
    cost is a handful of index operations around the two RNG calls.
    The ``(moves := moves + 1) and`` guard is pure bookkeeping — it
    makes no RNG call, so the stream is untouched.
    """
    rand = rng.random
    getrandbits = rng.getrandbits
    moves = 0
    tape = [
        pos if rand() < laziness else
        (moves := moves + 1) and (pos := table[offsets[pos] + (
            r if (r := getrandbits(bits[pos])) < degrees[pos]
            else _rejected(getrandbits, bits[pos], degrees[pos])
        )])
        for _ in repeat(None, span)
    ]
    return tape, moves


def _uniform_walk_tape(
    rng: random.Random,
    pos: int,
    span: int,
    table: "list | array",
    d: int,
    k: int,
    laziness: float,
) -> tuple[list[int], int]:
    """:func:`walk_choice_tape` specialized to degree-regular plans.

    With every vertex at degree ``d`` the rejection width ``k`` and the
    CSR row base ``pos * d`` are loop constants, shaving the per-round
    ``degrees``/``bits``/``offsets`` lookups off the identical draw
    sequence.  The gate workloads (regular and complete graphs) all
    take this kernel.
    """
    rand = rng.random
    getrandbits = rng.getrandbits
    moves = 0
    tape = [
        pos if rand() < laziness else
        (moves := moves + 1) and (pos := table[pos * d + (
            r if (r := getrandbits(k)) < d
            else _rejected(getrandbits, k, d)
        )])
        for _ in repeat(None, span)
    ]
    return tape, moves


def _prefix_moves(tape: list[int], start: int, length: int) -> int:
    """Edge traversals in ``tape[:length]`` (positions after each round).

    On a self-loop-free table a round moved iff the position changed,
    so the move count is ``length`` minus the stay count — one C-level
    pass comparing the tape against itself shifted by one round.
    """
    if length == len(tape):
        stays = sum(map(eq, tape, chain((start,), tape)))
    else:
        stays = sum(map(eq, islice(tape, length), chain((start,), tape)))
    return length - stays


def _table_has_self_loops(table: list, degrees, uniform: int) -> bool:
    """Whether any table slot maps a vertex onto itself (C-level passes).

    Degree-regular tables are scanned stride-wise — column ``p`` of the
    row-major table against ``count()`` — which avoids materializing a
    per-slot owner iterator; irregular tables pay the general
    ``chain``/``repeat`` form once per batch.
    """
    if uniform:
        return any(
            any(map(eq, table[p::uniform], count()))
            for p in range(uniform)
        )
    owners = chain.from_iterable(map(repeat, count(), degrees))
    return any(map(eq, table, owners))


def _run_walk_batch(
    plan: ExecutionPlan, trials: list[tuple], ids: tuple
) -> list[ExecutionResult] | None:
    """Lockstep executor for ``RandomWalker`` vs ``RandomWalker``."""
    degrees = plan.degrees
    if plan.n == 0 or min(degrees) == 0:
        # randrange(0) raises in the serial engine; let it.
        return None
    # Lists index measurably faster than array('q') in the kernels
    # (CPython specializes list subscripts and returns the stored int
    # objects instead of boxing a fresh one per lookup), which buys
    # ~25% off every tape round.  The O(m) table is built once per
    # plan (``plan.walk_table``); the O(n) columns once per batch.
    table = plan.walk_table
    offsets = list(plan.neighbor_offsets)
    degrees_l = list(degrees)
    bits = list(map(int.bit_length, degrees_l))
    uniform = max(degrees_l) if min(degrees_l) == max(degrees_l) else 0
    width = uniform.bit_length()
    if _table_has_self_loops(table, degrees_l, uniform):
        # Move counting infers moves from position changes, which a
        # self-loop traversal would defeat; such graphs take the
        # serial path.
        return None

    total = len(trials)
    results: list[ExecutionResult | None] = [None] * total
    pos_a = array("q", bytes(8 * total))
    pos_b = array("q", bytes(8 * total))
    moves_a = array("q", bytes(8 * total))
    moves_b = array("q", bytes(8 * total))
    rounds_done = array("q", bytes(8 * total))
    budgets = array("q", bytes(8 * total))
    rngs_a: list[random.Random] = []
    rngs_b: list[random.Random] = []
    laziness_a = []
    laziness_b = []
    live = []
    for s, (seed, program_a, program_b, ai, bi, budget) in enumerate(trials):
        pos_a[s] = ai
        pos_b[s] = bi
        budgets[s] = budget
        rngs_a.append(random.Random(f"{seed}:a"))
        rngs_b.append(random.Random(f"{seed}:b"))
        laziness_a.append(program_a._laziness)
        laziness_b.append(program_b._laziness)
        if budget <= 0:
            # Budget check fires at the top of round 0: no fetch, no
            # draw, zero steps reported.
            results[s] = _walk_result(False, 0, None, 0, 0)
        else:
            live.append(s)

    chunk = _CHUNK_START
    while live:
        still = []
        for s in live:
            done = rounds_done[s]
            span = min(chunk, budgets[s] - done)
            start_a = pos_a[s]
            start_b = pos_b[s]
            if uniform:
                tape_a, chunk_moves_a = _uniform_walk_tape(
                    rngs_a[s], start_a, span, table, uniform, width,
                    laziness_a[s],
                )
                tape_b, chunk_moves_b = _uniform_walk_tape(
                    rngs_b[s], start_b, span, table, uniform, width,
                    laziness_b[s],
                )
            else:
                tape_a, chunk_moves_a = walk_choice_tape(
                    rngs_a[s], start_a, span, offsets, table, degrees_l,
                    bits, laziness_a[s],
                )
                tape_b, chunk_moves_b = walk_choice_tape(
                    rngs_b[s], start_b, span, offsets, table, degrees_l,
                    bits, laziness_b[s],
                )
            # Meetings happen at most once per trial, so the common
            # chunk has none: test with a short-circuiting ``any``
            # (cheapest full pass) and locate the round only on a hit.
            if any(map(eq, tape_a, tape_b)):
                met_at = next(compress(count(), map(eq, tape_a, tape_b)))
                # Co-location after round done+met_at is observed at the
                # top of the next round (meeting precedes the budget
                # check, so meeting exactly at the budget still counts).
                rounds = done + met_at + 1
                results[s] = _walk_result(
                    True,
                    rounds,
                    ids[tape_a[met_at]],
                    moves_a[s] + _prefix_moves(tape_a, start_a, met_at + 1),
                    moves_b[s] + _prefix_moves(tape_b, start_b, met_at + 1),
                )
                continue
            moves_a[s] += chunk_moves_a
            moves_b[s] += chunk_moves_b
            done += span
            if done >= budgets[s]:
                results[s] = _walk_result(
                    False, budgets[s], None, moves_a[s], moves_b[s]
                )
                continue
            pos_a[s] = tape_a[-1]
            pos_b[s] = tape_b[-1]
            rounds_done[s] = done
            still.append(s)
        live = still
        if chunk < _CHUNK_CAP:
            chunk += chunk >> 2
    return results  # type: ignore[return-value]


def _walk_result(
    met: bool,
    rounds: int,
    vertex: VertexId | None,
    moves_a: int,
    moves_b: int,
) -> ExecutionResult:
    """Assemble a walker pair's result exactly as the engine would.

    Both walkers fetch every executed round and never halt, so each
    reports ``steps == rounds``; walkers never touch whiteboards.
    """
    return ExecutionResult(
        met=met,
        rounds=rounds,
        meeting_vertex=vertex,
        moves={"a": moves_a, "b": moves_b},
        whiteboard_reads=0,
        whiteboard_writes=0,
        halted={"a": False, "b": False},
        failure_reason=None if met else "round budget exhausted",
        reports={"a": {"steps": rounds}, "b": {"steps": rounds}},
        trace=None,
    )


# ---------------------------------------------------------------------------
# The trivial-probe analytic executor (KT1)
# ---------------------------------------------------------------------------


def _run_trivial_batch(
    plan: ExecutionPlan, trials: list[tuple], ids: tuple
) -> list[ExecutionResult]:
    """Closed-form executor for ``TrivialProbeA`` vs ``WaitingB``.

    The probe's timeline is fully determined by its (possibly shuffled)
    neighbor order: round ``2j`` moves out to ``order[j]``, round
    ``2j + 1`` moves home (incrementing ``probes``), round
    ``2·deg`` halts; ``b`` halts in round 0.  With the partner parked
    at ``order[i]``'s vertex the meeting is observed at the top of
    round ``2i + 1``.  The shuffle consumes the identical
    ``random.Random(f"{seed}:a")`` stream the serial context does.
    """
    nbr_ids = plan.nbr_ids
    results = []
    for seed, program_a, program_b, ai, bi, budget in trials:
        partner = ids[bi]
        order = list(nbr_ids[ai])
        if program_a._randomize:
            random.Random(f"{seed}:a").shuffle(order)
        deg = len(order)
        try:
            slot = order.index(partner)
        except ValueError:
            slot = -1
        if slot >= 0 and 2 * slot + 1 <= budget:
            results.append(ExecutionResult(
                met=True,
                rounds=2 * slot + 1,
                meeting_vertex=partner,
                moves={"a": 2 * slot + 1, "b": 0},
                whiteboard_reads=0,
                whiteboard_writes=0,
                halted={"a": False, "b": True},
                failure_reason=None,
                reports={"a": {"probes": slot}, "b": {}},
                trace=None,
            ))
            continue
        # No meeting within budget.  The probe fetches an action in
        # rounds 0 .. min(budget, 2·deg + 1) - 1; the budget check
        # precedes the both-halted check, so only budgets beyond
        # 2·deg + 1 reach the mutual-halt failure.
        fetches = min(budget, 2 * deg + 1)
        if budget <= 2 * deg + 1:
            failure = "round budget exhausted"
            rounds = budget
        else:
            failure = "both agents halted without meeting"
            rounds = 2 * deg + 1
        results.append(ExecutionResult(
            met=False,
            rounds=rounds,
            meeting_vertex=None,
            moves={"a": min(fetches, 2 * deg), "b": 0},
            whiteboard_reads=0,
            whiteboard_writes=0,
            halted={"a": fetches >= 2 * deg + 1, "b": fetches >= 1},
            failure_reason=failure,
            reports={"a": {"probes": min(fetches // 2, deg)}, "b": {}},
            trace=None,
        ))
    return results


# ---------------------------------------------------------------------------
# Batch entry point
# ---------------------------------------------------------------------------


def run_lockstep_batch(
    graph: StaticGraph,
    algorithm: str,
    seeds: "range | list[int]",
    *,
    plan: ExecutionPlan | None = None,
    constants: Constants | None = None,
    delta: "int | str | None" = None,
    start_a: VertexId | None = None,
    start_b: VertexId | None = None,
    max_rounds: int | None = None,
    port_model: PortModel = PortModel.KT1,
    labeling: PortLabeling | None = None,
) -> list[ExecutionResult] | None:
    """Execute one seed batch in lockstep, or ``None`` to fall back.

    Mirrors :func:`repro.experiments.harness.run_trials`' serial loop
    observable-for-observable: the same :func:`prepare_rendezvous`
    resolution per seed, the same scheduler validation errors in the
    same order, and — by the tape construction — the same
    :class:`ExecutionResult` for every seed.  A ``None`` return means
    "this batch is not vectorizable" (unregistered program subclass,
    degree-0 vertex, self-loop); the caller runs the serial path, whose
    behavior on those batches is the contract.
    """
    seed_list = list(seeds)
    if not seed_list or not lockstep_supported(algorithm, port_model):
        return None
    # Function-local: these layers import the runtime package, so a
    # module-scope import would be circular.
    from repro.baselines.random_walk import RandomWalker
    from repro.baselines.trivial import TrivialProbeA, WaitingB
    from repro.core.api import prepare_rendezvous

    walk = algorithm == "random-walk"

    trials: list[tuple] = []
    resolved: ExecutionPlan | None = None
    index_of: dict | None = None
    for seed in seed_list:
        spec, program_a, program_b, sa, sb, budget = prepare_rendezvous(
            graph,
            algorithm,
            start_a=start_a,
            start_b=start_b,
            seed=seed,
            delta=delta,
            constants=constants,
            max_rounds=max_rounds,
        )
        if walk:
            if (
                type(program_a) is not RandomWalker
                or type(program_b) is not RandomWalker
            ):
                return None
        elif (
            type(program_a) is not TrivialProbeA
            or type(program_b) is not WaitingB
        ):
            return None
        if resolved is None:
            # First seed: the SyncScheduler façade's checks, verbatim
            # and in its order, then plan binding as Engine would.
            if sa not in graph or sb not in graph:
                raise SchedulerError("start vertices must belong to the graph")
            if sa == sb:
                raise SchedulerError(
                    "agents must start at two different vertices"
                )
            if labeling is not None and labeling.graph is not graph:
                raise SchedulerError("labeling belongs to a different graph")
            if plan is None:
                resolved = ExecutionPlan.compile(graph, labeling, port_model)
            else:
                plan.ensure_matches(graph, labeling, port_model)
                resolved = plan
            index_of = resolved.index_of
        elif sa == sb:
            # The batched serial path re-checks exactly this per seed.
            raise SchedulerError("agents must start at two different vertices")
        try:
            ai = index_of[sa]  # type: ignore[index]
            bi = index_of[sb]  # type: ignore[index]
        except KeyError as error:
            # Engine._arm's message for post-first-seed membership.
            raise SchedulerError(
                f"start vertex {error.args[0]} not in the graph"
            ) from None
        trials.append((seed, program_a, program_b, ai, bi, budget))

    ids = resolved.ids  # type: ignore[union-attr]
    if walk:
        return _run_walk_batch(resolved, trials, ids)  # type: ignore[arg-type]
    return _run_trivial_batch(resolved, trials, ids)  # type: ignore[arg-type]
