"""Lockstep vectorized trial execution — the batched hot path's hot path.

:func:`repro.experiments.harness.run_trials` amortizes *setup* across a
seed batch (one compiled :class:`~repro.runtime.plan.ExecutionPlan`, one
reused engine), but every round of every trial still runs the full
interpreter loop: generator resume, action object, class dispatch,
per-agent bookkeeping.  For the round-dominated baselines that loop *is*
the trial — ``BENCH_engine.json``'s rr-400x8 random-walk workload spends
>95% of its time inside it.

This module executes a whole seed batch on position *tapes* instead.
It receives the batch *armed*: ``run_trials`` has already resolved
every seed's programs, starts and budget, made the pair checks, and
bound or compiled the plan — exactly as for the engine — so nothing
here validates or sets up a trial:

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

Kernels exist where a trial's rounds can be played without the
interpreter: the lazy random walk (both port models), the trivial probe
(KT1, where its meeting round is a closed form of the shuffled probe
order), and the paper's algorithms under KT1 — Theorem 1
(``WhiteboardRendezvousA`` with δ given, ``MarkerB``) and Theorem 2
(``NoWhiteboardA`` without an oracle set, ``NoWhiteboardB``).  Their
kernel drives ``Construct``'s visit coroutine
(:func:`repro.core.construct.construct_visits`, the same code the
engine's programs run) once per visit into agent a's position tape,
runs b as a tape, and plays Theorem 1's Main-Rendezvous with each
whiteboard read resolved from b's write log.  Theorem 2's phases are
read as a timeline: both agents' schedule coroutines
(:func:`repro.core.no_whiteboard.slot_schedule` and
:func:`~repro.core.no_whiteboard.sweep_schedule`, which the programs
play per round) give each agent's position as a step function of the
round, and the meeting comes from their breakpoints without a round
being stepped or stored.  A batch the kernels cannot take — no kernel
for the algorithm and port model, an unexpected program subclass,
degree-0 vertices or self-loops for the walk, Theorem 1 with δ
estimated, Theorem 2 given an oracle set — returns ``None``, and a
paper-algorithm seed the kernel does not model (starts that are not
adjacent, no meeting within the budget, ``Construct``'s iteration cap,
a Theorem 2 ``Construct`` that runs past ``t'``) comes back as
``None`` in its slot; the caller runs those armed seeds on the engine
with no behavior change; see ``docs/performance.md``.  The walk
kernels' inputs and the graph half of that verdict are built once per
plan (:attr:`~repro.runtime.plan.ExecutionPlan.walk_setup`), as is the
Theorem 1 and 2 kernel's visit table
(:attr:`~repro.runtime.plan.ExecutionPlan.visit_reads`), so a batch
pays no set-up of its own.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from itertools import chain, compress, count, islice, repeat
from operator import eq

from repro._typing import VertexId
from repro.errors import ReproError
from repro.graphs.ports import PortModel
from repro.runtime.engine import ExecutionResult
from repro.runtime.plan import ExecutionPlan

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

    This is the *static* half of eligibility — the dynamic checks
    (program types per batch; degree-0 vertices and self-loops once
    per plan) live in :func:`run_lockstep_batch`, which returns
    ``None`` when any fails, and the Theorem 1 and 2 kernel hands back
    single seeds it does not model.

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
    if algorithm in ("trivial", "theorem1", "theorem2"):
        # These programs read neighbor identifiers, which KT0 forbids;
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


def _run_walk_batch(
    plan: ExecutionPlan, trials: list[tuple]
) -> list[ExecutionResult] | None:
    """Lockstep executor for ``RandomWalker`` vs ``RandomWalker``."""
    setup = plan.walk_setup  # built once per plan, verdict included
    if setup is None:
        # A degree-0 vertex or a self-loop: the serial path runs it.
        return None
    table, offsets, degrees, bits, uniform, width = setup
    ids = plan.ids

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
                    rngs_a[s], start_a, span, offsets, table, degrees,
                    bits, laziness_a[s],
                )
                tape_b, chunk_moves_b = walk_choice_tape(
                    rngs_b[s], start_b, span, offsets, table, degrees,
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
    plan: ExecutionPlan, trials: list[tuple]
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
    ids = plan.ids
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
# The paper algorithms' kernel (KT1): Construct's visit coroutine on a tape
# ---------------------------------------------------------------------------

#: Rounds of agent a's tape between two meeting checks against Theorem
#: 1's moving b: a seed plays at most this many rounds past its meeting.
_CHECK_SPAN = 32


class _MarkerTape:
    """``MarkerB`` (Theorem 1's agent b) as a position tape and a write log.

    Trip ``j`` draws ``randrange(|N⁺(v₀ᵇ)|)`` in round ``2j``, stands on
    the drawn vertex after that round and is home after round
    ``2j + 1``.  Its mark lands in round ``2j`` when the vertex is home
    (a stay that writes) and in round ``2j + 1`` otherwise (the write
    made as it moves home).
    """

    __slots__ = ("home", "closed", "size", "bits", "getrandbits", "tape",
                 "targets", "first")

    def __init__(self, rng: random.Random, closed: frozenset, home: VertexId) -> None:
        self.home = home
        self.closed = tuple(sorted(closed))
        self.size = len(self.closed)
        self.bits = self.size.bit_length()
        self.getrandbits = rng.getrandbits
        #: ``tape[r]``: b's vertex after round ``r``.
        self.tape: list = []
        #: ``targets[j]``: the vertex trip ``j`` marks.
        self.targets: list = []
        #: vertex -> first trip that marked it; kept once a reads.
        self.first: dict | None = None

    def extend(self, rounds: int) -> None:
        """Draw whole trips until the tape covers rounds ``0 .. rounds-1``."""
        missing = rounds - len(self.tape)
        if missing <= 0:
            return
        closed, size, bits = self.closed, self.size, self.bits
        getrandbits = self.getrandbits
        # One randrange(size) per trip, inlined as in the walk kernels.
        draws = [
            closed[r if (r := getrandbits(bits)) < size
                   else _rejected(getrandbits, bits, size)]
            for _ in repeat(None, max(missing + 1 >> 1, _CHECK_SPAN))
        ]
        base = len(self.targets)
        self.targets += draws
        self.tape += chain.from_iterable(zip(draws, repeat(self.home)))
        if self.first is not None:
            self._log(draws, base)

    def _log(self, draws: list, base: int) -> None:
        # Built reversed, so each vertex keeps its earliest trip; the
        # trips logged before win, and ``first`` stays one object.
        newer = dict(zip(reversed(draws), range(base + len(draws) - 1, base - 1, -1)))
        newer.update(self.first)
        self.first.update(newer)

    def marks(self) -> dict:
        """The write log: vertex -> first trip that marked it, kept current."""
        if self.first is None:
            self.first = {}
            self._log(self.targets, 0)
        return self.first

    def meeting(self, tape: list, lo: int, horizon: int) -> tuple[int | None, int]:
        """``(t, hi)``: the first meeting round ``t ≤ horizon`` found after
        round ``lo`` in a's tape (``None`` if none), and how far it looked."""
        hi = min(len(tape), horizon)
        if lo >= hi:
            return None, max(lo, hi)
        self.extend(hi)
        j = next(compress(count(lo), map(eq, tape[lo:hi], self.tape[lo:hi])), None)
        return (None if j is None else j + 1), hi

    def moves(self, t: int) -> int:
        """Edge traversals in rounds ``0 .. t-1``."""
        return _prefix_moves(self.tape, self.home, t)

    def writes(self, t: int) -> int:
        """Marks written in rounds ``0 .. t-1``."""
        trip, odd = divmod(t, 2)
        return trip + (odd and self.targets[trip] == self.home)


def _paper_trial(
    plan: ExecutionPlan,
    whiteboard: bool,
    seed: int,
    program_a,
    program_b,
    ai: int,
    bi: int,
    budget: int,
) -> ExecutionResult | None:
    """One Theorem 1 (``whiteboard``) or Theorem 2 seed, or ``None``.

    Agent a's position tape is ``Construct``'s visit coroutine played
    from the plan's tables: each route it yields becomes its out-and-
    back positions and is answered with the ``(degree, N⁺)`` of its end
    (:attr:`~repro.runtime.plan.ExecutionPlan.visit_reads`).  Then, for
    Theorem 1, Main-Rendezvous, each whiteboard read resolved from b's
    write log; for Theorem 2, both agents' phase schedules, read as a
    timeline (:func:`_phase_trial`).  Theorem 1's b is a
    :class:`_MarkerTape`, compared with a's tape every ``_CHECK_SPAN``
    rounds; Theorem 2's b waits at its start until ``t'``, so during
    ``Construct`` a meets it on its first step there.  The first
    co-location is the meeting round ``t``, and every count and report
    entry keeps only the events of fetch rounds before ``t``, as the
    engine's loop does.

    ``None`` hands the seed back to the engine: starts that are not
    adjacent, no meeting within the budget, a ``Construct`` that
    raises (its iteration cap), or a Theorem 2 ``Construct`` that runs
    past ``t'`` (the program raises ``SynchronizationError`` unless
    the agents meet first).
    """
    # Function-local, as in run_lockstep_batch: the core layer imports
    # the runtime package.
    from repro.core.construct import construct_visits
    from repro.core.whiteboard_algorithm import construct_stats

    ids = plan.ids
    closed_sets = plan.closed_sets
    home_a = ids[ai]
    home_b = ids[bi]
    if home_b not in closed_sets[ai]:
        return None
    id_space = plan.graph.id_space
    rng_b = random.Random(f"{seed}:b")
    b: _MarkerTape | None = None
    if whiteboard:
        b = _MarkerTape(rng_b, closed_sets[bi], home_b)
        horizon = budget
    else:
        t_prime, blocks_b, report_b = program_b.opening(
            rng_b, closed_sets[bi], id_space
        )
        horizon = min(budget, t_prime)

    # ``tape[r]``: a's vertex after round ``r``.  So ``len(tape)`` is
    # the round a fetches next, the coroutine's clock, and a meeting at
    # ``tape[j]`` is seen at the start of round ``j + 1``.
    tape: list = []
    extend = tape.extend
    checked = 0  # rounds ``1 .. checked`` start with the agents apart
    reads_of = plan.visit_reads
    rng_a = random.Random(f"{seed}:a")
    delta = program_a._delta
    constants = program_a._constants
    send = construct_visits(
        home_a, *reads_of[home_a], plan.nbr_ids[ai], id_space, rng_a,
        float(delta), constants, tape.__len__,
    ).send
    seen = None
    t = None
    while True:
        try:
            route = send(seen)
        except StopIteration as stop:
            outcome = stop.value
            break
        except ReproError:
            # Construct's iteration cap: the engine raises it on its
            # round, unless the agents meet first.
            return None
        hops = len(route)
        if hops == 1:
            v = route[0]
            extend((v, home_a))
        elif hops == 2:
            x, v = route
            extend((x, v, x, home_a))
        else:
            v = home_a
        seen = reads_of[v]
        if b is None:
            if home_b in route:
                t = tape.index(home_b, len(tape) - 2 * hops) + 1
                if t > horizon:
                    return None
                break
            if len(tape) >= budget or len(tape) > t_prime:
                return None
        elif len(tape) - checked >= _CHECK_SPAN:
            t, checked = b.meeting(tape, checked, horizon)
            if t is not None:
                break
            if checked >= horizon:
                return None
    if b is None:
        if t is None:
            return _phase_trial(
                program_a, program_b, outcome, rng_a, blocks_b, report_b,
                home_a, home_b, tape, budget, id_space,
            )
        return _paper_result(
            t, home_b, _prefix_moves(tape, home_a, t), 0, 0, 0, False, {}, report_b
        )
    if t is None:
        t, checked = b.meeting(tape, checked, horizon)
    if t is not None:
        # Met during Construct: a's report is filled only at the fetch
        # after its last hop, so it is still empty.
        return _paper_result(
            t, tape[t - 1], _prefix_moves(tape, home_a, t), b.moves(t), 0,
            b.writes(t), False, {}, {"marks": (t - 1) // 2},
        )
    if checked >= horizon:
        return None

    # Main-Rendezvous, agent a (Algorithm 1), from the fetch after
    # Construct's last hop.
    report_a = construct_stats(outcome, int(delta), 0, constants)
    target_set = outcome.target_set
    route_of = outcome.local_map.route
    getrandbits = rng_a.getrandbits
    size = len(target_set)
    bits = size.bit_length()
    first = b.marks()
    reads: list[int] = []
    probes: list[int] = []
    found = None
    while True:
        fetch = len(tape)
        # ``ctx.rng.randrange(len(target_set))``, inlined.
        pick = getrandbits(bits)
        while pick >= size:
            pick = getrandbits(bits)
        route = route_of(target_set[pick])
        hops = len(route)
        if hops == 1:
            v = route[0]
            extend((v, home_a))
        elif hops == 2:
            x, v = route
            extend((x, v, x, home_a))
        else:
            v = home_a
        read = fetch + hops
        reads.append(read)
        probes.append(len(tape))
        if read >= len(b.tape):
            b.extend(read + 1)  # logs the new trips into ``first``
        trip = first.get(v)
        if trip is not None and 2 * trip + (v != home_b) < read:
            # The mark is v₀ᵇ, a neighbor of home: a moves there and
            # halts, and b is home again within two rounds.
            found = len(tape)
            extend((home_b, home_b))
            t, checked = b.meeting(tape, checked, horizon)
            break
        if len(tape) - checked >= _CHECK_SPAN:
            t, checked = b.meeting(tape, checked, horizon)
            if t is not None:
                break
            if checked >= horizon:
                return None
    if t is None:
        return None
    report_a["probes"] = bisect_left(probes, t)
    if found is not None and found < t:
        report_a["mark_found_round"] = found
    return _paper_result(
        t, tape[t - 1], _prefix_moves(tape, home_a, t), b.moves(t),
        bisect_left(reads, t), b.writes(t),
        found is not None and found + 1 < t,
        report_a, {"marks": (t - 1) // 2},
    )


def _phase_trial(
    program_a,
    program_b,
    outcome,
    rng_a: random.Random,
    blocks_b: dict,
    report_b: dict,
    home_a: VertexId,
    home_b: VertexId,
    tape: list,
    budget: int,
    id_space: int,
) -> ExecutionResult | None:
    """A Theorem 2 seed whose ``Construct`` ended apart from b, by
    ``t'``: its phases read as a timeline, or ``None``.

    ``tape`` is a's ``Construct``: a fetches next in round
    ``len(tape)``, at home, and draws Φ_a from its random tape, as the
    program does at that fetch.  Both agents' phase schedules
    (:func:`~repro.core.no_whiteboard.slot_schedule`,
    :func:`~repro.core.no_whiteboard.sweep_schedule`) then give each
    agent's position as a step function of the round: home, except on
    the away segments of a's trips and b's sweeps.  The first
    co-location comes from those breakpoints.  The schedules are
    deterministic, so a second reading up to it gives the moves,
    overflow counts and ``finished_round`` entries from the items of
    fetch rounds before it; no round and no item is stored.
    """
    from repro.core.no_whiteboard import (
        construct_report,
        slot_schedule,
        sweep_schedule,
    )

    now = len(tape)
    report_a = construct_report(outcome)
    blocks_a, stats_a = program_a.probe_set(rng_a, outcome.target_set, id_space)
    report_a.update(stats_a)

    def trips():
        return slot_schedule(
            blocks_a, outcome.local_map.route, float(program_a._delta),
            id_space, program_a._constants, now,
        )

    def sweeps():
        return sweep_schedule(
            blocks_b, home_b, float(program_b._delta), id_space,
            program_b._constants, 0,
        )

    met = _first_meeting(
        _trip_segments(trips()), _sweep_segments(sweeps(), home_a, home_b),
        home_a, home_b, now, budget,
    )
    if met is None:
        return None
    t, vertex = met
    moves_a, report_a["slot_overflows"], finished_a = _trip_counts(trips(), t)
    moves_b, report_b["sweep_overflows"], finished_b = _sweep_counts(
        sweeps(), home_b, t
    )
    # A program whose schedule ended halted at its last fetch, after
    # writing that round into its report.
    if finished_a is not None:
        report_a["finished_round"] = finished_a
    if finished_b is not None:
        report_b["finished_round"] = finished_b
    return _paper_result(
        t, vertex, _prefix_moves(tape, home_a, now) + moves_a, moves_b, 0, 0,
        finished_a is not None, report_a, report_b, finished_b is not None,
    )


#: The away segment past every schedule's end.
_NEVER = (float("inf"), float("inf"), None)


def _trip_segments(trips):
    """Agent a's away segments ``(first, last, vertex)``, in round order.

    a stands on ``vertex`` at the start of rounds ``first .. last`` and
    at home otherwise.  A one-hop trip leaving in round ``leave`` stands
    on its end from round ``leave + 1`` until its first hop back, in
    round ``back``; a two-hop trip passes its middle vertex once each
    way.
    """
    from repro.core.no_whiteboard import TRIP

    for item in trips:
        if item[0] is TRIP:
            _, _, leave, route, _, back = item
            if len(route) == 1:
                yield leave + 1, back, route[0]
            elif route:
                middle, end = route
                yield leave + 1, leave + 1, middle
                yield leave + 2, back, end
                yield back + 1, back + 1, middle
    while True:
        yield _NEVER


def _sweep_segments(sweeps, home_a: VertexId, home_b: VertexId):
    """Agent b's away segments, as :func:`_trip_segments` gives a's.

    Sent a round ``after``, it yields the next segment that ends no
    earlier or stands on ``home_a``; the ones it passes over cannot
    hold a meeting, because a is home until ``after``.  A member visit
    in round ``at`` stands on the member from ``at + 1`` to ``at + 3``.
    """
    from repro.core.no_whiteboard import SWEEP

    after = yield
    for item in sweeps:
        if item[0] is SWEEP:
            _, _, at, visited, end, _, _ = item
            if end <= after and home_a not in visited:
                continue
            for u in visited:
                if u == home_b:
                    at += 3
                    continue
                if at + 3 >= after or u == home_a:
                    after = yield at + 1, at + 3, u
                at += 4
    while True:
        yield _NEVER


def _first_meeting(trips, sweeps, home_a, home_b, now: int, budget: int):
    """``(t, vertex)``: the first round ``t`` in ``now .. budget`` that
    starts with both agents on ``vertex``, or ``None``.

    Every round before ``now`` has been checked.  Each pass takes the
    earliest unchecked stretch in which neither agent changes place:
    one agent away and the other home (they meet if the away one
    stands on the other's home), or both away (they meet if both stand
    on one vertex).
    """
    next_trip = trips.__next__
    send_sweep = sweeps.send
    next(sweeps)
    a_first, a_last, a_at = next_trip()
    b_first, b_last, b_at = send_sweep(max(now, a_first))
    while now <= budget:
        if a_last < now:
            a_first, a_last, a_at = next_trip()
            continue
        if b_last < now:
            b_first, b_last, b_at = send_sweep(max(now, a_first))
            continue
        a_from = max(a_first, now)
        b_from = max(b_first, now)
        if a_from < b_from:
            if a_at == home_b:
                return (a_from, a_at) if a_from <= budget else None
            now = min(a_last + 1, b_from)
        elif b_from < a_from:
            if b_at == home_a:
                return (b_from, b_at) if b_from <= budget else None
            now = min(b_last + 1, a_from)
        else:
            if a_at == b_at:  # also both past their schedules' ends
                return (a_from, a_at) if a_from <= budget else None
            now = min(a_last, b_last) + 1
    return None


def _trip_counts(trips, t: int) -> tuple[int, int, int | None]:
    """Agent a's hops and counted slot overflows in rounds before ``t``,
    and the round of its last fetch if that came before ``t``."""
    from repro.core.no_whiteboard import WAIT

    moves = overflows = 0
    while True:
        try:
            item = next(trips)
        except StopIteration as stop:
            return moves, overflows, stop.value if stop.value < t else None
        if item[0] is WAIT:
            _, _, fetch, _, counted = item
            if fetch >= t:
                return moves, overflows, None
            overflows += counted
            continue
        _, _, leave, route, _, back = item
        if leave >= t:
            return moves, overflows, None
        hops = len(route)
        moves += min(hops, t - leave) + min(hops, max(0, t - back))


def _sweep_counts(sweeps, home: VertexId, t: int) -> tuple[int, int, int | None]:
    """Agent b's hops and counted sweep overflows in rounds before ``t``,
    and the round of its last fetch if that came before ``t``."""
    from repro.core.no_whiteboard import WAIT

    moves = overflows = 0
    while True:
        try:
            item = next(sweeps)
        except StopIteration as stop:
            return moves, overflows, stop.value if stop.value < t else None
        if item[0] is WAIT:
            if item[2] >= t:
                return moves, overflows, None
            continue
        _, _, at, visited, end, overflow, _ = item
        if at >= t:
            return moves, overflows, None
        if end < t:
            moves += 2 * (len(visited) - (home in visited))
            overflows += overflow
            continue
        for u in visited:
            if at >= t:
                break
            if u == home:
                at += 3
            else:
                moves += 1 if at + 3 >= t else 2
                at += 4
        return moves, overflows, None


def _paper_result(
    t: int,
    vertex: VertexId,
    moves_a: int,
    moves_b: int,
    reads: int,
    writes: int,
    halted_a: bool,
    report_a: dict,
    report_b: dict,
    halted_b: bool = False,
) -> ExecutionResult:
    """A met pair's result exactly as the engine builds it."""
    return ExecutionResult(
        met=True,
        rounds=t,
        meeting_vertex=vertex,
        moves={"a": moves_a, "b": moves_b},
        whiteboard_reads=reads,
        whiteboard_writes=writes,
        halted={"a": halted_a, "b": halted_b},
        failure_reason=None,
        reports={"a": report_a, "b": report_b},
        trace=None,
    )


# ---------------------------------------------------------------------------
# Batch entry point
# ---------------------------------------------------------------------------


def run_lockstep_batch(
    plan: ExecutionPlan,
    algorithm: str,
    armed: "list[tuple]",
) -> list[ExecutionResult | None] | None:
    """Execute armed seeds on the kernels, or ``None`` to fall back.

    ``armed`` holds one ``(seed, program_a, program_b, start_a,
    start_b, budget)`` tuple per seed, as
    :func:`repro.experiments.harness.run_trials` arms them: inputs
    resolved by :func:`~repro.core.api.prepare_rendezvous`, starts
    checked, and ``plan`` bound or compiled for the batch.  What is
    left here is the program-type check and the kernel dispatch; by
    the tape construction each result equals the engine's for that
    seed.  A ``None`` return means "this batch is not vectorizable"
    (no kernel for the algorithm and port model, an unregistered
    program subclass, Theorem 1 with δ estimated, Theorem 2 given an
    oracle set, a degree-0 vertex or a self-loop); the caller runs the
    armed seeds on the engine, whose behavior on those batches is the
    contract.  Otherwise the list holds one entry per armed seed, in
    order: its result, or ``None`` for a Theorem 1 or 2 seed the kernel
    does not model — starts that are not adjacent, no meeting within
    the budget, ``Construct``'s iteration cap, or a Theorem 2
    ``Construct`` that runs past ``t'`` (see :func:`_paper_trial`) —
    which the caller runs, already armed and unchanged, on the engine.
    The kernels never touch the programs, so such a seed runs from
    scratch.
    """
    if not lockstep_supported(algorithm, plan.port_model):
        return None
    # Function-local: these layers import the runtime package, so a
    # module-scope import would be circular.
    from repro.baselines.random_walk import RandomWalker
    from repro.baselines.trivial import TrivialProbeA, WaitingB
    from repro.core.main_rendezvous import MarkerB
    from repro.core.no_whiteboard import NoWhiteboardA, NoWhiteboardB
    from repro.core.whiteboard_algorithm import WhiteboardRendezvousA

    kind_a, kind_b = {
        "random-walk": (RandomWalker, RandomWalker),
        "trivial": (TrivialProbeA, WaitingB),
        "theorem1": (WhiteboardRendezvousA, MarkerB),
        "theorem2": (NoWhiteboardA, NoWhiteboardB),
    }[algorithm]
    index_of = plan.index_of
    trials: list[tuple] = []
    for seed, program_a, program_b, start_a, start_b, budget in armed:
        if type(program_a) is not kind_a or type(program_b) is not kind_b:
            return None
        trials.append(
            (seed, program_a, program_b, index_of[start_a], index_of[start_b], budget)
        )
    if algorithm == "random-walk":
        return _run_walk_batch(plan, trials)
    if algorithm == "trivial":
        return _run_trivial_batch(plan, trials)
    # Theorem 1 with δ estimated, and Theorem 2 given an oracle dense
    # set, run other programs than the tapes model.
    if algorithm == "theorem1" and any(t[1]._delta is None for t in trials):
        return None
    if algorithm == "theorem2" and any(
        t[1]._oracle_target_set is not None for t in trials
    ):
        return None
    whiteboard = algorithm == "theorem1"
    return [_paper_trial(plan, whiteboard, *trial) for trial in trials]
