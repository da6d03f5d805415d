"""The unified fast scheduler core all runtime façades execute on.

Historically the round-execution hot path existed three times — in
:mod:`repro.runtime.scheduler` (two agents), :mod:`repro.runtime.multi`
(k agents), and :mod:`repro.runtime.single` (one agent over a dynamic
neighborhood source) — each re-resolving ports through the
:class:`~repro.graphs.ports.PortLabeling` indirection and walking
attribute chains (``view → scheduler → graph → adjacency``) every
round.  This module is the single implementation of the paper's
execution semantics (Section 2.1–2.2); the three public schedulers are
now thin façades over it.  See ``docs/runtime.md`` for the prose
specification (round lifecycle, wait fast-forwarding, termination
modes, port-model glossary).

What makes it fast — without changing one observable bit:

* **Compiled execution plans.**  The engine runs on an
  :class:`~repro.runtime.plan.ExecutionPlan`: the graph and port
  labeling compiled once into CSR arrays over dense vertex indices
  ``0..n-1``.  Agent positions are dense indices throughout the loop;
  a KT1 move is one membership test in the mover's ``N⁺`` row plus
  one ``index_of`` lookup, a KT0 move one list index and one tuple
  index.  Public identifiers reappear only at the observation boundary
  (views, whiteboard keys, traces, results), so every
  :class:`ExecutionResult` is byte-identical to the seed schedulers'.
  Passing a pre-compiled ``plan`` removes *all* per-execution table
  building — the basis of the batched trial executor
  (:func:`repro.experiments.harness.run_trials`).
* **Mutable agent slots.**  Each agent's scheduler-side state lives in
  one ``__slots__`` record (:class:`AgentSlot`) reused across all
  rounds — and, via :meth:`Engine.reset`, across all trials of a
  batch; the per-round loop allocates nothing but the actions the
  programs themselves yield.
* **Monomorphic dispatch.**  Actions are dispatched on
  ``action.__class__`` identity for the four concrete action types,
  with an ``isinstance`` fallback preserving the exact historical
  behavior (and error messages) for exotic ``Action`` subclasses.
* **Table-backed views.**  :class:`EngineView` overrides every hot
  :class:`~repro.runtime.view.AgentView` property with a direct plan
  lookup while keeping the model enforcement (KT0 hides neighbor IDs,
  disabled whiteboards raise).

Semantics are byte-identical to the seed schedulers — the frozen
copies in :mod:`repro.runtime.reference` exist precisely so the
equivalence suite (``tests/integration/test_scheduler_equivalence.py``)
and the throughput gates (``benchmarks/bench_engine.py``,
``benchmarks/bench_sweep_throughput.py``) can prove it on every
registered algorithm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Literal, Sequence

from repro._typing import AgentName, VertexId
from repro.errors import ProtocolError, SchedulerError
from repro.graphs.graph import StaticGraph
from repro.graphs.ports import PortLabeling, PortModel
from repro.runtime.actions import Action, Halt, KEEP, Move, Stay, WaitUntil
from repro.runtime.agent import AgentContext, AgentProgram
from repro.runtime.plan import ExecutionPlan
from repro.runtime.view import AgentView
from repro.runtime.whiteboard import DisabledWhiteboards, WhiteboardStore

__all__ = [
    "AgentSlot",
    "Engine",
    "EngineView",
    "MultiAgentView",
    "ExecutionPlan",
    "ExecutionResult",
    "MultiExecutionResult",
    "SingleAgentRecorder",
    "run_solo",
]


# ---------------------------------------------------------------------------
# Result records (re-exported by the façade modules for API stability)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome and metrics of one two-agent execution.

    Returned by :meth:`~repro.runtime.scheduler.SyncScheduler.run` and
    everything layered on it (:func:`repro.core.api.rendezvous`, the
    experiment harness).  All fields are plain data; two results
    compare equal iff every field (including ``reports`` and ``trace``)
    is equal.
    """

    #: Whether the agents met within the round budget.
    met: bool
    #: The rendezvous round (paper convention: first round at whose
    #: beginning the agents are co-located), or the number of rounds
    #: executed when ``met`` is false.
    rounds: int
    #: Vertex where the agents met (``None`` on failure).
    meeting_vertex: VertexId | None
    #: Number of edge traversals per agent, keyed by agent name:
    #: ``{"a": <int>, "b": <int>}``.  KT1 moves onto the current vertex
    #: (the paper's ``N⁺`` self-loops) do not count as traversals.
    moves: dict[AgentName, int]
    #: Whiteboard counters (zero in the whiteboard-free model).
    whiteboard_reads: int
    whiteboard_writes: int
    #: Whether each agent had halted by the end: ``{"a": bool, "b": bool}``.
    halted: dict[AgentName, bool]
    #: Why the execution ended without a meeting (``None`` if met).
    failure_reason: str | None
    #: Per-agent algorithm statistics, keyed by agent name:
    #: ``{"a": program_a.report(), "b": program_b.report()}``.  Each
    #: value is exactly the dict returned by that program's
    #: :meth:`~repro.runtime.agent.AgentProgram.report` after the run
    #: (``{}`` for programs that do not override it).
    reports: dict[AgentName, dict[str, Any]] = field(default_factory=dict)
    #: ``None`` unless the scheduler was built with
    #: ``record_trace=True``.  Otherwise a tuple with one entry per
    #: *simulated* round, in order: ``(t, pos_a, pos_b)`` where ``t``
    #: is the round number and ``pos_a`` / ``pos_b`` are the agents'
    #: positions *after* round ``t``'s movements (equivalently: at the
    #: beginning of round ``t + 1``).  Fast-forwarded waiting stretches
    #: execute no rounds and therefore leave gaps in ``t``; recording
    #: stops after ``trace_limit`` entries.
    trace: tuple[tuple[int, VertexId, VertexId], ...] | None = None

    @property
    def total_moves(self) -> int:
        """Edge traversals summed over both agents (the "cost" metric)."""
        return self.moves["a"] + self.moves["b"]


@dataclass(frozen=True)
class MultiExecutionResult:
    """Outcome of one k-agent execution."""

    #: Whether the termination condition was reached.
    completed: bool
    #: The completion round (or rounds executed on failure).
    rounds: int
    #: Vertex of the gathering / pairwise meeting (``None`` on failure).
    meeting_vertex: VertexId | None
    #: Final positions by agent name.
    positions: dict[str, VertexId]
    #: Edge traversals by agent name.
    moves: dict[str, int]
    whiteboard_reads: int
    whiteboard_writes: int
    failure_reason: str | None
    #: Per-agent ``AgentProgram.report()`` dicts, keyed by agent name.
    reports: dict[str, dict[str, Any]] = field(default_factory=dict)


@dataclass(frozen=True)
class SingleAgentRecorder:
    """Everything observed during a solo run.

    Attributes
    ----------
    positions:
        Position at the beginning of each round, starting with round 0;
        ``positions[t]`` is the paper's ``v_t``.
    visited:
        The visit sequence ``S_t = (v_0, v_1, ..., v_t)`` with
        duplicates removed in first-visit order (``Q_t`` as an ordered
        tuple).
    rounds:
        Number of rounds executed.
    halted:
        Whether the program halted before the budget ran out.
    report:
        The program's :meth:`~repro.runtime.agent.AgentProgram.report`.
    """

    positions: tuple[VertexId, ...]
    visited: tuple[VertexId, ...]
    rounds: int
    halted: bool
    report: dict[str, Any] = field(default_factory=dict)

    @property
    def visited_set(self) -> frozenset[VertexId]:
        """The paper's ``Q_t`` — distinct vertices visited."""
        return frozenset(self.visited)


# ---------------------------------------------------------------------------
# Agent slots and views
# ---------------------------------------------------------------------------


class AgentSlot:
    """Engine-internal per-agent state, reused across every round.

    The hot loops track the agent's location as the *dense index* of
    its vertex in the engine's :class:`ExecutionPlan`; façade
    consumers (oracles, tests) read the public identifier through the
    :attr:`position` property.
    """

    __slots__ = ("name", "program", "gen", "index", "wake_round", "halted", "moves", "ctx", "_ids")

    def __init__(self, name: str, ids: tuple[VertexId, ...]) -> None:
        self.name = name
        self.program: AgentProgram | None = None
        self.gen = None
        self.index = 0
        self.wake_round = 0
        self.halted = False
        self.moves = 0
        self.ctx: AgentContext | None = None
        self._ids = ids

    @property
    def position(self) -> VertexId:
        """Public identifier of the agent's current vertex."""
        return self._ids[self.index]


def _context(
    name: str,
    start: VertexId,
    id_space: int,
    seed: int,
    port_model: PortModel,
    whiteboards: bool,
    params: dict[str, Any] | None,
) -> AgentContext:
    """A fresh agent context: its own random tape ``f"{seed}:{name}"``
    and a private copy of its parameters; the caller binds the view."""
    return AgentContext(
        name=name,  # type: ignore[arg-type]
        start_vertex=start,
        id_space=id_space,
        rng=random.Random(f"{seed}:{name}"),
        port_model=port_model,
        whiteboards_enabled=whiteboards,
        params=dict(params or {}),
    )


def _rows(engine: "Engine") -> Any:
    """Where ``engine`` reads per-vertex rows: the churn overlay, else the plan.

    Both carry ``nbr_ids`` and ``closed_sets`` (``None`` under KT0)
    and ``kt0_rows`` (``None`` under KT1).
    """
    scenario = engine.scenario
    if scenario is not None and scenario.overlay is not None:
        return scenario.overlay
    return engine.plan


class EngineView(AgentView):
    """A plan-backed :class:`AgentView` bound to an :class:`Engine`.

    Every hot property resolves through the compiled plan's tables
    captured at construction instead of the ``scheduler → graph``
    attribute chain; the model boundaries (KT0 hides neighbor
    identifiers, disabled whiteboards raise) are enforced identically.
    """

    __slots__ = ("_kt1", "_ids", "_nbr_ids", "_degrees", "_kt0_ports", "_wb", "_closed_sets")

    def __init__(self, engine: "Engine", slot: AgentSlot) -> None:
        super().__init__(engine, slot)
        plan = engine.plan
        self._kt1 = engine.port_model is PortModel.KT1
        self._ids = plan.ids
        self._degrees = plan.degrees
        self._kt0_ports = plan.kt0_ports
        self._wb = engine.whiteboards
        # Under churn, neighbor rows and closed neighborhoods resolve
        # through the copy-on-write overlay, never the (shared,
        # immutable) plan.
        rows = _rows(engine)
        self._nbr_ids = rows.nbr_ids
        self._closed_sets = rows.closed_sets

    @property
    def round(self) -> int:
        """The current round number ``t``."""
        return self._scheduler.current_round

    @property
    def vertex(self) -> VertexId:
        """Identifier of the current vertex (vertices carry unique IDs)."""
        return self._ids[self._driver.index]

    @property
    def degree(self) -> int:
        """Degree of the current vertex (``|N(v)| = `` number of ports)."""
        return self._degrees[self._driver.index]

    @property
    def ports(self) -> tuple:
        """Accessible port keys: neighbor IDs (KT1) or ``0..deg-1`` (KT0)."""
        if self._kt1:
            return self._nbr_ids[self._driver.index]
        return self._kt0_ports[self._driver.index]

    @property
    def neighbors(self) -> tuple[VertexId, ...]:
        """Identifiers of the neighbors of the current vertex (KT1 only)."""
        if not self._kt1:
            raise ProtocolError("neighbor identifiers are not accessible under KT0")
        return self._nbr_ids[self._driver.index]

    @property
    def closed_neighbors(self) -> frozenset[VertexId]:
        """``N⁺(v)`` of the current vertex as a frozenset (KT1 only)."""
        if not self._kt1:
            raise ProtocolError("neighbor identifiers are not accessible under KT0")
        return self._closed_sets[self._driver.index]

    @property
    def whiteboard(self) -> Any:
        """Contents of the whiteboard at the current vertex."""
        return self._wb.read(self._ids[self._driver.index])

    @property
    def other_agent_here(self) -> bool:
        """Whether any other agent currently occupies the same vertex."""
        me = self._driver
        index = me.index
        for slot in self._scheduler.drivers:
            if slot is not me and slot.index == index:
                return True
        return False


class MultiAgentView(EngineView):
    """An :class:`EngineView` extended with k-agent co-location info."""

    __slots__ = ()

    @property
    def co_located_agents(self) -> tuple[str, ...]:
        """Names of the *other* agents at the current vertex."""
        me = self._driver
        index = me.index
        return tuple(
            slot.name for slot in self._scheduler.drivers
            if slot is not me and slot.index == index
        )

    @property
    def other_agent_here(self) -> bool:
        """Whether any other agent shares the current vertex."""
        return bool(self.co_located_agents)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class Engine:
    """Unified synchronous executor for k ≥ 2 agents on a static graph.

    The façades (:class:`~repro.runtime.scheduler.SyncScheduler`,
    :class:`~repro.runtime.multi.MultiAgentScheduler`) and the trial
    executor (:func:`repro.experiments.harness.run_trials`) validate
    their inputs and construct an engine; the engine itself assumes
    valid arguments.  ``run_pair`` is the specialized two-agent loop
    (the hot path of every rendezvous trial); ``run_many`` is the
    general k-agent loop with ``"all"``/``"pair"`` termination.

    The constructor builds one slot per agent and arms it through
    :meth:`reset`, which :func:`~repro.experiments.harness.run_trials`
    calls again for every further seed.  While a run is armed, each
    view points back at the engine; when the run ends — by result or
    by exception — both loops drop every slot's generator and context,
    so a finished engine is no reference cycle and reference counting
    frees it, with its plan and graph, once its owner lets go.

    Parameters mirror the façade constructors; ``params`` is one
    optional per-agent parameter dict per program, ``multi_view``
    selects :class:`MultiAgentView` (exposing ``co_located_agents``)
    over the plain pair view, and ``plan`` binds a pre-compiled
    :class:`ExecutionPlan` (compiled on the spot when omitted) so
    batched trials skip all per-execution table building.
    """

    def __init__(
        self,
        graph: StaticGraph,
        programs: Sequence[AgentProgram],
        starts: Sequence[VertexId],
        names: Sequence[str],
        seed: int = 0,
        port_model: PortModel = PortModel.KT1,
        labeling: PortLabeling | None = None,
        whiteboards: bool = True,
        max_rounds: int = 1_000_000,
        termination: Literal["all", "pair"] = "pair",
        record_trace: bool = False,
        trace_limit: int = 100_000,
        params: Sequence[dict[str, Any] | None] | None = None,
        multi_view: bool | None = None,
        plan: ExecutionPlan | None = None,
        scenario: Any = None,
    ) -> None:
        if plan is None:
            plan = ExecutionPlan.compile(graph, labeling=labeling, port_model=port_model)
        else:
            plan.ensure_matches(graph, labeling, port_model)
        self.plan = plan
        self.graph = graph
        self.port_model = port_model
        self._wb_enabled = whiteboards
        self.max_rounds = int(max_rounds)
        self.termination = termination
        self._record_trace = record_trace
        self._trace_limit = trace_limit
        self._trace: list[tuple[int, VertexId, VertexId]] = []
        if multi_view is None:
            multi_view = len(programs) != 2
        self._view_cls = MultiAgentView if multi_view else EngineView
        # One slot per agent; ``reset`` arms them.
        self.drivers: list[AgentSlot] = [
            AgentSlot(name, plan.ids) for name, _ in zip(names, programs)
        ]
        # ``scenario`` is a pre-normalized *active* ScenarioSpec (the
        # façades run it through ``repro.scenarios.active_scenario``,
        # so no-op configurations arrive here as None and take the
        # exact pre-scenario code path).  Imported lazily: the benign
        # engine never loads the scenarios package.
        if scenario is None:
            self.scenario = None
        else:
            from repro.scenarios.runtime import ScenarioRuntime

            self.scenario = ScenarioRuntime(scenario, plan, self.drivers)
        self.reset(programs, starts, seed=seed, params=params)

    # -- introspection used by views and façades -----------------------

    @property
    def labeling(self) -> PortLabeling:
        """The execution's port labeling (lazy for default-KT1 plans)."""
        return self.plan.labeling

    @property
    def scenario_events(self) -> tuple:
        """The active scenario's mutation event tape (empty when benign).

        One tuple per injected mutation, in injection order — the
        deterministic record the scenario fuzz suite digests across
        process boundaries.
        """
        return tuple(self.scenario.events) if self.scenario is not None else ()

    # -- batched-trial reuse -------------------------------------------

    def reset(
        self,
        programs: Sequence[AgentProgram],
        starts: Sequence[VertexId],
        seed: int = 0,
        params: Sequence[dict[str, Any] | None] | None = None,
        max_rounds: int | None = None,
    ) -> None:
        """Arm the engine for a fresh execution on the same plan.

        The constructor arms the first execution through here, and
        the batched trial executor
        (:func:`repro.experiments.harness.run_trials`) every further
        one.  Slots and the compiled plan are reused; everything
        per-execution — programs, positions, contexts with their views,
        random tapes, whiteboard store, round clock, trace buffer — is
        built afresh, so the run that follows is indistinguishable from
        one on a brand-new engine.  This is the one place an engine
        builds an :class:`AgentContext`.
        """
        drivers = self.drivers
        if len(programs) != len(drivers) or len(starts) != len(drivers):
            raise SchedulerError("reset requires one program and start per slot")
        if max_rounds is not None:
            self.max_rounds = int(max_rounds)
        if self.scenario is not None:
            self.scenario.arm(seed)
            self.whiteboards = self.scenario.make_store(self._wb_enabled)
        else:
            self.whiteboards = (
                WhiteboardStore() if self._wb_enabled else DisabledWhiteboards()
            )
        self.current_round = 0
        self._trace.clear()
        index_of = self.plan.index_of
        view_cls = self._view_cls
        agent_params = params if params is not None else [None] * len(programs)
        for slot, program, start, p in zip(drivers, programs, starts, agent_params):
            try:
                start_index = index_of[start]
            except KeyError:
                raise SchedulerError(f"start vertex {start} not in the graph") from None
            slot.program = program
            slot.gen = None
            slot.index = start_index
            slot.wake_round = 0
            slot.halted = False
            slot.moves = 0
            ctx = _context(
                slot.name, start, self.graph.id_space, seed,
                self.port_model, self._wb_enabled, p,
            )
            ctx.view = view_cls(self, slot)
            slot.ctx = ctx

    def _release(self) -> None:
        """Drop every slot's generator and context once a run has ended.

        Each view holds its engine and slot, and each slot holds the
        context and generator that hold the view; dropping both ends
        that cycle, so reference counting frees a finished engine — and
        with it the plan and graph — without a collection.  Programs
        stay: the result's reports come from them.
        """
        for slot in self.drivers:
            slot.gen = None
            slot.ctx = None

    # -- the two-agent hot loop ----------------------------------------

    def run_pair(self) -> ExecutionResult:
        """Execute until rendezvous, mutual halt, or the round budget.

        The loop preserves the seed scheduler's semantics exactly —
        compute both actions, apply both writes, then both movements —
        including the order in which protocol errors surface.  Agent
        positions are dense plan indices; ``ids`` translates back to
        public identifiers at every observation (whiteboard keys,
        trace entries, error messages).
        """
        if len(self.drivers) != 2:
            raise SchedulerError("run_pair requires exactly two agents")
        try:
            return self._pair_loop()
        finally:
            self._release()

    def _pair_loop(self) -> ExecutionResult:
        a, b = self.drivers
        scenario = self.scenario
        a.gen = a.program.run(a.ctx)
        b.gen = b.program.run(b.ctx)
        if scenario is not None:
            a.gen = scenario.guard(a.gen, a.name)
            b.gen = scenario.guard(b.gen, b.name)

        _MOVE, _STAY, _WAIT, _HALT, _KEEP = Move, Stay, WaitUntil, Halt, KEEP
        kt1 = self.port_model is PortModel.KT1
        ids = self.plan.ids
        index_of = self.plan.index_of
        # Churn resolves moves through the overlay's rows; the overlay
        # replaces entries inside these same outer lists, so the
        # bindings stay current.
        rows = _rows(self)
        closed_sets = rows.closed_sets
        kt0_rows = rows.kt0_rows
        on_round = scenario.on_round if scenario is not None else None
        wb_write = self.whiteboards.write
        max_rounds = self.max_rounds
        record = self._record_trace
        trace = self._trace
        trace_limit = self._trace_limit
        trace_append = trace.append
        gen_a, gen_b = a.gen, b.gen

        rnd = self.current_round
        failure: str | None = None
        while True:
            idx_a = a.index
            idx_b = b.index
            if idx_a == idx_b:
                return self._pair_result(met=True, failure=None)
            if rnd >= max_rounds:
                failure = "round budget exhausted"
                break

            # -- observe/compute: fetch both actions first -------------
            act_a = act_b = None
            a_active = not (a.halted or a.wake_round > rnd)
            if a_active:
                try:
                    act_a = next(gen_a)
                except StopIteration:
                    a.halted = True
                else:
                    cls = act_a.__class__
                    if (
                        cls is not _MOVE and cls is not _STAY
                        and cls is not _WAIT and cls is not _HALT
                        and not isinstance(act_a, Action)
                    ):
                        raise ProtocolError(
                            f"agent {a.name} yielded {act_a!r}, which is not an Action"
                        )
            b_active = not (b.halted or b.wake_round > rnd)
            if b_active:
                try:
                    act_b = next(gen_b)
                except StopIteration:
                    b.halted = True
                else:
                    cls = act_b.__class__
                    if (
                        cls is not _MOVE and cls is not _STAY
                        and cls is not _WAIT and cls is not _HALT
                        and not isinstance(act_b, Action)
                    ):
                        raise ProtocolError(
                            f"agent {b.name} yielded {act_b!r}, which is not an Action"
                        )

            if not a_active and not b_active:
                # Wait fast-forwarding: jump the clock to the earliest
                # wake-up (or the budget), no rounds simulated.
                if a.halted:
                    if b.halted:
                        failure = "both agents halted without meeting"
                        break
                    wake = b.wake_round
                elif b.halted:
                    wake = a.wake_round
                else:
                    wake = min(a.wake_round, b.wake_round)
                rnd = wake if wake < max_rounds else max_rounds
                self.current_round = rnd
                continue

            # -- writes at the (pre-move) current vertices.  The two
            # agents are at different vertices here (co-location would
            # have terminated above), so write order is irrelevant.
            if act_a is not None:
                cls = act_a.__class__
                if cls is _MOVE or cls is _STAY:
                    w = act_a.write
                    if w is not _KEEP:
                        wb_write(ids[idx_a], w)
                elif cls is not _WAIT and cls is not _HALT:
                    if isinstance(act_a, (_STAY, _MOVE)) and act_a.write is not _KEEP:
                        wb_write(ids[idx_a], act_a.write)
            if act_b is not None:
                cls = act_b.__class__
                if cls is _MOVE or cls is _STAY:
                    w = act_b.write
                    if w is not _KEEP:
                        wb_write(ids[idx_b], w)
                elif cls is not _WAIT and cls is not _HALT:
                    if isinstance(act_b, (_STAY, _MOVE)) and act_b.write is not _KEEP:
                        wb_write(ids[idx_b], act_b.write)

            # -- movements: agent a first, then b (seed order) ---------
            if act_a is not None:
                cls = act_a.__class__
                if cls is _MOVE:
                    target = act_a.target
                    if kt1:
                        if target not in closed_sets[idx_a]:
                            raise ProtocolError(
                                f"agent at {ids[idx_a]} tried to move to "
                                f"non-neighbor {target}"
                            )
                        dest = index_of[target]
                        if dest != idx_a:  # a move onto v itself is a stay
                            a.index = dest
                            a.moves += 1
                    else:
                        row = kt0_rows[idx_a]
                        if 0 <= target < len(row):
                            a.index = row[target]
                            a.moves += 1
                        else:
                            raise ProtocolError(
                                f"port {target} out of range at vertex {ids[idx_a]}"
                            )
                elif cls is _STAY:
                    pass
                elif cls is _WAIT:
                    wake = act_a.round
                    nxt = rnd + 1
                    a.wake_round = wake if wake > nxt else nxt
                elif cls is _HALT:
                    a.halted = True
                else:
                    self._apply_slow(a, act_a, rnd)
            if act_b is not None:
                cls = act_b.__class__
                if cls is _MOVE:
                    target = act_b.target
                    if kt1:
                        if target not in closed_sets[idx_b]:
                            raise ProtocolError(
                                f"agent at {ids[idx_b]} tried to move to "
                                f"non-neighbor {target}"
                            )
                        dest = index_of[target]
                        if dest != idx_b:
                            b.index = dest
                            b.moves += 1
                    else:
                        row = kt0_rows[idx_b]
                        if 0 <= target < len(row):
                            b.index = row[target]
                            b.moves += 1
                        else:
                            raise ProtocolError(
                                f"port {target} out of range at vertex {ids[idx_b]}"
                            )
                elif cls is _STAY:
                    pass
                elif cls is _WAIT:
                    wake = act_b.round
                    nxt = rnd + 1
                    b.wake_round = wake if wake > nxt else nxt
                elif cls is _HALT:
                    b.halted = True
                else:
                    self._apply_slow(b, act_b, rnd)

            if record and len(trace) < trace_limit:
                trace_append((rnd, ids[a.index], ids[b.index]))
            if on_round is not None:
                # The scenario hook runs between rounds: after round
                # ``rnd``'s movements, before round ``rnd + 1``'s
                # observations.  A crash-restart replaces slot
                # generators, so the hot-loop bindings are refreshed.
                on_round(rnd)
                gen_a, gen_b = a.gen, b.gen
            rnd += 1
            self.current_round = rnd

        return self._pair_result(met=False, failure=failure)

    # -- the general k-agent loop --------------------------------------

    def run_many(self) -> MultiExecutionResult:
        """Execute until the termination condition, mutual halt, or budget."""
        try:
            return self._many_loop()
        finally:
            self._release()

    def _many_loop(self) -> MultiExecutionResult:
        drivers = self.drivers
        scenario = self.scenario
        for slot in drivers:
            gen = slot.program.run(slot.ctx)
            slot.gen = scenario.guard(gen, slot.name) if scenario is not None else gen

        _MOVE, _STAY, _WAIT, _HALT, _KEEP = Move, Stay, WaitUntil, Halt, KEEP
        kt1 = self.port_model is PortModel.KT1
        ids = self.plan.ids
        index_of = self.plan.index_of
        rows = _rows(self)
        closed_sets = rows.closed_sets
        kt0_rows = rows.kt0_rows
        on_round = scenario.on_round if scenario is not None else None
        wb_write = self.whiteboards.write
        max_rounds = self.max_rounds
        pair_mode = self.termination == "pair"

        rnd = self.current_round
        failure: str | None = None
        while True:
            # -- termination check (beginning of round) ----------------
            meeting_index: int | None
            if pair_mode:
                meeting_index = None
                seen: set[int] = set()
                for slot in drivers:
                    index = slot.index
                    if index in seen:
                        meeting_index = index
                        break
                    seen.add(index)
            else:
                meeting_index = drivers[0].index
                for slot in drivers:
                    if slot.index != meeting_index:
                        meeting_index = None
                        break
            if meeting_index is not None:
                return self._multi_result(True, ids[meeting_index], None)
            if rnd >= max_rounds:
                failure = "round budget exhausted"
                break

            # -- observe/compute: fetch actions of all active agents ---
            actions: list[tuple[AgentSlot, Action | None]] = []
            for slot in drivers:
                if slot.halted or slot.wake_round > rnd:
                    continue
                act: Action | None
                try:
                    act = next(slot.gen)
                except StopIteration:
                    slot.halted = True
                    act = None
                else:
                    cls = act.__class__
                    if (
                        cls is not _MOVE and cls is not _STAY
                        and cls is not _WAIT and cls is not _HALT
                        and not isinstance(act, Action)
                    ):
                        raise ProtocolError(
                            f"agent {slot.name} yielded {act!r}, which is not an Action"
                        )
                actions.append((slot, act))

            if not actions:
                wakes = [slot.wake_round for slot in drivers if not slot.halted]
                if not wakes:
                    failure = "all agents halted without completing"
                    break
                wake = min(wakes)
                rnd = wake if wake < max_rounds else max_rounds
                self.current_round = rnd
                continue

            # -- writes, then movements (seed order) -------------------
            for slot, act in actions:
                if act is not None:
                    cls = act.__class__
                    if cls is _MOVE or cls is _STAY:
                        w = act.write
                        if w is not _KEEP:
                            wb_write(ids[slot.index], w)
                    elif cls is not _WAIT and cls is not _HALT:
                        if isinstance(act, (_STAY, _MOVE)) and act.write is not _KEEP:
                            wb_write(ids[slot.index], act.write)
            for slot, act in actions:
                if act is None:
                    continue
                cls = act.__class__
                if cls is _MOVE:
                    index = slot.index
                    target = act.target
                    if kt1:
                        if target not in closed_sets[index]:
                            raise ProtocolError(
                                f"agent at {ids[index]} tried to move to "
                                f"non-neighbor {target}"
                            )
                        dest = index_of[target]
                        if dest != index:
                            slot.index = dest
                            slot.moves += 1
                    else:
                        row = kt0_rows[index]
                        if 0 <= target < len(row):
                            slot.index = row[target]
                            slot.moves += 1
                        else:
                            raise ProtocolError(
                                f"port {target} out of range at vertex {ids[index]}"
                            )
                elif cls is _STAY:
                    pass
                elif cls is _WAIT:
                    wake = act.round
                    nxt = rnd + 1
                    slot.wake_round = wake if wake > nxt else nxt
                elif cls is _HALT:
                    slot.halted = True
                else:
                    self._apply_slow(slot, act, rnd)

            if on_round is not None:
                on_round(rnd)
            rnd += 1
            self.current_round = rnd

        return self._multi_result(False, None, failure)

    # -- shared slow paths and result builders -------------------------

    def _apply_slow(self, slot: AgentSlot, action: Action, rnd: int) -> None:
        """Movement application for exotic ``Action`` subclasses.

        Mirrors the seed scheduler's ``isinstance`` chain exactly so
        subclasses of the concrete actions keep their historical
        treatment, and anything else raises the historical error.
        Resolution happens in public-identifier space through the
        labeling (the slow boundary crossing), then translates back.
        """
        if isinstance(action, Stay):
            return
        if isinstance(action, Move):
            plan = self.plan
            position = plan.ids[slot.index]
            if self.port_model is PortModel.KT1 and action.target == position:
                return  # moving "to itself" is a stay (N⁺ movement sets)
            destination = self.labeling.resolve_accessible(
                position, action.target, self.port_model
            )
            slot.index = plan.index_of[destination]
            slot.moves += 1
        elif isinstance(action, WaitUntil):
            slot.wake_round = max(action.round, rnd + 1)
        elif isinstance(action, Halt):
            slot.halted = True
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unknown action {action!r}")

    def _pair_result(self, met: bool, failure: str | None) -> ExecutionResult:
        a, b = self.drivers
        return ExecutionResult(
            met=met,
            rounds=self.current_round,
            meeting_vertex=self.plan.ids[a.index] if met else None,
            moves={"a": a.moves, "b": b.moves},
            whiteboard_reads=self.whiteboards.reads,
            whiteboard_writes=self.whiteboards.writes,
            halted={"a": a.halted, "b": b.halted},
            failure_reason=failure,
            reports={"a": a.program.report(), "b": b.program.report()},
            trace=tuple(self._trace) if self._record_trace else None,
        )

    def _multi_result(
        self, completed: bool, vertex: VertexId | None, failure: str | None
    ) -> MultiExecutionResult:
        ids = self.plan.ids
        return MultiExecutionResult(
            completed=completed,
            rounds=self.current_round,
            meeting_vertex=vertex,
            positions={slot.name: ids[slot.index] for slot in self.drivers},
            moves={slot.name: slot.moves for slot in self.drivers},
            whiteboard_reads=self.whiteboards.reads,
            whiteboard_writes=self.whiteboards.writes,
            failure_reason=failure,
            reports={slot.name: slot.program.report() for slot in self.drivers},
        )


# ---------------------------------------------------------------------------
# The single-agent loop (dynamic neighborhood sources)
# ---------------------------------------------------------------------------


class _SoloView:
    """A restricted KT1 view for single-agent runs (no whiteboards)."""

    __slots__ = ("_run",)

    def __init__(self, run: "_SoloRun") -> None:
        self._run = run

    @property
    def round(self) -> int:
        return self._run.round

    @property
    def vertex(self) -> VertexId:
        return self._run.position

    @property
    def neighbors(self) -> tuple[VertexId, ...]:
        return self._run.source.neighbors(self._run.position)

    @property
    def closed_neighbors(self) -> frozenset[VertexId]:
        return frozenset(self.neighbors) | {self._run.position}

    @property
    def degree(self) -> int:
        return len(self.neighbors)

    @property
    def ports(self) -> tuple[VertexId, ...]:
        return self.neighbors

    @property
    def whiteboard(self) -> Any:
        raise ProtocolError("single-agent runs provide no whiteboards")

    @property
    def other_agent_here(self) -> bool:
        return False


class _SoloRun:
    __slots__ = ("source", "position", "round")

    def __init__(self, source: Any, position: VertexId) -> None:
        self.source = source
        self.position = position
        self.round = 0


def run_solo(
    program: AgentProgram,
    source: Any,
    start: VertexId,
    rounds: int,
    seed: int = 0,
    name: str = "a",
    id_space: int | None = None,
    params: dict[str, Any] | None = None,
) -> SingleAgentRecorder:
    """Run ``program`` alone for ``rounds`` rounds over ``source``.

    The engine-side implementation behind
    :func:`repro.runtime.single.run_single_agent`; see that façade for
    the neighborhood-source protocol.  Movements are by neighbor
    identifier (KT1).  ``WaitUntil`` actions are honored (the clock
    jumps); ``Halt`` or generator exhaustion ends the run early.
    """
    run = _SoloRun(source=source, position=start)
    ctx = _context(
        name, start,
        id_space if id_space is not None else _guess_id_space(source, start),
        seed, PortModel.KT1, False, params,
    )
    ctx.view = _SoloView(run)  # type: ignore[assignment]

    on_arrival = getattr(source, "on_arrival", None)
    if on_arrival is not None:
        on_arrival(start, 0)

    positions: list[VertexId] = [start]
    visited: list[VertexId] = [start]
    visited_set = {start}
    visited_add = visited_set.add
    visited_append = visited.append
    positions_append = positions.append
    source_neighbors = source.neighbors
    halted = False
    _MOVE, _STAY, _WAIT, _HALT = Move, Stay, WaitUntil, Halt

    gen = program.run(ctx)
    while run.round < rounds:
        try:
            action = next(gen)
        except StopIteration:
            halted = True
            break
        cls = action.__class__
        if cls is not _MOVE and cls is not _STAY and cls is not _WAIT and cls is not _HALT:
            # Exotic Action subclass: normalize to the seed dispatch
            # order (Stay, WaitUntil, Halt, Move, error).
            if isinstance(action, Stay):
                cls = _STAY
            elif isinstance(action, WaitUntil):
                cls = _WAIT
            elif isinstance(action, Halt):
                cls = _HALT
            elif isinstance(action, Move):
                cls = _MOVE
            else:
                raise ProtocolError(f"unknown action {action!r}")
        if cls is _MOVE:
            target = action.target
            if target != run.position:
                if target not in source_neighbors(run.position):
                    raise ProtocolError(
                        f"agent at {run.position} tried to move to non-neighbor "
                        f"{target}"
                    )
                run.position = target
                if target not in visited_set:
                    visited_add(target)
                    visited_append(target)
                if on_arrival is not None:
                    on_arrival(target, run.round + 1)
            run.round += 1
        elif cls is _STAY:
            run.round += 1
        elif cls is _WAIT:
            run.round = max(run.round + 1, min(action.round, rounds))
        else:  # _HALT
            halted = True
            break
        positions_append(run.position)

    return SingleAgentRecorder(
        positions=tuple(positions),
        visited=tuple(visited),
        rounds=run.round,
        halted=halted,
        report=program.report(),
    )


def _guess_id_space(source: Any, start: VertexId) -> int:
    """Fallback ID-space bound when the caller does not provide one."""
    neighbors = source.neighbors(start)
    top = max([start, *neighbors]) if neighbors else start
    return top + 1
