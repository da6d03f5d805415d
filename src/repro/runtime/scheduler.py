"""The synchronous two-agent scheduler.

Runs two agent programs round by round over a static graph, applying
the paper's execution semantics (Section 2.1–2.2):

* both agents observe, compute, write their current whiteboard, and
  move — all within one round, simultaneously;
* a movement completes within the round (agents are never "on edges");
* rendezvous completes at round ``t`` iff both agents occupy the same
  vertex at the *beginning* of round ``t``; they then halt.

The scheduler fast-forwards stretches where both agents are inactive
(waiting or halted): round counters advance, wall-clock work does not.
This makes phase-padded algorithms (Section 4.2's ``t'`` barrier and
``⌈4c₂ ln n⌉²``-round phases) cheap to simulate without altering any
observable round count.

Since the engine refactor, :class:`SyncScheduler` is a thin façade: it
validates its inputs and delegates execution to
:class:`repro.runtime.engine.Engine`'s specialized two-agent loop,
which precomputes per-vertex neighbor/port tables once per execution
and reuses mutable per-agent slots across rounds.  Results are
byte-identical to the seed implementation (kept as
:mod:`repro.runtime.reference` and differentially tested).  The full
prose specification lives in ``docs/runtime.md``.
"""

from __future__ import annotations

from typing import Any

from repro._typing import VertexId
from repro.errors import SchedulerError
from repro.graphs.graph import StaticGraph
from repro.graphs.ports import PortLabeling, PortModel
from repro.runtime.agent import AgentProgram
from repro.runtime.engine import AgentSlot, Engine, ExecutionResult
from repro.runtime.plan import ExecutionPlan

__all__ = ["ExecutionResult", "SyncScheduler", "check_pair"]


def check_pair(
    graph: StaticGraph,
    start_a: VertexId,
    start_b: VertexId,
    labeling: PortLabeling | None = None,
) -> None:
    """The two-agent start checks, in the order every pair run makes them.

    :class:`SyncScheduler` makes them once per execution and the
    batched executor (:func:`repro.experiments.harness.run_trials`)
    once per armed seed, so both paths raise the same
    :class:`SchedulerError` for the same bad input.
    """
    if start_a not in graph or start_b not in graph:
        raise SchedulerError("start vertices must belong to the graph")
    if start_a == start_b:
        raise SchedulerError("agents must start at two different vertices")
    if labeling is not None and labeling.graph is not graph:
        raise SchedulerError("labeling belongs to a different graph")


class SyncScheduler:
    """Synchronous executor for two agent programs on a static graph.

    Parameters
    ----------
    graph:
        The static graph agents move on.
    program_a, program_b:
        The two (possibly different) agent programs.
    start_a, start_b:
        Initial vertices.  Must be distinct; for the *neighborhood*
        rendezvous problem they must additionally be adjacent (the
        scheduler itself does not enforce adjacency — lower-bound
        experiments legitimately use distance two).
    seed:
        Seed for the agents' private random tapes.  Each agent derives
        an independent stream.
    port_model:
        KT1 (default, neighborhood IDs visible) or KT0.
    labeling:
        Hidden port labeling; defaults to ascending-ID ports.  Required
        explicitly for KT0 experiments with crafted ports.
    whiteboards:
        ``True`` for the whiteboard model, ``False`` for Section 4.2's
        whiteboard-free model (any access then raises).
    max_rounds:
        Round budget; executions exceeding it return a failed result.
    record_trace:
        Record per-round positions (capped at ``trace_limit`` entries);
        see :attr:`ExecutionResult.trace` for the exact shape.
    params_a, params_b:
        Algorithm-specific inputs passed through the agent contexts.
    plan:
        A pre-compiled :class:`~repro.runtime.plan.ExecutionPlan` for
        ``(graph, labeling, port_model)``.  When given, the engine
        binds it directly and skips all per-execution table building —
        the fast path when many executions share one instance, as the
        trials of :func:`repro.experiments.harness.run_trials` do.
        Must have been compiled from this exact graph (and labeling,
        when one is passed); mismatches raise :class:`SchedulerError`.
    scenario:
        A scenario name, :class:`~repro.scenarios.ScenarioSpec`, or
        ``None`` — the per-round world-mutation axis (edge churn,
        whiteboard faults, agent crashes; see the "Scenarios" section
        of ``docs/runtime.md``).  No-op configurations (``None``,
        ``"none"``, any zero-rate spec) are normalized away and leave
        the execution byte-identical to a scenario-free run.
    """

    def __init__(
        self,
        graph: StaticGraph,
        program_a: AgentProgram,
        program_b: AgentProgram,
        start_a: VertexId,
        start_b: VertexId,
        seed: int = 0,
        port_model: PortModel = PortModel.KT1,
        labeling: PortLabeling | None = None,
        whiteboards: bool = True,
        max_rounds: int = 1_000_000,
        record_trace: bool = False,
        trace_limit: int = 100_000,
        params_a: dict[str, Any] | None = None,
        params_b: dict[str, Any] | None = None,
        plan: ExecutionPlan | None = None,
        scenario: Any = None,
    ) -> None:
        check_pair(graph, start_a, start_b, labeling)
        if scenario is None:
            active = None
        else:
            from repro.scenarios.spec import active_scenario

            active = active_scenario(scenario)

        self._engine = Engine(
            graph,
            (program_a, program_b),
            (start_a, start_b),
            names=("a", "b"),
            seed=seed,
            port_model=port_model,
            labeling=labeling,
            whiteboards=whiteboards,
            max_rounds=max_rounds,
            termination="pair",
            record_trace=record_trace,
            trace_limit=trace_limit,
            params=(params_a, params_b),
            multi_view=False,
            plan=plan,
            scenario=active,
        )
        self.graph = graph
        self.port_model = port_model
        self.whiteboards = self._engine.whiteboards
        self.max_rounds = self._engine.max_rounds

    # -- introspection used by views and oracles -----------------------

    @property
    def labeling(self) -> PortLabeling:
        """The hidden port labeling (built lazily for default KT1 runs)."""
        return self._engine.labeling

    @property
    def plan(self) -> ExecutionPlan:
        """The compiled execution plan this scheduler runs on."""
        return self._engine.plan

    @property
    def engine(self) -> Engine:
        """The underlying engine (batched executors re-arm it via
        :meth:`~repro.runtime.engine.Engine.reset`)."""
        return self._engine

    @property
    def current_round(self) -> int:
        """The engine's current round number ``t``."""
        return self._engine.current_round

    @property
    def drivers(self) -> list[AgentSlot]:
        """The two live agent slots ``[a, b]`` (read-only introspection)."""
        return self._engine.drivers

    # -- execution ------------------------------------------------------

    def run(self) -> ExecutionResult:
        """Execute until rendezvous, mutual halt, or the round budget."""
        return self._engine.run_pair()

