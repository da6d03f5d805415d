"""A k-agent synchronous scheduler (gathering extension substrate).

The paper treats two agents; its related work (Flocchini et al. [20],
Baba et al. [7]) studies *gathering* — k agents meeting at one vertex.
This module generalizes :class:`~repro.runtime.scheduler.SyncScheduler`
to k agents so the gathering extension (:mod:`repro.core.gathering`)
can be built on the paper's primitives.

Semantics match the two-agent scheduler: synchronous rounds, writes
then moves, wait fast-forwarding when *all* agents are inactive.  Two
termination modes:

* ``"all"`` (default) — the execution completes when every agent
  occupies the same vertex at the beginning of a round (gathering);
* ``"pair"`` — when any two agents are co-located (the two-agent
  rendezvous condition, useful for cross-checking).

Views expose :attr:`MultiAgentView.co_located_agents` so protocols can
react to partial meetings (the paper's mutual-awareness assumption,
lifted to k agents).

Since the engine refactor, :class:`MultiAgentScheduler` is a façade:
it validates its inputs and delegates to the k-agent loop of
:class:`repro.runtime.engine.Engine` (shared tables, slot reuse, same
byte-identical semantics).  See ``docs/runtime.md``.
"""

from __future__ import annotations

from typing import Any, Literal, Sequence

from repro._typing import VertexId
from repro.errors import SchedulerError
from repro.graphs.graph import StaticGraph
from repro.graphs.ports import PortLabeling, PortModel
from repro.runtime.agent import AgentProgram
from repro.runtime.engine import (
    AgentSlot,
    Engine,
    MultiAgentView,
    MultiExecutionResult,
)
from repro.runtime.plan import ExecutionPlan

__all__ = ["MultiAgentView", "MultiExecutionResult", "MultiAgentScheduler"]


class MultiAgentScheduler:
    """Synchronous executor for k agent programs on a static graph."""

    def __init__(
        self,
        graph: StaticGraph,
        programs: Sequence[AgentProgram],
        starts: Sequence[VertexId],
        names: Sequence[str] | None = None,
        seed: int = 0,
        port_model: PortModel = PortModel.KT1,
        labeling: PortLabeling | None = None,
        whiteboards: bool = True,
        max_rounds: int = 1_000_000,
        termination: Literal["all", "pair"] = "all",
        params: Sequence[dict[str, Any] | None] | None = None,
        plan: ExecutionPlan | None = None,
    ) -> None:
        if len(programs) != len(starts):
            raise SchedulerError("one start vertex per program is required")
        if len(programs) < 2:
            raise SchedulerError("a multi-agent execution needs at least two agents")
        for start in starts:
            if start not in graph:
                raise SchedulerError(f"start vertex {start} not in the graph")
        if names is None:
            names = [f"agent{i}" for i in range(len(programs))]
        if len(names) != len(programs):
            raise SchedulerError(
                f"names needs one name per program: got {len(names)} "
                f"name(s) for {len(programs)} programs"
            )
        if len(set(names)) != len(names):
            raise SchedulerError("agent names must be distinct")
        if termination not in ("all", "pair"):
            raise SchedulerError(f"unknown termination mode {termination!r}")

        self._engine = Engine(
            graph,
            programs,
            starts,
            names=names,
            seed=seed,
            port_model=port_model,
            labeling=labeling,
            whiteboards=whiteboards,
            max_rounds=max_rounds,
            termination=termination,
            multi_view=True,
            params=params,
            plan=plan,
        )
        self.graph = graph
        self.port_model = port_model
        self.whiteboards = self._engine.whiteboards
        self.max_rounds = self._engine.max_rounds
        self.termination = termination

    # -- introspection used by views -----------------------------------

    @property
    def labeling(self) -> PortLabeling:
        """The hidden port labeling (built lazily for default KT1 runs)."""
        return self._engine.labeling

    @property
    def current_round(self) -> int:
        """The engine's current round number ``t``."""
        return self._engine.current_round

    @property
    def drivers(self) -> list[AgentSlot]:
        """The live agent slots, in construction order."""
        return self._engine.drivers

    # -- execution ------------------------------------------------------

    def run(self) -> MultiExecutionResult:
        """Execute until the termination condition, mutual halt, or budget."""
        return self._engine.run_many()
