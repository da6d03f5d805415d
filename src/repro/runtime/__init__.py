"""Synchronous mobile-agent runtime (the paper's execution model).

Implements the model of paper Section 2.1:

* executions proceed in synchronous rounds ``t = 0, 1, 2, ...``;
* in every round an agent either stays or moves to a neighbor, and may
  modify the whiteboard at its current vertex;
* rendezvous completes at round ``t`` when both agents occupy the same
  vertex at the beginning of round ``t``;
* agents are probabilistic RAMs with unbounded local memory, distinct
  names ``a``/``b``, and may run different programs (asymmetry).

The scheduler additionally *fast-forwards* stretches of rounds in which
both agents merely wait — round counts are unaffected, wall-clock cost
becomes O(1) — which makes the heavily phase-padded whiteboard-free
algorithm (Section 4.2) simulable at realistic sizes.

All three public schedulers (:func:`run_single_agent`,
:class:`SyncScheduler`, :class:`~repro.runtime.multi.MultiAgentScheduler`)
are façades over one implementation of these semantics,
:class:`repro.runtime.engine.Engine`; ``docs/runtime.md`` is the prose
specification and :mod:`repro.runtime.reference` keeps the frozen seed
loops for differential testing.
"""

from repro.runtime.actions import Action, Halt, Move, Stay, WaitUntil, KEEP
from repro.runtime.whiteboard import BLANK, WhiteboardStore
from repro.runtime.view import AgentView
from repro.runtime.agent import AgentContext, AgentProgram, walk, walk_and_return
from repro.runtime.engine import Engine
from repro.runtime.lockstep import lockstep_supported, run_lockstep_batch
from repro.runtime.plan import ExecutionPlan
from repro.runtime.scheduler import ExecutionResult, SyncScheduler, run_rendezvous
from repro.runtime.single import SingleAgentRecorder, run_single_agent

__all__ = [
    "Engine",
    "ExecutionPlan",
    "Action",
    "Stay",
    "Move",
    "WaitUntil",
    "Halt",
    "KEEP",
    "BLANK",
    "WhiteboardStore",
    "AgentView",
    "AgentContext",
    "AgentProgram",
    "walk",
    "walk_and_return",
    "ExecutionResult",
    "SyncScheduler",
    "run_rendezvous",
    "SingleAgentRecorder",
    "run_single_agent",
    "lockstep_supported",
    "run_lockstep_batch",
]
