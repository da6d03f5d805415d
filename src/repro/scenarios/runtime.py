"""The engine-side scenario machinery: mutation hooks over a live run.

A :class:`ScenarioRuntime` is attached to one
:class:`~repro.runtime.engine.Engine` when (and only when) an *active*
scenario — see :func:`repro.scenarios.spec.active_scenario` — governs
the execution.  It owns:

* three independent RNG streams (churn / crash / whiteboard), seeded
  from the trial seed and the scenario name, so faults never perturb
  the agents' own random tapes and a seeded scenario replays the exact
  same mutation sequence in any process or worker layout;
* the **event tape** — one tuple per injected mutation, in injection
  order — which is what the determinism fuzz suite digests across
  fork/spawn boundaries;
* the per-round hook :meth:`on_round` the engine calls after each
  simulated round's movements (churn first, then crashes; rounds the
  engine fast-forwards through are never simulated and therefore never
  mutated — see ``docs/runtime.md``);
* a :class:`PlanOverlay` when the spec churns edges: a copy-on-write
  view over the engine's (possibly shared, possibly memoized)
  :class:`~repro.runtime.plan.ExecutionPlan`.  Plans are cached across
  trials and processes and must never be mutated; the overlay owns
  fresh outer row lists and replaces individual rows, restoring the
  originals on :meth:`~ScenarioRuntime.arm`.

Churn is implemented as degree-preserving **double edge swaps**
``(u,v),(x,y) → (u,x),(v,y)`` — the degree sequence, and with it every
KT0 port count, is invariant, so only adjacency rows and closed
neighborhoods change.  ``churn_mode="adversarial"`` anchors the first
edge at one of the agents' current vertices, rewiring the world right
under their feet — the adaptive flavor of the Lemma 9 adversary
(:mod:`repro.lowerbound.adversary`) transplanted to two-agent runs.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import ProtocolError, ReproError
from repro.graphs.ports import PortModel
from repro.runtime.whiteboard import DisabledWhiteboards, WhiteboardStore
from repro.scenarios.faults import FaultyWhiteboardStore
from repro.scenarios.spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import AgentSlot
    from repro.runtime.plan import ExecutionPlan

__all__ = ["PlanOverlay", "ScenarioRuntime"]

#: Attempts at drawing a valid (4 distinct endpoints, no multi-edge)
#: swap before the round's churn event is skipped.
_SWAP_RETRIES = 32


class PlanOverlay:
    """Copy-on-write adjacency over a shared, immutable execution plan.

    Owns fresh *outer* row lists — ``nbr_ids`` and ``closed_sets``
    (the ``N⁺`` frozensets) under KT1, ``kt0_rows`` under KT0 — whose
    entries start out as the plan's own row objects, plus the dense
    ``adj`` sets swaps are drawn from.  A swap replaces only the four
    touched rows; :meth:`restore` puts the plan's row objects back.
    The engine's hot loops and views bind these outer lists once per
    execution, so row replacement stays visible through the binding.
    """

    __slots__ = (
        "plan",
        "ids",
        "nbr_ids",
        "closed_sets",
        "kt0_rows",
        "adj",
        "_edges",
        "_edge_pos",
        "_swaps",
        "_kt1",
    )

    def __init__(self, plan: "ExecutionPlan") -> None:
        self.plan = plan
        self._kt1 = plan.port_model is PortModel.KT1
        self.ids = plan.ids
        index_of = plan.index_of
        rows = plan.nbr_ids
        adj = [set(map(index_of.__getitem__, row)) for row in rows]
        self.adj = adj
        edges = [(u, v) for u in range(plan.n) for v in adj[u] if u < v]
        edges.sort()
        self._edges = edges
        self._edge_pos = {edge: i for i, edge in enumerate(edges)}
        if self._kt1:
            self.nbr_ids: list | None = list(rows)
            self.closed_sets: list | None = list(plan.closed_sets)
            self.kt0_rows: list | None = None
        else:
            self.nbr_ids = None
            self.closed_sets = None
            self.kt0_rows = list(plan.kt0_rows)
        self._swaps: list[tuple[int, int, int, int]] = []

    # -- mutation -------------------------------------------------------

    def double_swap(
        self,
        rng: random.Random,
        rnd: int,
        events: list[tuple],
        anchor: int | None = None,
    ) -> None:
        """Apply one degree-preserving double swap, or record a skip.

        Draws edges from the churn RNG until the four endpoints are
        distinct and neither replacement edge already exists (simple
        graphs stay simple); gives up after a bounded number of tries
        so pathological graphs (cliques) degrade to a recorded no-op
        instead of spinning.
        """
        edges = self._edges
        adj = self.adj
        if len(edges) < 2:
            events.append(("churn-skip", rnd))
            return
        for _ in range(_SWAP_RETRIES):
            if anchor is not None and adj[anchor]:
                u = anchor
                nbrs = sorted(adj[u])
                v = nbrs[rng.randrange(len(nbrs))]
            else:
                u, v = edges[rng.randrange(len(edges))]
                if rng.random() < 0.5:
                    u, v = v, u
            x, y = edges[rng.randrange(len(edges))]
            if rng.random() < 0.5:
                x, y = y, x
            if len({u, v, x, y}) != 4 or x in adj[u] or y in adj[v]:
                continue
            self._rewire(u, v, x, y)
            self._swaps.append((u, v, x, y))
            ids = self.ids
            events.append(("swap", rnd, ids[u], ids[v], ids[x], ids[y]))
            return
        events.append(("churn-skip", rnd))

    def restore(self) -> None:
        """Undo every applied swap, returning to the plan's exact rows."""
        if not self._swaps:
            return
        dirty: set[int] = set()
        for quad in reversed(self._swaps):
            dirty.update(quad)
            u, v, x, y = quad
            self._rewire(u, x, v, y)  # the inverse of (u, v, x, y)
        self._swaps.clear()
        # Swap-pop removal scrambles the edge list's order; a fresh
        # overlay sorts it, and the churn RNG draws edges *by index* —
        # re-canonicalize so a restored overlay replays the exact draw
        # sequence of a brand-new one.
        self._edges.sort()
        self._edge_pos = {edge: i for i, edge in enumerate(self._edges)}
        plan = self.plan
        for w in dirty:
            # Inverse rewires already restored the adjacency; put the
            # plan's original row *objects* back, so post-restore
            # trials read exactly the plan's rows and the rebuilt
            # copies are freed.
            if self._kt1:
                self.nbr_ids[w] = plan.nbr_ids[w]
                self.closed_sets[w] = plan.closed_sets[w]
            else:
                self.kt0_rows[w] = plan.kt0_rows[w]

    # -- internals ------------------------------------------------------

    def _rewire(self, u: int, v: int, x: int, y: int) -> None:
        """Replace edges ``(u,v), (x,y)`` with ``(u,x), (v,y)``."""
        adj = self.adj
        adj[u].discard(v)
        adj[v].discard(u)
        adj[x].discard(y)
        adj[y].discard(x)
        adj[u].add(x)
        adj[x].add(u)
        adj[v].add(y)
        adj[y].add(v)
        self._remove_edge(u, v)
        self._remove_edge(x, y)
        self._add_edge(u, x)
        self._add_edge(v, y)
        if self._kt1:
            ids = self.ids
            for w in (u, v, x, y):
                # Dense order is identifier order, as in the plan's rows.
                row = tuple(map(ids.__getitem__, sorted(adj[w])))
                self.nbr_ids[w] = row
                self.closed_sets[w] = frozenset(row) | {ids[w]}
        else:
            # Degrees are invariant, so each vertex keeps its port
            # count; the hidden bijection follows the rewiring — the
            # port that led to the removed endpoint now leads to the
            # new one.
            rows = self.kt0_rows
            self._replace_port(rows, u, v, x)
            self._replace_port(rows, v, u, y)
            self._replace_port(rows, x, y, u)
            self._replace_port(rows, y, x, v)

    def _remove_edge(self, a: int, b: int) -> None:
        key = (a, b) if a < b else (b, a)
        pos = self._edge_pos.pop(key)
        last = self._edges.pop()
        if last != key:
            self._edges[pos] = last
            self._edge_pos[last] = pos

    def _add_edge(self, a: int, b: int) -> None:
        key = (a, b) if a < b else (b, a)
        self._edge_pos[key] = len(self._edges)
        self._edges.append(key)

    @staticmethod
    def _replace_port(rows: list, w: int, old: int, new: int) -> None:
        row = list(rows[w])
        row[row.index(old)] = new
        rows[w] = tuple(row)


class ScenarioRuntime:
    """Per-engine scenario state: RNG streams, event tape, mutators.

    It holds the engine's plan and its list of agent slots, never the
    engine itself, so an engine and its scenario form no reference
    cycle and a finished engine is freed without a collection.
    """

    __slots__ = ("spec", "plan", "drivers", "events", "overlay", "_churn_rng", "_crash_rng", "_wb_rng")

    def __init__(
        self, spec: ScenarioSpec, plan: "ExecutionPlan", drivers: "list[AgentSlot]"
    ) -> None:
        self.spec = spec
        self.plan = plan
        self.drivers = drivers
        self.events: list[tuple] = []
        self.overlay = PlanOverlay(plan) if spec.churn_rate > 0.0 else None
        self._churn_rng: random.Random | None = None
        self._crash_rng: random.Random | None = None
        self._wb_rng: random.Random | None = None

    def arm(self, seed: int) -> None:
        """Re-seed every stream and clear per-trial state for one run."""
        name = self.spec.name
        self.events.clear()
        self._churn_rng = random.Random(f"scenario:{name}:{seed}:churn")
        self._crash_rng = random.Random(f"scenario:{name}:{seed}:crash")
        self._wb_rng = random.Random(f"scenario:{name}:{seed}:wb")
        if self.overlay is not None:
            self.overlay.restore()

    def make_store(self, enabled: bool) -> Any:
        """The whiteboard store this trial should run on.

        Fault injection only applies where whiteboards exist at all —
        whiteboard-free algorithms keep their
        :class:`~repro.runtime.whiteboard.DisabledWhiteboards` and a
        spec without whiteboard rates keeps the pristine store.
        """
        if not enabled:
            return DisabledWhiteboards()
        spec = self.spec
        if spec.wants_whiteboard_faults:
            return FaultyWhiteboardStore(
                self._wb_rng,
                corruption_rate=spec.corruption_rate,
                loss_rate=spec.loss_rate,
                garbage=spec.garbage,
                on_event=self.events.append,
            )
        return WhiteboardStore()

    def guard(self, gen: Iterator, name: str) -> Iterator:
        """Wrap an agent generator so world faults fail *cleanly*.

        Under corruption or churn an algorithm may observe states its
        author never anticipated; whatever it raises that is not
        already a :class:`~repro.errors.ReproError` surfaces as a
        :class:`~repro.errors.ProtocolError` naming the agent and the
        scenario — the "graceful outcome" contract of the fault-matrix
        suite.
        """
        spec_name = self.spec.name
        try:
            yield from gen
        except ReproError:
            raise
        except Exception as error:
            raise ProtocolError(
                f"agent {name} failed under scenario {spec_name!r}: {error!r}"
            ) from error

    # -- the per-round hook ---------------------------------------------

    def on_round(self, rnd: int) -> None:
        """Mutate the world after round ``rnd``'s movements.

        Order is fixed (and documented in ``docs/runtime.md``): edge
        churn first, then agent crashes.  Whiteboard faults do not fire
        here — they live inside the store and trigger on the reads and
        writes themselves.
        """
        spec = self.spec
        if spec.churn_rate > 0.0:
            rng = self._churn_rng
            if rng.random() < spec.churn_rate:
                anchors = None
                if spec.churn_mode == "adversarial":
                    anchors = [slot.index for slot in self.drivers]
                for _ in range(spec.churn_swaps):
                    anchor = (
                        anchors[rng.randrange(len(anchors))]
                        if anchors is not None
                        else None
                    )
                    self.overlay.double_swap(rng, rnd, self.events, anchor=anchor)
        if spec.crash_rate > 0.0:
            rng = self._crash_rng
            rate = spec.crash_rate
            for slot in self.drivers:
                if not slot.halted and rng.random() < rate:
                    self._crash(slot, rnd)

    def _crash(self, slot: "AgentSlot", rnd: int) -> None:
        if self.spec.respawn == "halt":
            slot.halted = True
            self.events.append(("crash", rnd, slot.name, "halt"))
            return
        # Re-spawn: the program restarts from scratch at the agent's
        # current vertex after ``restart_delay`` silent rounds.  The
        # context (and with it the agent's RNG tape) carries over — a
        # probabilistic RAM keeps its coin sequence across reboots,
        # which is also what keeps the replay deterministic.
        slot.gen = self.guard(slot.program.run(slot.ctx), slot.name)
        slot.wake_round = rnd + 1 + self.spec.restart_delay
        self.events.append(("crash", rnd, slot.name, "restart"))
