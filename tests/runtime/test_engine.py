"""Unit tests for the unified engine: tables, views, dispatch edges.

The byte-level equivalence with the seed schedulers is covered by
``tests/integration/test_scheduler_equivalence.py``; this file tests
the engine-specific machinery — precomputed tables, the table-backed
views' model enforcement, and the slow-path dispatch for exotic
``Action`` subclasses.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ProtocolError, SchedulerError
from repro.graphs.generators import complete_graph, cycle_graph, path_graph
from repro.graphs.ports import PortLabeling, PortModel
from repro.runtime.actions import Halt, Move, Stay
from repro.runtime.agent import AgentProgram
from repro.runtime.engine import Engine, EngineView, MultiAgentView
from repro.runtime.multi import MultiAgentScheduler
from repro.runtime.scheduler import SyncScheduler
from repro.runtime.view import AgentView


class Scripted(AgentProgram):
    def __init__(self, actions):
        self._actions = list(actions)

    def run(self, ctx):
        for action in self._actions:
            yield action


class Idle(AgentProgram):
    def run(self, ctx):
        yield Halt()


class TestPrecomputedTables:
    def test_graph_exposes_adjacency_tables(self):
        g = path_graph(4)
        assert g.neighbor_map[1] == (0, 2)
        assert g.neighbor_set(1) == frozenset({0, 2})
        # Same tables the accessors already expose, not copies.
        assert g.neighbor_map[2] is g.neighbors(2)

    def test_labeling_exposes_port_table(self):
        g = cycle_graph(5)
        labeling = PortLabeling(g, rng=random.Random(3))
        table = labeling.port_table()
        for v in g.vertices:
            assert sorted(table[v]) == list(g.neighbors(v))
            for port, neighbor in enumerate(table[v]):
                assert labeling.resolve(v, port) == neighbor

    def test_kt0_tables_built_only_under_kt0(self):
        g = path_graph(3)
        kt1 = Engine(g, (Idle(), Idle()), (0, 2), names=("a", "b"))
        assert kt1.plan.kt0_rows is None and kt1.plan.kt0_ports is None
        kt0 = Engine(
            g, (Idle(), Idle()), (0, 2), names=("a", "b"),
            port_model=PortModel.KT0,
        )
        assert kt0.plan.kt0_ports[1] == (0, 1)
        assert kt0.plan.kt0_rows[1] == tuple(
            kt0.plan.index_of[u] for u in kt0.labeling.port_table()[1]
        )


class TestEngineViews:
    def _view(self, port_model=PortModel.KT1):
        g = path_graph(4)
        engine = Engine(
            g, (Idle(), Idle()), (1, 3), names=("a", "b"), port_model=port_model
        )
        return engine.drivers[0].ctx.view

    def test_views_are_agent_views(self):
        """Engine views keep the public AgentView contract."""
        view = self._view()
        assert isinstance(view, AgentView)
        assert isinstance(view, EngineView)

    def test_kt1_properties(self):
        view = self._view()
        assert view.vertex == 1
        assert view.degree == 2
        assert view.neighbors == (0, 2)
        assert view.ports == (0, 2)
        assert view.closed_neighbors == frozenset({0, 1, 2})
        assert view.round == 0

    def test_kt0_hides_neighbor_identifiers(self):
        view = self._view(PortModel.KT0)
        assert view.ports == (0, 1)
        with pytest.raises(ProtocolError):
            _ = view.neighbors
        with pytest.raises(ProtocolError):
            _ = view.closed_neighbors

    def test_whiteboard_reads_counted_through_view(self):
        g = path_graph(3)
        seen = {}

        class Reader(AgentProgram):
            def run(self, ctx):
                seen["board"] = ctx.view.whiteboard
                yield Halt()

        scheduler = SyncScheduler(g, Reader(), Idle(), 0, 2, max_rounds=5)
        scheduler.run()
        assert seen["board"] is None
        assert scheduler.whiteboards.reads == 1

    def test_multi_view_co_location(self):
        g = complete_graph(4)
        engine = Engine(
            g, (Idle(), Idle(), Idle()), (0, 1, 0),
            names=("x", "y", "z"), multi_view=True,
        )
        x_view = engine.drivers[0].ctx.view
        assert isinstance(x_view, MultiAgentView)
        assert x_view.co_located_agents == ("z",)
        assert x_view.other_agent_here
        y_view = engine.drivers[1].ctx.view
        assert y_view.co_located_agents == ()
        assert not y_view.other_agent_here


class TestDispatchEdges:
    def test_run_pair_requires_two_agents(self):
        g = path_graph(4)
        engine = Engine(
            g, (Idle(), Idle(), Idle()), (0, 1, 2), names=("a", "b", "c")
        )
        with pytest.raises(SchedulerError):
            engine.run_pair()

    def test_move_subclass_treated_like_move(self):
        """Exotic Action subclasses take the seed isinstance slow path."""

        class TaggedMove(Move):
            pass

        g = path_graph(3)
        result = SyncScheduler(
            g, Scripted([TaggedMove(1, write="mark")]), Idle(), 0, 1,
            max_rounds=10,
        ).run()
        assert result.met
        assert result.moves["a"] == 1
        assert result.whiteboard_writes == 1

    def test_stay_subclass_in_multi_loop(self):
        class TaggedStay(Stay):
            pass

        g = path_graph(4)
        result = MultiAgentScheduler(
            g,
            [Scripted([TaggedStay(write=7), Move(1)]), Idle(), Idle()],
            [0, 1, 3],
            termination="pair",
            max_rounds=10,
        ).run()
        assert result.completed
        assert result.whiteboard_writes == 1

    def test_kt0_out_of_range_port_message(self):
        g = cycle_graph(5)
        with pytest.raises(ProtocolError, match="port 9 out of range at vertex 0"):
            SyncScheduler(
                g, Scripted([Move(9)]), Idle(), 0, 2,
                port_model=PortModel.KT0, max_rounds=10,
            ).run()

    def test_kt1_non_neighbor_message(self):
        g = path_graph(4)
        with pytest.raises(
            ProtocolError, match="agent at 0 tried to move to non-neighbor 3"
        ):
            SyncScheduler(g, Scripted([Move(3)]), Idle(), 0, 2, max_rounds=10).run()

    def test_facade_exposes_live_slots(self):
        """Oracles introspect positions through the façade's slots."""
        g = path_graph(4)
        scheduler = SyncScheduler(
            g, Scripted([Move(1), Move(2)]), Idle(), 0, 3, max_rounds=10
        )
        assert [d.position for d in scheduler.drivers] == [0, 3]
        result = scheduler.run()
        assert scheduler.drivers[0].position == 2
        assert scheduler.current_round == result.rounds
