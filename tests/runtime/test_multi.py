"""Tests for the k-agent scheduler."""

from __future__ import annotations

import pytest

from repro.errors import SchedulerError
from repro.graphs.generators import complete_graph, cycle_graph, path_graph
from repro.runtime.actions import Halt, Move, Stay, WaitUntil
from repro.runtime.agent import AgentProgram
from repro.runtime.multi import MultiAgentScheduler


class Scripted(AgentProgram):
    def __init__(self, actions):
        self._actions = list(actions)

    def run(self, ctx):
        for action in self._actions:
            yield action


class Idle(AgentProgram):
    def run(self, ctx):
        yield Halt()


class TestConstruction:
    def test_program_start_mismatch(self):
        with pytest.raises(SchedulerError):
            MultiAgentScheduler(path_graph(4), [Idle()], [0])

    def test_needs_two_agents(self):
        with pytest.raises(SchedulerError):
            MultiAgentScheduler(path_graph(4), [Idle()], [0], names=["x"])

    def test_start_outside_graph(self):
        with pytest.raises(SchedulerError):
            MultiAgentScheduler(path_graph(4), [Idle(), Idle()], [0, 9])

    def test_duplicate_names(self):
        with pytest.raises(SchedulerError):
            MultiAgentScheduler(
                path_graph(4), [Idle(), Idle()], [0, 1], names=["x", "x"]
            )

    @pytest.mark.parametrize(
        "programs,names",
        [(3, ["x"]), (2, ["x", "y", "z"])],
        ids=["fewer-names", "more-names"],
    )
    def test_names_count_must_match_programs(self, programs, names):
        with pytest.raises(
            SchedulerError,
            match=rf"^names needs one name per program: got {len(names)} "
            rf"name\(s\) for {programs} programs$",
        ):
            MultiAgentScheduler(
                path_graph(4),
                [Idle() for _ in range(programs)],
                list(range(programs)),
                names=names,
            )

    def test_bad_termination_mode(self):
        with pytest.raises(SchedulerError):
            MultiAgentScheduler(
                path_graph(4), [Idle(), Idle()], [0, 1], termination="some"
            )


class TestGatheringTermination:
    def test_three_agents_converge(self):
        g = path_graph(5)
        result = MultiAgentScheduler(
            g,
            [Scripted([Move(1), Move(2)]),
             Scripted([Move(2)]) ,
             Scripted([Move(3), Move(2)])],
            [0, 1, 4],
            max_rounds=100,
        ).run()
        assert result.completed
        assert result.meeting_vertex == 2
        assert result.rounds == 2

    def test_pairwise_not_enough_in_all_mode(self):
        g = path_graph(5)
        result = MultiAgentScheduler(
            g,
            [Scripted([Move(1)]), Idle(), Idle()],
            [0, 1, 4],
            max_rounds=10,
        ).run()
        # agents 0 and 1 met at vertex 1 but agent 2 never moved.
        assert not result.completed
        assert result.failure_reason in (
            "round budget exhausted", "all agents halted without completing"
        )

    def test_pair_mode_stops_on_first_meeting(self):
        g = path_graph(5)
        result = MultiAgentScheduler(
            g,
            [Scripted([Move(1)]), Idle(), Idle()],
            [0, 1, 4],
            termination="pair",
            max_rounds=10,
        ).run()
        assert result.completed
        assert result.meeting_vertex == 1
        assert result.rounds == 1


class TestFastForwardAndMetrics:
    def test_all_waiting_jumps(self):
        g = path_graph(3)

        class Waiter(AgentProgram):
            def __init__(self, until, move=None):
                self._until = until
                self._move = move

            def run(self, ctx):
                yield WaitUntil(self._until)
                if self._move is not None:
                    yield Move(self._move)

        result = MultiAgentScheduler(
            g,
            [Waiter(50_000, move=1), Waiter(90_000), Waiter(50_000, move=1)],
            [0, 1, 2],
            max_rounds=200_000,
        ).run()
        assert result.completed
        assert result.rounds == 50_001

    def test_moves_counted_per_agent(self):
        g = cycle_graph(6)
        result = MultiAgentScheduler(
            g,
            [Scripted([Move(1), Move(2)]), Scripted([Move(2)]), Idle()],
            [0, 1, 2],
            max_rounds=20,
        ).run()
        assert result.completed
        assert result.moves["agent0"] == 2
        assert result.moves["agent1"] == 1
        assert result.moves["agent2"] == 0

    def test_positions_reported(self):
        g = path_graph(4)
        result = MultiAgentScheduler(
            g, [Idle(), Idle()], [0, 3], max_rounds=5
        ).run()
        assert result.positions == {"agent0": 0, "agent1": 3}


class TestMultiView:
    def test_co_located_agents(self):
        g = complete_graph(5)
        seen = {}

        class Observer(AgentProgram):
            def __init__(self, name):
                self._name = name

            def run(self, ctx):
                yield Move(3)
                seen[self._name] = ctx.view.co_located_agents
                yield Halt()

        MultiAgentScheduler(
            g,
            [Observer("x"), Observer("y"), Idle()],
            [0, 1, 2],
            names=["x", "y", "z"],
            max_rounds=10,
        ).run()
        assert "y" in seen.get("x", ()) or "x" in seen.get("y", ())

    def test_whiteboards_shared(self):
        g = path_graph(3)

        class Writer(AgentProgram):
            def run(self, ctx):
                yield Stay(write="ping")
                yield Halt()

        captured = {}

        class Reader(AgentProgram):
            def run(self, ctx):
                yield Stay()
                yield Move(0)
                captured["value"] = ctx.view.whiteboard
                yield Halt()

        MultiAgentScheduler(
            g, [Writer(), Reader(), Idle()], [0, 1, 2], max_rounds=20
        ).run()
        # Reader moved onto Writer's vertex: termination may hit first
        # in "all" mode only if agent2 also arrives — it never does, so
        # the read executed.
        assert captured["value"] == "ping"
