import importlib
import json

import pytest

from copsrobbers.errors import IllegalMove
from copsrobbers.generators import gen_cycle, gen_gnp, gen_grid, gen_path
from copsrobbers.graphs import Graph, bfs_distances, step_toward
from copsrobbers.play import CopPolicy, RobberPolicy, _check_cops, play, worst_case_capture_round
from copsrobbers.solver import extract_policies, solve
from copsrobbers.strategies import StaticCopPolicy, StayFarRobber
from oracles import replayed_worst_case


class FixedRobber(RobberPolicy):
    def __init__(self, start, moves=()):
        self.start = start
        self.moves = list(moves)

    def placement(self, g, cops):
        return self.start

    def move(self, g, cops, robber, rnd):
        return self.moves.pop(0) if self.moves else robber


class TeleportingCops(CopPolicy):
    def placement(self, g, k):
        return (0,) * k, None

    def move(self, g, state, cops, robber, rnd):
        return (robber,) + tuple(cops[1:]), None


def test_capture_at_placement():
    g, _ = gen_path(5)
    t = play(g, 1, StaticCopPolicy([2]), FixedRobber(2), 10)
    assert t.capture_round == 0
    assert t.rounds == []


def test_capture_when_the_robber_steps_onto_a_cop():
    """A robber that steps onto a standing cop is caught in the round of
    that step, which is the last recorded round."""
    g, _ = gen_path(5)
    t = play(g, 1, StaticCopPolicy([2]), FixedRobber(0, [1, 2]), 10)
    assert t.capture_round == 2 == len(t.rounds)
    assert t.rounds[-1] == ((2,), 2)
    assert t.to_jsonable()["capture_round"] == 2


def test_timeout_when_cops_never_move():
    g, _ = gen_path(5)
    t = play(g, 1, StaticCopPolicy([0]), StayFarRobber(), 7)
    assert t.capture_round is None
    assert len(t.rounds) == 7


def test_all_vertices_covered_captures_at_round_zero():
    g, _ = gen_path(3)
    t = play(g, 3, StaticCopPolicy([0, 1, 2]), StayFarRobber(), 5)
    assert t.capture_round == 0


def test_illegal_cop_move_identifies_offender():
    """The referee checks a whole placement or move at once and names the
    first offending cop; a cop that stays is always legal, and a bool is a
    vertex, as isinstance accepts it."""
    g, _ = gen_path(5)
    with pytest.raises(IllegalMove) as exc:
        play(g, 1, TeleportingCops(), FixedRobber(4), 5)
    assert "cop 0" in str(exc.value)

    g, _ = gen_path(8)

    class Scripted(CopPolicy):
        def __init__(self, start, step):
            self.start, self.step = start, step

        def placement(self, g, k):
            return self.start, None

        def move(self, g, state, cops, robber, rnd):
            return self.step, None

    cases = [
        ((0, 3, 5), (0, 4, 0), "cops (cop 2): 5 -> 0 is not a step in N[5]"),
        ((0, 3, 5), (0, 7, 0), "cops (cop 1): 3 -> 7 is not a step in N[3]"),
        ((0, 1.0, 5), (0, 1, 5), "cops: vertex 1.0 out of range"),
        ((0, -1, 5), (0, 0, 5), "cops: vertex -1 out of range"),
        ((0, 3, 8), (0, 3, 7), "cops: vertex 8 out of range"),
        ((0, 3, 5), (0, 3, 8), "cops: vertex 8 out of range"),
    ]
    for start, step, message in cases:
        with pytest.raises(IllegalMove) as exc:
            play(g, 3, Scripted(start, step), FixedRobber(7), 1)
        assert str(exc.value) == message
    t = play(g, 3, Scripted((True, 3, 5), (False, 2, 5)), FixedRobber(7), 1)
    assert t.rounds == [((False, 2, 5), 7)]



def test_step_check_bisects_dense_rows(monkeypatch):
    """On a dense G(60, 0.9) the referee accepts every step within N[a] and
    refuses every other one, past the row's largest entry too, naming the
    cop as before, with one Graph.is_step per cop that moved; a cop that
    stays is legal. Built from lists, the graph answers each with one
    bisection of N[a]; built from the byte matrix, with one mask bit and no
    row."""
    graphs = importlib.import_module("copsrobbers.graphs")
    bisections, steps = [], []
    real_bisect, real_step = graphs.bisect_left, Graph.is_step
    monkeypatch.setattr(graphs, "bisect_left", lambda row, b: bisections.append(b) or real_bisect(row, b))
    monkeypatch.setattr(Graph, "is_step", lambda g, a, b: steps.append(b) or real_step(g, a, b))
    dense = gen_gnp(60, 0.9, 3)
    closed = dense.closed
    assert min(map(len, closed)) > 40 and any(row[-1] < dense.n - 1 for row in closed)
    for g, bisected in ((Graph(dense.n, dense.adj), True), (gen_gnp(60, 0.9, 3), False)):
        assert g.closed == closed if bisected else g._closed is None
        bisections.clear()
        steps.clear()
        for a in range(g.n):
            for b in range(g.n):
                if b in closed[a]:
                    _check_cops(g, 2, (a, b), (a, a))
                else:
                    with pytest.raises(IllegalMove) as exc:
                        _check_cops(g, 2, (a, b), (a, a))
                    assert str(exc.value) == f"cops (cop 1): {a} -> {b} is not a step in N[{a}]"
        assert len(steps) == g.n * (g.n - 1)
        assert len(bisections) == (g.n * (g.n - 1) if bisected else 0)
        assert g._adj is None or bisected


def test_illegal_robber_move():
    g, _ = gen_path(5)

    class JumpyRobber(FixedRobber):
        def move(self, g_, cops, robber, rnd):
            return 0 if robber == 4 else robber

    with pytest.raises(IllegalMove) as exc:
        play(g, 1, StaticCopPolicy([1]), JumpyRobber(4), 5)
    assert exc.value.offender == "robber"


def test_fast_robber_component_moves():
    g, _ = gen_path(7)

    class FastJumper(FixedRobber):
        def move(self, g_, cops, robber, rnd):
            return 6 if robber == 4 else robber

    # cop at 5 blocks: jumping 4 -> 6 crosses the cop vertex
    with pytest.raises(IllegalMove):
        play(g, 1, StaticCopPolicy([5]), FastJumper(4), 3, fast_robber=True)
    # without the wall the same jump is legal
    t = play(g, 1, StaticCopPolicy([1]), FastJumper(4), 3, fast_robber=True)
    assert t.rounds[0][1] == 6
    assert t.metadata["fast_robber"] is True


def test_transcript_round_consistency():
    g, _ = gen_path(7)
    table = solve(g, 1)
    cop_pol, rob_pol = extract_policies(table)
    t = play(g, 1, cop_pol, rob_pol, 20)
    assert t.capture_round == 3
    prev_cops, prev_rob = t.cops_start, t.robber_start
    for cops, rob in t.rounds:
        for a, b in zip(prev_cops, cops):
            assert b in g.closed[a]
        assert rob in g.closed[prev_rob] or rob == prev_rob
        prev_cops, prev_rob = cops, rob
    # final round co-locates
    assert t.rounds[-1][1] in t.rounds[-1][0]


def test_transcript_json_schema():
    g, _ = gen_path(5)
    t = play(g, 2, StaticCopPolicy([0, 4]), FixedRobber(2), 3)
    data = json.loads(t.to_json())
    assert set(data) == {"placements", "rounds", "capture_round", "metadata"}
    assert data["placements"]["cops"] == [0, 4]
    assert all(set(r) == {"cops", "robber"} for r in data["rounds"])


def test_worst_case_capture_round_exact_on_path():
    g, _ = gen_path(7)
    cop_pol, _ = extract_policies(solve(g, 1))
    assert worst_case_capture_round(g, cop_pol, 1, horizon=3) == 3
    # a tighter horizon reports a surviving robber line as None
    assert worst_case_capture_round(g, cop_pol, 1, horizon=2) is None


def test_worst_case_static_cops_never_capture():
    g = gen_cycle(6)
    assert worst_case_capture_round(g, StaticCopPolicy([0]), 1, horizon=5) is None


def test_worst_case_full_cover():
    g, _ = gen_path(3)
    assert worst_case_capture_round(g, StaticCopPolicy([0, 1, 2]), 3, horizon=1) == 0


def test_worst_case_keys_its_memo_on_the_policy_state():
    """One cop at 0 on the path 0-1-2 waits in round 1, then chases a robber
    that started at 1 and stays put for one that started at 2. The line
    from 1 that stays at 1 and the line from 2 that steps to 1 meet at the
    same cops, robber and round with different states; the second survives,
    so the worst case is None, not the first line's capture round."""
    g, _ = gen_path(3)

    class ChaseFromOne(CopPolicy):
        def placement(self, g_, k):
            return (0,), None

        def move(self, g_, state, cops, robber, rnd):
            start = robber if state is None else state
            if rnd == 1 or start != 1:
                return cops, start
            return (step_toward(g_, bfs_distances(g_, robber), cops[0]),), start

    assert worst_case_capture_round(g, ChaseFromOne(), 1, horizon=5) is None
    assert replayed_worst_case(g, ChaseFromOne, 1, horizon=5) is None


def test_worst_case_applies_the_referees_checks():
    """The exhaustive audit rejects what play() rejects: a teleporting move, a
    placement off the graph, and a wrong cop count."""
    g, _ = gen_path(8)
    with pytest.raises(IllegalMove, match="is not a step"):
        worst_case_capture_round(g, TeleportingCops(), 1, horizon=3)

    class Placed(CopPolicy):
        def __init__(self, cops):
            self.cops = cops

        def placement(self, g, k):
            return self.cops, None

        def move(self, g, state, cops, robber, rnd):
            return cops, None

    with pytest.raises(IllegalMove, match="out of range"):
        worst_case_capture_round(g, Placed((8,)), 1, horizon=3)
    with pytest.raises(IllegalMove, match="placement produced 2 positions"):
        worst_case_capture_round(g, Placed((0, 7)), 1, horizon=3)
