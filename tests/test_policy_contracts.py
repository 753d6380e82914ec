"""Policy contracts: each cop policy's `bound` is the capture round its proof
guarantees, so play on instances the policy was not tuned on must end within
it.

Trees, grid covers and subcube partitions are drawn at random from their
domains. The three-cop planar policy is left out of the random part: it still
stalls on some planar graphs that are not grids, trees or cycles (ROADMAP
item 1). Its bound, like the separator sweep's, is only checked against the
formula the suites used, on the suites' own instances.

The exhaustive search is checked against replaying every robber line, and
the three-cop stalls it finds are pinned as strict expected failures.
"""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from copsrobbers.errors import CopsRobbersError, ProgressStall
from copsrobbers.experiments import SUITES, tree_instances
from copsrobbers.generators import from_spec, gen_cycle, gen_grid, gen_grid_dims, gen_hypercube, gen_path, gen_tree
from copsrobbers.graphs import MAXDIST, Graph, metrics
from copsrobbers.planar import SeparatorSweepPolicy, ThreeCopPlanarPolicy
from copsrobbers.play import CopPolicy, RobberPolicy, play, worst_case_capture_round
from copsrobbers.solver import capture_time, extract_policies, solve
from copsrobbers.sphere_trap import SphereTrapPolicy
from copsrobbers.strategies import (
    GreedyFastRobber,
    GreedyRobber,
    PigeonholeGridRobber,
    RandomWalkRobber,
    StaticCopPolicy,
    StayFarRobber,
    TreePolicy,
    grid_cover_policy,
    subcube_partition_policy,
)
from oracles import ScriptedRobber, brute_force_k_center, replayed_worst_case


@given(st.integers(2, 14), st.integers(1, 3), st.integers(0, 10**6))
def test_tree_policy_captures_within_rad_k(n, k, seed):
    g = gen_tree(n, seed)
    assume(k < g.n)
    pol = TreePolicy(g, k)
    assert pol.bound == brute_force_k_center(g, k)[1]
    _, solver_robber = extract_policies(solve(g, k))
    for robber in (solver_robber, GreedyRobber()):
        t = play(g, k, pol, robber, max_rounds=pol.bound + 50)
        assert t.capture_round is not None and t.capture_round <= pol.bound


@given(st.integers(2, 6), st.integers(2, 6), st.integers(2, 12))
def test_grid_cover_worst_case_within_bound(rows, cols, k):
    g, codec = gen_grid_dims([rows, cols])
    pol = grid_cover_policy(g, codec, k)
    worst = worst_case_capture_round(g, pol, k, horizon=pol.bound)
    assert worst is not None and worst <= pol.bound


@given(st.sampled_from([3, 4]), st.integers(1, 4), st.integers(0, 2))
def test_subcube_partition_worst_case_within_bound(n, ell, surplus):
    assume(ell <= n)
    g, codec = gen_hypercube(n)
    k = (1 << (n - ell)) * ((ell + 2) // 2) + surplus
    pol = subcube_partition_policy(g, codec, k, ell)
    worst = worst_case_capture_round(g, pol, k, horizon=pol.bound)
    assert worst is not None and worst <= pol.bound


def test_separator_sweep_bound_on_the_suite_grid():
    params = SUITES["separator_sweep"][1]
    g, _ = gen_grid(2, params["q"])
    assert SeparatorSweepPolicy(g, params["k"]).bound == 6 * metrics(g).radius * math.log2(g.n)


def test_three_cop_planar_bound_on_the_suite_instances():
    params = SUITES["planar_3cop"][1]
    graphs = [gen_grid_dims([4, 4])[0], gen_cycle(6)]
    graphs += [g for _, g, _ in tree_instances(params["tree_count"], 12, params["base_seed"])]
    for g in graphs:
        assert ThreeCopPlanarPolicy(g).bound == (metrics(g).diameter + 1) * g.n


def test_sphere_trap_bound_is_2d_plus_1():
    g, _ = gen_hypercube(3)
    assert [SphereTrapPolicy(g, 4, d).bound for d in (0, 1, 2)] == [1, 3, 5]


def test_solver_policies_share_the_interfaces_and_defaults():
    """The solver cop's bound is the table's capture time, MAXDIST when the
    robber wins; a policy that claims nothing has bound None."""
    g = gen_cycle(5)
    cop, robber = extract_policies(solve(g, 1))
    assert isinstance(cop, CopPolicy) and isinstance(robber, RobberPolicy)
    assert cop.bound == MAXDIST
    assert extract_policies(solve(g, 2))[0].bound == capture_time(g, 2)
    assert StaticCopPolicy([0]).bound is None


GNP40 = from_spec("gnp:40,0.12,0")[0]
GRID12 = gen_grid_dims([12, 12])[0]
GRID4 = gen_grid_dims([4, 4])[0]
GRID6, GRID6_CODEC = gen_grid_dims([6, 6])
Q4, Q4_CODEC = gen_hypercube(4)
TREE14 = gen_tree(14, 3)
# the stacked triangulation on which the three-cop policy stalls (ROADMAP item 1)
STACKED8 = Graph.from_edges(8, [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 7), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
    (2, 3), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5), (4, 6), (5, 6),
])
REUSE_CASES = {
    "sphere-trap": (GNP40, 24, lambda: SphereTrapPolicy(GNP40, 24, 2, mode="general")),
    "separator-sweep": (GRID12, 60, lambda: SeparatorSweepPolicy(GRID12, 60)),
    "three-cop": (GRID4, 3, lambda: ThreeCopPlanarPolicy(GRID4)),
    "tree": (TREE14, 2, lambda: TreePolicy(TREE14, 2)),
    "solver": (GRID4, 2, lambda: extract_policies(solve(GRID4, 2))[0]),
    "grid-cover": (GRID6, 4, lambda: grid_cover_policy(GRID6, GRID6_CODEC, 4)),
    "subcube-partition": (Q4, 4, lambda: subcube_partition_policy(Q4, Q4_CODEC, 4, 3)),
}
# robber name -> its maker; each plays on GRID6 against every cop of ROBBER_REUSE_COPS
ROBBER_REUSE_CASES = {
    "pigeonhole-grid": lambda: PigeonholeGridRobber(GRID6, GRID6_CODEC, 4),
    "stay-far": StayFarRobber,
    "greedy": GreedyRobber,
    "greedy-fast": GreedyFastRobber,
    "random-walk": lambda: RandomWalkRobber(3),
}
ROBBER_REUSE_COPS = [
    lambda: grid_cover_policy(GRID6, GRID6_CODEC, 4),
    lambda: StaticCopPolicy([0, 5, 30, 35]),
    lambda: StaticCopPolicy([14, 14, 21, 21]),
    lambda: StaticCopPolicy([7, 8, 9, 10]),
]


def _reused_plays_like_fresh(g, k, make, games, fast=False):
    """Play ``games`` (each makes the pair of policies from the policy under
    test) once with a fresh policy from ``make`` each, and once with one
    policy from ``make`` for all; the transcripts must agree, and the reused
    policy must leave the transcripts of its earlier games as they were."""
    reused = make()
    fresh, kept = [], []
    for game in games:
        fresh.append(play(g, k, *game(make()), max_rounds=500, fast_robber=fast).to_json())
        kept.append(play(g, k, *game(reused), max_rounds=500, fast_robber=fast))
    assert [t.to_json() for t in kept] == fresh


@pytest.mark.parametrize("name", sorted(REUSE_CASES))
def test_a_reused_policy_plays_like_a_fresh_one(name):
    """One cop policy object over several games gives, game by game, the
    transcript and metadata of a fresh policy. Each game gets a fresh robber:
    greedy, then random walks with seeds 1..5."""
    g, k, make = REUSE_CASES[name]
    robbers = [GreedyRobber] + [lambda s=s: RandomWalkRobber(s) for s in range(1, 6)]
    _reused_plays_like_fresh(g, k, make, [lambda cop, r=r: (cop, r()) for r in robbers])


@pytest.mark.parametrize("name", sorted(ROBBER_REUSE_CASES))
def test_a_reused_robber_plays_like_a_fresh_one(name):
    """The same for one robber policy object against a fresh cop each game."""
    games = [lambda robber, c=c: (c(), robber) for c in ROBBER_REUSE_COPS]
    _reused_plays_like_fresh(GRID6, 4, ROBBER_REUSE_CASES[name], games,
                             fast=name == "greedy-fast")


def test_a_policy_reused_after_a_game_that_raised_plays_like_a_fresh_one():
    """The three-cop policy stalls against the solver robber on STACKED8;
    reused for a game against the greedy robber, it plays that game as a
    fresh policy does."""
    reused = ThreeCopPlanarPolicy(STACKED8)
    _, solver_robber = extract_policies(solve(STACKED8, 3))
    with pytest.raises(ProgressStall):
        play(STACKED8, 3, reused, solver_robber, max_rounds=500)
    kept = play(STACKED8, 3, reused, GreedyRobber(), max_rounds=500)
    fresh = play(STACKED8, 3, ThreeCopPlanarPolicy(STACKED8), GreedyRobber(), max_rounds=500)
    assert kept.to_json() == fresh.to_json()
    assert kept.capture_round == 6


C5_TABLE = solve(gen_cycle(5), 2)
P5, P7 = gen_path(5)[0], gen_path(7)[0]
Q3, Q3_CODEC = gen_hypercube(3)
GRID34, GRID34_CODEC = gen_grid_dims([3, 4])
TREE10 = gen_tree(10, 1)
# graphs on which the three-cop policy stalls (ROADMAP item 1)
THREE_COP_GRAPHS = {
    "C5": gen_cycle(5), "C6": gen_cycle(6), "C7": gen_cycle(7), "tree12-3": gen_tree(12, 3),
    "grid3x3": gen_grid_dims([3, 3])[0], "grid4x4": GRID4, "stacked8": STACKED8,
    "outerplanar10": Graph.from_edges(10, [
        (0, 1), (0, 2), (0, 7), (0, 9), (1, 2), (2, 3), (2, 7), (3, 4), (3, 7), (4, 5),
        (4, 6), (4, 7), (5, 6), (6, 7), (7, 8), (7, 9), (8, 9),
    ]),
}
# planar graphs on which the policy is still free of a stall at its bound, 21,
# with the robber uncaught (ROADMAP item 1)
PLANAR7_EDGES = [
    (0, 1), (0, 3), (0, 4), (1, 2), (1, 5), (2, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 6),
]
THREE_COP_OVERRUN_GRAPHS = {
    "planar7": Graph.from_edges(7, PLANAR7_EDGES),
    "planar7+14": Graph.from_edges(7, PLANAR7_EDGES + [(1, 4)]),
}
# name -> (g, k, policy maker, horizon). The three-cop cases search to the
# bound, where each meets a stall, but grid 4x4 only to round 14: replaying
# every line to its stall takes seconds.
AGREEMENT_CASES = {
    "static": (gen_cycle(6), 1, lambda: StaticCopPolicy([0]), 4),
    "static-cover": (P5, 5, lambda: StaticCopPolicy(range(5)), 2),
    "tree": (TREE10, 2, lambda: TreePolicy(TREE10, 2), TreePolicy(TREE10, 2).bound),
    "solver": (C5_TABLE.graph, 2, lambda: extract_policies(C5_TABLE)[0], C5_TABLE.capture_time()),
    "grid-cover": (GRID34, 2, lambda: grid_cover_policy(GRID34, GRID34_CODEC, 2), 3),
    "subcube-partition": (Q3, 4, lambda: subcube_partition_policy(Q3, Q3_CODEC, 4, 2), 2),
    **{f"sphere-trap-{seed}": (Q3, 4, lambda seed=seed: SphereTrapPolicy(Q3, 4, 1, seed=seed), 5)
       for seed in range(6)},
    "sphere-trap-tightening-failure": (
        Q3, 2, lambda: SphereTrapPolicy(Q3, 2, 3, mode="general", seed=0), 7),
    **{f"separator-sweep-P{g.n}-k{k}": (g, k, lambda g=g, k=k: SeparatorSweepPolicy(g, k), 8)
       for g in (P5, P7) for k in (2, 3)},
    **{f"three-cop-{name}": (g, 3, lambda g=g: ThreeCopPlanarPolicy(g),
                             14 if name == "grid4x4" else ThreeCopPlanarPolicy(g).bound)
       for name, g in THREE_COP_GRAPHS.items()},
}


def _outcome(search):
    """The value of ``search()``, or the type of the package error it raised."""
    try:
        return search()
    except CopsRobbersError as exc:
        return type(exc)


@pytest.mark.parametrize("name", sorted(AGREEMENT_CASES))
def test_worst_case_search_agrees_with_replaying_every_line(name):
    """The search, which memoises on the policy's state, gives the value, or
    raises the error, that replaying every robber line with `play` and a
    fresh policy gives. It searches one policy object for all lines."""
    g, k, make, horizon = AGREEMENT_CASES[name]
    assert _outcome(lambda: worst_case_capture_round(g, make(), k, horizon)) == _outcome(
        lambda: replayed_worst_case(g, make, k, horizon))


STALL = pytest.mark.xfail(strict=True, raises=ProgressStall,
                          reason="the three-cop policy stalls (ROADMAP item 1)")


@STALL
def test_three_cop_catches_c5_against_the_solver_robber():
    g = gen_cycle(5)
    pol = ThreeCopPlanarPolicy(g)
    _, robber = extract_policies(solve(g, 3))
    t = play(g, 3, pol, robber, max_rounds=pol.bound)
    assert t.capture_round is not None and t.capture_round <= pol.bound


@STALL
@pytest.mark.parametrize("name", sorted(THREE_COP_GRAPHS))
def test_three_cop_worst_case_within_bound(name):
    """Searched to its bound, the policy meets a robber line on which play
    itself stalls: ProgressStall, never the IllegalMove of a policy object
    shared by the search's branches."""
    g = THREE_COP_GRAPHS[name]
    pol = ThreeCopPlanarPolicy(g)
    worst = worst_case_capture_round(g, pol, 3, horizon=pol.bound)
    assert worst is not None and worst <= pol.bound


@pytest.mark.xfail(strict=True, reason="the three-cop policy outlives its bound (ROADMAP item 1)")
@pytest.mark.parametrize("name", sorted(THREE_COP_OVERRUN_GRAPHS))
def test_three_cop_worst_case_within_bound_without_a_stall(name):
    """No stall fires on these graphs, yet some robber line is still free
    after the bound: the search returns None."""
    g = THREE_COP_OVERRUN_GRAPHS[name]
    pol = ThreeCopPlanarPolicy(g)
    assert worst_case_capture_round(g, pol, 3, horizon=pol.bound) is not None


# two lines the search finds: on grid 4x4 (a planar_3cop instance) the robber
# then alternates 8, 9; on C6 it alternates 5, 4 from the start
STALL_LINES = {
    "grid4x4": (GRID4, (0, 0, 4, 4, 4) + (8, 9) * 60),
    "C6": (gen_cycle(6), (5, 4) * 13),
}


@STALL
@pytest.mark.parametrize("name", sorted(STALL_LINES))
def test_three_cop_catches_a_scripted_line(name):
    g, line = STALL_LINES[name]
    pol = ThreeCopPlanarPolicy(g)
    t = play(g, 3, pol, ScriptedRobber(line), max_rounds=pol.bound)
    assert t.capture_round is not None and t.capture_round <= pol.bound
