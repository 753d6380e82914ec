import collections
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from copsrobbers import strategies
from copsrobbers.errors import (
    CoverageGap,
    NotATree,
    PackingImpossible,
    RetractInvalid,
    SubcubeTooLarge,
    TooFewCops,
)
from copsrobbers.generators import (
    box_retract,
    gen_cycle,
    gen_gnp,
    gen_grid,
    gen_grid_dims,
    gen_hypercube,
    gen_path,
    gen_tree,
)
from copsrobbers.graphs import Graph, bfs_distances, component_of, k_center, path_retract
from copsrobbers.planar import SeparatorSweepPolicy
from copsrobbers.play import play, worst_case_capture_round
from copsrobbers.solver import capture_time, extract_policies, solve
from copsrobbers.strategies import (
    GreedyFastRobber,
    GreedyRobber,
    PigeonholeGridRobber,
    RandomWalkRobber,
    RetractPartitionPolicy,
    StaticCopPolicy,
    StayFarRobber,
    TreePolicy,
    grid_cover_policy,
    subcube_partition_policy,
    choose_subcube_dim,
)


def star(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# --- tree policy


def test_tree_policy_path_vs_optimal_robber():
    g, _ = gen_path(7)
    _, rob = extract_policies(solve(g, 1))
    t = play(g, 1, TreePolicy(g, 1), rob, 50)
    assert t.capture_round == 3  # equals the radius


def test_tree_policy_two_cops_matches_rad2():
    g, _ = gen_path(7)
    _, rob = extract_policies(solve(g, 2))
    t = play(g, 2, TreePolicy(g, 2), rob, 50)
    assert t.capture_round is not None and t.capture_round <= 2


def test_tree_policy_star_captures_in_one():
    g = star(5)
    _, rob = extract_policies(solve(g, 1))
    t = play(g, 1, TreePolicy(g, 1), rob, 10)
    assert t.capture_round == 1


def test_tree_policy_pads_homes_when_k_exceeds_the_tree():
    """With more cops than vertices every vertex is a centre, and the extra
    cops start on the first one: the robber is caught at placement."""
    g, _ = gen_path(3)
    pol = TreePolicy(g, 5)
    assert pol.homes == (0, 1, 2, 0, 0) and pol.bound == 0
    assert play(g, 5, pol, StayFarRobber(), 5).capture_round == 0


def test_tree_policy_rejects_cycles():
    with pytest.raises(NotATree):
        TreePolicy(gen_cycle(4), 1)


@given(st.integers(0, 20), st.integers(1, 3))
def test_tree_policy_exhaustive_within_radius(seed, k):
    g = gen_tree(8, seed)
    if k >= g.n:
        return
    rad = k_center(g, k).radius
    worst = worst_case_capture_round(g, TreePolicy(g, k), k, horizon=rad)
    assert worst is not None and worst <= rad


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 40), st.integers(0, 10**6), st.integers(1, 3), st.data())
def test_tree_policy_move_matches_the_clamp_rule(n, seed, k, data):
    """One BFS from the robber gives every cop the move of the clamp rule,
    for cops anywhere in their home balls and the robber anywhere."""
    g = gen_tree(n, seed)
    pol = TreePolicy(g, k)
    cops = tuple(
        data.draw(st.sampled_from([v for v, d in enumerate(bfs_distances(g, h)) if d <= pol.bound]))
        for h in pol.homes
    )
    for robber in range(g.n):
        assert pol.move(g, None, cops, robber, 1)[0] == oracles.reference_tree_move(
            g, pol.homes, pol.bound, cops, robber
        ), robber


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_tree_policy_runs_one_bfs_per_round(monkeypatch, k):
    """A round costs one BFS from the robber, however many cops there are."""
    g = gen_tree(30, 4)
    pol = TreePolicy(g, k)
    calls = []

    def counting_bfs(g_, sources, *args, **kwargs):
        calls.append(sources)
        return bfs_distances(g_, sources, *args, **kwargs)

    monkeypatch.setattr(strategies, "bfs_distances", counting_bfs)
    cops, _ = pol.placement(g, k)
    for robber in range(g.n):
        calls.clear()
        pol.move(g, None, cops, robber, 1)
        assert calls == [robber]


# --- retract partition


def test_single_territory_behaves_like_sub_policy():
    g, _ = gen_path(5)
    from copsrobbers.graphs import RetractMap

    identity = RetractMap(tuple(range(5)))
    pol = RetractPartitionPolicy(g, [(identity, 1)])
    _, rob = extract_policies(solve(g, 1))
    t = play(g, 1, pol, rob, 30)
    assert t.capture_round == capture_time(g, 1)


def test_two_ball_cover_of_path():
    g, _ = gen_path(7)
    left = path_retract(g, [0, 1, 2, 3, 4], 0)
    right = path_retract(g, [6, 5, 4, 3, 2], 6)
    pol = RetractPartitionPolicy(g, [(left, 1), (right, 1)])
    worst = worst_case_capture_round(g, pol, 2, horizon=2)
    assert worst is not None and worst <= 2


def test_coverage_gap_detected():
    g, _ = gen_path(7)
    left = path_retract(g, [0, 1, 2, 3], 0)
    with pytest.raises(CoverageGap):
        RetractPartitionPolicy(g, [(left, 1)])


def test_retract_invalid_detected():
    g, _ = gen_path(5)
    from copsrobbers.graphs import RetractMap

    broken = RetractMap((1, 2, 3, 4, 4))  # fixes only 4, so 0 -> 1 leaves the image
    with pytest.raises(RetractInvalid):
        RetractPartitionPolicy(g, [(broken, 1)])


def test_territory_its_team_cannot_win_is_refused():
    """One cop cannot win on a 4-cycle, so a whole-graph territory with a
    team of one is refused when the policy is built."""
    from copsrobbers.graphs import RetractMap

    g = gen_cycle(4)
    with pytest.raises(TooFewCops, match="^1 cops cannot win on a 4-vertex territory$"):
        RetractPartitionPolicy(g, [(RetractMap(tuple(range(4))), 1)])


def test_too_few_cops_at_placement():
    g, _ = gen_path(5)
    from copsrobbers.graphs import RetractMap

    identity = RetractMap(tuple(range(5)))
    pol = RetractPartitionPolicy(g, [(identity, 2)])
    with pytest.raises(TooFewCops):
        pol.placement(g, 1)


# --- grid cover


def test_grid_cover_paths_three_cops():
    g, codec = gen_path(9)
    pol = grid_cover_policy(g, codec, 3)
    worst = worst_case_capture_round(g, pol, 3, horizon=1)
    assert worst is not None and worst <= 1


def test_grid_cover_whole_grid_single_team():
    g, codec = gen_grid(2, 4)
    pol = grid_cover_policy(g, codec, 2)
    _, rob = extract_policies(solve(g, 2))
    t = play(g, 2, pol, rob, 50)
    assert t.capture_round == capture_time(g, 2) == 3


def test_grid_cover_six_by_six():
    g, codec = gen_grid(2, 6)
    bound = capture_time(gen_grid(2, 3)[0], 2)
    worst = worst_case_capture_round(g, grid_cover_policy(g, codec, 8), 8, horizon=bound)
    assert worst is not None and worst <= bound == 2


def test_territory_teams_of_unequal_size_with_a_surplus_cop():
    """On P8, territory [0, 3] gets 1 cop and [3, 7] gets 2: placement lists
    each team's cops in team order, then the surplus cop at vertex 0, and
    the worst case stays within the bound."""
    g, codec = gen_path(8)
    pol = RetractPartitionPolicy(g, [
        (box_retract(g, codec, (0,), (3,)), 1),
        (box_retract(g, codec, (3,), (7,)), 2),
    ])
    assert pol.placement(g, 4) == ((1, 3, 6, 0), None)
    assert pol.bound == capture_time(gen_path(4)[0], 1) == 2
    worst = worst_case_capture_round(g, pol, 4, horizon=pol.bound)
    assert worst is not None and worst <= pol.bound
    with pytest.raises(TooFewCops, match="need 3 cops, given 2"):
        pol.placement(g, 2)


def test_grid_cover_too_few():
    g, codec = gen_grid(2, 3)
    with pytest.raises(TooFewCops):
        grid_cover_policy(g, codec, 1)


# --- subcube partition


def test_subcube_degenerate_partition_equals_whole_cube():
    g, codec = gen_hypercube(3)
    pol = subcube_partition_policy(g, codec, 2, 3)
    _, rob = extract_policies(solve(g, 2))
    t = play(g, 2, pol, rob, 20)
    assert t.capture_round == capture_time(g, 2) == 1


def test_subcube_q4():
    g, codec = gen_hypercube(4)
    bound = capture_time(gen_hypercube(3)[0], 2)
    worst = worst_case_capture_round(
        g, subcube_partition_policy(g, codec, 4, 3), 4, horizon=bound
    )
    assert worst is not None and worst <= bound == 1


def test_subcube_too_few_cops():
    g, codec = gen_hypercube(4)
    with pytest.raises(TooFewCops):
        subcube_partition_policy(g, codec, 3, 3)


def test_subcube_dim_capped():
    g, codec = gen_hypercube(5)
    with pytest.raises(SubcubeTooLarge):
        subcube_partition_policy(g, codec, 100, 5)


def test_equal_territories_share_one_solve(monkeypatch):
    """Territories that induce the same graph with the same team size share
    one solved sub-policy: the four 3x3 boxes of the 6x6 grid solve once, and
    so do the two 3-subcubes of Q4."""
    calls = []
    real_solve = strategies.solve
    monkeypatch.setattr(strategies, "solve", lambda g, k: calls.append((g.n, k)) or real_solve(g, k))
    g, codec = gen_grid(2, 6)
    assert len(grid_cover_policy(g, codec, 8).teams) == 4
    q4, cube = gen_hypercube(4)
    assert len(subcube_partition_policy(q4, cube, 4, 3).teams) == 2
    assert calls == [(9, 2), (8, 2)]


def test_choose_subcube_dim_minimality():
    for n in range(2, 12):
        for k in (n, 2 * n, 1 << (n - 1)):
            ell = choose_subcube_dim(n, k)
            assert (1 << ell) * k >= ell * (1 << n)
            if ell > 1:
                prev = ell - 1
                assert (1 << prev) * k < prev * (1 << n)


# --- robbers


def test_stay_far_survives_radius_rounds():
    g, _ = gen_path(7)
    cop_pol, _ = extract_policies(solve(g, 1))
    t = play(g, 1, cop_pol, StayFarRobber(), 50)
    assert t.capture_round is not None and t.capture_round >= 3


def test_stay_far_caught_at_placement_when_covered():
    g, _ = gen_path(3)
    t = play(g, 3, StaticCopPolicy([0, 1, 2]), StayFarRobber(), 5)
    assert t.capture_round == 0


def test_stay_far_vs_tree_policy_two_cops():
    g, _ = gen_path(7)
    t = play(g, 2, TreePolicy(g, 2), StayFarRobber(), 50)
    assert t.capture_round is not None and t.capture_round >= 2  # rad_2


def test_greedy_flees_to_far_end():
    g, _ = gen_path(7)
    rob = GreedyRobber()
    assert rob.placement(g, (0,)) == 6
    assert rob.move(g, (0,), 5, 1) == 6


def test_robbers_stay_on_a_tie_with_their_own_vertex():
    """The robbers' one argmax rule: the first farthest vertex in ascending
    order, except that a tie with the robber's own vertex stays. With the cop
    on 3, vertices 0, 1 and 2 are all at distance 1: the robber on 2 stays
    rather than move to 1, and the stay-far placement takes 0."""
    g = Graph.from_edges(4, [(0, 3), (1, 2), (1, 3), (2, 3)])
    assert GreedyRobber().move(g, (3,), 2, 1) == 2
    assert GreedyFastRobber().move(g, (3,), 2, 1) == 2
    assert GreedyRobber().move(g, (3,), 1, 1) == 1
    assert StayFarRobber().placement(g, (3,)) == 0


def test_greedy_never_decreases_distance():
    for g in (gen_path(5)[0], gen_cycle(5), gen_grid(2, 3)[0]):
        rob = GreedyRobber()
        for cops in itertools.combinations(range(g.n), 2):
            dist = bfs_distances(g, cops)
            for r in range(g.n):
                chosen = rob.move(g, cops, r, 1)
                assert dist[chosen] >= dist[r]


def greedy_states(seed):
    """(graph, cops, robber) states with the robber off the cops, on a
    seeded G(n, p) in both forms: random cops, co-located cops, cops in
    N[robber], and cops only outside the robber's component, which leaves
    its territory with no cop next to it."""
    rng = random.Random(seed)
    n = rng.randint(2, 25)
    g = gen_gnp(n, rng.choice([0.05, 0.1, 0.2, 0.4]), f"greedy-{seed}")
    h = Graph(n, g.adj)
    robber = rng.randrange(n)
    others = [v for v in range(n) if v != robber]
    component = oracles.component_of(g, robber)
    away = [v for v in others if v not in component]
    k = rng.randint(1, 5)
    picks = [rng.choices(others, k=k), rng.choices(others[:2], k=k + 1)]
    near = [v for v in g.closed[robber] if v != robber]
    if near:
        picks.append(rng.choices(near, k=k) + rng.choices(others, k=1))
    if away:
        picks.append(rng.choices(away, k=k))
    return [(form, tuple(cops), robber) for cops in picks for form in (g, h)]


def test_greedy_moves_match_the_full_search_rule():
    """Both greedy robbers' territory searches move as the rule first
    written, an argmax over one BFS of the whole graph from the cops, on
    every kind of state that `greedy_states` makes, each kind seen."""
    seen = collections.Counter()
    for seed in range(300):
        for g, cops, robber in greedy_states(seed):
            assert GreedyRobber().move(g, cops, robber, 1) == \
                oracles.reference_greedy_move(g, cops, robber)
            assert GreedyFastRobber().move(g, cops, robber, 1) == \
                oracles.reference_greedy_fast_move(g, cops, robber)
            seen["matrix" if g._from_matrix else "lists"] += 1
            seen["co-located"] += len(set(cops)) < len(cops)
            seen["next to the robber"] += any(c in g.closed[robber] for c in cops)
            component = oracles.component_of(g, robber)
            seen["no cop next to the territory"] += not component.intersection(cops)
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("fast", [False, True])
def test_greedy_moves_match_the_rule_along_separator_sweep_games(fast):
    """The separator_sweep suite's games (grid 20x20, k = 240, normal and
    fast): every robber move equals the full-search rule's on its state."""
    g, _ = gen_grid(2, 20)
    base, rule = ((GreedyFastRobber, oracles.reference_greedy_fast_move) if fast
                  else (GreedyRobber, oracles.reference_greedy_move))
    moves = []

    class Checked(base):
        def move(self, g, cops, robber, rnd):
            got = super().move(g, cops, robber, rnd)
            moves.append((got, rule(g, cops, robber)))
            return got

    policy = SeparatorSweepPolicy(g, 240)
    t = play(g, 240, policy, Checked(), max_rounds=int(policy.bound) + 50, fast_robber=fast)
    assert t.capture_round is not None
    assert len(moves) >= 10
    assert [got for got, _ in moves] == [want for _, want in moves]


def test_territory_searches_cost_what_they_reach():
    """On grid 100x100, built from lists, cops wall a 5x5 box around the
    robber (some co-located). One move of each greedy robber, and one
    component_of, each read at most 2 * |territory| + |set(cops)| rows of
    adj, where one BFS of the whole graph would read 10^4, and no move
    builds Graph.masks. The moves are the full-search rule's."""
    g, codec = gen_grid_dims([100, 100])
    box = [codec.id_of((r, c)) for r in range(48, 53) for c in range(48, 53)]
    wall = [codec.id_of(rc) for i in range(48, 53)
            for rc in ((47, i), (53, i), (i, 47), (i, 53))]
    cops = tuple(wall + wall[:4])
    robber = codec.id_of((49, 51))
    bound = 2 * len(box) + len(set(cops))
    reads = [0]

    class Rows(tuple):
        def __getitem__(self, v):
            reads[0] += 1
            return tuple.__getitem__(self, v)

    g.closed
    g._adj = Rows(g._adj)
    moves = []
    for search in (lambda: GreedyRobber().move(g, cops, robber, 1),
                   lambda: GreedyFastRobber().move(g, cops, robber, 1),
                   lambda: component_of(g, robber, set(cops))):
        reads[0] = 0
        moves.append(search())
        assert 0 < reads[0] <= bound
    assert g._masks is None
    assert moves[2] == set(box)
    assert moves[:2] == [oracles.reference_greedy_move(g, cops, robber),
                         oracles.reference_greedy_fast_move(g, cops, robber)]


def test_random_walk_reproducible():
    g, _ = gen_hypercube(3)
    runs = []
    for _ in range(2):
        t = play(g, 1, StaticCopPolicy([0]), RandomWalkRobber(99), 10)
        runs.append((t.robber_start, tuple(r for _, r in t.rounds)))
    assert runs[0] == runs[1]


# --- pigeonhole grid robber


def test_pigeonhole_p9_two_cops():
    g, codec = gen_path(9)
    rob = PigeonholeGridRobber(g, codec, 2)
    cop_pol = StaticCopPolicy([0, 4])
    v = rob.placement(g, (0, 4))
    assert min(abs(v - 0), abs(v - 4)) >= 2
    t = play(g, 2, cop_pol, rob, 5)
    assert t.capture_round is None or t.capture_round >= 1


def test_pigeonhole_grid9_survival():
    g, codec = gen_grid(2, 9)
    rob = PigeonholeGridRobber(g, codec, 3)
    assert rob.min_side >= 4
    cops = (0, 8, 72)
    dist = bfs_distances(g, cops)
    v = rob.placement(g, cops)
    assert dist[v] >= rob.min_side // 2


def test_pigeonhole_impossible():
    g, codec = gen_path(3)
    with pytest.raises(PackingImpossible):
        PigeonholeGridRobber(g, codec, 3)
