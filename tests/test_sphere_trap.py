import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from copsrobbers import sphere_trap
from copsrobbers.errors import DomainError
from copsrobbers.generators import from_spec, gen_gnp, gen_hypercube
from copsrobbers.graphs import Graph, bfs_distances, walk_toward
from copsrobbers.matching import hopcroft_karp
from copsrobbers.play import play
from copsrobbers.solver import extract_policies, solve
from copsrobbers.sphere_trap import (
    HallWitnessResult,
    SphereTrapPolicy,
    TrapAssignment,
    counting_cop_bound,
    falling_factorial,
    net_radius,
    thresholds,
    trap_cop_threshold,
    trap_matching,
)
from copsrobbers.strategies import StayFarRobber


def star(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# --- trap matching


def test_identity_matching_when_cops_on_sphere():
    g, _ = gen_hypercube(3)
    sphere = [1, 2, 4]
    res = trap_matching(g, sphere, bfs_distances(g, 0), 1, 2, mode="hypercube")
    assert isinstance(res, TrapAssignment)
    assert res.matching == {1: 0, 2: 1, 4: 2}
    assert all(len(p) == 1 for p in res.routes.values())


def test_weight_two_cops_reach_two_general_mode():
    g, _ = gen_hypercube(3)
    res = trap_matching(g, [3, 5, 6], bfs_distances(g, 0), 1, 2, mode="general")
    assert isinstance(res, TrapAssignment)
    assert sorted(res.matching) == [1, 2, 4]
    assert len(set(res.matching.values())) == 3
    # exhaustive cross-check: a perfect assignment exists and ours is one
    dist = {t: bfs_distances(g, t) for t in (1, 2, 4)}
    for t, cid in res.matching.items():
        assert dist[t][[3, 5, 6][cid]] <= 2


def test_no_cops_full_sphere_witness():
    g, _ = gen_hypercube(3)
    res = trap_matching(g, [], bfs_distances(g, 0), 1, 2, mode="general")
    assert isinstance(res, HallWitnessResult)
    assert res.deficient_targets == (1, 2, 4)


def test_witness_is_genuine_hall_violation():
    g, _ = gen_hypercube(3)
    res = trap_matching(g, [7, 7], bfs_distances(g, 0), 1, 2, mode="hypercube")
    assert isinstance(res, HallWitnessResult)
    # all cops sit on one vertex: the deficient set outnumbers its cop pool
    assert len(res.deficient_targets) > len(set(res.reachable_cops))


@given(st.integers(0, 40))
def test_assignment_injective_with_short_routes(seed):
    import random

    rng = random.Random(seed)
    g, _ = gen_hypercube(3)
    cops = [rng.randrange(8) for _ in range(4)]
    res = trap_matching(g, cops, bfs_distances(g, rng.randrange(8)), 1, 2, mode="general")
    if isinstance(res, TrapAssignment):
        assert len(set(res.matching.values())) == len(res.matching)
        for cid, route in res.routes.items():
            assert len(route) - 1 <= 2
            assert route[0] == cops[cid]
            for a, b in zip(route, route[1:]):
                assert b in g.adj[a]


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 30), st.sampled_from([0.08, 0.2, 0.5, 0.9]), st.integers(0, 10**6))
def test_general_reach_two_lists_every_cop_within_two(n, p, seed):
    """Each sphere target's eligible cop ids are exactly the cops within
    distance 2 of it (duplicated positions included), in ascending order."""
    rng = random.Random(seed)
    g = gen_gnp(n, p, f"reach2-{seed}")
    cops = [rng.randrange(n) for _ in range(rng.randint(0, 2 * n))]
    v, d = rng.randrange(n), rng.randint(1, 3)
    seen = []

    def recording(adj, n_right):
        seen.append([list(row) for row in adj])
        return hopcroft_karp(adj, n_right)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sphere_trap, "hopcroft_karp", recording)
        trap_matching(g, cops, bfs_distances(g, v), d, 2, mode="general")
    targets = [u for u, du in enumerate(oracles.reference_bfs_distances(g, v)) if du == d]
    if not targets:
        assert seen == []
        return
    dist = {t: oracles.reference_bfs_distances(g, t) for t in targets}
    assert seen == [[[c for c, pos in enumerate(cops) if dist[t][pos] <= 2] for t in targets]]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_trap_matching_matches_per_target_bfs_reference(data):
    """The distance balls give the result of one BFS per target, assignment
    or Hall witness alike, with every route on step_toward's rule. Cop lists
    may be empty, repeat positions and outnumber the vertices."""
    kind = data.draw(st.sampled_from(["gnp", "Q3", "Q4"]))
    if kind == "gnp":
        n = data.draw(st.integers(1, 14))
        p = data.draw(st.sampled_from([0.1, 0.25, 0.5, 0.9]))
        g = gen_gnp(n, p, f"balls-{data.draw(st.integers(0, 10**6))}")
    else:
        g, _ = gen_hypercube(int(kind[1]))
    cops = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n + 2))
    v = data.draw(st.integers(0, g.n - 1))
    d = data.draw(st.integers(0, 3))
    reach = data.draw(st.integers(1, 4))
    mode = data.draw(st.sampled_from(["hypercube", "general"]))
    got = trap_matching(g, cops, bfs_distances(g, v), d, reach, mode)
    want = oracles.reference_trap_matching(g, cops, v, d, reach, mode)
    assert got == want
    if isinstance(got, TrapAssignment):
        assert list(got.matching) == list(want.matching)
        assert list(got.routes) == list(want.routes)
        for t, cop_id in got.matching.items():
            assert got.routes[cop_id] == tuple(walk_toward(g, bfs_distances(g, t), cops[cop_id]))


@pytest.mark.parametrize("mode", ["hypercube", "general"])
@pytest.mark.parametrize("bad", [-4, -1, 8, 100])
def test_cop_positions_out_of_range_rejected(mode, bad):
    g, _ = gen_hypercube(3)
    with pytest.raises(ValueError, match=f"cop position {bad} out of range"):
        trap_matching(g, [1, 2, bad], bfs_distances(g, 0), 1, 2, mode=mode)


# --- tightening: a trap matching of layer i - 1 at reach 1 by the layer-i cops


def tighten(g, cops, i):
    """The tightening step from layer i around vertex 0."""
    return trap_matching(g, cops, bfs_distances(g, 0), i - 1, 1, mode="general")


def test_tighten_q3_layer2_to_layer1():
    g, _ = gen_hypercube(3)
    res = tighten(g, [3, 5, 6], 2)
    assert isinstance(res, TrapAssignment)
    assert sorted(res.matching) == [1, 2, 4]
    assert sorted(route[1] for route in res.routes.values()) == [1, 2, 4]
    assert all(len(route) == 2 for route in res.routes.values())


def test_tighten_layer1_onto_center():
    g, _ = gen_hypercube(3)
    res = tighten(g, [1, 2, 4], 1)
    assert res.matching == {0: 0} and res.routes == {0: (1, 0)}


def test_tighten_star_leaves_to_center():
    res = tighten(star(4), [1, 2, 3, 4], 1)
    assert res.matching == {0: 0} and res.routes == {0: (1, 0)}


def test_tighten_hall_failure_witness():
    # two leaves hang off a single middle vertex: layer 1 = {1}, layer 2 = {2, 3}
    g = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    res = tighten(g, [2, 3], 2)
    assert res.matching == {1: 0} and res.routes == {0: (2, 1)}
    # reversed: on the 4-cycle around centre 0, the 2-vertex layer 1 = {1, 2}
    # cannot be covered from the single occupier of layer 2 = {3}
    g2 = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert tighten(g2, [3], 2) == HallWitnessResult((1, 2), (0,))


class PlacedTrap(SphereTrapPolicy):
    """The sphere trap from given cop positions in place of a random draw."""

    def __init__(self, g, cops, d):
        super().__init__(g, len(cops), d, mode="general")
        self.cops = tuple(cops)

    def placement(self, g, k):
        return self.cops, None


@pytest.mark.parametrize("graph", ["Q3", "star"])
def test_surplus_cops_step_inward_in_a_game(graph):
    """The cops already cover the robber's sphere, so they stay for the d + 1
    routing rounds; tightening layer 1 then sends the matched cop onto the
    centre and the unmatched ones too, by step_toward."""
    g, cops = (gen_hypercube(3)[0], (1, 2, 4)) if graph == "Q3" else (star(4), (1, 2, 3, 4))
    t = play(g, len(cops), PlacedTrap(g, cops, 1), oracles.ScriptedRobber([0]), 10)
    assert t.metadata["cop"]["matching_saturated"]
    assert t.capture_round == 3
    assert t.rounds == [(cops, 0)] * 2 + [((0,) * len(cops), 0)]


# --- policy


def test_policy_checks_its_parameters_at_build():
    """A d that is not a nonnegative int, and an unknown mode, are refused
    when the policy is built, before any game could end at placement."""
    g, _ = gen_hypercube(3)
    for d in (1.9, True, -1, "1"):
        with pytest.raises(ValueError, match=f"d must be a nonnegative int, got {d!r}"):
            SphereTrapPolicy(g, 4, d)
    with pytest.raises(ValueError, match="unknown mode 'foo'"):
        SphereTrapPolicy(g, 4, 1, mode="foo")


def test_policy_deterministic_per_seed():
    g, _ = gen_hypercube(3)
    _, rob = extract_policies(solve(g, 4))
    outs = []
    for _ in range(2):
        pol = SphereTrapPolicy(g, 4, 1, mode="hypercube", seed="fixed")
        t = play(g, 4, pol, rob, 30)
        outs.append((t.cops_start, t.capture_round, t.metadata["cop"]["matching_saturated"]))
    assert outs[0] == outs[1]


def test_policy_certification_sound_over_seeds():
    g, _ = gen_hypercube(3)
    _, rob = extract_policies(solve(g, 4))
    saturated = 0
    for i in range(40):
        pol = SphereTrapPolicy(g, 4, 1, mode="hypercube", seed=i)
        t = play(g, 4, pol, rob, 30)
        meta = t.metadata["cop"]
        if meta["matching_saturated"]:
            saturated += 1
            assert t.capture_round is not None
            assert t.capture_round <= meta["certified_bound"] == 3
        else:
            assert "hall_deficient" in meta
    assert saturated > 0


def test_robber_on_cop_captured_at_placement():
    g, _ = gen_hypercube(3)

    class OnCop(StayFarRobber):
        def placement(self, g_, cops):
            return cops[0]

    pol = SphereTrapPolicy(g, 4, 1, seed=0)
    t = play(g, 4, pol, OnCop(), 10)
    assert t.capture_round == 0


def test_general_mode_on_random_graph():
    g = gen_gnp(60, 0.5, 11)
    pol = SphereTrapPolicy(g, 40, 1, mode="general", seed=5)
    t = play(g, 40, pol, StayFarRobber(), 20)
    meta = t.metadata["cop"]
    if meta["matching_saturated"]:
        assert t.capture_round is not None and t.capture_round <= 3


def test_policy_is_freed_without_the_cyclic_collector():
    """A policy that has played a saturated game holds no reference cycle:
    dropping the last reference frees it at once. When a policy held its
    game's plan and the plan held the policy, each game's graph lived until
    the cyclic collector ran, and the dense_trap benchmark's peak RSS grew
    from game to game."""
    g = gen_gnp(60, 0.5, 11)
    pol = SphereTrapPolicy(g, 40, 1, mode="general", seed=5)
    t = play(g, 40, pol, StayFarRobber(), 20)
    assert t.metadata["cop"]["matching_saturated"]
    freed = weakref.ref(pol)
    gc.disable()
    try:
        del pol
        assert freed() is None
    finally:
        gc.enable()


def test_tightening_runs_one_bfs_from_the_centre(monkeypatch):
    """A game computes the trap centre's distances once, at its first move:
    the sphere's matching, every tightening step and greedy pursuit of a
    robber still on the centre read them."""
    calls = []

    def counting_bfs(g_, sources, *args, **kwargs):
        calls.append(sources)
        return bfs_distances(g_, sources, *args, **kwargs)

    monkeypatch.setattr(sphere_trap, "bfs_distances", counting_bfs)
    g, _ = from_spec("gnp:40,0.12,0")
    tightened = deficient = 0
    for k, seed in itertools.product((10, 24), range(30)):
        calls.clear()
        pol = SphereTrapPolicy(g, k, 2, mode="general", seed=seed)
        t = play(g, k, pol, StayFarRobber(), 30)
        if t.capture_round == 5:
            tightened += 1
        deficient += "hall_deficient" in t.metadata["cop"]
        assert calls.count(t.robber_start) == 1, (k, seed)
    assert tightened > 0 and deficient > 0


def test_a_game_caught_while_routing_pays_for_no_tightening(monkeypatch):
    """A saturated game caught at round 1 runs only the BFS from the centre
    and the sphere's matching: no tightening step."""
    calls = []

    def counting_bfs(g_, sources, *args, **kwargs):
        calls.append(sources)
        return bfs_distances(g_, sources, *args, **kwargs)

    def counting_matching(g_, cops, dist, d, reach, mode):
        calls.append(("trap_matching", d, reach))
        return trap_matching(g_, cops, dist, d, reach, mode)

    monkeypatch.setattr(sphere_trap, "bfs_distances", counting_bfs)
    monkeypatch.setattr(sphere_trap, "trap_matching", counting_matching)
    g = gen_gnp(60, 0.5, 11)
    t = play(g, 40, SphereTrapPolicy(g, 40, 1, mode="general", seed=1), StayFarRobber(), 20)
    assert t.capture_round == 1 and t.metadata["cop"]["matching_saturated"]
    assert calls == [t.robber_start, ("trap_matching", 1, 2)]


def test_tightening_failure_falls_back_to_greedy_pursuit():
    """On Q3 with two cops and d = 3 the matching saturates, so the cops
    route for d + 1 = 4 rounds; tightening layer 3 then fails at round 5,
    which records the witness and plays greedy pursuit from that round on."""
    g, _ = gen_hypercube(3)
    pol = SphereTrapPolicy(g, 2, 3, mode="general", seed=0)
    t = play(g, 2, pol, StayFarRobber(), 30)
    meta = t.metadata["cop"]
    assert meta["matching_saturated"] is True
    assert meta["tighten_failure"] == [1, 2, 7]
    assert "hall_deficient" not in meta
    assert t.capture_round == 6
    assert t.rounds == [((3, 1), 4)] * 4 + [((1, 0), 4), ((0, 4), 4)]


# --- thresholds


def test_falling_factorial_examples():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(3, 2) == 6


@given(st.integers(1, 30), st.integers(0, 10))
def test_falling_factorial_vs_factorials(a, b):
    if b <= a:
        assert falling_factorial(a, b) == math.factorial(a) // math.factorial(a - b)


def test_trap_threshold_example():
    assert trap_cop_threshold(10, 1) == Fraction(3072)


def test_counting_bound_example():
    assert counting_cop_bound(4, 1) == Fraction(16, 5)
    # three cops sit below the bound, so the robber outlasts one round
    assert 3 < Fraction(16, 5)


def test_net_radius_example():
    c_n_ln_n_over_k = 10 * 1000 * math.log(1000) / 1000
    assert 50**2 >= c_n_ln_n_over_k
    assert net_radius(1000, 50, 1000, 10) == 1


def test_net_radius_grows_for_small_degree():
    assert net_radius(1000, 2, 10, 10) > 1


def test_threshold_domain_errors():
    with pytest.raises(DomainError):
        trap_cop_threshold(4, 2)  # (n-d)_(d+1) hits zero
    with pytest.raises(DomainError):
        net_radius(1, 5, 1, 10)


@pytest.mark.parametrize("n, d", [(3, 5), (2, 3)])
def test_trap_threshold_refuses_n_below_2d_plus_1(n, d):
    """For d > n with d odd, the d + 1 factors of (n-d)_(d+1) are all
    negative and their product is positive; such an (n, d) is refused like
    one where a factor is zero, and `thresholds` reports None for it."""
    with pytest.raises(DomainError, match=r"need n >= 2d \+ 1"):
        trap_cop_threshold(n, d)
    assert thresholds(n, d, 1)["qn_upper_k_min"] is None


def test_thresholds_dict():
    t = thresholds(10, 1, 3072, 10.0)
    assert t["qn_upper_k_min"] == Fraction(3072)
    assert t["qn_lower_k_max"] == Fraction(1024, 11)
    assert t["r"] == 1
    assert t["d_within_guarantee"] is False
    # out-of-domain entries come back as None rather than raising
    t = thresholds(4, 2, 5, 10.0)
    assert t["qn_upper_k_min"] is None
