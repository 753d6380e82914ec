"""Separator contract: S, A, B partition V, no A-B edge, both sides at most
2n/3; and `verify_separator` names each way a candidate can break it."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copsrobbers import graphs, planar
from copsrobbers.errors import DisconnectedGraph, ProgressStall, TeamBudgetExceeded
from copsrobbers.generators import gen_connected_gnp, gen_cycle, gen_grid_dims, gen_hypercube, gen_path, gen_tree
from copsrobbers.graphs import Graph
from copsrobbers.planar import (
    SeparatorResult,
    SeparatorSweepPolicy,
    ThreeCopPlanarPolicy,
    separator,
    verify_separator,
)

FAMILIES = (
    [(f"P{q}", gen_path(q)[0]) for q in (1, 2, 3, 4, 7, 10)]
    + [(f"C{q}", gen_cycle(q)) for q in (3, 4, 5, 9)]
    + [(f"grid{a}x{b}", gen_grid_dims([a, b])[0]) for a, b in ((2, 2), (3, 3), (4, 6), (5, 5))]
    + [(f"tree{n}-{s}", gen_tree(n, s)) for n, s in ((5, 0), (12, 3), (20, 7))]
    + [(f"Q{d}", gen_hypercube(d)[0]) for d in (3, 4)]
)


@pytest.mark.parametrize("name,g", FAMILIES, ids=[name for name, _ in FAMILIES])
def test_separator_contract_on_families(name, g):
    assert verify_separator(g, separator(g)) == (True, None)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.sampled_from([0.2, 0.35, 0.5, 0.8]), st.integers(0, 10_000))
def test_separator_contract_on_random_graphs(n, p, seed):
    g, _ = gen_connected_gnp(n, p, seed)
    assert verify_separator(g, separator(g)) == (True, None)


@pytest.mark.parametrize(
    "g",
    [Graph.from_edges(0, []), Graph.from_edges(4, [(0, 1), (2, 3)])],
    ids=["empty", "two_edges"],
)
def test_separator_rejects_empty_and_disconnected(g):
    with pytest.raises(DisconnectedGraph):
        separator(g)


@pytest.mark.parametrize(
    "n,res,reason",
    [
        (3, SeparatorResult((0,), (1,), ()), "S, A, B do not partition V"),
        (3, SeparatorResult((0,), (0, 1), (2,)), "S, A, B do not partition V"),
        (4, SeparatorResult((0,), (1, 2, 3), ()), "a side exceeds 2n/3"),
        (3, SeparatorResult((0,), (1,), (2,)), "edge (1,2) joins A and B"),
    ],
    ids=["missing_vertex", "overlap", "side_too_large", "a_b_edge"],
)
def test_verify_separator_failure_kinds(n, res, reason):
    g, _ = gen_path(n)
    assert verify_separator(g, res) == (False, reason)


def refuse_the_sweep(monkeypatch):
    def refuse(g):
        raise AssertionError("ran the all-sources eccentricity sweep")

    monkeypatch.setattr(graphs, "_ecc_sweep", refuse)


def test_separator_sweep_runs_no_eccentricity_sweep(monkeypatch):
    """The first separator, the centre and the bound come from eccentricity
    bounds, not from the all-sources sweep, and agree with separator() and
    metrics()."""
    g, _ = gen_grid_dims([20, 20])
    met = graphs.metrics(g)
    refuse_the_sweep(monkeypatch)
    pol = SeparatorSweepPolicy(g, 240)
    cops, _ = pol.placement(g, 240)
    s0 = separator(g).separator
    assert cops == s0 + (met.eccentricities.index(met.radius),) * (240 - len(s0))
    assert pol.bound == 6 * met.radius * math.log2(g.n)


def test_separator_on_a_large_grid_runs_no_eccentricity_sweep(monkeypatch):
    """On the 100 x 100 grid, separator() and the separator sweep's build
    find their roots, centre and radius without the all-sources sweep: the
    root is a corner and the centre (49, 49), of eccentricity 100."""
    g, _ = gen_grid_dims([100, 100])
    refuse_the_sweep(monkeypatch)
    res = separator(g)
    assert verify_separator(g, res) == (True, None)
    assert graphs.extremes(g) == (100, 49 * 100 + 49, 198, 0)
    pol = SeparatorSweepPolicy(g, 5000)
    cops, _ = pol.placement(g, 5000)
    assert cops == res.separator + (49 * 100 + 49,) * (5000 - len(res.separator))


def test_separator_sweep_placement_refuses_a_team_below_the_separator():
    """The 5x5 grid's first separator has 4 vertices, one cop each."""
    g, _ = gen_grid_dims([5, 5])
    with pytest.raises(TeamBudgetExceeded, match="^needs 4 cops but only 3 available$"):
        SeparatorSweepPolicy(g, 3).placement(g, 3)


def test_three_cop_placement_runs_no_bfs(monkeypatch):
    """Placement guards the initial path with the BFS the constructor ran
    from its first vertex."""
    g, _ = gen_connected_gnp(20, 0.2, 3)
    pol = ThreeCopPlanarPolicy(g)
    calls = []
    monkeypatch.setattr(planar, "bfs_distances", lambda *a: calls.append(a))
    _, state = pol.placement(g, 3)
    assert calls == []
    guard, _ = state.pending
    assert guard.home_dist == tuple(graphs.bfs_distances(g, pol.init_path[0]))


def test_three_cop_stall_counts_from_the_last_progress_round():
    """`move` raises ProgressStall once the round less the last progress
    round exceeds diam + n + 2 (4 + 5 + 2 = 11 on P5). Progress is a phase
    that shrank the territory or ended on a wall (territory 0); a phase
    that did neither, here one at round 9, does not reset the count."""
    g, _ = gen_path(5)
    pol = ThreeCopPlanarPolicy(g)
    cops, start = pol.placement(g, 3)
    for phases, last in [
        ((), 0),
        ((("init", 0, 3, 5), ("I", 2, 7, 3), ("rechase", -1, 9, 4)), 7),
        ((("init", 0, 3, 5), ("rechase", 0, 12, 0), ("rechase", 0, 13, 0)), 13),
    ]:
        state = start._replace(phases=phases)
        pol.move(g, state, cops, 0, last + 11)
        with pytest.raises(ProgressStall, match="^territory stuck for 12 rounds$"):
            pol.move(g, state, cops, 0, last + 12)
