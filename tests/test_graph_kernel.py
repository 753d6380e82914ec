"""The one BFS kernel and step rule against the reference walks in oracles.py."""

import random
import sys

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from copsrobbers.errors import DisconnectedGraph
from copsrobbers.generators import gen_gnp, gen_tree
from copsrobbers.graphs import MAXDIST, Graph, bfs_distances, component_of, step_toward, walk_toward
from copsrobbers.matching import hopcroft_karp
from copsrobbers.planar import _join_path, _path
from copsrobbers.sphere_trap import _route


def random_graph(seed):
    rng = random.Random(seed)
    g = gen_gnp(rng.randint(1, 10), rng.choice([0.2, 0.4, 0.7]), f"kernel-{seed}")
    return g, rng


def random_subset(rng, n):
    return {v for v in range(n) if rng.random() < 0.6}


@given(st.integers(0, 10_000))
def test_bfs_kernel_matches_oracles(seed):
    g, rng = random_graph(seed)
    single = [oracles.bfs_parents(g, s)[0] for s in range(g.n)]
    for s in range(g.n):
        assert bfs_distances(g, s) == single[s]
    sources = [rng.randrange(g.n) for _ in range(rng.randint(0, 3))]
    assert bfs_distances(g, sources) == [
        min((single[s][v] for s in sources), default=MAXDIST) for v in range(g.n)
    ]
    allowed = random_subset(rng, g.n)
    blocked = random_subset(rng, g.n)
    for s in range(g.n):
        assert bfs_distances(g, s, allowed) == oracles.restricted_dist(g, allowed, s)
        assert component_of(g, s, blocked) == oracles.component_of(g, s, blocked)


@given(st.integers(0, 10_000))
def test_step_rule_matches_oracles(seed):
    g, rng = random_graph(seed)
    everything = set(range(g.n))
    allowed = random_subset(rng, g.n)
    for src in range(g.n):
        dist = bfs_distances(g, src)
        for v in range(g.n):
            if 0 < dist[v] < MAXDIST:
                assert step_toward(g, dist, v) == min(
                    u for u in g.adj[v] if dist[u] == dist[v] - 1
                )
        for dst in range(g.n):
            want = oracles.restricted_path(g, everything, src, dst)
            if want is None:
                with pytest.raises(DisconnectedGraph):
                    walk_toward(g, dist, dst)
                continue
            assert walk_toward(g, dist, dst) == want[::-1]
            assert _route(g, dst, src) == want[::-1]
            want = oracles.restricted_path(g, allowed, src, dst)
            if want is None:
                with pytest.raises(DisconnectedGraph):
                    _path(g, src, dst, allowed)
            else:
                assert _path(g, src, dst, allowed) == want


@given(st.integers(0, 10_000))
def test_tree_step_matches_parent_walk(seed):
    g = gen_tree(random.Random(seed).randint(1, 14), f"kernel-tree-{seed}")
    for h in range(g.n):
        dist, parent = oracles.bfs_parents(g, h)
        for v in range(g.n):
            walked = v
            for _ in range(dist[v] // 2):
                walked = step_toward(g, dist, walked)
            assert walked == oracles.parent_walk(parent, v, dist[v] // 2)
            if v != h:
                assert step_toward(g, dist, v) == parent[v]


@given(st.integers(0, 10_000))
def test_join_path_matches_forbidden_edge_oracle(seed):
    g, rng = random_graph(seed)
    assume(g.n >= 3)
    v1, v2 = rng.sample(range(g.n), 2)
    walls = {v1, v2} | {v for v in range(g.n) if rng.random() < 0.2}
    start = rng.choice([v for v in range(g.n) if v not in walls] or [v1])
    territory = component_of(g, start, walls)
    assume(any(u in territory for u in g.adj[v2]))
    want = oracles.restricted_path(
        g, territory | {v1, v2}, v1, v2, forbidden_edge=(v1, v2)
    )
    if want is None:
        with pytest.raises(DisconnectedGraph):
            _join_path(g, territory, v1, v2)
    else:
        assert _join_path(g, territory, v1, v2) == want


def test_join_path_ignores_direct_edge():
    # 4-cycle 0-1-2-3-0: walls at 0 and 3 share an edge, territory {1, 2}
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert _join_path(g, {1, 2}, 0, 3) == [0, 1, 2, 3]


# --- matching


@given(st.integers(0, 10_000))
def test_iterative_augment_matches_recursive(seed):
    rng = random.Random(seed)
    n_left, n_right = rng.randint(1, 8), rng.randint(1, 8)
    adj = [
        rng.sample(range(n_right), rng.randint(0, n_right)) for _ in range(n_left)
    ]
    assert hopcroft_karp(adj, n_right) == oracles.recursive_hopcroft_karp(adj, n_right)


def test_augmenting_chain_deeper_than_recursion_limit():
    # Greedy first phase matches left u to right u; the last left vertex
    # then needs the single augmenting path through all 1,500 matched pairs,
    # deeper than the default recursion limit of 1,000.
    m = 1500
    adj = [[u, u + 1] for u in range(m)] + [[0]]
    limit = sys.getrecursionlimit()
    size, pair_left, pair_right = hopcroft_karp(adj, m + 1)
    assert sys.getrecursionlimit() == limit
    assert size == m + 1
    assert pair_left == [u + 1 for u in range(m)] + [0]
    assert all(pair_left[pair_right[v]] == v for v in range(m + 1))
