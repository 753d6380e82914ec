"""The two BFS kernels, the eccentricity sweep and the step rule against the
reference walks in oracles.py."""

import math
import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from copsrobbers import graphs, planar
from copsrobbers.errors import DisconnectedGraph
from copsrobbers.generators import (
    gen_connected_gnp,
    gen_cycle,
    gen_gnp,
    gen_grid_dims,
    gen_hypercube,
    gen_path,
    gen_tree,
)
from copsrobbers.graphs import (
    MAXDIST,
    Graph,
    bfs_distances,
    component_of,
    eccentricities,
    k_center,
    metrics,
    step_toward,
    walk_toward,
)
from copsrobbers.matching import hopcroft_karp
from copsrobbers.planar import (
    SeparatorResult,
    SeparatorSweepPolicy,
    ThreeCopPlanarPolicy,
    _join_path,
    _path,
    separator,
)
from copsrobbers.play import play
from copsrobbers.sphere_trap import HallWitnessResult, SphereTrapPolicy, net_radius, trap_matching
from copsrobbers.strategies import StayFarRobber


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


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), st.sampled_from([0.03, 0.08, 0.15, 0.3, 0.6]), st.integers(0, 10**6))
def test_bfs_matches_level_set_reference(n, p, seed):
    """Int and iterable sources, empty sources, sources outside `allowed`,
    random `allowed` sets; sparse p gives disconnected graphs. Each graph is
    searched as gen_gnp built it, from a byte matrix, and built from lists."""
    g = gen_gnp(n, p, f"frontier-{seed}")
    rng = random.Random(seed)
    allowed = random_subset(rng, n)
    sources = rng.sample(range(n), rng.randint(0, min(n, 4)))
    outside = [v for v in range(n) if v not in allowed]
    for h in (g, rows_copy(g)):
        for src in [rng.randrange(n), sources, tuple(sources), set(sources), []]:
            for allow in [None, allowed, frozenset(), range(n)]:
                assert bfs_distances(h, src, allow) == oracles.reference_bfs_distances(h, src, allow)
        assert bfs_distances(h, outside, allowed) == [MAXDIST] * n


def test_bfs_edge_cases():
    empty = Graph(0, [])
    assert bfs_distances(empty, []) == [] == oracles.reference_bfs_distances(empty, [])
    g, _ = gen_path(4)
    for bad in (-1, 4, [0, 4], (-1,)):
        with pytest.raises(ValueError, match="source .* out of range"):
            bfs_distances(g, bad)
    for bad in ({0, 4}, [-1, 0, 1]):
        with pytest.raises(ValueError, match="allowed vertex .* out of range"):
            bfs_distances(g, 0, bad)
    assert bfs_distances(g, [0, 3]) == [0, 1, 1, 0]
    assert bfs_distances(g, 0, {0, 1, 3}) == [0, 1, MAXDIST, MAXDIST]


def blocked_cases(g, rng):
    """(sources, blocked) pairs for a blocked search of g: int, iterable and
    empty sources, sources inside the blocked set, and random, duplicated,
    empty and one-vertex blocked sets."""
    n = g.n
    blocked = random_subset(rng, n)
    sources = rng.sample(range(n), rng.randint(0, min(n, 4)))
    sourcings = [rng.randrange(n), sources, set(sources), sorted(blocked)[:2],
                 sources + sorted(blocked)[:1], []]
    blockings = [blocked, sorted(blocked) * 2, (), frozenset(), [rng.randrange(n)] * 3]
    return [(src, block) for src in sourcings for block in blockings]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), st.sampled_from([0.03, 0.08, 0.15, 0.3, 0.6]), st.integers(0, 10**6))
def test_blocked_search_matches_the_complement_reference(n, p, seed):
    """bfs_distances(g, s, blocked=B) is the level-set reference confined to
    the complement of B, and its `reached` set the vertices at a finite
    distance; sparse p gives disconnected graphs. The graph is searched as
    gen_gnp built it, from a byte matrix, without spelling out a row, and
    built from lists, reading each reached row once. Blocked and allowed
    together confine the search to allowed less blocked."""
    g = gen_gnp(n, p, f"blocked-{seed}")
    rng = random.Random(seed)
    cases = blocked_cases(g, rng)
    allowed = random_subset(rng, n)
    got = []
    for src, block in cases:
        reached = set()
        got.append((bfs_distances(g, src, blocked=block, reached=reached), reached,
                    bfs_distances(g, src, allowed, blocked=block)))
    assert g._adj is None and g._closed is None
    h = rows_copy(g)
    reads = counting_adj(h)
    for (src, block), (dist, seen, both) in zip(cases, got):
        want = oracles.reference_bfs_distances(h, src, set(range(n)).difference(block))
        assert dist == want
        assert seen == {v for v, d in enumerate(want) if d != MAXDIST}
        assert both == oracles.reference_bfs_distances(h, src, allowed.difference(block))
        reads[0] = 0
        reached = set()
        assert bfs_distances(h, src, blocked=block, reached=reached) == want
        assert reached == seen
        assert reads[0] == reached_degrees(h, want)


def test_blocked_search_edge_cases():
    """An out-of-range blocked id is a ValueError naming it, on both forms;
    blocking every vertex, or the only source, reaches nothing; a one-shot
    iterator blocks as a list does; and component_of is empty from a
    blocked start."""
    g, _ = gen_path(4)
    matrix = gen_gnp(4, 1.0, "blocked-edge")
    for h in (g, matrix):
        for bad, name in (({0, 4}, 4), ([-1, 2], -1), ((7,), 7)):
            with pytest.raises(ValueError, match=f"blocked vertex {name} out of range"):
                bfs_distances(h, 0, blocked=bad)
        assert bfs_distances(h, [0, 3], blocked=range(4)) == [MAXDIST] * 4
        assert bfs_distances(h, 0, blocked={0}) == [MAXDIST] * 4
        assert component_of(h, 1, blocked={1, 2}) == set()
    assert bfs_distances(g, 0, blocked=[2, 2]) == [0, 1, MAXDIST, MAXDIST]
    assert bfs_distances(g, 0, blocked=(v for v in [2, 3])) == [0, 1, MAXDIST, MAXDIST]
    assert component_of(g, 3, blocked=[1]) == {2, 3}
    empty = Graph(0, [])
    assert bfs_distances(empty, [], blocked=()) == []


def counting_adj(g):
    """Swap g's rows for tuples that count every entry read through them;
    returns the one-item counter list."""
    reads = [0]

    class Row(tuple):
        def __iter__(self):
            for u in tuple.__iter__(self):
                reads[0] += 1
                yield u

    g._adj = tuple(Row(row) for row in g.adj)
    return reads


def rows_copy(g):
    """The same graph built from its adjacency lists."""
    return Graph(g.n, g.adj)


def reached_degrees(g, dist):
    """The row entries a search that reads each reached vertex's row once
    reads: the sum of deg(v) over the vertices `dist` reaches."""
    return sum(g.degree(v) for v, d in enumerate(dist) if d != MAXDIST)


def split_gnp(n, p, seed):
    """Two dense G(n, p) blocks and three isolated vertices under a random
    relabelling: every search leaves most of the graph unreached."""
    rng = random.Random(seed)
    a = n // 3
    blocks = [gen_gnp(a, p, f"split-a-{seed}"), gen_gnp(n - a - 3, p, f"split-b-{seed}")]
    label = rng.sample(range(n), n)
    edges = [(label[u], label[v]) for u, v in blocks[0].edges()]
    edges += [(label[a + u], label[a + v]) for u, v in blocks[1].edges()]
    return Graph.from_edges(n, edges)


@settings(max_examples=40, deadline=None)
@given(st.integers(40, 200), st.floats(0.2, 0.95), st.integers(0, 10**6), st.booleans())
def test_bfs_on_dense_graphs_matches_level_set_reference(n, p, seed, split):
    """Dense graphs built from lists: one source, many sources with repeats,
    random and empty `allowed` sets, and graphs in pieces. Every search
    also reads exactly the rows of the vertices it reaches, each once."""
    g = split_gnp(n, p, seed) if split else rows_copy(gen_gnp(n, p, f"dense-{seed}"))
    rng = random.Random(seed)
    many = [rng.randrange(n) for _ in range(rng.randint(2, n // 2))]
    sourcings = [rng.randrange(n), many + many[:3], [rng.randrange(n)]]
    allowings = [None, {v for v in range(n) if rng.random() < rng.uniform(0.3, 0.9)}, frozenset()]
    expected = [[oracles.reference_bfs_distances(g, src, allow) for allow in allowings]
                for src in sourcings]
    reads = counting_adj(g)
    for src, row in zip(sourcings, expected):
        for allow, want in zip(allowings, row):
            reads[0] = 0
            assert bfs_distances(g, src, allow) == want
            assert reads[0] == reached_degrees(g, want)


def test_bfs_after_failed_bottom_up_scans():
    """Five levels of 60 vertices, consecutive ones completely joined, beside
    an unreachable G(200, 0.5): the graph on which a bottom-up step would
    scan every row of the far block in vain. The queue search reads the
    rows of the five levels, each once, and no entry of the far block."""
    far = gen_gnp(200, 0.5, "far-block")
    levels = [[0]] + [list(range(1 + 60 * i, 61 + 60 * i)) for i in range(4)]
    edges = [(u, v) for a, b in zip(levels, levels[1:]) for u in a for v in b]
    edges += [(241 + u, 241 + v) for u, v in far.edges()]
    g = Graph.from_edges(441, edges)
    want = oracles.reference_bfs_distances(g, 0)
    reads = counting_adj(g)
    assert bfs_distances(g, 0) == want
    assert reads[0] == reached_degrees(g, want) == 2 * (g.m - far.m)
    assert reads[0] <= 2 * 2 * g.m


def test_bfs_work_bound():
    """A search of a graph built from lists reads exactly the row entries of
    the vertices it reaches, each row once: on G(500, 0.5), paths, grids
    and trees."""
    inputs = [rows_copy(gen_gnp(500, 0.5, "work-bound")), gen_path(300)[0],
              gen_grid_dims([20, 20])[0], gen_grid_dims([6, 6, 6])[0], gen_tree(300, 1)]
    for g in inputs:
        sourcings = [0, g.n // 2, list(range(0, g.n, 7))]
        want = [oracles.reference_bfs_distances(g, src) for src in sourcings]
        reads = counting_adj(g)
        for src, dist in zip(sourcings, want):
            reads[0] = 0
            assert bfs_distances(g, src) == dist
            assert 0 < reads[0] == reached_degrees(g, dist)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 120), st.sampled_from([0.02, 0.1, 0.3, 0.5, 0.9]), st.integers(0, 10**6))
def test_bfs_on_matrix_built_graphs_reads_only_masks(n, p, seed):
    """A graph straight from gen_gnp is searched level by level over its
    masks: one source, many sources with repeats, sources outside
    `allowed`, random, empty and full `allowed` sets, each against the
    level-set reference. The searches spell out no adjacency list, and the
    reference reads another instance of the same graph."""
    g, twin = gen_gnp(n, p, f"masks-{seed}"), gen_gnp(n, p, f"masks-{seed}")
    rng = random.Random(seed)
    many = [rng.randrange(n) for _ in range(rng.randint(2, max(2, n // 2)))] if n else []
    allowed = random_subset(rng, n)
    sourcings = [many + many[:3], [], list(set(range(n)) - allowed)] + (
        [rng.randrange(n), 0, n - 1] if n else [])
    allowings = [None, allowed, frozenset(), range(n)]
    got = [[bfs_distances(g, src, allow) for allow in allowings] for src in sourcings]
    assert g._adj is None and g._closed is None
    assert got == [[oracles.reference_bfs_distances(twin, src, allow) for allow in allowings]
                   for src in sourcings]
    # once the rows are spelled out, the search still reads none of them
    assert g.adj == twin.adj
    reads = counting_adj(g)
    assert bfs_distances(g, many, allowed) == got[0][1]
    assert bfs_distances(g, many) == got[0][0]
    assert reads[0] == 0


def test_dense_trap_game_spells_out_no_rows():
    """A sphere-trap game on a connected G(200, 0.5), as the random_graphs
    suite plays it, reads the masks alone: the generator's connectivity
    test, the robber's placement, the trap and the referee build neither
    `adj` nor `closed`. The same game on the graph built from lists plays
    the same transcript."""
    n, p = 200, 0.5
    k = math.ceil(10 * math.sqrt(n * math.log(n)))
    g, probe = gen_connected_gnp(n, p, "masks-game")
    r = net_radius(n, p * (n - 1), k, 10.0)

    def game(h):
        policy = SphereTrapPolicy(h, k, r, mode="general", seed=probe)
        return play(h, k, policy, StayFarRobber(), max_rounds=50)

    transcript = game(g)
    assert g._adj is None and g._closed is None
    assert transcript.metadata["cop"]["matching_saturated"]
    assert game(rows_copy(g)).to_json() == transcript.to_json()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.sampled_from([0.1, 0.3, 0.7]), st.integers(0, 10**6))
def test_is_step_on_both_forms(n, p, seed):
    """Graph.is_step(a, b) is b in N[a] on a matrix-built graph (a mask
    bit), on a list-built one before its masks exist (a bisection of
    `closed`) and after (a mask bit again)."""
    g = gen_gnp(n, p, f"step-{seed}")
    rows = rows_copy(g)
    want = [[b == a or b in g.adj[a] for b in range(n)] for a in range(n)]
    assert [[g.is_step(a, b) for b in range(n)] for a in range(n)] == want
    assert [[rows.is_step(a, b) for b in range(n)] for a in range(n)] == want
    assert rows._masks is None
    rows.masks
    assert [[rows.is_step(a, b) for b in range(n)] for a in range(n)] == want


def star(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


ECC_FAMILIES = (
    [("K1", Graph(1, [()])), ("K2", Graph.from_edges(2, [(0, 1)]))]
    + [(f"P{q}", gen_path(q)[0]) for q in (3, 8, 31)]
    + [(f"star{q}", star(q)) for q in (1, 2, 9)]
    + [(f"grid{a}x{b}", gen_grid_dims([a, b])[0]) for a, b in ((1, 5), (3, 3), (4, 7), (10, 10))]
    + [("grid3x3x3", gen_grid_dims([3, 3, 3])[0])]
    + [(f"Q{d}", gen_hypercube(d)[0]) for d in (3, 4, 5)]
)


@pytest.mark.parametrize("name,g", ECC_FAMILIES, ids=[name for name, _ in ECC_FAMILIES])
def test_eccentricities_on_families(name, g):
    assert eccentricities(g) == oracles.reference_eccentricities(g)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 30), st.sampled_from([0.1, 0.2, 0.4, 0.8]), st.integers(0, 10**6))
def test_eccentricities_on_random_connected_graphs(n, p, seed):
    g, _ = gen_connected_gnp(n, p, seed)
    ecc = oracles.reference_eccentricities(g)
    assert eccentricities(g) == ecc
    m = metrics(g)
    assert (m.radius, m.diameter, m.eccentricities) == (min(ecc), max(ecc), tuple(ecc))


@pytest.mark.parametrize("batch", [1, 2, 3, 7, 64])
def test_eccentricities_in_batches(monkeypatch, batch):
    """Graphs larger than one batch of sources: every batch width, including
    a last batch narrower than the rest, gives the n-BFS eccentricities.
    Trees take three BFS, so a non-tree family (grid10x10) is the one that
    sends more vertices than a batch through the sweep."""
    monkeypatch.setattr(graphs, "ECC_BATCH", batch)
    assert any(g.m != g.n - 1 and g.n > batch for _, g in ECC_FAMILIES)
    for _, g in ECC_FAMILIES:
        assert eccentricities(g) == oracles.reference_eccentricities(g)
    for seed in range(10):
        g, _ = gen_connected_gnp(20 + seed, 0.12, seed)
        assert eccentricities(g) == oracles.reference_eccentricities(g)
    with pytest.raises(DisconnectedGraph):
        eccentricities(Graph.from_edges(9, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7)]))


def test_tree_eccentricities_match_one_bfs_per_vertex(monkeypatch):
    """A tree's eccentricities come from three BFS, not the all-sources
    sweep, and match one BFS per vertex: on three random trees of each size
    from 1 to 59 and on paths of 1 to 49 vertices."""
    trees = [gen_tree(n, seed) for n in range(1, 60) for seed in range(3)]
    trees += [gen_path(q)[0] for q in range(1, 50)]
    monkeypatch.setattr(graphs, "_ecc_sweep", lambda g: pytest.fail("swept a tree"))
    for g in trees:
        assert eccentricities(g) == oracles.reference_eccentricities(g)


def test_eccentricities_with_n_minus_one_edges():
    """m = n - 1 on a disconnected graph, a triangle beside a path, raises
    the sweep's message; one vertex has eccentricity 0."""
    g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    with pytest.raises(DisconnectedGraph, match="^eccentricities require a connected graph$"):
        eccentricities(g)
    assert eccentricities(Graph(1, [()])) == [0]
    assert graphs.extremes(Graph(1, [()])) == (0, 0, 0, 0)


def l_piece(a, b):
    """The a x b grid less its top-right quarter, an L-shaped grid piece."""
    g, _ = gen_grid_dims([a, b])
    return g.induced([v for v in range(g.n) if v // b < a // 2 or v % b < b // 2])[0]


def complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


EXTREMES_FAMILIES = (
    list(ECC_FAMILIES)
    + [(f"C{q}", gen_cycle(q)) for q in (3, 4, 9, 32, 40, 61)]
    + [(f"Q{d}", gen_hypercube(d)[0]) for d in (2, 6)]
    + [(f"K{q}", complete(q)) for q in (2, 5, 12)]
    + [("K12-e", Graph.from_edges(12, [e for e in complete(12).edges() if e != (3, 7)])),
       ("wheel9", Graph.from_edges(9, [(0, v) for v in range(1, 9)]
                                   + [(v, v % 8 + 1) for v in range(1, 9)]))]
    + [(f"L{a}x{b}", l_piece(a, b)) for a, b in ((4, 4), (6, 9), (12, 12), (20, 7), (21, 30))]
    + [(f"gnp{n}-{p}-{seed}", gen_connected_gnp(n, p, seed)[0])
       for n, p in ((12, 0.2), (12, 0.5), (40, 0.08), (40, 0.3), (90, 0.05), (90, 0.2))
       for seed in range(3)]
)


@pytest.mark.parametrize("batch", [graphs.ECC_BATCH, 1])
def test_extremes_match_one_bfs_per_vertex(monkeypatch, batch):
    """extremes() is the least and largest eccentricity, each with its first
    vertex. With the default batch, grids and their pieces settle by bounds
    without the sweep; cycles, whose vertices look alike, run it after five
    probes, and graphs whose sweep has under 16 rounds (Q6) run it after
    the one BFS from vertex 0. Complete graphs, where that BFS finds vertex
    0 universal, need nothing more. With one source per batch the sweep has
    n times as many rounds, so every graph settles by bounds but those whose
    sweep still has under 16 rounds."""
    monkeypatch.setattr(graphs, "ECC_BATCH", batch)
    sweep, bfs = graphs._ecc_sweep, graphs.bfs_distances
    calls = []
    monkeypatch.setattr(graphs, "_ecc_sweep", lambda g: calls.append("sweep") or sweep(g))
    monkeypatch.setattr(graphs, "bfs_distances", lambda *a: calls.append("bfs") or bfs(*a))
    paths = {}
    for name, g in EXTREMES_FAMILIES:
        ecc = oracles.reference_eccentricities(g)
        calls.clear()
        radius, diameter = min(ecc), max(ecc)
        assert graphs.extremes(g) == (radius, ecc.index(radius), diameter, ecc.index(diameter)), name
        paths[name] = (calls.count("bfs"), "sweep" in calls)
    assert paths["K12"] == paths["K12-e"] == paths["wheel9"] == (1, False)
    if batch == 1:
        assert all(count == 1 for count, swept in paths.values() if swept)
        assert paths["C40"] == (40, False)
        return
    assert not any(paths[name][1] for name in ("grid10x10", "L12x12", "L20x7", "L21x30"))
    assert paths["C40"] == paths["C61"] == (5, True)
    assert paths["Q6"] == (1, True)


@pytest.mark.parametrize(
    "g",
    [
        Graph.from_edges(2, []),
        Graph.from_edges(4, [(0, 1), (2, 3)]),
        Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        Graph.from_edges(4, [(1, 2), (2, 3), (1, 3)]),
    ],
    ids=["two_isolated", "two_edges", "path_plus_isolated", "triangle_plus_isolated"],
)
def test_eccentricities_reject_disconnected(g, monkeypatch):
    with pytest.raises(DisconnectedGraph):
        eccentricities(g)
    with pytest.raises(DisconnectedGraph, match="metrics require a connected graph"):
        graphs.extremes(g)
    with pytest.raises(DisconnectedGraph, match="metrics require a connected graph"):
        SeparatorSweepPolicy(g, 4)
    monkeypatch.setattr(graphs, "SUBSET_CAP", 0)  # connectivity is refused first
    for mode in ("exact", "greedy"):
        with pytest.raises(DisconnectedGraph, match="k-center requires a connected graph"):
            k_center(g, 1, mode)
    with pytest.raises(DisconnectedGraph, match="metrics require a connected graph"):
        metrics(g)
    with pytest.raises(DisconnectedGraph, match="separator needs a connected graph"):
        separator(g)
    with pytest.raises(DisconnectedGraph, match="three-cop policy needs a connected graph"):
        ThreeCopPlanarPolicy(g)


def test_extremes_refuse_an_empty_graph():
    """extremes() and the separator sweep's build keep metrics()' message on
    a graph with no vertex."""
    g = Graph(0, [])
    for build in (graphs.metrics, graphs.extremes, lambda g: SeparatorSweepPolicy(g, 1)):
        with pytest.raises(DisconnectedGraph, match="^empty graph has no metrics$"):
            build(g)


def recorded_bfs_sources(monkeypatch):
    calls = []
    kernel = planar.bfs_distances

    def recording(g, sources, allowed=None):
        calls.append(sources)
        return kernel(g, sources, allowed)

    monkeypatch.setattr(planar, "bfs_distances", recording)
    return calls


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24), st.sampled_from([0.1, 0.25, 0.5]), st.integers(0, 10**6))
def test_separator_root_and_init_path_match_one_bfs_per_vertex(n, p, seed):
    """The separator's root and result, and the three-cop policy's initial
    diametral path, are those an n-BFS eccentricity scan picks; each runs
    one BFS of its own from that root."""
    g, _ = gen_connected_gnp(n, p, seed)
    root, sep, side_a, side_b = oracles.reference_separator(g)
    with pytest.MonkeyPatch.context() as mp:
        calls = recorded_bfs_sources(mp)
        assert separator(g) == SeparatorResult(sep, side_a, side_b)
        assert calls == [root]
        calls.clear()
        policy = ThreeCopPlanarPolicy(g)
        assert calls == [root]
    du = oracles.reference_bfs_distances(g, root)
    far = du.index(max(du))
    assert policy.diam == max(du)
    assert policy.init_path == tuple(oracles.restricted_path(g, set(range(n)), root, far))


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
            # one cop at dst trapping the radius-0 sphere {src}: its route
            trap = trap_matching(g, [dst], dist, 0, g.n, mode="general")
            if want is None:
                with pytest.raises(DisconnectedGraph):
                    walk_toward(g, dist, dst)
                assert isinstance(trap, HallWitnessResult)
                continue
            assert walk_toward(g, dist, dst) == want[::-1]
            assert trap.routes == {0: tuple(want[::-1])}
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
    assert hopcroft_karp(adj, n_right)[:3] == oracles.recursive_hopcroft_karp(adj, n_right)


def test_augmenting_chain_deeper_than_recursion_limit():
    # Greedy first phase matches left u to right u; the last left vertex
    # then needs the single augmenting path through all 1,500 matched pairs,
    # deeper than the default recursion limit of 1,000.
    m = 1500
    adj = [[u, u + 1] for u in range(m)] + [[0]]
    limit = sys.getrecursionlimit()
    size, pair_left, pair_right, deficient = hopcroft_karp(adj, m + 1)
    assert sys.getrecursionlimit() == limit
    assert size == m + 1 and deficient == []
    assert pair_left == [u + 1 for u in range(m)] + [0]
    assert all(pair_left[pair_right[v]] == v for v in range(m + 1))
