import itertools
import math
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copsrobbers import generators, graphs
from copsrobbers.errors import DisconnectedGraph, NotIsometric, SearchSpaceTooLarge
from copsrobbers.generators import (
    gen_connected_gnp,
    gen_cycle,
    gen_gnp,
    gen_grid,
    gen_grid_dims,
    gen_hypercube,
    gen_path,
    gen_tree,
)
from copsrobbers.graphs import (
    MAXDIST,
    Graph,
    bfs_distances,
    domination_number,
    k_center,
    metrics,
    path_retract,
    step_toward,
    verify_retract,
    RetractMap,
)
from copsrobbers.rng import make_rng

from oracles import (
    all_pairs,
    brute_force_domination,
    brute_force_k_center,
    grid_domination,
    reference_gen_gnp,
    reference_greedy_k_center,
    reference_graph_adj,
    tree_domination,
)


def complete_graph(n):
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


# --- construction invariants


def test_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(2, [[0, 1], [0]])


def test_rejects_asymmetry():
    with pytest.raises(ValueError):
        Graph(2, [[1], []])


def test_rejects_duplicates():
    with pytest.raises(ValueError):
        Graph(2, [[1, 1], [0]])


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])


def test_asymmetry_reports_smallest_pair():
    # Two asymmetric pairs, 0->3 and 1->2: the smaller one is named, whatever
    # order a hash set of pairs would visit them in.
    with pytest.raises(ValueError) as err:
        Graph(4, [[3], [2], [], []])
    assert str(err.value) == "asymmetric adjacency: 0->3 without 3->0"


@pytest.mark.parametrize("bad", [1.0, "1", True])
def test_rejects_non_int_ids(bad):
    with pytest.raises(ValueError, match="must be ints"):
        Graph(2, [[bad], [0]])
    with pytest.raises(ValueError, match="non-int vertex id"):
        Graph.from_edges(2, [(0, bad)])
    with pytest.raises(ValueError, match="non-int vertex id"):
        Graph.from_edges(2, [(bad, 0)])


MUTATIONS = ("drop", "duplicate", "self_loop", "minus_one", "n", "float", "bool", "str")


@st.composite
def adjacency_lists(draw):
    """A random simple graph as unsorted adjacency lists, with up to three
    mutations that each break one construction rule (or, by chance, none)."""
    n = draw(st.integers(0, 8))
    adj = [[] for _ in range(n)]
    for u, v in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            adj[u].append(v)
            adj[v].append(u)
    adj = [draw(st.permutations(row)) for row in adj]
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)) if n else ():
        v = draw(st.integers(0, n - 1))
        row = adj[v]
        at = draw(st.integers(0, len(row)))
        if kind == "drop":
            if row:
                row.pop(at % len(row))
        elif kind == "duplicate":
            if row:
                row.insert(at, row[at % len(row)])
        else:
            bad = {"self_loop": v, "minus_one": -1, "n": n, "bool": True, "str": "0",
                   "float": float(draw(st.integers(0, n - 1)))}[kind]
            row.insert(at, bad)
    return n, adj


def built(n, adj):
    g = Graph(n, adj)
    return g.adj, g.m


def outcome(build, n, adj):
    try:
        return "ok", build(n, adj)
    except ValueError as e:
        return "error", str(e)


@settings(max_examples=400)
@given(adjacency_lists())
def test_constructor_matches_reference(case):
    """Graph accepts exactly what the reference accepts, builds the same
    adj and m, and otherwise raises the same message."""
    n, adj = case
    assert outcome(built, n, adj) == outcome(reference_graph_adj, n, adj)


def fields(g):
    return g.n, g.adj, g.m, g.closed, g.masks


@pytest.mark.parametrize("p", [
    0.0, 0.3, 0.5, 1.0, 0, 1,
    129.5 / 256, 1 / 3, 0.12, 0.02,
    2**-60,  # t0 = 0: every top-byte-0 pair is a tie
    0.999999, math.nextafter(1.0, 0.0),  # t0 = 255
])
def test_gnp_matches_edge_list_reference(p):
    """gen_gnp's matrix build gives the edge-list reference's instance, with
    the same adjacency, edge count, closed rows and masks. The values of p
    take every branch of the top-byte decision: t0 = floor(256 p) from 0 to
    256, and p off and on a multiple of 1/256."""
    for n in range(41):
        for seed in (n, f"s{n}"):
            assert fields(gen_gnp(n, p, seed)) == fields(reference_gen_gnp(n, p, seed))


def test_gnp_settles_tied_pairs_both_ways():
    """A pair whose top byte equals floor(256 p) is settled by random()'s
    exact value. At p = 129.5/256 the tie splits in half, and with seed "t"
    the 76 tied pairs of G(200, p) settle 40 to no edge and 36 to an edge."""
    n, p = 200, 129.5 / 256
    rng = make_rng("t")
    draws = [rng.random() for _ in range(n * (n - 1) // 2)]
    tied = [x < p for x in draws if int(256 * x) == int(256 * p)]
    assert (len(tied), tied.count(False), tied.count(True)) == (76, 40, 36)
    assert fields(gen_gnp(n, p, "t")) == fields(reference_gen_gnp(n, p, "t"))


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_gnp_instance_does_not_depend_on_the_chunk_size(monkeypatch, chunk):
    """The draw fetches its words a few pairs at a time. Chunks shorter than
    a row, and chunks that end inside a row, give the same instances."""
    monkeypatch.setattr(generators, "_GNP_CHUNK", chunk)
    for n in range(12):
        for p in (0.3, 0.5):
            assert fields(gen_gnp(n, p, n)) == fields(reference_gen_gnp(n, p, n))


def test_gnp_holds_one_matrix_beyond_its_graph():
    """gen_gnp(500, 0.5) holds at most the n*n byte matrix and one chunk of
    words beyond the graph it returns: the rows it drew are not kept while
    Graph is built from the matrix."""
    n = 500
    tracemalloc.start()
    try:
        g = gen_gnp(n, 0.5, "trap-1-0:0")
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n == n
    assert peak - current <= n * n + 64 * 1024


def test_connected_gnp_matches_edge_list_reference():
    g, probe = gen_connected_gnp(500, 0.5, "trap-1-0")
    first = next(
        f"trap-1-0:{a}" for a in itertools.count()
        if reference_gen_gnp(500, 0.5, f"trap-1-0:{a}").is_connected()
    )
    assert probe == first
    assert fields(g) == fields(reference_gen_gnp(500, 0.5, probe))


def matrix(n, pairs):
    """The upper-triangular byte matrix with byte (u, v) = value for each
    ((u, v), value) of `pairs`."""
    m = bytearray(n * n)
    for (u, v), value in pairs:
        m[u * n + v] = value
    return bytes(m)


@pytest.mark.parametrize("n, adjacency, message", [
    (3, bytes(8), "row 2 is cut short"),
    (3, bytes(10), "row 3 is past the last vertex"),
    (0, bytes(1), "row 0 is past the last vertex"),
    (3, matrix(3, [((0, 1), 1), ((1, 2), 2)]), r"byte \(1,2\) is 2, not 0 or 1"),
    (3, matrix(3, [((0, 1), 1), ((2, 2), 255)]), r"byte \(2,2\) is 255, not 0 or 1"),
    (3, matrix(3, [((0, 2), 1), ((1, 1), 1)]), r"byte \(1,1\) is set at or below the diagonal"),
    (4, matrix(4, [((0, 1), 1), ((3, 1), 1), ((2, 0), 1)]),
     r"byte \(2,0\) is set at or below the diagonal"),
    # digits, whitespace and separators int() would read are bytes like any other
    (3, matrix(3, [((0, 1), ord("1"))]), r"byte \(0,1\) is 49, not 0 or 1"),
    (3, matrix(3, [((0, 2), ord("0"))]), r"byte \(0,2\) is 48, not 0 or 1"),
    (3, matrix(3, [((1, 2), ord("_"))]), r"byte \(1,2\) is 95, not 0 or 1"),
    (3, matrix(3, [((0, 1), ord(" "))]), r"byte \(0,1\) is 32, not 0 or 1"),
    (3, matrix(3, [((2, 0), 2)]), r"byte \(2,0\) is 2, not 0 or 1"),
    # a bad byte anywhere is named before a set byte at or below the diagonal
    (4, matrix(4, [((1, 0), 1), ((3, 2), 7)]), r"byte \(3,2\) is 7, not 0 or 1"),
], ids=["short", "long", "long-empty", "byte-2", "byte-255", "diagonal", "lower",
        "ascii-1", "ascii-0", "underscore", "space", "byte-2-lower", "bad-byte-first"])
def test_matrix_form_refusals(n, adjacency, message):
    """The byte-matrix form of Graph refuses a wrong length, a byte other
    than 0 or 1, and a set byte on or below the diagonal, naming the first
    offending row."""
    with pytest.raises(ValueError, match=message):
        Graph(n, adjacency)


def test_bytearray_matrix_reads_as_bytes():
    """A bytearray matrix builds the same Graph as the equal bytes, and is
    refused with the same messages."""
    for n, pairs in ((1, []), (2, [((0, 1), 1)]), (4, [((0, 1), 1), ((1, 3), 1), ((2, 3), 1)])):
        m = matrix(n, pairs)
        assert fields(Graph(n, bytearray(m))) == fields(Graph(n, m))
    assert Graph(2, bytearray(b"\0\1\0\0")).adj == ((1,), (0,))
    with pytest.raises(ValueError, match=r"byte \(1,1\) is set at or below the diagonal"):
        Graph(2, bytearray(b"\0\0\0\1"))


@pytest.mark.parametrize("adjacency, v", [
    ([0], 0), ([[], 1], 1), ((None,), 0), (memoryview(b"\0"), 0),
], ids=["int-row", "second-row", "none-row", "memoryview"])
def test_rows_that_are_not_iterable_are_refused(adjacency, v):
    """In the list form, a row that is not an iterable is refused with a
    ValueError naming its vertex. A memoryview is read as a list of int
    rows, not as a matrix."""
    with pytest.raises(ValueError, match=f"neighbours of {v} must be an iterable of ints"):
        Graph(len(adjacency), adjacency)


@settings(max_examples=200)
@given(st.integers(0, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.booleans(), min_size=n * n, max_size=n * n))))
def test_matrix_form_matches_list_form(case):
    """For a random simple graph, the byte matrix and the adjacency lists
    build equal Graphs, with equal edge counts, closed rows and masks."""
    n, bits = case
    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2) if bits[u * n + v]]
    lists = [[] for _ in range(n)]
    for u, v in pairs:
        lists[u].append(v)
        lists[v].append(u)
    from_matrix, from_lists = Graph(n, matrix(n, [(pair, 1) for pair in pairs])), Graph(n, lists)
    assert from_matrix == from_lists and fields(from_matrix) == fields(from_lists)


def test_closed_neighbourhoods_sorted_and_reflexive():
    """closed lists N[v] ascending, and masks holds N[v] as bitmasks."""
    g, _ = gen_path(4)
    assert g.closed[1] == (0, 1, 2)
    assert g.closed[0] == (0, 1)
    assert g.masks == (0b0011, 0b0111, 0b1110, 0b1100)
    g = gen_gnp(30, 0.2, 3)
    assert g.masks == tuple(sum(1 << u for u in row) for row in g.closed)


# --- bfs


def test_bfs_path():
    g, _ = gen_path(7)
    assert bfs_distances(g, 0) == [0, 1, 2, 3, 4, 5, 6]


def test_bfs_hypercube_antipodal():
    g, _ = gen_hypercube(3)
    assert bfs_distances(g, 0)[7] == 3


def test_bfs_disconnected_sentinel():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    d = bfs_distances(g, 0)
    assert d[1] == 1 and d[2] == MAXDIST and d[3] == MAXDIST


# --- metrics


def test_metrics_path():
    g, _ = gen_path(7)
    m = metrics(g)
    assert (m.radius, m.diameter) == (3, 6)


def test_metrics_hypercube_diameter():
    g, _ = gen_hypercube(4)
    assert metrics(g).diameter == 4


def test_metrics_complete():
    m = metrics(complete_graph(5))
    assert (m.radius, m.diameter) == (1, 1)


def test_metrics_disconnected_raises():
    with pytest.raises(DisconnectedGraph):
        metrics(Graph.from_edges(3, [(0, 1)]))


def test_step_toward_an_unreachable_source_raises():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    dist = bfs_distances(g, 0)
    with pytest.raises(DisconnectedGraph, match="^no step from 2 toward the BFS sources$"):
        step_toward(g, dist, 2)


# --- k-center


def test_k_center_path_examples():
    g, _ = gen_path(7)
    assert k_center(g, 1) == k_center(g, 1, "exact")
    assert k_center(g, 1).centers == (3,)
    assert k_center(g, 1).radius == 3
    assert k_center(g, 2).radius == 2
    assert k_center(g, 3).radius == 1
    # counting check: two radius-1 balls cover at most 6 < 7 vertices
    assert 2 * (2 * 1 + 1) < 7


def test_k_center_matches_brute_force_on_path():
    g, _ = gen_path(7)
    for k in (1, 2, 3):
        res = k_center(g, k)
        assert (res.centers, res.radius) == brute_force_k_center(g, k)


def test_k_center_k_ge_n():
    g, _ = gen_path(3)
    res = k_center(g, 5)
    assert res.radius == 0 and res.centers == (0, 1, 2)


@pytest.mark.parametrize("k", [2, 4])
def test_k_center_refuses_an_unknown_mode(k):
    """The mode is checked before the k >= n shortcut too."""
    g, _ = gen_path(4)
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        k_center(g, k, mode="bogus")


def test_k_center_cap(monkeypatch):
    monkeypatch.setattr(graphs, "SUBSET_CAP", 10)
    g, _ = gen_grid(2, 5)
    with pytest.raises(SearchSpaceTooLarge):
        k_center(g, 9)


def test_k_center_cap_checked_before_distances(monkeypatch):
    """C(3200, 2) is over the cap: exact mode refuses before any distance
    ball is grown, or any bitmask row built."""

    def no_balls(*args):
        raise AssertionError("a ball was grown")

    monkeypatch.setattr(graphs, "_balls", no_balls)
    monkeypatch.setattr(graphs, "_grown", no_balls)
    g, _ = gen_path(3200)
    with pytest.raises(SearchSpaceTooLarge):
        k_center(g, 2)
    assert g._masks is None


@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_k_center_runs_one_bfs_from_vertex_0(monkeypatch, mode):
    """The BFS from vertex 0 that tests connectivity is also the greedy
    seeding's first distance list and the packing's order: k_center runs it
    once, where it ran it three times (exact) or twice (greedy)."""
    from_0 = []
    real = graphs.bfs_distances

    def counted(g, sources, allowed=None):
        if sources == 0 or sources == [0]:
            from_0.append(sources)
        return real(g, sources, allowed)

    monkeypatch.setattr(graphs, "bfs_distances", counted)
    for g, k in ((gen_grid(2, 5)[0], 3), (gen_tree(30, 4), 2), (gen_path(7)[0], 2)):
        from_0.clear()
        res = k_center(g, k, mode)
        assert len(from_0) == 1, (g.n, k)
        if mode == "exact":
            assert (res.centers, res.radius) == brute_force_k_center(g, k)
        else:
            assert (res.centers, res.radius) == reference_greedy_k_center(g, k, all_pairs(g))


@given(st.integers(0, 40), st.sampled_from([0.3, 0.5]))
def test_greedy_within_twice_exact(seed, p):
    g = gen_gnp(7, p, seed)
    if not g.is_connected():
        return
    exact = k_center(g, 2).radius
    greedy = k_center(g, 2, "greedy").radius
    assert exact <= greedy <= 2 * exact


@settings(max_examples=80)
@given(st.integers(2, 30), st.sampled_from(["tree", 0.1, 0.3, 0.8]), st.integers(0, 10_000),
       st.integers(1, 6))
def test_greedy_k_center_matches_the_table_version(n, p, seed, k):
    """One multi-source BFS per added center picks the same centers, and
    reaches the same radius, as the scan of the all-pairs table."""
    g = gen_tree(n, seed) if p == "tree" else gen_connected_gnp(n, p, seed)[0]
    res = k_center(g, k, "greedy")
    if k >= g.n:
        assert res == k_center(g, k)
        return
    want = reference_greedy_k_center(g, k, all_pairs(g))
    assert (res.centers, res.radius) == want


def test_exact_k_center_one_center_streams_rows():
    """With k = 1 k_center builds no n x n distance table (6.4 MB on
    path:600 when it did): a tree takes three BFS and any other graph, here
    a cycle, one eccentricities() sweep. Both find the first vertex of least
    eccentricity."""
    for g, want in ((gen_path(600)[0], ((299,), 300)), (gen_cycle(400), ((0,), 200))):
        tracemalloc.start()
        try:
            res = k_center(g, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res == graphs.KCenterResult(*want)
        assert peak < 1 << 20


def test_k_center_one_on_a_tree_runs_three_bfs(monkeypatch):
    """On a tree, exact k_center with k = 1 takes the radius and the least
    centre from the three BFS of eccentricities(), not from the all-sources
    sweep: it matches the sweep on 20 random trees of each size from 1 to 59
    and on paths of 1 to 49 vertices."""
    trees = [gen_tree(n, seed) for n in range(1, 60) for seed in range(20)]
    trees += [gen_path(q)[0] for q in range(1, 50)]
    want = []
    for g in trees:
        ecc = graphs._ecc_sweep(g)
        want.append(graphs.KCenterResult((ecc.index(min(ecc)),), min(ecc)))

    def refuse(g):
        raise AssertionError("k_center ran the eccentricities sweep on a tree")

    monkeypatch.setattr(graphs, "_ecc_sweep", refuse)
    assert [k_center(g, 1) for g in trees] == want


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["gnp", "tree", "grid", "gnp every k", "tree every k"]), st.integers(1, 40),
       st.integers(0, 10_000), st.integers(1, 5), st.sampled_from([0.2, 0.35, 0.5, 0.8]))
def test_ball_search_matches_the_exhaustive_scan(family, n, seed, k, p):
    """Exact k_center returns the exhaustive scan's centers (the
    lexicographically smallest optimal k-set) and radius, and
    domination_number its γ: on G(n, p) with n <= 13, trees with n <= 40,
    and grids of up to 40 vertices. Trees and grids take k <= 3 and check γ
    against a tree DP and the closed forms of 1- to 4-row grids. The "every
    k" families take each k from 2 to n - 1 on G(n, p) with n <= 10 and on
    trees with n <= 14, where covers run deep and end in the next ids."""
    if family == "gnp":
        g = gen_connected_gnp(n % 13 + 1, p, seed)[0]
        gamma = brute_force_domination(g)
    elif family == "gnp every k":
        g = gen_connected_gnp(n % 10 + 1, p, seed)[0]
        gamma = brute_force_domination(g)
    elif family == "tree":
        g, k = gen_tree(n, seed), min(k, 3)
        gamma = tree_domination(g)
    elif family == "tree every k":
        g = gen_tree(n % 14 + 1, seed)
        gamma = tree_domination(g)
    else:
        rows, cols = seed % 4 + 1, n % 10 + 1
        g, k = gen_grid_dims([rows, cols])[0], min(k, 3)
        gamma = grid_domination(rows, cols)
    for k in range(2, g.n) if family.endswith("every k") else (k,):
        res = k_center(g, k)
        assert (res.centers, res.radius) == brute_force_k_center(g, k)
    assert domination_number(g) == gamma


def _cpu(fn, *args):
    start = time.process_time()
    out = fn(*args)
    return out, time.process_time() - start


def test_k_center_two_centers_on_a_long_path():
    """C(800, 2) = 319,600 subsets took the exhaustive scan 50 s; the search
    refutes no radius here, since ceil(r_g / 2) is already the optimum."""
    g, _ = gen_path(800)
    res, cpu = _cpu(k_center, g, 2)
    assert res == graphs.KCenterResult((198, 599), 200)
    assert cpu < 1.0


def test_k_center_many_centers_needs_no_recursion():
    """C(1000, 998) = 499,500 is under the cap. The cover search goes 998
    centers deep on an explicit stack, and naming the centers runs it once
    per center."""
    g, _ = gen_path(1000)
    res, cpu = _cpu(k_center, g, 998)
    assert res == graphs.KCenterResult((*range(997), 998), 1)
    assert cpu < 1.0


def test_k_center_names_the_centers_of_a_large_tree_quickly(monkeypatch):
    """With the cap raised, tree:2000,1 with k = 4 has r = 11. A second
    depth-first search that tried every id up to the largest in the lowest
    uncovered vertex's ball took 6.5-11.8 s to name these centers."""
    monkeypatch.setattr(graphs, "SUBSET_CAP", math.comb(2000, 4) + 1)
    g = gen_tree(2000, 1)
    res, cpu = _cpu(k_center, g, 4)
    assert res == graphs.KCenterResult((0, 4, 6, 14), 11)
    assert cpu < 2.0


@given(st.integers(0, 30))
def test_rad_k_monotone_and_zero_iff_k_ge_n(seed):
    g = gen_gnp(6, 0.5, seed)
    if not g.is_connected():
        return
    radii = [k_center(g, k).radius for k in range(1, g.n + 1)]
    assert all(a >= b for a, b in zip(radii, radii[1:]))
    for k, r in enumerate(radii, start=1):
        assert (r == 0) == (k >= g.n)


# --- domination


def test_domination_examples():
    assert domination_number(complete_graph(5)) == 1
    g, _ = gen_path(7)
    assert domination_number(g) == 3
    q3, _ = gen_hypercube(3)
    assert domination_number(q3) == 2


@given(st.integers(0, 25))
def test_domination_matches_brute_force(seed):
    g = gen_gnp(7, 0.4, seed)
    assert domination_number(g) == brute_force_domination(g)


@pytest.mark.parametrize("name", ["cycle:40", "tree:40,3", "gnp:40,0.1,1"])
def test_domination_on_forty_vertices_is_fast(name):
    """Branching on the highest uncovered vertex keeps these under 20 ms; a
    lexicographic search or branching on the lowest took seconds."""
    if name == "cycle:40":
        g, want = gen_cycle(40), 14  # ceil(n / 3)
    elif name == "tree:40,3":
        g = gen_tree(40, 3)
        want = tree_domination(g)
    else:
        g, want = gen_connected_gnp(40, 0.1, 1)[0], 9  # the branch and bound's value before the ball search
    gamma, cpu = _cpu(domination_number, g)
    assert gamma == want
    assert cpu < 1.0


def test_domination_cap(monkeypatch):
    monkeypatch.setattr(graphs, "DOMINATION_MAX_N", 3)
    g, _ = gen_path(5)
    with pytest.raises(SearchSpaceTooLarge):
        domination_number(g)


# --- retracts


def test_path_retract_identity_on_image():
    g, _ = gen_path(7)
    r = path_retract(g, [0, 1, 2, 3], 0)
    for v in (0, 1, 2, 3):
        assert r.mapping[v] == v


def test_path_retract_cycle_clamp():
    g = gen_cycle(6)
    r = path_retract(g, [0, 1, 2, 3], 0)
    assert r.mapping[3] == 3  # opposite vertex is on the path already
    assert r.mapping[4] == 2
    assert r.mapping[5] == 1
    ok, violation = verify_retract(g, r)
    assert ok, violation


def test_path_retract_whole_path_is_identity():
    g, _ = gen_path(7)
    r = path_retract(g, list(range(7)), 0)
    assert r.mapping == tuple(range(7))


def test_path_retract_accepts_far_anchor():
    g, _ = gen_path(5)
    r = path_retract(g, [0, 1, 2], 2)
    assert r.mapping[4] == 0  # distance from anchor 2 clamps at path length


def test_path_retract_rejects_non_shortest():
    g = gen_cycle(6)
    with pytest.raises(NotIsometric):
        path_retract(g, [0, 1, 2, 3, 4], 0)  # dist(0,4) = 2, path length 4


def test_verify_retract_identity_map():
    g, _ = gen_grid(2, 3)
    r = RetractMap(tuple(range(g.n)))
    assert verify_retract(g, r) == (True, None)


def test_verify_retract_reports_edge_violation():
    g, _ = gen_path(4)
    # send 0 -> 0 and 1 -> 3: edge (0,1) maps to the non-edge (0,3)
    r = RetractMap((0, 3, 2, 3))
    ok, violation = verify_retract(g, r)
    assert not ok and violation == ("edge", (0, 1))


def test_verify_retract_reports_range_violation():
    g, _ = gen_path(3)
    # a homomorphism onto the edge {1, 2} that fixes only 2: 0 -> 1 leaves the image
    r = RetractMap((1, 2, 2))
    assert r.image == {2}
    ok, violation = verify_retract(g, r)
    assert not ok and violation == ("range", 0)


@given(st.integers(0, 40))
def test_path_retract_monotone_k_center(seed):
    """Retract images never have a larger k-center radius than the host."""
    g = gen_gnp(8, 0.4, seed)
    if not g.is_connected():
        return
    dist = all_pairs(g)
    # build a retract onto a diametral shortest path
    far = max(range(g.n), key=lambda v: max(dist[v]))
    end = max(range(g.n), key=lambda v: dist[far][v])
    path = [end]
    while path[-1] != far:
        v = path[-1]
        path.append(min(u for u in g.adj[v] if dist[far][u] == dist[far][v] - 1))
    r = path_retract(g, path, path[0])
    ok, violation = verify_retract(g, r)
    assert ok, violation
    sub, _, _ = g.induced(sorted(r.image))
    for k in (1, 2, 3):
        assert k_center(sub, k).radius <= k_center(g, k).radius
