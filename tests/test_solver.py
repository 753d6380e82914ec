import gc
import itertools
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copsrobbers import solver
from copsrobbers.errors import StateBudgetExceeded
from copsrobbers.generators import gen_cycle, gen_gnp, gen_grid, gen_grid_dims, gen_hypercube, gen_path, gen_tree
from copsrobbers.graphs import MAXDIST, Graph, domination_number, k_center
from copsrobbers.play import play
from copsrobbers.solver import (
    COP,
    ROB,
    audit_fixed_point,
    capture_time,
    cop_number,
    estimate_cost,
    extract_policies,
    solve,
    _sweep,
)

from oracles import (
    INF,
    counter_retrograde,
    dense_best_placement,
    dense_cop_move,
    dense_robber_choice,
    naive_capture_time,
    naive_game_values,
    reference_erosion_tables,
    reference_solver_cop_move,
)


def assert_matches_oracle(g, k):
    table = solve(g, k)
    vc, vr = naive_game_values(g, k)
    for (C, r), want in vc.items():
        got = table.value(C, r, COP)
        assert got == (MAXDIST if want == INF else want), (C, r, "cop")
    for (C, r), want in vr.items():
        got = table.value(C, r, ROB)
        assert got == (MAXDIST if want == INF else want), (C, r, "rob")


def test_oracle_path_one_cop():
    assert_matches_oracle(gen_path(5)[0], 1)


def test_oracle_cycle_one_and_two_cops():
    c4 = gen_cycle(4)
    assert_matches_oracle(c4, 1)
    assert_matches_oracle(c4, 2)
    assert_matches_oracle(gen_cycle(5), 2)


def test_oracle_hypercube():
    q3, _ = gen_hypercube(3)
    assert_matches_oracle(q3, 1)


@given(st.integers(0, 12), st.integers(1, 2))
def test_oracle_random_graphs(seed, k):
    g = gen_gnp(5, 0.5, seed)
    assert_matches_oracle(g, k)


def dense_values(table, mover):
    """The table's values in counter_retrograde's layout: index
    config_index * n + robber, None for robber-win states."""
    vals = (table.value(cfg, r, mover) for cfg in table.configs for r in range(table.graph.n))
    return [None if v == MAXDIST else v for v in vals]


def assert_matches_counter_retrograde(g, k):
    """The bitset sweep settles the same states at the same levels as the
    per-state counter pass, with the same joint-move sets, in ascending rows."""
    table = solve(g, k)
    val_cop, val_rob, visited, moves = counter_retrograde(g, k)
    assert dense_values(table, COP) == val_cop
    assert dense_values(table, ROB) == val_rob
    assert table.states_visited == visited
    for ci, want in enumerate(moves):
        row = table.joint_moves(ci)
        assert set(row) == want, table.configs[ci]
        assert all(a < b for a, b in zip(row, row[1:])), table.configs[ci]


def assert_choices_match_dense_scans(g, k):
    """best_placement and both extracted policies choose, at every config
    and robber vertex, what a full scan of the dense values chooses."""
    table = solve(g, k)
    val_cop, val_rob, _, moves = counter_retrograde(g, k)
    n, configs = g.n, table.configs
    assert table.best_placement() == dense_best_placement(configs, n, val_cop)
    cop_pol, rob_pol = extract_policies(table)
    for ci, cfg in enumerate(configs):
        assert rob_pol.placement(g, cfg) == dense_robber_choice(val_cop, n, ci, range(n)), cfg
        for r in range(n):
            want = configs[dense_cop_move(val_rob, n, moves[ci], r)]
            assert tuple(sorted(cop_pol.move(g, None, cfg, r, 1)[0])) == want, (cfg, r)
            want = dense_robber_choice(val_cop, n, ci, g.closed[r])
            assert rob_pol.move(g, cfg, r, 1) == want, (cfg, r)


@pytest.mark.parametrize(
    "g,k",
    [(gen_path(6)[0], k) for k in (1, 2, 3)]
    + [(gen_grid_dims([3, 3])[0], k) for k in (1, 2)]
    + [(gen_gnp(7, 0.4, seed), k) for seed in (0, 1) for k in (1, 2, 3)],
    ids=[f"path6-k{k}" for k in (1, 2, 3)] + [f"grid3x3-k{k}" for k in (1, 2)]
    + [f"gnp7-s{seed}-k{k}" for seed in (0, 1) for k in (1, 2, 3)],
)
def test_cop_move_matches_the_permutation_realiser(g, k):
    """At every ordered cop tuple and robber vertex, the one minimum over
    per-cop steps is the move of joint_moves plus the first legal
    permutation of the chosen config."""
    table = solve(g, k)
    cop_pol, _ = extract_policies(table)
    for cops in itertools.product(range(g.n), repeat=k):
        for r in range(g.n):
            assert cop_pol.move(g, None, cops, r, 1)[0] == reference_solver_cop_move(table, cops, r), (cops, r)


def robber_win_and_disconnected_cases():
    q3, _ = gen_hypercube(3)
    two_triangles = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    return (
        (gen_cycle(4), 1), (gen_cycle(5), 1), (q3, 1), (q3, 2),
        (two_triangles, 1), (two_triangles, 2), (Graph.from_edges(1, []), 1),
    )


def test_counter_retrograde_robber_win_and_disconnected():
    for g, k in robber_win_and_disconnected_cases():
        assert_matches_counter_retrograde(g, k)
        assert_choices_match_dense_scans(g, k)


@settings(max_examples=60)
@given(st.integers(1, 9), st.sampled_from([0.0, 0.2, 0.4, 0.6, 0.9]), st.integers(0, 10_000),
       st.integers(1, 3))
def test_counter_retrograde_random_graphs(n, p, seed, k):
    assert_matches_counter_retrograde(gen_gnp(n, p, seed), k)


def assert_images_symmetric(g, k):
    """Every image of the sweep, the OR of its mover's changes so far, holds
    in each ordering of a cop tuple the robber bits of its sorted cell, and
    no bit at or above n; the yielded full tuple is the first tuple whose
    cop cell is full, once one is."""
    n = g.n
    cell = (n + 7) // 8
    chunk = n ** (k - 1) * cell
    offsets = {t: sum(c * n ** (k - 1 - i) for i, c in enumerate(t)) * cell
               for t in itertools.product(range(n), repeat=k)}
    full_cell = ((1 << n) - 1).to_bytes(cell, "little")
    placed = None
    images = [0] * n, [0] * n
    for full, *changes in _sweep(g, k):
        for chunks, changed in zip(images, changes):
            for v, x in changed:
                chunks[v] |= x
            img = b"".join(x.to_bytes(chunk, "little") for x in chunks)
            for t, o in offsets.items():
                s = offsets[tuple(sorted(t))]
                assert img[o:o + cell] == img[s:s + cell], t
                assert int.from_bytes(img[o:o + cell], "little") >> n == 0, t
        cop = b"".join(x.to_bytes(chunk, "little") for x in images[0])
        placed = placed or next((t for t, o in offsets.items() if cop[o:o + cell] == full_cell), None)
        assert full == placed


# (n, k) shapes of the ordered-tuple layout: k = 4 and 5 rotate through more
# than three coordinates, n = 9..17 spans several bytes per cell, and n = 8
# and 16 fill their last byte.
LAYOUT_SHAPES = ([(n, k) for k in (4, 5) for n in range(1, 11 - k)]
                 + [(n, k) for n in range(9, 18) for k in (1, 2)]
                 + [(8, 3), (1, 1), (1, 3)])


@st.composite
def layout_graphs(draw):
    """A graph and a k from LAYOUT_SHAPES: G(n, p), a path, a star, or two
    G(n, p) pieces side by side with no edge between them."""
    n, k = draw(st.sampled_from(LAYOUT_SHAPES))
    family = draw(st.sampled_from(["gnp", "path", "star", "split"]))
    p = draw(st.sampled_from([0.0, 0.3, 0.6, 1.0]))
    seed = draw(st.integers(0, 10_000))
    if family == "path":
        return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)]), k
    if family == "star":
        return Graph.from_edges(n, [(0, v) for v in range(1, n)]), k
    if family == "split" and n >= 2:
        a = draw(st.integers(1, n - 1))
        left, right = gen_gnp(a, p, seed), gen_gnp(n - a, p, seed + 1)
        edges = [(u, v) for u in range(a) for v in left.adj[u] if u < v]
        edges += [(a + u, a + v) for u in range(n - a) for v in right.adj[u] if u < v]
        return Graph.from_edges(n, edges), k
    return gen_gnp(n, p, seed), k


@settings(max_examples=150, deadline=None)
@given(layout_graphs())
def test_counter_retrograde_ordered_layout(case):
    g, k = case
    assert_matches_counter_retrograde(g, k)
    assert_images_symmetric(g, k)


def test_images_symmetric_robber_win_and_disconnected():
    for g, k in robber_win_and_disconnected_cases():
        assert_images_symmetric(g, k)


@settings(max_examples=40)
@given(st.integers(1, 9), st.sampled_from([0.0, 0.2, 0.4, 0.6, 0.9]), st.integers(0, 10_000),
       st.integers(1, 3))
def test_choices_match_dense_scans_random_graphs(n, p, seed, k):
    assert_choices_match_dense_scans(gen_gnp(n, p, seed), k)


def test_each_state_settles_at_one_level():
    """Per mover, each chunk's levels strictly ascend, its entries are
    pairwise disjoint, their OR is the chunk's packed final image (the cells
    of its configs, in config order, with the bits of the states
    counter_retrograde settles), and their popcounts sum to states_visited:
    on grid 5x5 (4-byte cells) and path:20 (3-byte cells) with k = 2, on
    tree:12,1 with k = 3, and on Q3 with k = 3."""
    q3, _ = gen_hypercube(3)
    cases = ((gen_grid_dims([5, 5])[0], 2), (gen_path(20)[0], 2), (gen_tree(12, 1), 3), (q3, 3))
    for g, k in cases:
        table = solve(g, k)
        table.settle()
        n, cell = g.n, (g.n + 7) // 8
        val_cop, val_rob, visited, _ = counter_retrograde(g, k)
        total = 0
        for mover, vals in ((COP, val_cop), (ROB, val_rob)):
            final = {}
            for ci, cfg in enumerate(table.configs):
                bits = sum(1 << r for r in range(n) if vals[ci * n + r] is not None)
                final[cfg[0]] = final.get(cfg[0], b"") + bits.to_bytes(cell, "little")
            union = dict.fromkeys(final, 0)
            for v, found in table.chunk_levels[mover].items():
                levels = [level for level, _ in found]
                assert levels and all(a < b for a, b in zip(levels, levels[1:])), (g, k, mover, v)
                for _, cells in found:
                    x = int.from_bytes(cells, "little")
                    assert x & union[v] == 0, (g, k, mover, v)
                    union[v] |= x
                    total += x.bit_count()
            assert {v: x.to_bytes(len(final[v]), "little") for v, x in union.items()} == final
        assert total == table.states_visited == visited


def test_level_entries_hold_only_the_sorted_cells():
    """Every stored entry of chunk v is exactly (configs in chunk v) x cell
    bytes: the sweep packs a chunk to its configs' cells and stores no
    whole-chunk copy (n**(k-1) cells), on tree:12,1 with k = 3 and path:20
    with k = 2."""
    for g, k in ((gen_tree(12, 1), 3), (gen_path(20)[0], 2)):
        table = solve(g, k)
        table.settle()
        cell = (g.n + 7) // 8
        size = {v: sum(c[0] == v for c in table.configs) * cell for v in range(g.n)}
        lengths = [(v, len(cells)) for store in table.chunk_levels
                   for v, found in store.items() for _, cells in found]
        assert lengths and all(got == size[v] for v, got in lengths)


def test_solve_rejects_the_empty_graph():
    empty = Graph(0, [])
    with pytest.raises(ValueError):
        solve(empty, 1)
    assert capture_time(empty, 1) == 0


# --- value examples


def test_k2_all_values_at_most_one():
    g = Graph.from_edges(2, [(0, 1)])
    table = solve(g, 1)
    for C in table.configs:
        for r in range(2):
            assert table.value(C, r, COP) <= 1


def test_p3_center_value():
    g, _ = gen_path(3)
    table = solve(g, 1)
    assert table.value((1,), 0, COP) == 1
    assert table.value((1,), 2, COP) == 1


def test_c4_one_cop_has_robber_wins():
    table = solve(gen_cycle(4), 1)
    robber_wins = [
        (C, r)
        for C in table.configs
        for r in range(4)
        if table.value(C, r, ROB) == MAXDIST
    ]
    assert robber_wins  # one cop cannot corner on a cycle


# --- capture times


def test_capture_time_examples():
    assert capture_time(gen_path(7)[0], 1) == 3
    assert capture_time(gen_grid_dims([3, 3])[0], 2) == 2
    assert capture_time(gen_hypercube(3)[0], 2) == 1


def test_capture_time_q4_three_cops():
    q4, _ = gen_hypercube(4)
    capt = capture_time(q4, 3)
    assert capt >= 2
    # counting threshold admits three cops: 3 < 16 / (1 + 4)
    assert 3 * (1 + 4) < 16


def test_capture_time_matches_naive_on_smalls():
    for g in (gen_path(4)[0], gen_cycle(5), gen_tree(6, 3)):
        for k in (1, 2):
            want = naive_capture_time(g, k)
            got = capture_time(g, k)
            assert got == (MAXDIST if want == INF else want)


def test_capture_time_k_ge_n_fast_path():
    g, _ = gen_path(4)
    assert capture_time(g, 4) == 0
    assert capture_time(g, 9) == 0
    # agreement with a full solve at k = n on a tiny instance
    table = solve(g, 4)
    assert table.capture_time() == 0


# --- cop number


def test_cop_number_trees_is_one():
    for seed in range(5):
        assert cop_number(gen_tree(8, seed)) == 1


def test_cop_number_cycle_and_cube():
    assert cop_number(gen_cycle(4)) == 2
    assert cop_number(gen_hypercube(3)[0]) == 2
    assert cop_number(gen_hypercube(2)[0]) == 2


# --- invariants


@given(st.integers(0, 15))
def test_monotone_endpoints_lower_bounds(seed):
    g = gen_gnp(6, 0.5, seed)
    if not g.is_connected():
        return
    capts = {k: capture_time(g, k) for k in range(1, g.n + 1)}
    for k in range(1, g.n):
        assert capts[k + 1] <= capts[k]
    gamma = domination_number(g)
    if gamma < g.n:
        assert capts[gamma] == 1
    assert capts[g.n] == 0
    from copsrobbers.graphs import metrics

    diam = metrics(g).diameter
    for k in range(1, g.n):
        if capts[k] < MAXDIST:
            assert capts[k] >= k_center(g, k).radius
            assert capts[k] >= -(-(diam - k + 1) // (2 * k))


def test_fixed_point_audit_clean():
    for g, k in ((gen_path(6)[0], 1), (gen_cycle(5), 2), (gen_tree(7, 1), 2)):
        assert audit_fixed_point(solve(g, k)) == []


def test_fixed_point_audit_detects_corruption():
    table = solve(gen_path(4)[0], 1)
    table.settle()
    # settle the capture state (cop and robber on vertex 1) one level late:
    # clear its bit in level 0 and set it in level 1; chunk 1 holds the one
    # config (1,), a one-byte cell
    found = table.chunk_levels[COP][1]
    (level0, cells0), (level1, cells1) = found[:2]
    assert (level0, level1) == (0, 1)
    found[:2] = [(0, bytes([cells0[0] & ~(1 << 1)])), (1, bytes([cells1[0] | 1 << 1]))]
    assert table.value((1,), 1, COP) == 1
    assert audit_fixed_point(table) != []


def test_fixed_point_audit_reports_a_robber_turn_mismatch():
    table = solve(gen_path(4)[0], 1)
    table.settle()
    # the robber-turn state (cop on 1, robber on 0) has value 1: its moves
    # lead to cop-turn values 1 (stay) and 0 (onto the cop). Move its bit
    # from level 1 to level 2 of chunk 1, which holds only the config (1,).
    found = table.chunk_levels[ROB][1]
    (level1, cells1), (level2, cells2) = found[1:3]
    assert (level1, level2) == (1, 2) and cells1[0] & 1
    found[1:3] = [(1, bytes([cells1[0] & ~1])), (2, bytes([cells2[0] | 1]))]
    assert table.value((1,), 0, ROB) == 2
    assert ((1,), 0, ROB, 2, 1) in audit_fixed_point(table)


# --- levels settled on demand


def stored_levels(table):
    return sorted({level for store in table.chunk_levels for found in store.values()
                   for level, _ in found})


def test_capture_time_settles_only_up_to_its_level():
    """capture_time stops the sweep at the first level with a full cop-turn
    cell: levels 0-3 of 0-8 on tree:40,1 with k = 3, and 0-7 of 0-14 on grid
    8x8 with k = 2. A robber win (Q5, k = 2) runs the sweep to its end and
    reads MAXDIST. solve itself settles no level."""
    for g, k, capt in ((gen_tree(40, 1), 3, 3), (gen_grid_dims([8, 8])[0], 2, 7)):
        table = solve(g, k)
        assert stored_levels(table) == [] and table.states_visited == 0
        assert table.capture_time() == capt
        assert stored_levels(table) == list(range(capt + 1))
        assert table.sweep is not None
    table = solve(gen_hypercube(5)[0], 2)
    assert table.capture_time() == MAXDIST
    assert table.sweep is None
    assert table.value((0, 1), 31, COP) == MAXDIST


def test_capture_time_reads_no_config_index():
    """configs and config_index are built on first read: capture_time,
    best_placement and a cop policy's bound build neither, also when the
    sweep ends with no full cell and the placement is the first config,
    (0,) * k."""
    win = solve(gen_grid_dims([4, 4])[0], 2)
    assert win.capture_time() == 3
    loss = solve(gen_hypercube(5)[0], 2)
    assert extract_policies(loss)[0].bound == MAXDIST
    assert loss.best_placement() == ((0, 0), MAXDIST) and loss.sweep is None
    for table in (win, loss):
        assert "configs" not in vars(table) and "config_index" not in vars(table)
        assert table.config_index == {c: i for i, c in enumerate(table.configs)}
        assert table.configs[0] == (0,) * table.k


def test_dropped_half_settled_table_frees_its_sweep_at_once():
    """The sweep holds no reference to its table, so a table dropped before
    its sweep ends is freed by reference counting alone, images and all."""
    gc.disable()
    try:
        table = solve(gen_grid_dims([8, 8])[0], 2)
        assert table.capture_time() == 7 and table.sweep is not None
        ref = weakref.ref(table)
        del table
        assert ref() is None
    finally:
        gc.enable()


@st.composite
def small_games(draw):
    """A G(n, p), a tree or a grid with at most 9 vertices, and k <= 3."""
    family = draw(st.sampled_from(["gnp", "tree", "grid"]))
    seed = draw(st.integers(0, 10_000))
    if family == "gnp":
        g = gen_gnp(draw(st.integers(1, 9)), draw(st.sampled_from([0.2, 0.4, 0.6, 0.9])), seed)
    elif family == "tree":
        g = gen_tree(draw(st.integers(1, 9)), seed)
    else:
        g = gen_grid_dims([draw(st.integers(1, 3)), draw(st.integers(1, 3))])[0]
    return g, draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(small_games(), st.randoms(use_true_random=False))
def test_values_read_in_any_order_match_counter_retrograde(case, rnd):
    """Each value read from a fresh table, in a random order, is the value
    counter_retrograde settles; the audit of a fresh table is clean."""
    g, k = case
    n = g.n
    val_cop, val_rob, _, _ = counter_retrograde(g, k)
    table = solve(g, k)
    reads = [(ci, r, mover) for ci in range(len(table.configs)) for r in range(n)
             for mover in (COP, ROB)]
    rnd.shuffle(reads)
    for ci, r, mover in reads:
        want = (val_cop if mover == COP else val_rob)[ci * n + r]
        assert table._value(ci, r, mover) == (MAXDIST if want is None else want), (ci, r, mover)
    assert audit_fixed_point(solve(g, k)) == []



# --- the capture level off the live cop image


def cell_width_cases():
    """(g, k) for n in {1, 7, 8, 9, 16, 17} and k = 1..4: cells of one to
    three bytes, n = 8 and 16 with no padding bit. A path (cop win), a cycle
    (a robber win for one cop), and a path beside a cycle with no edge
    between them (disconnected; a robber win until a cop sits in each
    piece). With n >= 16 and k = 4, whose oracle is slow, only the last."""
    out = []
    for n in (1, 7, 8, 9, 16, 17):
        path = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
        graphs = [path]
        if n >= 3:
            graphs.append(gen_cycle(n))
        if n >= 7:
            a = n // 2
            edges = [(v, v + 1) for v in range(a - 1)]
            edges += [(a + v, a + (v + 1) % (n - a)) for v in range(n - a)]
            graphs.append(Graph.from_edges(n, edges))
        out += [(g, k) for g in graphs for k in range(1, 5) if n < 16 or k < 4 or g is graphs[-1]]
    return out


def test_placement_from_the_live_image_matches_the_dense_scan():
    """best_placement, read off the live cop image by the full-cell word
    test, is dense_best_placement's on every cell width, robber wins
    (MAXDIST) included."""
    wins = set()
    for g, k in cell_width_cases():
        table = solve(g, k)
        val_cop, _, _, _ = counter_retrograde(g, k)
        want = dense_best_placement(table.configs, g.n, val_cop)
        assert table.best_placement() == want, (g.n, g.m, k)
        wins.add(want[1] == MAXDIST)
    assert wins == {False, True}


def test_capture_time_equals_the_tables_below_n():
    """capture_time(g, k) == solve(g, k).capture_time() for every k < n of
    the cell-width cases, and cop_number is the least k whose capture time
    is finite."""
    for g, k in cell_width_cases():
        if k < g.n:
            assert capture_time(g, k) == solve(g, k).capture_time(), (g.n, g.m, k)
    for g in {id(g): g for g, _ in cell_width_cases()}.values():
        if g.n <= 9:
            want = next((k for k in range(1, g.n) if solve(g, k).capture_time() < MAXDIST), g.n)
            assert cop_number(g) == want, (g.n, g.m)


def test_capture_time_and_cop_number_build_no_table(monkeypatch):
    """The module capture_time and cop_number run the bare sweep: with the
    packer, the config tuple and ValueTable all raising, they still answer
    as before."""
    cases = [(gen_tree(40, 1), 3), (gen_grid_dims([8, 8])[0], 2), (gen_hypercube(4)[0], 2),
             (gen_cycle(8), 1), (gen_path(17)[0], 4)]
    want = [capture_time(g, k) for g, k in cases]
    numbers = [cop_number(g) for g in (gen_cycle(8), gen_hypercube(3)[0], gen_tree(9, 2))]

    def refuse(*args, **kwargs):
        raise AssertionError("built for a value table")

    monkeypatch.setattr(solver, "_packer", refuse)
    monkeypatch.setattr(solver, "ValueTable", refuse)
    monkeypatch.setattr(solver.itertools, "combinations_with_replacement", refuse)
    with pytest.raises(AssertionError):
        solve(gen_path(4)[0], 1)
    assert [capture_time(g, k) for g, k in cases] == want == [3, 7, MAXDIST, MAXDIST, 2]
    assert [cop_number(g) for g in (gen_cycle(8), gen_hypercube(3)[0], gen_tree(9, 2))] \
        == numbers == [2, 2, 1]


# --- budgets


def test_state_budget(monkeypatch):
    """solve and capture_time refuse exactly the instances with more than
    STATE_CAP states, reading the cap when they are called."""
    g, _ = gen_grid(2, 4)
    states, _ = estimate_cost(g, 3)
    monkeypatch.setattr(solver, "STATE_CAP", 100)
    with pytest.raises(StateBudgetExceeded, match="states"):
        solve(g, 3)
    monkeypatch.setattr(solver, "STATE_CAP", states - 1)
    for run in (solve, capture_time):
        with pytest.raises(StateBudgetExceeded, match=f"{states} states exceed cap {states - 1}"):
            run(g, 3)
    monkeypatch.setattr(solver, "STATE_CAP", states)
    assert solve(g, 3).capture_time() == capture_time(g, 3)


def test_image_budget(monkeypatch):
    """solve and capture_time refuse exactly the instances whose sweep images
    exceed IMAGE_CAP bytes, reading the cap when they are called."""
    g, _ = gen_path(9)
    image = 9 ** 3 * 2
    monkeypatch.setattr(solver, "IMAGE_CAP", image - 1)
    for run in (solve, capture_time):
        with pytest.raises(StateBudgetExceeded, match=f"{image}-byte sweep images exceed cap {image - 1}"):
            run(g, 3)
    monkeypatch.setattr(solver, "IMAGE_CAP", image)
    assert solve(g, 3).capture_time() == k_center(g, 3).radius


def test_image_cap_refuses_before_allocating():
    """The state count counts cop multisets and admits the edgeless graph
    on 10 vertices with 9 cops (972,400 states), but its sweep images would
    be 10**9 * 2 bytes each: solve refuses it before building anything.
    Grid 8x8 with three cops (2 MiB images) still fits."""
    g = Graph.from_edges(10, [])
    states, _ = estimate_cost(g, 9)
    assert states <= solver.STATE_CAP
    tracemalloc.start()
    try:
        with pytest.raises(StateBudgetExceeded, match="image"):
            solve(g, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert 64 ** 3 * 8 <= solver.IMAGE_CAP


def test_sweep_peak_memory_in_images():
    """The tracemalloc peak of capture_time(g, 3) on tree:40,1, and of a
    table's capture_time, as multiples of its 320,000-byte image. The sweep
    holds wc, wr, one level's changes and the dilation's two transients
    (5.2 images on Python 3.10-3.13), and a table adds its stored levels
    (6.6). A sweep that held each buffer through the next level, and a
    table that built its configs, would fail (10.7 and 14.8 images)."""
    g = gen_tree(40, 1)
    g.closed, g.masks  # the graph's, built before the peak is taken
    image = g.n ** 3 * ((g.n + 7) // 8)

    def peak(run):
        tracemalloc.start()
        try:
            assert run() == 3
            return tracemalloc.get_traced_memory()[1] / image
        finally:
            tracemalloc.stop()

    assert peak(lambda: capture_time(g, 3)) <= 6.5
    assert peak(lambda: solve(g, 3).capture_time()) <= 8.0


@pytest.mark.parametrize("batch", [1, 100])
def test_robber_step_batches_match_counter_retrograde(monkeypatch, batch):
    """The robber step erodes the changed chunks in batches of at most
    _ERODE_BATCH bytes and at least one chunk; with one chunk, or a few,
    per batch, the values are counter_retrograde's."""
    monkeypatch.setattr(solver, "_ERODE_BATCH", batch)
    for g, k in robber_win_and_disconnected_cases() + ((gen_path(9)[0], 3), (gen_tree(12, 2), 2)):
        assert_matches_counter_retrograde(g, k)
        assert_images_symmetric(g, k)


def test_long_path_three_cops_is_admitted():
    """path:48 with three cops has 24.4 M joint-move pairs, which measure
    nothing the sweep allocates; solve admits it by its 1,881,600 states
    and its 663,552-byte images, and on a path capt_k = rad_k."""
    g, _ = gen_path(48)
    assert solve(g, 3).capture_time() == k_center(g, 3).radius == 8


@pytest.mark.parametrize("p, seed, k", [(0.9, 1, 2), (0.9, 1, 3), (0.65, 24, 2), (0.65, 24, 3)])
def test_dense_gnp_capture_time_one_iff_dominated(p, seed, k):
    """Dense G(40, p) instances whose joint-move work is over 20 M pairs:
    k cops capture in one move exactly when k is at least the domination
    number."""
    g = gen_gnp(40, p, seed)
    assert estimate_cost(g, k)[1] > 20_000_000
    capt = capture_time(g, k)
    assert (capt == 1) == (domination_number(g) <= k)
    assert capt >= 1


def test_estimate_cost_counts_states():
    g, _ = gen_path(4)
    states, moves = estimate_cost(g, 2)
    import math

    assert states == math.comb(4 + 1, 2) * 4 * 2
    # joint-move work: sum over configs of the per-config move product, times n
    total = 0
    for C in itertools.combinations_with_replacement(range(4), 2):
        prod = 1
        for c in C:
            prod *= len(g.closed[c])
        total += prod
    assert moves == total * g.n


def test_cop_number_of_empty_graph_is_a_domain_error():
    with pytest.raises(ValueError, match="empty graph"):
        cop_number(Graph(0, []))


def test_cop_number_budget_error(monkeypatch):
    monkeypatch.setattr(solver, "STATE_CAP", 8)
    with pytest.raises(StateBudgetExceeded):
        cop_number(gen_cycle(4))


# --- extracted policies


def test_policy_replay_reproduces_capture_time():
    for g, k, want in (
        (gen_path(7)[0], 1, 3),
        (gen_grid_dims([3, 3])[0], 2, 2),
        (gen_tree(9, 4), 1, None),
    ):
        table = solve(g, k)
        capt = table.capture_time()
        if want is not None:
            assert capt == want
        cop_pol, rob_pol = extract_policies(table)
        t = play(g, k, cop_pol, rob_pol, max_rounds=4 * g.n)
        assert t.capture_round == capt


def test_solver_robber_survives_against_any_cop():
    """The extracted robber is never caught before the capture time, whatever
    the cops do (here: a few scripted and random cop policies)."""
    from copsrobbers.strategies import StaticCopPolicy
    from copsrobbers.play import CopPolicy
    import random

    g = gen_cycle(5)
    k = 2
    table = solve(g, k)
    capt = table.capture_time()
    _, rob_pol = extract_policies(table)

    class RandomCops(CopPolicy):
        def __init__(self, seed):
            self.rng = random.Random(seed)

        def placement(self, g_, k_):
            return tuple(self.rng.randrange(g_.n) for _ in range(k_)), None

        def move(self, g_, state, cops, robber, rnd):
            return tuple(self.rng.choice(g_.closed[c]) for c in cops), None

    for seed in range(10):
        t = play(g, k, RandomCops(seed), rob_pol, max_rounds=30)
        assert t.capture_round is None or t.capture_round >= capt


def test_superset_columns():
    """Byte x of _SUPERSETS[m] is 1 exactly when x holds every bit of m."""
    assert [column.to_bytes(256, "little") for column in solver._SUPERSETS] == [
        bytes(int(x & m == m) for x in range(256)) for m in range(256)]


def test_erosion_tables_match_the_byte_by_byte_reference():
    """The erosion tables, ORs of _SUPERSETS columns, equal a reference that
    tests every byte value against every robber vertex's neighbours, on
    twelve small G(n, p), two trees, the 8 x 8 grid and Q6."""
    graphs = [gen_gnp(n, p, f"erosion-{n}-{p}") for n in (1, 5, 8, 9, 13, 17)
              for p in (0.3, 0.7)]
    graphs += [gen_tree(40, 1), gen_tree(100, 2), gen_grid_dims([8, 8])[0], gen_hypercube(6)[0]]
    for g in graphs:
        assert solver._erosion_tables(g) == reference_erosion_tables(g), g
