import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from copsrobbers import generators
from copsrobbers.errors import BadBox, NonSymmetricInput, ParseError, SizeCap
from copsrobbers.generators import (
    box_retract,
    from_spec,
    gen_cycle,
    gen_gnp,
    gen_grid,
    gen_grid_dims,
    gen_hypercube,
    gen_path,
    gen_tree,
    load_graph,
    parse_graph_text,
    save_graph,
    subcube_partition,
    subcube_retract,
)
from copsrobbers.graphs import verify_retract

from oracles import has_cycle


def test_grid_counts():
    g, _ = gen_grid(2, 3)
    assert (g.n, g.m) == (9, 12)


def test_hypercube_counts():
    g, _ = gen_hypercube(3)
    assert (g.n, g.m) == (8, 12)


def test_path_is_one_dim_grid():
    assert gen_path(7)[0] == gen_grid(1, 7)[0]


def test_size_cap(monkeypatch):
    monkeypatch.setattr(generators, "MAX_VERTICES", 50)
    with pytest.raises(SizeCap):
        gen_grid(2, 100)
    monkeypatch.setattr(generators, "MAX_VERTICES", 512)
    with pytest.raises(SizeCap):
        gen_hypercube(10)


@given(st.integers(2, 4), st.integers(2, 4))
def test_grid_codec_bijection(d, q):
    g, codec = gen_grid(d, q)
    for vid in range(g.n):
        assert codec.id_of(codec.coord_of(vid)) == vid


@given(st.integers(1, 6))
def test_cube_codec_adjacency_is_hamming(n):
    g, codec = gen_hypercube(n)
    for v in range(g.n):
        for u in g.adj[v]:
            assert (u ^ v).bit_count() == 1


def test_tree_single_vertex():
    g = gen_tree(1, 0)
    assert (g.n, g.m) == (1, 0)


def test_tree_deterministic_per_seed():
    a, b = gen_tree(9, 42), gen_tree(9, 42)
    assert a == b
    assert gen_tree(9, 43) != a


@given(st.integers(0, 50))
def test_tree_acyclic_connected(seed):
    g = gen_tree(10, seed)
    assert g.m == 9
    assert g.is_connected()
    assert not has_cycle(g.n, list(g.edges()))


def test_gnp_extremes():
    assert gen_gnp(6, 0.0, 1).m == 0
    assert gen_gnp(6, 1.0, 1).m == 15


def test_gnp_deterministic():
    assert gen_gnp(20, 0.3, 7) == gen_gnp(20, 0.3, 7)


def test_gnp_edge_count_within_four_sigma():
    n, p = 1000, 0.5
    pairs = math.comb(n, 2)
    mean = pairs * p
    sigma = math.sqrt(pairs * p * (1 - p))
    for seed in range(3):
        m = gen_gnp(n, p, seed).m
        assert abs(m - mean) <= 4 * sigma


# --- retracts


def test_box_retract_full_box_identity():
    g, codec = gen_grid(2, 3)
    r = box_retract(g, codec, (0, 0), (2, 2))
    assert r.mapping == tuple(range(9))


def test_box_retract_single_cell_constant():
    g, codec = gen_grid(2, 3)
    r = box_retract(g, codec, (1, 1), (1, 1))
    assert set(r.mapping) == {codec.id_of((1, 1))}


def test_box_retract_corner_verifies():
    g, codec = gen_grid(2, 4)
    r = box_retract(g, codec, (0, 0), (1, 1))
    ok, violation = verify_retract(g, r)
    assert ok, violation
    assert len(r.image) == 4


def test_box_retract_bad_box():
    g, codec = gen_grid(2, 3)
    with pytest.raises(BadBox):
        box_retract(g, codec, (2, 0), (1, 2))
    with pytest.raises(BadBox):
        box_retract(g, codec, (0, 0), (3, 1))


def test_subcube_retract_no_fixed_bits_identity():
    g, codec = gen_hypercube(3)
    r = subcube_retract(g, codec, {})
    assert r.mapping == tuple(range(8))


def test_subcube_retract_overwrites_bit0():
    g, codec = gen_hypercube(3)
    r = subcube_retract(g, codec, {0: 0})
    assert r.mapping[0b101] == 0b100


@given(st.integers(1, 4), st.data())
def test_subcube_image_is_smaller_cube(n, data):
    g, codec = gen_hypercube(n)
    n_fixed = data.draw(st.integers(0, n - 1))
    bits = data.draw(
        st.lists(st.integers(0, n - 1), min_size=n_fixed, max_size=n_fixed, unique=True)
    )
    fixed = {i: (i % 2) for i in bits}
    r = subcube_retract(g, codec, fixed)
    ok, violation = verify_retract(g, r)
    assert ok, violation
    # relabel by extracting the free bits; must be edge-isomorphic to Q_(n-f)
    free = [i for i in range(n) if i not in fixed]
    relabel = {}
    for v in sorted(r.image):
        relabel[v] = sum(((v >> b) & 1) << j for j, b in enumerate(free))
    sub, _, to_global = g.induced(sorted(r.image))
    small, _ = gen_hypercube(len(free)) if free else (None, None)
    if small is None:
        assert len(r.image) == 1
        return
    edges = {tuple(sorted((relabel[to_global[u]], relabel[to_global[v]])))
             for u, v in sub.edges()}
    assert edges == set(small.edges())


def test_subcube_partition_property():
    """The blocks' retract images are 2^ell-vertex subcubes that partition
    the cube."""
    g, codec = gen_hypercube(4)
    for ell in range(0, 5):
        blocks = subcube_partition(codec, ell)
        assert len(blocks) == 1 << (4 - ell)
        images = [subcube_retract(g, codec, fixed).image for fixed in blocks]
        assert all(len(image) == 1 << ell for image in images)
        assert sorted(v for image in images for v in image) == list(range(16))


# --- file format


def test_save_load_round_trip(tmp_path):
    g = gen_tree(9, 5)
    path = tmp_path / "g.txt"
    save_graph(g, path)
    assert load_graph(path) == g


def test_parse_error_cites_line():
    with pytest.raises(ParseError) as exc:
        parse_graph_text("3 2\n0 1\nbogus line\n")
    assert exc.value.line_no == 3


def test_negative_vertex_is_a_parse_error_citing_its_line():
    with pytest.raises(ParseError, match=r"vertex -1 out of range \(n = 2\)") as exc:
        parse_graph_text("2 1\n# c\n-1 0\n")
    assert exc.value.line_no == 3


@pytest.mark.parametrize(
    "text, message, line_no",
    [
        ("3\n", "header must be `n m`", 1),
        ("a b\n", "header must contain two integers", 1),
        ("-1 0\n", "header values must be nonnegative", 1),
        ("3 1\n0 1 2\n", "edge line must be `u v`", 2),
        ("# only\n", "missing header", 1),
    ],
)
def test_parse_error_names_the_fault_and_its_line(text, message, line_no):
    with pytest.raises(ParseError) as exc:
        parse_graph_text(text)
    assert str(exc.value) == f"line {line_no}: {message}"
    assert exc.value.line_no == line_no


def test_duplicate_edge_warns():
    with pytest.warns(UserWarning):
        g = parse_graph_text("3 2\n0 1\n# comment\n0 1\n1 2\n")
    assert g.m == 2


def test_non_symmetric_input():
    with pytest.raises(NonSymmetricInput):
        parse_graph_text("3 1\n2 1\n")


def test_header_edge_count_mismatch():
    with pytest.raises(ParseError):
        parse_graph_text("3 2\n0 1\n")


def test_comments_and_blank_lines():
    g = parse_graph_text("# graph\n\n2 1\n\n0 1\n# done\n")
    assert (g.n, g.m) == (2, 1)


# --- spec grammar


def test_from_spec_forms():
    assert from_spec("path:5")[0].n == 5
    assert from_spec("grid:d=2,q=3")[0].n == 9
    assert from_spec("hypercube:3")[0].n == 8
    assert from_spec("tree:6,11")[0].m == 5
    assert from_spec("gnp:5,0.0,1")[0].m == 0


def test_from_spec_rejects_ambiguous_grid():
    with pytest.raises(ValueError, match="ambiguous"):
        from_spec("grid:2x3,3")


def test_from_spec_cites_bad_token():
    with pytest.raises(ValueError, match="bogus"):
        from_spec("path:bogus")


@pytest.mark.parametrize(
    "spec, message",
    [
        ("path3", "generator spec needs `kind:args`, got 'path3'"),
        ("tree:5", "tree spec must be tree:<n>,<seed>, got '5'"),
        ("gnp:5,0.3", "gnp spec must be gnp:<n>,<p>,<seed>, got '5,0.3'"),
        ("gnp:5,x,1", "bad probability token 'x' in spec 'gnp:5,x,1'"),
    ],
)
def test_from_spec_refuses_a_malformed_spec(spec, message):
    with pytest.raises(ValueError) as exc:
        from_spec(spec)
    assert str(exc.value) == message


def test_cycle():
    g = gen_cycle(6)
    assert (g.n, g.m) == (6, 6)
