import itertools
import random

from hypothesis import given
from hypothesis import strategies as st

import oracles
from copsrobbers.matching import hopcroft_karp


def brute_max_matching(adj, n_right):
    """Try all injective assignments; only for tiny instances."""
    n_left = len(adj)
    best = 0
    for rights in itertools.product(*(a + [None] for a in adj)):
        used = [r for r in rights if r is not None]
        if len(set(used)) == len(used):
            best = max(best, len(used))
    return best


def test_perfect_matching_triangle_structure():
    adj = [[0, 1], [0, 2], [1, 2]]
    size, pair_left, _, deficient = hopcroft_karp(adj, 3)
    assert size == 3 and deficient == []
    assert sorted(pair_left) == [0, 1, 2]


def test_deficient_side():
    adj = [[0], [0], [0, 1]]
    size, pair_left, pair_right, W = hopcroft_karp(adj, 2)
    assert size == 2 and W == [0, 1]
    # the witness is a genuine Hall violation: its neighbourhood is {0}
    assert {v for u in W for v in adj[u]} == {0}


def test_empty_adjacency():
    assert hopcroft_karp([[], []], 3) == (0, [-1, -1], [-1, -1, -1], [0, 1])


@given(st.integers(0, 500))
def test_matches_brute_force(seed):
    import random

    rng = random.Random(seed)
    n_left, n_right = rng.randint(1, 5), rng.randint(1, 5)
    adj = [
        sorted({rng.randrange(n_right) for _ in range(rng.randint(0, n_right))})
        for _ in range(n_left)
    ]
    size, pair_left, pair_right, W = hopcroft_karp([list(a) for a in adj], n_right)
    assert size == brute_max_matching([list(a) for a in adj], n_right)
    # matching consistency
    for u, v in enumerate(pair_left):
        if v != -1:
            assert v in adj[u] and pair_right[v] == u
    if size == n_left:
        assert W == []
    else:
        # a Hall violation: W's neighbours are all matched, into W
        NW = {v for u in W for v in adj[u]}
        assert len(NW) < len(W)
        assert all(pair_right[v] in W for v in NW)


@given(st.integers(0, 2000))
def test_shared_lists_match_as_unshared_copies(seed):
    """Left vertices that share one list object resume its first-phase scan
    past the entries found matched. The matching is the one that copies of
    the lists give, and the recursive oracle's: lists in any order, shared
    by any number of left vertices, beside unshared ones."""
    rng = random.Random(seed)
    n_right = rng.randint(1, 12)
    pool = [rng.sample(range(n_right), rng.randint(0, n_right)) for _ in range(rng.randint(1, 3))]
    adj = [rng.choice(pool) if rng.random() < 0.7 else
           rng.sample(range(n_right), rng.randint(0, n_right))
           for _ in range(rng.randint(1, 14))]
    copies = [list(a) for a in adj]
    assert hopcroft_karp(adj, n_right) == hopcroft_karp(copies, n_right)
    assert hopcroft_karp(adj, n_right)[:3] == oracles.recursive_hopcroft_karp(copies, n_right)


def test_one_list_shared_by_every_target():
    """The sphere trap's case: one list of every cop for most targets, some
    targets with a list of their own, and more cops than targets."""
    everyone = list(range(30))
    adj = [everyone if t % 4 else [29 - t, t] for t in range(24)]
    copies = [list(a) for a in adj]
    got = hopcroft_karp(adj, 30)
    assert got[0] == 24 and got[3] == []
    assert got == hopcroft_karp(copies, 30)
    assert got[:3] == oracles.recursive_hopcroft_karp(copies, 30)


@given(st.integers(1, 8).flatmap(lambda n_right: st.tuples(
    st.just(n_right),
    st.lists(st.lists(st.integers(0, n_right - 1), unique=True), max_size=8))))
def test_deficient_is_the_gallai_edmonds_set(graph):
    """deficient holds the left vertices some maximum matching leaves free:
    those whose removal keeps the matching number."""
    n_right, adj = graph
    nu = oracles.recursive_hopcroft_karp(adj, n_right)[0]
    free = [u for u in range(len(adj))
            if oracles.recursive_hopcroft_karp(adj[:u] + adj[u + 1:], n_right)[0] == nu]
    assert hopcroft_karp(adj, n_right)[3] == free
