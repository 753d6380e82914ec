"""Portable seeded randomness.

All randomness in the package flows through `random.Random` instances and is
defined by `Random.random()`, the one method whose stream is guaranteed
stable across Python versions and platforms for a given seed. Integer and
string seeds are both stable (string seeding hashes through SHA-512
internally). Helpers here derive indices and samples from that single
primitive so every consumer stays reproducible.

One consumer reads the same stream faster: `generators.gen_gnp` fetches the
Mersenne Twister words behind `random()` through `getrandbits`, and decides
each pair exactly as `random() < p` would. That rests on CPython building
`random()` from two consecutive 32-bit outputs and `getrandbits` returning
the same outputs in the same order; the G(n, p) oracle tests in
`tests/test_graphs.py` pin it on every interpreter that runs them.
"""

from __future__ import annotations

import random

Seed = int | str


def make_rng(seed: Seed) -> random.Random:
    return random.Random(seed)


def rand_below(rng: random.Random, n: int) -> int:
    """Uniform integer in [0, n) derived from rng.random()."""
    if n <= 0:
        raise ValueError("n must be positive")
    i = int(rng.random() * n)
    return n - 1 if i >= n else i


def sample_distinct(rng: random.Random, n: int, k: int) -> list[int]:
    """k distinct values from range(n), via a partial Fisher-Yates shuffle."""
    if k > n:
        raise ValueError(f"cannot sample {k} distinct values from {n}")
    pool = list(range(n))
    for i in range(k):
        j = i + rand_below(rng, n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def sample_with_replacement(rng: random.Random, n: int, k: int) -> list[int]:
    return [rand_below(rng, n) for _ in range(k)]
