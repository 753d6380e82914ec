"""Graph family generators, coordinate codecs, structural retracts, and the
text file format.

Random generators (trees, binomial graphs) are deterministic per seed; see
rng.py for the portability discipline.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

from .errors import BadBox, NonSymmetricInput, ParseError, SizeCap
from .graphs import Graph, RetractMap
from .rng import make_rng, rand_below

MAX_VERTICES = 1_000_000


@dataclass(frozen=True)
class GridCodec:
    """Row-major bijection between vertex ids and coordinate tuples.

    dims[a] is the side length on axis a; the last axis varies fastest.
    """

    dims: tuple

    def id_of(self, coord) -> int:
        if len(coord) != len(self.dims):
            raise ValueError("coordinate arity mismatch")
        out = 0
        for c, d in zip(coord, self.dims):
            if not 0 <= c < d:
                raise ValueError(f"coordinate {coord} outside grid {self.dims}")
            out = out * d + c
        return out

    def coord_of(self, vid: int) -> tuple:
        coord = []
        for d in reversed(self.dims):
            coord.append(vid % d)
            vid //= d
        coord.reverse()
        return tuple(coord)


@dataclass(frozen=True)
class CubeCodec:
    """Vertex id = n-bit label; bit i is (id >> i) & 1; adjacency flips one bit."""

    n_bits: int

    @property
    def n(self) -> int:
        return 1 << self.n_bits

    def bit(self, vid: int, i: int) -> int:
        return (vid >> i) & 1

    def with_bits(self, vid: int, fixed: dict) -> int:
        for i, b in fixed.items():
            if not 0 <= i < self.n_bits:
                raise ValueError(f"bit index {i} out of range")
            if b not in (0, 1):
                raise ValueError(f"bit value {b} must be 0 or 1")
            vid = (vid & ~(1 << i)) | (b << i)
        return vid


def gen_grid_dims(dims):
    """Cartesian product of paths with the given side lengths."""
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError("dims must be positive")
    n = 1
    for d in dims:
        n *= d
        if n > MAX_VERTICES:
            raise SizeCap(f"grid {dims} exceeds {MAX_VERTICES} vertices")
    codec = GridCodec(dims)
    strides = []
    s = 1
    for d in reversed(dims):
        strides.append(s)
        s *= d
    strides.reverse()
    adj = [[] for _ in range(n)]
    for vid in range(n):
        coord = codec.coord_of(vid)
        for a, d in enumerate(dims):
            if coord[a] + 1 < d:
                u = vid + strides[a]
                adj[vid].append(u)
                adj[u].append(vid)
    return Graph(n, adj), codec


def gen_grid(d: int, q: int):
    if d < 1 or q < 1:
        raise ValueError("d and q must be at least 1")
    return gen_grid_dims([q] * d)


def gen_path(q: int):
    return gen_grid(1, q)


def gen_hypercube(n: int):
    if n < 1:
        raise ValueError("n must be at least 1")
    size = 1 << n
    if size > MAX_VERTICES:
        raise SizeCap(f"hypercube Q_{n} exceeds {MAX_VERTICES} vertices")
    adj = [[vid ^ (1 << i) for i in range(n)] for vid in range(size)]
    return Graph(size, adj), CubeCodec(n)


def gen_cycle(q: int) -> Graph:
    if q < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(q, [(v, (v + 1) % q) for v in range(q)])


def gen_tree(n: int, seed) -> Graph:
    """Uniform-attachment random tree: vertex v joins a uniformly chosen
    earlier vertex. Deterministic per seed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = make_rng(seed)
    edges = [(rand_below(rng, v), v) for v in range(1, n)]
    return Graph.from_edges(n, edges)


# Pairs per getrandbits call in gen_gnp: 32 KiB of words, briefly held twice
# (as the int and as its bytes), so the draw holds little beside the n*n
# matrix. One call for all 124,750 pairs of G(500, p) raised the benchmark's
# peak RSS by 3 MB, and with 8,192 pairs gen_gnp(500, p) held more than the
# matrix plus 64 KiB beyond its graph. Sized by memory; the instances do not
# depend on it.
_GNP_CHUNK = 4096

# The two 32-bit Mersenne Twister outputs of one random() call, first one first.
_DRAW_WORDS = struct.Struct("<II")


def gen_gnp(n: int, p: float, seed) -> Graph:
    """Binomial random graph: each unordered pair is an edge independently
    with probability p. One rng draw per pair regardless of p, so streams
    stay aligned across parameter choices.

    The pairs u < v are drawn in lexicographic order, and a pair is an edge
    exactly when its rng.random() is below p, so a seed names one instance.
    The draws fill an upper-triangular n*n byte matrix, from which Graph
    checks and builds the masks in one pass, and keeps only them.

    Each pair is decided from the words behind random(), read at C speed.
    CPython's random() is x * 2**-53 for the 53-bit
    x = (w0 >> 5) * 2**26 + (w1 >> 6) of two consecutive 32-bit Mersenne
    Twister outputs w0, w1, and getrandbits(64 * count) returns the same
    outputs in the same order, least significant first. So byte 8i + 3 of
    the little-endian words is w0's top byte: bits 45-52 of x, that is
    floor(256 * random()) for pair i. With t0 = floor(256 * p), a top byte
    below t0 makes an edge and one above t0 none, all in one
    bytes.translate. The pair in about 256 whose top byte equals t0 is
    settled by random()'s own expression. The words are fetched at most
    _GNP_CHUNK pairs at a time; the oracle tests pin the result to the
    random() stream."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return Graph(n, _gnp_matrix(n, p, make_rng(seed).getrandbits))


def _gnp_matrix(n: int, p: float, getrandbits) -> bytearray:
    """gen_gnp's upper-triangular n*n byte matrix. Only the matrix outlives
    the call, so Graph builds from it with no chunk of words still held."""
    chunks = _pair_bits(getrandbits, p, n * (n - 1) // 2)
    matrix = bytearray(n * n)
    bits, at = b"", 0  # decided pairs; bits[at:] are not in the matrix yet
    for u in range(n - 1):
        stop = at + n - u - 1
        while stop > len(bits):
            bits, stop, at = bits[at:] + next(chunks), stop - at, 0
        matrix[u * n + u + 1:u * n + n] = bits[at:stop]
        at = stop
    return matrix


def _pair_bits(getrandbits, p: float, pairs: int):
    """Yield, at most _GNP_CHUNK pairs at a time, one byte per pair of the
    next `pairs` draws: 1 where random() < p, else 0, decided from the top
    byte of each draw as gen_gnp describes."""
    t0 = int(256 * p)
    # Top byte -> 1 (edge), 0 (no edge) or 2 (tie at t0, settled exactly).
    decide = (b"\1" * t0 + b"\2" + bytes(255))[:256]
    for first in range(0, pairs, _GNP_CHUNK):
        count = min(_GNP_CHUNK, pairs - first)
        words = getrandbits(64 * count).to_bytes(8 * count, "little")
        bits = bytearray(words[3::8].translate(decide))
        tie = bits.find(2)
        while tie >= 0:
            w0, w1 = _DRAW_WORDS.unpack_from(words, 8 * tie)
            bits[tie] = ((w0 >> 5) * 67108864.0 + (w1 >> 6)) * (1.0 / 9007199254740992.0) < p
            tie = bits.find(2, tie + 1)
        del words  # not held while the next chunk's words are fetched
        yield bits


# Seed probes gen_connected_gnp tries before giving up.
CONNECTED_GNP_ATTEMPTS = 1000


def gen_connected_gnp(n: int, p: float, seed):
    """First connected G(n, p) instance along a deterministic seed probe.

    Returns (graph, probe_seed_string); the probe string regenerates the
    exact instance via gen_gnp.
    """
    for attempt in range(CONNECTED_GNP_ATTEMPTS):
        probe = f"{seed}:{attempt}"
        g = gen_gnp(n, p, probe)
        if g.is_connected():
            return g, probe
    raise ValueError(f"no connected instance within {CONNECTED_GNP_ATTEMPTS} attempts")


def box_retract(g: Graph, codec: GridCodec, lo, hi) -> RetractMap:
    """Retract of a grid onto the axis-aligned box [lo, hi], clamping each
    coordinate into the box."""
    lo, hi = tuple(lo), tuple(hi)
    if len(lo) != len(codec.dims) or len(hi) != len(codec.dims):
        raise BadBox("box arity does not match grid dims")
    for a, (l, h, d) in enumerate(zip(lo, hi, codec.dims)):
        if not (0 <= l <= h < d):
            raise BadBox(f"axis {a}: need 0 <= {l} <= {h} < {d}")
    return RetractMap(tuple(
        codec.id_of(tuple(min(max(c, l), h) for c, l, h in zip(codec.coord_of(vid), lo, hi)))
        for vid in range(g.n)
    ))


def subcube_retract(g: Graph, codec: CubeCodec, fixed: dict) -> RetractMap:
    """Retract of a hypercube onto the subcube with the given bits fixed,
    by overwriting those coordinates (the projection map)."""
    return RetractMap(tuple(codec.with_bits(vid, fixed) for vid in range(g.n)))


def subcube_partition(codec: CubeCodec, ell: int):
    """Partition of the cube's vertex set into 2^(n-ell) subcubes obtained by
    fixing the first n-ell bits (bits 0..n-ell-1) to every pattern. Each
    block induces a copy of the ell-dimensional cube."""
    if not 0 <= ell <= codec.n_bits:
        raise ValueError("ell out of range")
    low = codec.n_bits - ell
    blocks = []
    for pattern in range(1 << low):
        fixed = {i: (pattern >> i) & 1 for i in range(low)}
        members = tuple(
            v for v in range(codec.n) if all(codec.bit(v, i) == b for i, b in fixed.items())
        )
        blocks.append((fixed, members))
    return blocks


def format_graph_text(g: Graph) -> str:
    """The text `parse_graph_text` reads: `n m`, then `u v` per edge, u < v."""
    return f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())


def save_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_graph_text(g))


def load_graph(path) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def parse_graph_text(text: str) -> Graph:
    """Parse the text format: `n m` header, one `u v` line per edge with
    0 <= u < v < n, `#` comment lines allowed anywhere. Duplicate edges are
    dropped with a warning."""
    lines = text.split("\n")
    header = None
    edges = set()
    expected = None
    n = 0
    for idx, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ParseError("header must be `n m`", idx)
            try:
                n, expected = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("header must contain two integers", idx) from None
            if n < 0 or expected < 0:
                raise ParseError("header values must be nonnegative", idx)
            header = (n, expected)
            continue
        if len(parts) != 2:
            raise ParseError("edge line must be `u v`", idx)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", idx) from None
        if u >= v:
            raise NonSymmetricInput(f"edge must satisfy u < v, got {u} {v}", idx)
        if u < 0 or v >= n:
            raise ParseError(f"vertex {u if u < 0 else v} out of range (n = {n})", idx)
        if (u, v) in edges:
            warnings.warn(f"duplicate edge {u} {v} at line {idx}; ignored")
            continue
        edges.add((u, v))
    if header is None:
        raise ParseError("missing header", 1)
    if len(edges) != expected:
        raise ParseError(f"header promises {expected} edges, found {len(edges)}")
    return Graph.from_edges(n, sorted(edges))


def from_spec(spec: str):
    """Build (graph, codec) from a generator spec string.

    Grammar: path:<q> | grid:d=<d>,q=<q> | hypercube:<n> | tree:<n>,<seed> |
    gnp:<n>,<p>,<seed>. Seeds may be integers or strings. The form
    grid:2x3,3 is ambiguous and rejected; use grid:d=2,q=3.
    """
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"generator spec needs `kind:args`, got {spec!r}")

    def want_int(token, what):
        try:
            return int(token)
        except ValueError:
            raise ValueError(f"bad {what} token {token!r} in spec {spec!r}") from None

    if kind == "path":
        return gen_path(want_int(rest, "length"))
    if kind == "grid":
        parts = rest.split(",")
        if len(parts) != 2 or not parts[0].startswith("d=") or not parts[1].startswith("q="):
            raise ValueError(
                f"grid spec must be grid:d=<d>,q=<q> (token {rest!r} is ambiguous)"
            )
        d = want_int(parts[0][2:], "dimension")
        q = want_int(parts[1][2:], "side")
        return gen_grid(d, q)
    if kind == "hypercube":
        return gen_hypercube(want_int(rest, "dimension"))
    if kind == "tree":
        parts = rest.split(",", 1)
        if len(parts) != 2:
            raise ValueError(f"tree spec must be tree:<n>,<seed>, got {rest!r}")
        n = want_int(parts[0], "size")
        seed = parts[1]
        return gen_tree(n, int(seed) if seed.lstrip("-").isdigit() else seed), None
    if kind == "gnp":
        parts = rest.split(",", 2)
        if len(parts) != 3:
            raise ValueError(f"gnp spec must be gnp:<n>,<p>,<seed>, got {rest!r}")
        n = want_int(parts[0], "size")
        try:
            p = float(parts[1])
        except ValueError:
            raise ValueError(f"bad probability token {parts[1]!r} in spec {spec!r}") from None
        seed = parts[2]
        return gen_gnp(n, p, int(seed) if seed.lstrip("-").isdigit() else seed), None
    raise ValueError(f"unknown generator kind {kind!r} in spec {spec!r}")
