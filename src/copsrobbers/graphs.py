"""Undirected simple graphs with reflexive movement semantics, plus exact
metric machinery: BFS distances, eccentricities, radius/diameter, metric
k-centers, domination numbers, and retract maps.

Every graph walk of the game code goes through these pieces here:
`bfs_distances` is the one BFS (multi-source, optionally confined to an
allowed vertex set or kept out of a blocked one, whose cost is then what it
reaches) with two kernels, chosen by the form the graph was built
from: a graph built from lists is searched top-down from a queue, each
reached row read once, and one built from a byte matrix by `_or_levels`,
each level one OR of its vertices' masks. `eccentricities` gives every
vertex's eccentricity: three BFS on a tree, and on any other graph
`_ecc_sweep`, the one all-vertices sweep (bit-parallel over batches of
sources, in place of a BFS from every vertex). `extremes` gives only the
radius and the diameter, each with its first vertex, from a few BFS under
eccentricity bounds, and falls back on the sweep where the bounds would
take more BFS than the sweep has rounds. `step_toward` is the one
shortest-path step rule (the smallest-id neighbour one BFS layer closer,
with `walk_toward` as its path form), and `Graph.masks` the one bitmask
adjacency table, which holds the closed neighbourhoods N[v].

Exact `k_center` (k >= 2) and `domination_number` are one search over
radius-r distance balls kept as bitmasks, the radius-1 balls being
`Graph.masks` and each larger radius the union of the neighbours' balls. A
branch and bound on an explicit stack (`_least_cover`) finds the least cover
or decides one within a budget, and a greedy packing refutes a too-small
radius first. `_first_cover` names the centers an exhaustive k-subset scan
would, one at a time, each the least id that `_least_cover` can complete.
SUBSET_CAP (k-subsets) and DOMINATION_MAX_N (vertices) stay the admission
rules, checked before any ball is built.

Reflexivity (players may pass) is a movement rule, never stored loops: the
closed neighbourhood N[v] = {v} | adj(v) is what game code consumes.

A Graph is built from adjacency lists or from an upper-triangular n*n byte
matrix, the form `gen_gnp` draws into. Both are checked. The matrix form
keeps only `Graph.masks` and spells `adj` out of them on first read; the
list form keeps `adj` and builds `masks` on first use. In both, `closed` is
derived from `adj` on first use. `Graph.is_step` is the membership test
b in N[a] of either form.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass

from .errors import DisconnectedGraph, NotIsometric, SearchSpaceTooLarge

# Distances are 32-bit counts; MAXDIST is the dedicated unreachable sentinel.
MAXDIST = 2**31 - 1

# Admission caps: k-subsets of exact k_center, vertices of domination_number.
SUBSET_CAP = 5_000_000
DOMINATION_MAX_N = 40

# Sources per `_ecc_sweep` batch: one ECC_BATCH-bit set per vertex bounds
# the sweep's memory on large graphs, and one batch covers every graph of up
# to ECC_BATCH vertices.
ECC_BATCH = 1024
# `extremes` runs the eccentricity sweep without probing when it has fewer
# rounds than this, and after _GUARD_PROBES probes when more vertices than it
# has rounds are undecided.
_PROBE_MIN_ROUNDS = 16
_GUARD_PROBES = 5


class Graph:
    """Immutable undirected simple graph on vertex ids 0..n-1.

    `adjacency` takes one of two forms, each checked, with a ValueError
    naming the first offending vertex:
    - one iterable of int neighbour ids per vertex, in any order; each pair
      must be listed from both ends, and `masks` is built on first use;
    - a `bytes` or `bytearray` of length n*n, row-major, whose byte
      v*n + u is 1 when v < u are adjacent and 0 otherwise (every byte at
      or below the diagonal 0). Only the upper triangle is read, so
      symmetry holds by construction. Such a graph keeps only `masks`, built
      in the checking pass, and no reference to the matrix; `adj` is
      spelled out of the masks on first read, and `bfs_distances` reads
      the masks whether or not it has been.

    In both forms `closed` is each `adj` row with v put in its place, built
    on first read.

    Adjacency lists are ascending and deduplicated. Instances are safe for
    concurrent shared reads.
    """

    __slots__ = ("n", "m", "_adj", "_closed", "_masks", "_from_matrix")

    def __init__(self, n: int, adjacency):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self._from_matrix = isinstance(adjacency, (bytes, bytearray))
        if self._from_matrix:
            self._masks = _matrix_rows(n, adjacency)
            self._adj = None
            self.m = (sum(map(int.bit_count, self._masks)) - n) // 2
        else:
            self._adj = _checked_rows(n, adjacency)
            self._masks = None
            self.m = sum(map(len, self._adj)) // 2
        self._closed = None
        self.n = n

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r},{v!r}) has a non-int vertex id")
            if u == v:
                raise ValueError(f"self-loop edge ({u},{v})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            adj[u].add(v)
            adj[v].add(u)
        return cls(n, adj)

    @property
    def adj(self):
        """Neighbours of each vertex, ascending; a matrix-built graph spells
        them out of its masks on first read."""
        if self._adj is None:
            self._spell()
        return self._adj

    @property
    def closed(self):
        """Closed neighbourhoods N[v], ascending: each `adj` row with v put
        in its place, computed once."""
        if self._closed is None:
            closed = []
            for v, row in enumerate(self.adj):
                cut = bisect_left(row, v)
                closed.append(row[:cut] + (v,) + row[cut:])
            self._closed = tuple(closed)
        return self._closed

    @property
    def masks(self):
        """Closed neighbourhoods N[v] as bitmasks (bit u of masks[v] set iff
        u = v or u ~ v), computed once."""
        if self._masks is None:
            # One OR per entry: summing a table of powers of two was slower
            # on small graphs, which are most of the list-built ones.
            masks = []
            for v, nbrs in enumerate(self._adj):
                m = 0
                for u in nbrs:
                    m |= 1 << u
                masks.append(m | 1 << v)
            self._masks = tuple(masks)
        return self._masks

    def _spell(self):
        """Fill in `adj` of a matrix-built graph from its masks: adj(v) is
        the ids of the set bits of masks[v] less bit v."""
        ids = tuple(range(self.n))  # compress reads a tuple faster than a range
        self._adj = tuple(tuple(itertools.compress(ids, _digits(m ^ 1 << v)))
                          for v, m in enumerate(self._masks))

    def is_step(self, a: int, b: int) -> bool:
        """Whether b is in N[a], for vertex ids a and b: one bit of the masks
        once they are built, else a bisection of the row N[a]."""
        if self._masks is not None:
            return self._masks[a] >> b & 1 == 1
        row = (self._closed or self.closed)[a]  # the property call only to build them
        at = bisect_left(row, b)
        return at < len(row) and row[at] == b

    def edges(self):
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return bfs_distances(self, 0).count(MAXDIST) == 0

    def induced(self, vertices):
        """Induced subgraph on `vertices` plus the local/global id maps."""
        to_global = tuple(sorted(vertices))
        to_local = {g: i for i, g in enumerate(to_global)}
        adj = [
            [to_local[u] for u in self.adj[g] if u in to_local] for g in to_global
        ]
        return Graph(len(to_global), adj), to_local, to_global

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# Byte tables between 0/1 bytes and the digits of a base-2 int. Every byte
# other than 0 and 1 spells "x", which marks a bad byte of a matrix.
_DIGITS = b"01" + b"x" * 254
_BITS = bytes.maketrans(b"01", b"\0\1")


def _digits(mask: int) -> bytes:
    """The binary digits of `mask` as 0/1 bytes, least significant first:
    the selectors that pick its set bits' ids, or their rows, out of a
    sequence indexed by vertex with itertools.compress."""
    return bin(mask)[:1:-1].encode().translate(_BITS)


def _checked_rows(n: int, adjacency) -> tuple:
    """Adjacency lists, one per vertex, as ascending tuples; ValueError naming
    the first offending vertex for a row that is not iterable, a non-int,
    out-of-range, duplicate or self-loop entry, or an asymmetric pair."""
    if len(adjacency) != n:
        raise ValueError("adjacency must have one entry per vertex")
    # Checks run on whole rows at C speed; the inner loop only names an offender.
    adj = []
    cuts = []  # adj[v][:cuts[v]] is the part of row v below v
    rev = [[] for _ in range(n)]
    for v, nbrs in enumerate(adjacency):
        try:
            ns = tuple(nbrs)
        except TypeError:
            raise ValueError(f"neighbours of {v} must be an iterable of ints") from None
        if not {int}.issuperset(map(type, ns)):
            raise ValueError(f"neighbour ids of {v} must be ints")
        ns = tuple(sorted(ns))
        cut = bisect_left(ns, v)
        if ns and (ns[0] < 0 or ns[-1] >= n) or ns[cut:cut + 1] == (v,):
            for u in ns:
                if not 0 <= u < n:
                    raise ValueError(f"neighbour {u} of {v} out of range")
                if u == v:
                    raise ValueError(f"self-loop stored at {v}; reflexivity is implicit")
        if len(set(ns)) != len(ns):
            raise ValueError(f"duplicate neighbour entry at {v}")
        for u in ns[cut:]:
            rev[u].append(v)
        adj.append(ns)
        cuts.append(cut)
    # rev[u] lists, ascending, every v < u with u in adj[v]. The adjacency
    # is symmetric exactly when that equals the part of adj[u] below u for
    # every u: each pair v < u is then listed from both ends or from none.
    if any(tuple(r) != a[:c] for r, a, c in zip(rev, adj, cuts)):
        v, u = min((v, u) for v in range(n) for u in adj[v] if v not in adj[u])
        raise ValueError(f"asymmetric adjacency: {v}->{u} without {u}->{v}")
    return tuple(adj)


def _matrix_rows(n: int, matrix) -> tuple:
    """The closed-neighbourhood masks of the graph whose edges are the set
    bytes of an upper-triangular n*n 0/1 matrix (bytes or bytearray),
    row-major: byte v*n + u is 1 iff v < u and v ~ u. ValueError naming the
    first offending row for a wrong length, a byte other than 0 or 1, or a
    set byte at or below the diagonal. Only the upper triangle is read, so
    the graph is symmetric.

    One pass reads each row at C speed, holding one row's bytes at a time.
    Row v of the closed neighbourhoods is column v above the diagonal, then
    a set diagonal byte, then row v right of it; its digits, reversed, are
    the mask, and a byte other than 0 or 1 spells "x". The bytes of row v
    up to the diagonal are compared with zeros in place. When a row fails,
    `_matrix_fault` names the first fault."""
    size = len(matrix)
    if size != n * n:
        v = size // n if n else 0
        raise ValueError(f"adjacency matrix has {size} bytes, not {n}*{n}: row {v} is "
                         + ("cut short" if size < n * n else "past the last vertex"))
    zeros = memoryview(bytes(n))
    masks = []
    for v in range(n):
        start = v * n
        row = matrix[v:start:n] + b"\1" + matrix[start + v + 1:start + n]
        digits = row[::-1].translate(_DIGITS)
        if b"x" in digits or not matrix.startswith(zeros[:v + 1], start):
            _matrix_fault(n, matrix)
        masks.append(int(digits, 2))
    return tuple(masks)


def _matrix_fault(n: int, matrix):
    """Raise the ValueError for a matrix of the right length that
    `_matrix_rows` refused: its first byte other than 0 or 1, else its first
    row with a set byte at or below the diagonal."""
    bad = matrix.translate(None, b"\0\1")
    if bad:
        at = matrix.index(bad[:1])
        raise ValueError(f"adjacency matrix byte ({at // n},{at % n}) is {bad[0]}, not 0 or 1")
    for v in range(n):
        start = v * n
        low = matrix.find(1, start, start + v + 1)
        if low >= 0:
            raise ValueError(f"adjacency matrix byte ({v},{low - start}) is set at or below "
                             "the diagonal")
    raise AssertionError("a refused matrix has a fault")


def bfs_distances(g: Graph, sources, allowed=None, blocked=(), reached=None) -> list[int]:
    """BFS distance from each vertex to the nearest source (MAXDIST if none).

    `sources` is one vertex id or an iterable of ids, and `allowed` and
    `blocked` optional iterables of ids; every id is range-checked
    (ValueError naming it). The search never enters a vertex outside
    `allowed`, when it is given, or in `blocked`: such a source is ignored,
    and every such vertex reads MAXDIST. A `reached` set, when given, is
    updated with every vertex the search reaches.

    The kernel is chosen by the form the graph was built from. On a graph
    built from a byte matrix the search reads only `Graph.masks`, whether or
    not `adj` has been spelled out: `_or_levels` takes each level whole, as
    one OR of its vertices' masks. Its cost is O(n^2/64 + n * levels) per
    call.

    On a graph built from lists it is a top-down queue search, which reads
    the row of each reached vertex once: O(n + m) time and O(n) memory per
    call. A dense graph built from lists, which only an edge file or
    `Graph(n, lists)` makes, pays that too: a search of G(500, 0.5) reads
    about 125,000 row entries, some 40 times the time of a search of its
    masks.

    `allowed` costs one O(n) Python pass that marks the vertices outside it
    and one that unmarks them. `blocked` marks and unmarks only its own
    entries, so a blocked search of a list-built graph costs O(|blocked|)
    steps and the rows of the vertices it reaches, beside the list of n
    distances made at C speed: a search confined to a small part of a large
    graph costs what it reaches. `reached` adds one C-speed pass over the
    reached vertices, or over the digits of their mask on a matrix-built
    graph.
    """
    n = g.n
    if isinstance(sources, int):
        sources = (sources,)
    if allowed is None:
        dist = [MAXDIST] * n
    else:
        # -1 marks a blocked vertex as already seen, keeping the edge loop test-free
        dist = [-1] * n
        for v in allowed:
            if not 0 <= v < n:
                raise ValueError(f"allowed vertex {v} out of range")
            dist[v] = MAXDIST
    if blocked:
        blocked = tuple(blocked)  # read again to unmark
        for v in blocked:
            if not 0 <= v < n:
                raise ValueError(f"blocked vertex {v} out of range")
            dist[v] = -1
    queue = []  # every reached vertex, in order of distance
    for s in sources:
        if not 0 <= s < n:
            raise ValueError(f"source {s} out of range")
        if dist[s] == MAXDIST:
            dist[s] = 0
            queue.append(s)
    if g._from_matrix:
        if allowed is not None:  # one digit per vertex, last vertex first: 1 where the entry is -1
            outside = int(b"0" + bytes([d < 0 for d in reversed(dist)]).translate(_DIGITS), 2)
        elif blocked:
            outside = functools.reduce(operator.or_, map((1).__lshift__, blocked))
        else:
            outside = 0
        unseen = _or_levels(g._masks, dist, queue, outside)
        if reached is not None:
            left = (1 << n) - 1 ^ (unseen | outside)
            reached.update(itertools.compress(range(n), _digits(left)))
    else:
        adj = g.adj
        unseen = MAXDIST  # every unvisited entry is this object: `is` skips a big-int compare
        nd = 0  # the distance of the next level; its first vertex opens it
        for v in queue:  # the queue grows as the loop reads it
            if dist[v] == nd:
                nd += 1
            for u in adj[v]:
                if dist[u] is unseen:
                    dist[u] = nd
                    queue.append(u)
        if reached is not None:
            reached.update(queue)
    if allowed is not None:
        dist = [MAXDIST if d < 0 else d for d in dist]
    elif blocked:
        for v in blocked:
            dist[v] = MAXDIST
    return dist


def _or_levels(masks, dist, level, outside: int) -> int:
    """bfs_distances' level step on the masks of a matrix-built graph: fill
    in `dist` from `level`, the sources, already at distance 0, and return
    the vertices left unseen, as a mask.

    The unseen set starts as every vertex but the sources and those of the
    `outside` mask, never to be entered. Level d + 1 is the part of it that
    the OR of level d's masks covers. The binary digits of a level's set
    select both its masks and its ids, at C speed, so a level costs O(n/64)
    words per vertex it holds, plus O(n) for its digits; only the stores
    into `dist` run one Python step per vertex. The search ends once no
    vertex is unseen."""
    ids = tuple(range(len(dist)))
    unseen = (1 << len(dist)) - 1 ^ functools.reduce(operator.or_, map((1).__lshift__, level), 0)
    unseen &= ~outside
    level_masks = map(masks.__getitem__, level)
    d = 0
    while unseen:
        ring = functools.reduce(operator.or_, level_masks, 0) & unseen
        if not ring:
            break
        unseen ^= ring
        d += 1
        digits = _digits(ring)
        level_masks = itertools.compress(masks, digits)
        for v in itertools.compress(ids, digits):
            dist[v] = d
    return unseen


def step_toward(g: Graph, dist, v: int) -> int:
    """The smallest-id neighbour of v one step closer to the sources of the
    BFS that produced `dist`. A matrix-built graph scans the set bits of
    masks[v] upward, so its `adj` is not spelled out."""
    want = dist[v] - 1
    if g._from_matrix:
        rest = g._masks[v]
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            if dist[u] == want:
                return u
            rest ^= low
    else:
        for u in g.adj[v]:
            if dist[u] == want:
                return u
    raise DisconnectedGraph(f"no step from {v} toward the BFS sources")


def walk_toward(g: Graph, dist, v: int) -> list[int]:
    """Shortest path from v to the nearest BFS source, by repeated step_toward."""
    if dist[v] == MAXDIST:
        raise DisconnectedGraph(f"{v} is not reachable from the BFS sources")
    path = [v]
    while dist[v]:
        v = step_toward(g, dist, v)
        path.append(v)
    return path


def component_of(g: Graph, start: int, blocked=frozenset()) -> set[int]:
    """Vertices reachable from start in g minus the blocked vertex set (empty
    when start is blocked): one blocked `bfs_distances`, which on a
    list-built graph costs O(|blocked|) and the rows of the component."""
    reached = set()
    bfs_distances(g, start, blocked=blocked, reached=reached)
    return reached


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.m == g.n - 1 and g.is_connected()


@dataclass(frozen=True)
class Metrics:
    radius: int
    diameter: int
    eccentricities: tuple[int, ...]


def eccentricities(g: Graph) -> list[int]:
    """Eccentricity of every vertex of a connected graph (DisconnectedGraph
    otherwise).

    A tree (m = n - 1) takes three BFS, in O(n): from vertex 0, from its
    first farthest vertex a, and from a's first farthest vertex b. Then a
    and b are the ends of a diameter, and on a tree every vertex's farthest
    vertex is one of them: ecc(v) = max(d(a, v), d(b, v)). Every other
    graph takes `_ecc_sweep`.
    """
    if g.m != g.n - 1:
        return _ecc_sweep(g)
    depth = bfs_distances(g, 0)
    if MAXDIST in depth:
        raise DisconnectedGraph("eccentricities require a connected graph")
    da = bfs_distances(g, depth.index(max(depth)))
    return list(map(max, da, bfs_distances(g, da.index(max(da)))))


def _ecc_sweep(g: Graph) -> list[int]:
    """Eccentricity of every vertex by bit-parallel multi-source BFS (Then et
    al., "The More the Merrier", VLDB 2015), ECC_BATCH sources at a time.

    Within a batch, seen[v] has bit i set when source lo+i lies within
    distance d of v, and each round ORs the neighbours' sets into it. A
    source's eccentricity is the first round at which its bit is in every
    vertex's set. On a connected graph some set grows every round until all
    are full, so a round that changes nothing means the graph is
    disconnected. Cost: O(diameter * m) ORs of ECC_BATCH-bit ints per batch
    in place of one BFS per vertex, and O(n * ECC_BATCH) bits of memory.
    """
    n = g.n
    adj = g.adj
    ecc = [0] * n
    for lo in range(0, n, ECC_BATCH):
        width = min(ECC_BATCH, n - lo)
        full = (1 << width) - 1
        seen = [0] * n
        for i in range(width):
            seen[lo + i] = 1 << i
        # vertices some source of the batch has not reached yet
        unreached = [v for v in range(n) if seen[v] != full]
        finished, d = 0, 0
        while unreached:
            d += 1
            prev = seen[:]
            still = []
            done = full  # sources within distance d of every vertex
            for v in unreached:
                r = prev[v]
                for u in adj[v]:
                    r |= prev[u]
                seen[v] = r
                if r != full:
                    still.append(v)
                    done &= r
            if seen == prev:
                raise DisconnectedGraph("eccentricities require a connected graph")
            new = done & ~finished
            finished = done
            while new:
                i = new.bit_length() - 1
                ecc[lo + i] = d
                new ^= 1 << i
            unreached = still
    return ecc


def extremes(g: Graph) -> tuple[int, int, int, int]:
    """(radius, least-id centre, diameter, least-id peripheral vertex) of a
    connected graph: the least and the largest eccentricity, each with the
    first vertex that has it, as `eccentricities` gives them. An empty or
    disconnected graph raises `metrics`' DisconnectedGraph.

    A tree takes the three BFS of `eccentricities`. Any other graph is
    probed by eccentricity bounds (Takes & Kosters, "Determining the
    diameter of small world networks", CIKM 2011), from a BFS from vertex 0.
    A probe p of eccentricity e bounds every v with d = d(p, v) from below
    by max(d, e - d) and from above by e + d, and fixes ecc(p). The probes
    take turns, until the largest bounds meet at the diameter D and the
    smallest at the radius R. One side probes the first vertex of largest
    lower bound among those whose upper bound is above every lower bound,
    the other the first vertex of smallest lower bound. (Probing the largest
    upper bound instead took 6 or 7 probes on L-shaped grid pieces, where
    this takes 5: the largest lower bounds are the far corners.) The first
    vertex whose upper bound is D is probed next unless its lower bound is D
    as well, and likewise the first whose lower bound is R: each probe fixes
    an undecided vertex, so the answers are the first ids with
    eccentricities D and R.

    Grids and their pieces need a handful of probes; graphs whose vertices
    look alike, as cycles and cubes do, need about one per vertex. So a
    graph whose sweep has fewer than _PROBE_MIN_ROUNDS rounds, e0 *
    ceil(n / ECC_BATCH) for vertex 0's eccentricity e0, runs the sweep at
    once, and one that still has more vertices undecided than the sweep has
    rounds after _GUARD_PROBES probes runs it then. When e0 is 1, vertex 0
    is a centre of radius 1 and the first vertex of degree below n - 1, if
    any, a peripheral vertex of eccentricity 2: no probe or sweep is run,
    since on such dense graphs the one BFS already costs about half the
    sweep.
    """
    n = g.n
    if n == 0:
        raise DisconnectedGraph("empty graph has no metrics")
    try:
        if g.m == n - 1:
            ecc = eccentricities(g)
        else:
            dist = bfs_distances(g, 0)
            if MAXDIST in dist:
                raise DisconnectedGraph
            if max(dist) == 1:  # vertex 0 is universal: radius 1, diameter 1 or 2
                far = next((v for v, row in enumerate(g.adj) if len(row) < n - 1), 0)
                return 1, 0, 1 + (far > 0), far
            found = _probed(g, dist, max(dist) * -(-n // ECC_BATCH))
            if found is not None:
                return found
            ecc = _ecc_sweep(g)
    except DisconnectedGraph:
        raise DisconnectedGraph("metrics require a connected graph") from None
    radius, diameter = min(ecc), max(ecc)
    return radius, ecc.index(radius), diameter, ecc.index(diameter)


def _probed(g: Graph, dist, rounds: int):
    """`extremes` of a connected graph by eccentricity bounds, given `dist`,
    the BFS from vertex 0, and `rounds`, the sweep's round count; None when
    `rounds` is below _PROBE_MIN_ROUNDS, or below the count of vertices
    still undecided after _GUARD_PROBES probes. A vertex is undecided while
    its bounds differ and it may still have the largest eccentricity, its
    upper bound being at least every lower bound, or the least, its lower
    bound being at most every upper bound. Each probe fixes an undecided
    vertex, and none becomes undecided again, so that count bounds the
    probes still to come, those that settle ties included.

    The bounds are updated by comprehensions: the builtins max and min,
    mapped over the lists, took three to five times as long."""
    if rounds < _PROBE_MIN_ROUNDS:
        return None
    lo, hi = [0] * g.n, [MAXDIST] * g.n
    probes, upper = 0, True
    while True:
        e = max(dist)
        lo = [a if a >= x and a + x >= e else (x if x + x >= e else e - x)
              for a, x in zip(lo, dist)]
        hi = [a if a <= e + x else e + x for a, x in zip(hi, dist)]
        probes += 1
        dlo, dhi, rlo, rhi = max(lo), max(hi), min(lo), min(hi)
        if probes == _GUARD_PROBES and rounds < sum(
                a < b and (b >= dlo or a <= rhi) for a, b in zip(lo, hi)):
            return None
        if dlo < dhi and (upper or rlo == rhi):
            far = [a if b > dlo else -1 for a, b in zip(lo, hi)]
            p = far.index(max(far))
        elif rlo < rhi:
            p = lo.index(rlo)
        else:
            peripheral, centre = hi.index(dhi), lo.index(rlo)
            if lo[peripheral] == dhi and hi[centre] == rlo:
                return rlo, centre, dhi, peripheral
            p = peripheral if lo[peripheral] < dhi else centre
        upper = not upper
        dist = bfs_distances(g, p)


def metrics(g: Graph) -> Metrics:
    if g.n == 0:
        raise DisconnectedGraph("empty graph has no metrics")
    try:
        ecc = eccentricities(g)
    except DisconnectedGraph:
        raise DisconnectedGraph("metrics require a connected graph") from None
    return Metrics(min(ecc), max(ecc), tuple(ecc))


@dataclass(frozen=True)
class KCenterResult:
    centers: tuple[int, ...]
    radius: int


def k_center(g: Graph, k: int, mode: str = "exact") -> KCenterResult:
    """Metric k-center of a connected graph.

    greedy: farthest-point seeding from vertex 0, a 2-approximation, with one
    multi-source BFS per center: each added center is the first vertex
    farthest from the centers so far.

    exact: the least radius r such that k radius-r balls cover every vertex,
    and the lexicographically smallest k-set of centers that covers at r.
    That is the set an exhaustive scan of k-subsets in lexicographic order
    keeps. More than SUBSET_CAP k-subsets raise SearchSpaceTooLarge before
    any ball is grown. With k = 1 the radius and the smallest-id centre are
    read off `eccentricities`: three BFS on a tree, the sweep on any other
    graph.

    With k >= 2 it searches radius-r balls (Kariv & Hakimi 1979 for the
    p-center problem). The greedy radius r_g is feasible, and its k + 1
    farthest points lie pairwise at least r_g apart, so the optimum is at
    least ceil(r_g / 2). Each r from there up to r_g - 1 is refuted first by
    `_packs`: k + 1 vertices pairwise more than 2r apart need k + 1 balls
    (Meir & Moon 1975). What the packing leaves, `_least_cover` refutes, a
    feasibility search with a budget of k balls. The first r that neither
    refutes is the optimum. `_first_cover` names the centers there, the
    least id each whose ball leaves a rest that `_least_cover` can cover
    with the centers still to pick.

    One BFS from vertex 0 tests connectivity and is the first distance list
    of the greedy seeding; exact k >= 2 also orders the packing's candidates
    by it.
    """
    if not 1 <= k:
        raise ValueError("k must be at least 1")
    if mode not in ("greedy", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    if g.n == 0:
        raise DisconnectedGraph("empty graph")
    if k >= g.n:
        return KCenterResult(tuple(range(g.n)), 0)
    depth = bfs_distances(g, 0)
    if MAXDIST in depth:
        raise DisconnectedGraph("k-center requires a connected graph")

    if mode == "greedy":
        return _farthest_points(g, k, depth)
    if math.comb(g.n, k) > SUBSET_CAP:
        raise SearchSpaceTooLarge(
            f"C({g.n},{k}) = {math.comb(g.n, k)} exceeds cap {SUBSET_CAP}"
        )
    if k == 1:
        ecc = eccentricities(g)
        radius = min(ecc)
        return KCenterResult((ecc.index(radius),), radius)
    top = _farthest_points(g, k, depth).radius
    deepest = sorted(range(g.n), key=depth.__getitem__, reverse=True)
    r = (top + 1) // 2
    balls = _balls(g, r)
    while r < top and (_packs(balls, deepest, k + 1) or _least_cover(balls, k + 1, k) > k):
        r += 1
        balls = _grown(g, balls)
    return KCenterResult(_first_cover(balls, k), r)


def domination_number(g: Graph) -> int:
    """Exact domination number: the least number of radius-1 balls (closed
    neighbourhoods) that cover every vertex, by `_least_cover`; its first
    dive finds the first incumbent. More than DOMINATION_MAX_N vertices raise
    SearchSpaceTooLarge before any ball is built."""
    if g.n > DOMINATION_MAX_N:
        raise SearchSpaceTooLarge(f"n={g.n} exceeds domination cap {DOMINATION_MAX_N}")
    if g.n == 0:
        return 0
    return _least_cover(_balls(g, 1), g.n + 1)


def _farthest_points(g: Graph, k: int, dist: list[int]) -> KCenterResult:
    """Greedy k-center: farthest-point seeding from vertex 0; `dist` holds
    the BFS distances from vertex 0."""
    centers = [0]
    while True:
        radius = max(dist)
        if len(centers) == k:
            return KCenterResult(tuple(sorted(centers)), radius)
        centers.append(dist.index(radius))
        dist = bfs_distances(g, centers)


# The ball search. balls[c] is the bitmask of the vertices within distance r
# of c. Balls are symmetric (v in balls[c] iff c in balls[v]), so balls[v] is
# also the set of centers whose ball holds v.


def _balls(g: Graph, r: int) -> list[int]:
    """Radius-r balls of every vertex (r >= 1): the radius-1 balls are the
    closed neighbourhood masks."""
    balls = list(g.masks)
    for _ in range(r - 1):
        balls = _grown(g, balls)
    return balls


def _grown(g: Graph, balls) -> list[int]:
    """Balls one larger: the radius-(r+1) ball of c is the union of the
    radius-r balls of c and its neighbours."""
    grown = []
    for b, row in zip(balls, g.adj):
        for u in row:
            b |= balls[u]
        grown.append(b)
    return grown


def _packs(balls, order, count: int) -> bool:
    """Whether a greedy packing finds `count` vertices pairwise more than 2r
    apart, r being the balls' radius. It picks each vertex of `order` not yet
    struck out, and strikes out its radius-2r ball, the union of the balls
    of its ball's vertices. No radius-r ball holds two picks, so `count`
    picks refute a cover by fewer balls.

    k_center orders the vertices deepest first from vertex 0. On a tree that
    packing is a largest one: a largest packing has at most one vertex
    within r of the pick's r-th ancestor, and the pick can replace it. A
    tree's largest 2r-packing is as large as its least r-cover (Meir & Moon
    1975), so on trees the packing refutes every radius that is too small.
    """
    candidates = (1 << len(balls)) - 1
    for v in order:
        if candidates >> v & 1:
            count -= 1
            if not count:
                return True
            ball = balls[v]
            while ball:
                low = ball & -ball
                ball ^= low
                candidates &= ~balls[low.bit_length() - 1]
    return False


def _least_cover(balls, limit: int, enough: int = 0, left=None, lo: int = 0,
                 widest=None) -> int:
    """The least number of balls of center id at least `lo`, below `limit`,
    whose union holds `left` (every vertex when None); `limit` when there is
    none. The search stops at the first cover of at most `enough` balls, which
    makes it a feasibility test with a budget. `widest` is the size of the
    widest ball, counted here when not given.

    Branch and bound on an explicit stack: branch on the balls that hold the
    highest uncovered vertex, in ascending order of center, and prune a node
    when its size plus the uncovered count over the widest ball reaches the
    best size so far."""
    if left is None:
        left = (1 << len(balls)) - 1
    if widest is None:
        widest = max(b.bit_count() for b in balls)
    best = limit
    stack = [(left, 0)]  # (uncovered vertices, balls used)
    while stack:
        left, size = stack.pop()
        if not left:
            best = min(best, size)
            if best <= enough:
                break
            continue
        if size + -(-left.bit_count() // widest) >= best:
            continue
        holders = balls[left.bit_length() - 1] >> lo << lo
        while holders:  # pushed in descending order, so popped in ascending
            c = holders.bit_length() - 1
            holders ^= 1 << c
            stack.append((left & ~balls[c], size + 1))
    return best


def _first_cover(balls, k: int):
    """The lexicographically smallest k-set of centers whose balls cover
    every vertex, given that some k-set does.

    Each center in turn is the least id c whose ball leaves a rest that
    `_least_cover` can cover with the centers still to pick, all of id
    greater than c. Once the rest is empty the next ids follow, the smallest
    completion."""
    widest = max(b.bit_count() for b in balls)
    centers, left, c = [], (1 << len(balls)) - 1, 0
    for todo in reversed(range(k)):  # the centers to pick after this one
        while _least_cover(balls, todo + 1, todo, left & ~balls[c], c + 1, widest) > todo:
            c += 1
        centers.append(c)
        left &= ~balls[c]
        c += 1
    return tuple(centers)


@dataclass(frozen=True)
class RetractMap:
    """A map of the whole graph, read as its mapping: v goes to mapping[v].
    Its image is the set of vertices it fixes, built on first read. It is a
    retract when it maps every vertex into its image (it is idempotent) and
    every edge to an edge or a vertex: `verify_retract` checks both."""

    mapping: tuple

    @functools.cached_property
    def image(self) -> frozenset:
        return frozenset(v for v, fv in enumerate(self.mapping) if fv == v)


def verify_retract(g: Graph, r: RetractMap):
    """Check the retract invariants; returns (ok, first_violation).

    Violations: ("malformed", None) when the map has not one entry per
    vertex, ("range", v) when v maps outside the image (the map is not
    idempotent), ("edge", (u, v)) when an edge maps to a non-edge with
    distinct endpoints.
    """
    if len(r.mapping) != g.n:
        return False, ("malformed", None)
    for v in range(g.n):
        if r.mapping[v] not in r.image:
            return False, ("range", v)
    for u, v in g.edges():
        fu, fv = r.mapping[u], r.mapping[v]
        if fu != fv and fu not in g.adj[fv]:
            return False, ("edge", (u, v))
    return True, None


def path_retract(g: Graph, path, anchor: int) -> RetractMap:
    """Retract of g onto an isometric path, clamping by distance from anchor.

    Each vertex u maps to the path vertex at distance min(dist(u, anchor), L)
    from the anchor, L being the path length in edges.
    """
    path = list(path)
    if not path:
        raise NotIsometric("empty path")
    if anchor == path[-1]:
        path.reverse()
    if anchor != path[0]:
        raise ValueError("anchor must be a path endpoint")
    if len(set(path)) != len(path):
        raise NotIsometric("path repeats a vertex")
    for a, b in zip(path, path[1:]):
        if b not in g.adj[a]:
            raise NotIsometric(f"({a},{b}) is not an edge")
    dist = bfs_distances(g, anchor)
    L = len(path) - 1
    if dist[path[-1]] != L:
        raise NotIsometric(
            f"path has length {L} but dist({anchor},{path[-1]}) = {dist[path[-1]]}"
        )
    return RetractMap(tuple(path[min(dist[u], L)] for u in range(g.n)))
