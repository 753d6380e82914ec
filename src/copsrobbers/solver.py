"""Exact game values for k cops versus one robber by retrograde analysis.

The game: cops place first, then the robber; thereafter rounds alternate a
joint cop move (each cop steps within its closed neighbourhood) and a robber
move (one step within the robber's closed neighbourhood). Capture is checked
after the cop move and after the robber move; the robber stepping onto a cop
counts at the cops' round number. Round 0 (placement) is excluded from the
game length.

State values count the cop moves still needed under optimal play:

    V_cop(C, r) = 0 if r in C else 1 + min over joint moves C' of V_rob(C', r)
    V_rob(C, r) = 0 if r in C else max over r' in N[r] of V_cop(C, r')

Cop teams are multisets (co-location allowed): a table has one config per
nondecreasing cop tuple, C(n+k-1, k) of them. The least fixed point is
computed level by level (Bonato, Golovach, Hahn & Kratochvil, "The capture
time of a graph"): W_0 is the capture states, R_L adds the states whose
every robber move lands in W_L, and W_{L+1} adds the states with a joint
cop move into R_L.

The sweep runs on bit images of the ordered cop tuples, one image per
mover. Tuple t in V^k is a cell of ceil(n/8) bytes at offset code(t) *
ceil(n/8), with code(t) = sum t[i] * n**(k-1-i); bit r of the cell is set
when the state (t, r) is settled. An image is n**k * ceil(n/8) bytes, held
as its n chunks, one int each: chunk v is the n**(k-1) cells whose top
coordinate t[0] is v. Every image is symmetric under permuting the cop
coordinates, so a multiset's state sits in its sorted cell. Each level:

- Cop step: the robber-turn states settled at the last level go through k
  rounds. Each round ORs, into chunk v, the chunks over the closed
  neighbourhood N[v], which moves the top cop; the first round reads only
  the chunks that hold such states. Between rounds the coordinates rotate,
  cell (t[0], rest) to (rest, t[0]), with n * ceil(n/8) strided slice
  assignments at most, so that the next cop comes to the top. After k
  rounds the result is symmetric, so the order it is left in does not
  matter; ORed into the cop image it gives W_{L+1}.
- Robber step: an erosion inside each cell, run only on the chunks whose
  cop bits changed. Byte j of the result is the AND over input bytes b of
  T[b][j][byte b], where the 256-byte translate table T[b][j] marks the
  vertices r of byte j whose neighbours in byte b are all settled. The
  tables are built once per solve from the closed neighbourhoods in
  Graph.masks.
- The capture states: chunk v is bit v in every cell, ORed with one int,
  shared by every chunk, that sets bit t[i] of cell t for each i >= 1.
- The capture level is read off the live cop image with one carry-free
  word test per changed chunk x: with y = x ^ FULL, ~(((y & LOW) + LOW) | y)
  & HIGH has the top bit of each full cell, where FULL, LOW and HIGH hold
  in every cell its n low bits, all bits but its top one, and its top bit;
  no carry leaves a cell. By symmetry the lowest full cell of the lowest
  such chunk is sorted, the first config with a full cell, and its index
  in base n names the cops below the top one.

At its peak the sweep holds wc and wr, the cop and robber images; one
level's changes, the new cop bits and the fresh robber bits, each up to an
image, since a chunk's int is as wide as its highest bit; and the
dilation's two image-sized transients. The consumer reads a level's
changes before the sweep resumes, which clears them. A rotation drains its
input dict as it writes the rotated bytes, then holds those and their
chunk ints; a neighbourhood round holds those ints and its output; the cop
step pops the result chunk by chunk into the new cop bits. The robber step
erodes the changed chunks in batches of at most _ERODE_BATCH bytes (or one
chunk), so its joined input, columns and output stay small. Under
tracemalloc, on tree:40,1 with k = 3 (a 320,000-byte image), the bare
sweep peaks at 5.2 images and a table's capture_time, whose stored levels
add the rest, at 6.6.

The store of game values is one list per mover and chunk of the levels
that settled states in it, ascending, each with the chunk's newly settled
states packed to the sorted cells: runs along the last coordinate (for
k = 2 the one run of cells v..n-1), so one itemgetter of byte slices and
one join pack a chunk, with no work per config.

The levels are settled on demand. solve returns a table that holds the
sweep, not yet started and wrapped in the packing, and builds no configs
(the table builds them on first read). The table runs the sweep
one level further only when a read needs it: best_placement and
capture_time up to the first level with a full cop-turn cell (the capture
time), a state's value up to the level that settles it. A state's value is
the level whose entry holds its bit, and MAXDIST (a robber win) when none
does once the sweep has ended. The module-level capture_time and
cop_number run the bare sweep and build no table, configs or packing.
A table dropped before the end frees its sweep with it: the sweep holds
no reference to the table.

solve and capture_time admit an instance by what a table allocates: the
level entries, at most one cell per config, mover and level, and the
images. They refuse one with more than STATE_CAP states or with images of
more than IMAGE_CAP bytes, before they build anything; both caps are read
at call time.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

from .errors import StateBudgetExceeded
from .graphs import MAXDIST, Graph
from .play import CopPolicy, RobberPolicy

COP = 0
ROB = 1

# The most states, C(n+k-1, k) * n * 2, that solve admits: they size the
# packed level entries, whose cells hold n bits per config and mover.
STATE_CAP = 2_000_000
# The largest sweep image, n**k * ceil(n/8) bytes, that solve admits. The
# state count counts cop multisets, about k! times fewer than the ordered
# tuples when k is near n, so on graphs with many components or isolated
# vertices it admits images that do not fit in memory. At its peak the
# sweep holds wc, wr, one level's changes and the dilation's two
# transients: about five images, six and a half for a table (module
# docstring).
IMAGE_CAP = 1 << 22
# The most cell bytes the robber step erodes in one pass, or one chunk when a
# chunk is larger: its joined input, columns and output stay this small.
_ERODE_BATCH = 1 << 16

# Byte x of _BYTE_BITS[b] is bit b of x, and every byte of _ALL_BYTES is 1:
# 256-entry columns that build the erosion tables with big-int ANDs.
_BYTE_BITS = tuple(int.from_bytes(bytes(x >> b & 1 for x in range(256)), "little")
                   for b in range(8))
_ALL_BYTES = int.from_bytes(bytes([1]) * 256, "little")


def estimate_cost(g: Graph, k: int):
    """(state count, joint-move work) for solve(g, k). solve refuses an
    instance with more than STATE_CAP states (or an image above IMAGE_CAP).

    The joint-move work is n times the complete homogeneous symmetric
    polynomial h_k of the closed-neighbourhood sizes: the (cop multiset,
    joint move) pairs, counted with every per-cop choice, once per robber
    vertex. It is a measure of an instance's size, not of a store or a loop
    of the sweep, and solve does not admit by it. Nothing in copsrobbers
    reads it; perfbench's tracer records it as solver.move_pairs.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    states = math.comb(g.n + k - 1, k) * g.n * 2
    sizes = [g.degree(v) + 1 for v in range(g.n)]
    h = [0] * (k + 1)
    h[0] = 1
    for s in sizes:
        for j in range(1, k + 1):
            h[j] += s * h[j - 1]
    return states, h[k] * g.n


@dataclass
class ValueTable:
    """Game values for every (cop multiset, robber, mover) state, held as the
    level sweep's newly settled states, settled on demand. configs, the
    sorted cop tuples in order, is built on first read, as config_index is:
    capture_time and best_placement never read it.

    chunk_levels[mover][v] lists, by ascending level L, the (L, cells)
    pairs of chunk v, the configs[first[v]:first[v + 1]] whose top cop is on
    v: cells holds their ceil(n/8)-byte cells end to end, and bit r of
    config ci's cell is set when the state (configs[ci], r, mover) has
    value L. A level that settles no state of chunk v has no pair. The store
    holds levels 0..L, the ones settled so far; sweep yields the next
    (level, sweep step) and is None once the sweep has ended, when MAXDIST
    is the value of a state no level holds. placement is best_placement(),
    () until a read has settled its level.
    """

    graph: Graph
    k: int
    first: list = field(default_factory=list, repr=False)
    chunk_levels: tuple = field(default_factory=lambda: ({}, {}), repr=False)
    placement: tuple = ()
    sweep: object = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def configs(self) -> tuple:
        """The sorted cop tuples in lexicographic order, built on first read."""
        return tuple(itertools.combinations_with_replacement(range(self.graph.n), self.k))

    @functools.cached_property
    def config_index(self) -> dict:
        """Config -> its index in configs, built on first read."""
        return {c: i for i, c in enumerate(self.configs)}

    @property
    def states_visited(self) -> int:
        """The states settled so far; every state a level settles once
        settle() has run."""
        return sum(int.from_bytes(cells, "little").bit_count()
                   for store in self.chunk_levels for found in store.values()
                   for _, cells in found)

    def _advance(self):
        """Settle the next level into chunk_levels, and the best placement
        if this level has a full cop-turn cell; returns the level, or None
        once the sweep has ended (then a placement not found is
        ((0,) * k, MAXDIST))."""
        step = None if self.sweep is None else next(self.sweep, None)
        if step is None:
            self.sweep = None
            if not self.placement:
                self.placement = (0,) * self.k, MAXDIST
            return None
        level, (full, cop, rob) = step
        for store, entries in zip(self.chunk_levels, (cop, rob)):
            for v, cells in entries.items():
                store.setdefault(v, []).append((level, cells))
        if full and not self.placement:
            self.placement = full, level
        return level

    def settle(self) -> None:
        """Settle every level the sweep has left: the store is then complete."""
        while self._advance() is not None:
            pass

    def _value(self, ci: int, robber: int, mover: int) -> int:
        v = self.configs[ci][0]
        at = (ci - self.first[v]) * ((self.graph.n + 7) // 8) + (robber >> 3)
        bit = 1 << (robber & 7)
        for level, cells in self.chunk_levels[mover].get(v, ()):
            if cells[at] & bit:
                return level
        # no stored entry holds the bit, so a hit is in the new level's entry
        while (level := self._advance()) is not None:
            found = self.chunk_levels[mover].get(v)
            if found and found[-1][1][at] & bit:
                return level
        return MAXDIST

    def value(self, config, robber: int, mover: int = COP) -> int:
        return self._value(self.config_index[tuple(sorted(config))], robber, mover)

    def capture_time(self) -> int:
        return self.best_placement()[1]

    def best_placement(self):
        """Lexicographically smallest cop placement minimising the worst-case
        robber placement value, paired with that value: the first config
        whose cop-to-move states are all settled, at the first level where
        one is, and ((0,) * k, MAXDIST), the first config's, when none ever
        is."""
        while not self.placement:
            self._advance()
        return self.placement

    def joint_moves(self, ci: int):
        """Indices of the configs reachable from configs[ci] in one joint cop
        move, ascending (which is lexicographic config order). The move
        relation is symmetric, so this doubles as the predecessor set."""
        closed = self.graph.closed
        moves = itertools.product(*(closed[c] for c in self.configs[ci]))
        targets = {tuple(sorted(t)) for t in moves}
        return tuple(self.config_index[t] for t in sorted(targets))


def _word_bytes(cell: int) -> int:
    """The widest machine word, in bytes, that divides a cell of `cell` bytes."""
    return next(u for u in (8, 4, 2, 1) if cell % u == 0)


def _as_words(buf, unit: int):
    """buf indexed by machine words of `unit` bytes (bytes stay bytes)."""
    return memoryview(buf).cast({2: "H", 4: "I", 8: "Q"}[unit]) if unit > 1 else buf


def _picker(keys):
    """operator.itemgetter(*keys), returning a tuple even for one key."""
    get = operator.itemgetter(*keys)
    return get if len(keys) > 1 else lambda seq: (get(seq),)


def _erosion_tables(g: Graph):
    """erosion[j]: the (b, table) pairs that give byte j of a cell's robber
    bits as the AND over input bytes b of table applied to byte b of its cop
    bits. Bit i of table[x] says that every closed neighbour of r = 8j + i
    lying in byte b is in x; a pair (b, j) with no such neighbour is
    skipped."""
    n = g.n
    cell = (n + 7) // 8
    cmask = g.masks
    erosion = []
    for j in range(cell):
        rows = range(8 * j, min(8 * j + 8, n))
        tables = []
        for b in range(cell):
            need = [(cmask[r] >> 8 * b) & 0xFF for r in rows]
            if b != j and not any(need):
                continue
            table = 0
            for i, m in enumerate(need):
                hit = _ALL_BYTES
                for bit in range(8):
                    if m >> bit & 1:
                        hit &= _BYTE_BITS[bit]
                table |= hit << i
            tables.append((b, table.to_bytes(256, "little")))
        erosion.append(tables)
    return erosion


def _sweep(g: Graph, k: int):
    """Yield (full, cop changes, robber changes) after each level, in the
    layout of the module docstring. full is the first config with a full
    cop-turn cell, from the first level that has one on, and None before.
    The changes list the (v, new bits) of each chunk v that gained states
    at the level, a chunk's bits as a little-endian int. Level 0 lists every
    chunk, so the OR of a mover's changes so far is its image. The yielded
    changes are valid until the next step: the sweep clears them once it
    resumes."""
    n = g.n
    closed = g.closed
    cell = (n + 7) // 8
    cells_per_chunk = n ** (k - 1)
    chunk = cells_per_chunk * cell
    size = n * chunk
    little = itertools.repeat("little")
    chunk_slices = [slice(v * chunk, (v + 1) * chunk) for v in range(n)]

    # Rotation moves cells with strided slice assignments, in the widest
    # machine words that divide the cell; a word is copied whole, so the
    # host's byte order does not matter.
    unit = _word_bytes(cell)
    words = cell // unit
    stride = n * words

    def rotate(parts):
        """The image whose cell (rest, v) is cell rest of chunk v, given as
        a dict {v: int} that it drains as it writes (missing and zero
        chunks are zero): the top coordinate moved to the end."""
        out = bytearray(size)
        dst = _as_words(out, unit)
        while parts:
            v, x = parts.popitem()
            if x:
                src = _as_words(x.to_bytes(chunk, "little"), unit)
                for j in range(words):
                    dst[v * words + j::stride] = src[j::words]
        return list(map(int.from_bytes, map(out.__getitem__, chunk_slices), little))

    nbr_parts = [_picker(nbrs) for nbrs in closed]

    def spread(parts):
        """The top cop's step on an image given as its n chunks: chunk v
        gains the chunks over N[v]."""
        return {v: functools.reduce(operator.or_, get(parts)) for v, get in enumerate(nbr_parts)}

    def dilate(fresh):
        """The joint cop step on an image given as its nonzero chunks
        {v: int}, which it clears once read, returned as {v: int} too: each
        cop in turn takes the top coordinate, where chunk v gains the chunks
        over N[v], and all but the last are then rotated to the end. The
        first round reads the given chunks alone, the later ones every
        chunk. The result is symmetric, as the input is, so the k - 1
        rotations leave it in place."""
        out = {}
        for u, x in fresh.items():
            for v in closed[u]:
                out[v] = out.get(v, 0) | x
        fresh.clear()
        for _ in range(k - 1):
            out = spread(rotate(out))
        return out

    erosion = _erosion_tables(g)

    def erode(seg):
        """seg's cells with only the robber vertices whose closed
        neighbourhood lies inside the cell."""
        count = len(seg) // cell
        columns = [seg[b::cell] for b in range(cell)]
        out = bytearray(len(seg))
        for j, tables in enumerate(erosion):
            acc = -1
            for b, table in tables:
                acc &= int.from_bytes(columns[b].translate(table), "little")
            out[j::cell] = acc.to_bytes(count, "little")
        return out

    def word(x: int) -> int:
        """The chunk-wide int with cell value x in every cell."""
        return int.from_bytes(x.to_bytes(cell, "little") * cells_per_chunk, "little")

    full_cells, low, high = word((1 << n) - 1), word((1 << 8 * cell - 1) - 1), word(1 << 8 * cell - 1)

    def first_full(changed):
        """The sorted cop tuple of the lowest full cell of the first chunk
        in changed that has one, or None."""
        for v, _ in changed:
            y = wc[v] ^ full_cells
            hit = ~(((y & low) + low) | y) & high
            if hit:
                at = ((hit & -hit).bit_length() - 1) // (8 * cell)
                return (v, *(at // n ** (k - 1 - i) % n for i in range(1, k)))
        return None

    # The capture image: the top coordinate's bit in every cell, ORed with
    # the bit of every other coordinate, laid out once for all chunks.
    shared = 0
    for i in range(1, k):
        run = b"".join((1 << x).to_bytes(cell, "little") * n ** (k - 1 - i) for x in range(n))
        shared |= int.from_bytes(run * n ** (i - 1), "little")
    wc = [word(1 << v) | shared for v in range(n)]
    wr = list(wc)

    # changed: the chunks whose cop bits changed, with their new bits, and
    # fresh: the robber bits settled at the last level, by nonzero chunk.
    # Both are yielded; once the sweep resumes, the cop step clears changed
    # and the dilation fresh, once read, and both refill for the next level.
    changed = list(enumerate(wc))
    fresh = dict(changed)
    batch = max(1, _ERODE_BATCH // chunk)
    full = None
    while True:
        full = full or first_full(changed)
        yield full, changed, fresh.items()
        if not fresh:
            return
        # cop step: a state settles when a joint move reaches a fresh one
        changed.clear()
        grown = dilate(fresh)
        for v in sorted(grown):
            new = grown.pop(v) & ~wc[v]
            if new:
                wc[v] |= new
                changed.append((v, new))
        # robber step, on batches of the changed chunks gathered end to end:
        # a state settles when every robber move lands on a settled
        # cop-turn state
        for at in range(0, len(changed), batch):
            group = changed[at:at + batch]
            settled = erode(b"".join(wc[v].to_bytes(chunk, "little") for v, _ in group))
            for i, (v, _) in enumerate(group):
                x = int.from_bytes(settled[i * chunk:(i + 1) * chunk], "little") & ~wr[v]
                if x:
                    wr[v] |= x
                    fresh[v] = x


def _packer(n: int, k: int):
    """Packs (v, int) chunk pairs to {v: the sorted cells of chunk v}. They
    sit in the chunk in config order, as runs along the last coordinate,
    one per sorted (k-1)-tuple (v, ..., c): each starts at the config
    (v, ..., c, c) and ends with the row (a chunk is one cell when k = 1)."""
    cell = (n + 7) // 8
    chunk = n ** (k - 1) * cell
    if k == 1:
        runs = [[slice(0, cell)] for _ in range(n)]
    else:
        runs = [[] for _ in range(n)]
        weights = [n ** (k - 2 - i) for i in range(k - 1)]
        for head in itertools.combinations_with_replacement(range(n), k - 1):
            at = sum(map(operator.mul, (*head[1:], head[-1]), weights))
            runs[head[0]].append(slice(at * cell, (at + n - head[-1]) * cell))
    packs = [_picker(r) for r in runs]
    return lambda bits: {v: b"".join(packs[v](x.to_bytes(chunk, "little"))) for v, x in bits}


def _admit(g: Graph, k: int) -> None:
    """Refuse an instance a value table could not hold (module docstring)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if g.n == 0:
        raise ValueError("the empty graph has no game to solve")
    states, _ = estimate_cost(g, k)
    if states > STATE_CAP:
        raise StateBudgetExceeded(f"{states} states exceed cap {STATE_CAP}")
    image = g.n ** k * ((g.n + 7) // 8)
    if image > IMAGE_CAP:
        raise StateBudgetExceeded(f"{image}-byte sweep images exceed cap {IMAGE_CAP}")


def solve(g: Graph, k: int) -> ValueTable:
    """The value table of k cops on g, its levels not yet settled: its reads
    run the sweep as far as they need (module docstring)."""
    _admit(g, k)
    n = g.n
    counts = (math.comb(n - v + k - 2, k - 1) for v in range(n))
    first = list(itertools.accumulate(counts, initial=0))
    packed = _packer(n, k)
    levels = ((full, packed(cop), packed(rob)) for full, cop, rob in _sweep(g, k))
    return ValueTable(graph=g, k=k, first=first, sweep=enumerate(levels))


def capture_time(g: Graph, k: int) -> int:
    """Optimal game length with k cops; MAXDIST when k cops cannot win. It
    runs the sweep only to the capture level and builds no value table.

    With k >= n the cops can stand on every vertex, so the answer is 0
    without a sweep.
    """
    if k >= g.n:
        return 0
    _admit(g, k)
    for level, (full, *_) in enumerate(_sweep(g, k)):
        if full:
            return level
    return MAXDIST


def cop_number(g: Graph) -> int:
    """The least k whose cops win; k = n always does."""
    if g.n == 0:
        raise ValueError("the empty graph has no game to solve")
    for k in range(1, g.n):
        if capture_time(g, k) < MAXDIST:
            return k
    return g.n


def audit_fixed_point(table: ValueTable) -> list:
    """Re-evaluate the optimality recurrence at every state; returns the
    states whose stored value disagrees (empty list = table is a fixed point)."""
    value = table._value
    closed = table.graph.closed
    bad = []
    for ci, cfg in enumerate(table.configs):
        occupied = set(cfg)
        succs = table.joint_moves(ci)
        for r in range(table.graph.n):
            stored_c = value(ci, r, COP)
            stored_r = value(ci, r, ROB)
            if r in occupied:
                exp_c = exp_r = 0
            else:
                best = min(value(cj, r, ROB) for cj in succs)
                exp_c = MAXDIST if best >= MAXDIST else best + 1
                exp_r = max(value(ci, rp, COP) for rp in closed[r])
            if exp_c != stored_c:
                bad.append((cfg, r, COP, stored_c, exp_c))
            if exp_r != stored_r:
                bad.append((cfg, r, ROB, stored_r, exp_r))
    return bad


class SolverCopPolicy(CopPolicy):
    """Optimal cop play read off a value table.

    Placement is the lexicographically smallest optimal config. A move is
    the per-cop step minimising the successor's robber-turn value, ties
    broken by the lexicographically smallest destination config, then by
    the lexicographically smallest step that reaches it. Its bound is the
    table's capture time, MAXDIST when the robber wins.
    """

    def __init__(self, table: ValueTable):
        self.table = table
        self.bound = table.capture_time()
        self.metadata = {"policy": "solver-cops"}

    def placement(self, g: Graph, k: int):
        if k != self.table.k:
            raise ValueError("table was solved for a different k")
        cfg, _ = self.table.best_placement()
        return tuple(cfg), None

    def move(self, g: Graph, state, cops, robber: int, rnd: int):
        t = self.table

        def key(step):
            cfg = tuple(sorted(step))
            return t._value(t.config_index[cfg], robber, ROB), cfg

        # product ascends, and min keeps the first minimum
        return min(itertools.product(*(t.graph.closed[c] for c in cops)), key=key), None


class SolverRobberPolicy(RobberPolicy):
    """Optimal robber play: place at (the smallest) vertex of maximum game
    value given the cops, then always move to the neighbour of maximum
    cop-turn value (smallest id on ties)."""

    def __init__(self, table: ValueTable):
        self.table = table
        self.metadata = {"policy": "solver-robber"}

    def _best(self, cops, choices) -> int:
        """The first of `choices` with the largest cop-turn value."""
        t = self.table
        ci = t.config_index[tuple(sorted(cops))]
        return max(choices, key=lambda r: t._value(ci, r, COP))

    def placement(self, g: Graph, cops) -> int:
        return self._best(cops, range(g.n))

    def move(self, g: Graph, cops, robber: int, rnd: int) -> int:
        return self._best(cops, g.closed[robber])


def extract_policies(table: ValueTable):
    return SolverCopPolicy(table), SolverRobberPolicy(table)
