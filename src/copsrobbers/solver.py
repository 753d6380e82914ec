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

Cop teams are multisets (co-location allowed), canonically encoded as
nondecreasing tuples, which shrinks the configuration space from n^k to
C(n+k-1, k). The least fixed point is computed level by level (Bonato,
Golovach, Hahn & Kratochvil, "The capture time of a graph"): W_0 is the
capture states, R_L adds the states whose every robber move lands in W_L,
and W_{L+1} adds the states with a joint cop move into R_L. Each config
keeps its settled robber vertices as two bitmasks, one per mover, so a
level costs one big-int OR per (config, joint move) pair whose target
gained robber states, and the robber step tests a whole closed
neighbourhood with one AND. MAXDIST marks robber-win states.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, field

from .errors import StateBudgetExceeded
from .graphs import MAXDIST, Graph, graph_digest

COP = 0
ROB = 1

DEFAULT_STATE_CAP = 2_000_000
DEFAULT_MOVE_CAP = 20_000_000

_MAGIC = b"CRVT"
_U32_MAX = 0xFFFFFFFF


def estimate_cost(g: Graph, k: int):
    """(state count, joint-move work) for solve(g, k).

    The joint-move work is n times the complete homogeneous symmetric
    polynomial h_k of the closed-neighbourhood sizes: the per-cop move
    products over all configs, once per robber vertex. It is at least n
    times the number of entries in the joint-move table.
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
    """Dense game values for every (cop multiset, robber, mover) state."""

    graph: Graph
    k: int
    configs: tuple
    config_index: dict
    val_cop: list
    val_rob: list
    moves: tuple = field(repr=False)
    states_visited: int = 0

    def value(self, config, robber: int, mover: int = COP) -> int:
        ci = self.config_index[tuple(sorted(config))]
        vals = self.val_cop if mover == COP else self.val_rob
        v = vals[ci * self.graph.n + robber]
        return MAXDIST if v is None else v

    def capture_time(self) -> int:
        return self.best_placement()[1]

    def best_placement(self):
        """Lexicographically smallest cop placement minimising the worst-case
        robber placement value, paired with that value."""
        n = self.graph.n
        best_cfg, best_val = None, MAXDIST + 1
        for ci, cfg in enumerate(self.configs):
            base = ci * n
            worst = 0
            for r in range(n):
                v = self.val_cop[base + r]
                if v is None:
                    worst = MAXDIST
                    break
                if v > worst:
                    worst = v
            if worst < best_val:
                best_cfg, best_val = cfg, worst
        return best_cfg, best_val

    def joint_moves(self, ci: int):
        """Indices of the configs reachable from configs[ci] in one joint cop
        move, ascending (which is lexicographic config order). The move
        relation is symmetric, so this doubles as the predecessor set."""
        return self.moves[ci]

    def save(self, path) -> None:
        """Binary dump: magic, n, k, graph digest, then u32 values in state
        index order ((config_index * n + robber) * 2 + mover), MAXDIST as
        0xFFFFFFFF."""
        n = self.graph.n
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sII32s", _MAGIC, n, self.k, graph_digest(self.graph)))
            out = []
            for ci in range(len(self.configs)):
                base = ci * n
                for r in range(n):
                    for vals in (self.val_cop, self.val_rob):
                        v = vals[base + r]
                        out.append(_U32_MAX if v is None or v >= MAXDIST else v)
            fh.write(struct.pack(f"<{len(out)}I", *out))

    @classmethod
    def load(cls, path, graph: Graph) -> "ValueTable":
        with open(path, "rb") as fh:
            magic, n, k, digest = struct.unpack("<4sII32s", fh.read(44))
            if magic != _MAGIC:
                raise ValueError("not a value-table dump")
            if n != graph.n or digest != graph_digest(graph):
                raise ValueError("dump does not match the supplied graph")
            configs = tuple(itertools.combinations_with_replacement(range(n), k))
            count = len(configs) * n * 2
            raw = struct.unpack(f"<{count}I", fh.read(4 * count))
        val_cop = [None] * (len(configs) * n)
        val_rob = [None] * (len(configs) * n)
        it = iter(raw)
        for ci in range(len(configs)):
            base = ci * n
            for r in range(n):
                c, rb = next(it), next(it)
                val_cop[base + r] = None if c == _U32_MAX else c
                val_rob[base + r] = None if rb == _U32_MAX else rb
        return cls(
            graph=graph,
            k=k,
            configs=configs,
            config_index={c: i for i, c in enumerate(configs)},
            val_cop=val_cop,
            val_rob=val_rob,
            moves=_move_table(graph, k, configs),
            states_visited=sum(v is not None for v in val_cop)
            + sum(v is not None for v in val_rob),
        )


def _move_table(g: Graph, k: int, configs) -> tuple:
    """moves[ci]: ascending indices of the configs one joint cop move away
    from configs[ci].

    A multiset C is coded as the sum of (k+1)**c over its cops c, so the
    codes reachable from C are the iterated set sums of the cops' weighted
    closed neighbourhoods. Configs come in lexicographic order, so the sums
    of a shared prefix are kept and only the changed tail is recomputed.
    """
    weight = [(k + 1) ** v for v in range(g.n)]
    wclosed = [tuple(weight[u] for u in nbrs) for nbrs in g.closed]
    index = {sum(weight[c] for c in cfg): i for i, cfg in enumerate(configs)}
    sums = [{0}] + [None] * (k - 1)  # sums[j]: codes reachable by cfg[:j]
    prev = (-1,) * k
    moves = []
    for cfg in configs:
        j = 0
        while j < k - 1 and cfg[j] == prev[j]:
            j += 1
        for t in range(j, k - 1):
            sums[t + 1] = {a + b for a in sums[t] for b in wclosed[cfg[t]]}
        last = wclosed[cfg[-1]]
        moves.append(tuple(sorted(index[c] for c in {a + b for a in sums[-1] for b in last})))
        prev = cfg
    return tuple(moves)


def solve(
    g: Graph,
    k: int,
    *,
    state_cap: int = DEFAULT_STATE_CAP,
    move_cap: int = DEFAULT_MOVE_CAP,
) -> ValueTable:
    if k < 1:
        raise ValueError("k must be at least 1")
    states, move_work = estimate_cost(g, k)
    if states > state_cap:
        raise StateBudgetExceeded(f"{states} states exceed cap {state_cap}")
    if move_work > move_cap:
        raise StateBudgetExceeded(f"{move_work} joint-move pairs exceed cap {move_cap}")

    n = g.n
    configs = tuple(itertools.combinations_with_replacement(range(n), k))
    table = ValueTable(
        graph=g,
        k=k,
        configs=configs,
        config_index={c: i for i, c in enumerate(configs)},
        val_cop=[None] * (len(configs) * n),
        val_rob=[None] * (len(configs) * n),
        moves=_move_table(g, k, configs),
    )
    val_cop, val_rob, moves = table.val_cop, table.val_rob, table.moves
    cmask = [m | 1 << v for v, m in enumerate(g.masks)]

    # Level 0: the capture states, settled for both movers. wc[ci] / wr[ci]
    # hold the robber vertices settled so far with the cops / robber to move.
    wc = []
    for ci, cfg in enumerate(configs):
        base = ci * n
        occ = 0
        for c in cfg:
            occ |= 1 << c
            val_cop[base + c] = 0
            val_rob[base + c] = 0
        wc.append(occ)
    wr = list(wc)
    fresh = list(enumerate(wc))  # (config, robber bits settled at this level)
    visited = 2 * sum(occ.bit_count() for occ in wc)

    level = 0
    while fresh:
        level += 1
        # cop step: (ci, r) settles when some joint move reaches a robber
        # state settled at the previous level
        acc = [0] * len(configs)
        for cj, bits in fresh:
            for ci in moves[cj]:
                acc[ci] |= bits
        fresh = []
        for ci, bits in enumerate(acc):
            bits &= ~wc[ci]
            if not bits:
                continue
            w = wc[ci] | bits
            wc[ci] = w
            visited += bits.bit_count()
            base = ci * n
            reach = 0
            while bits:
                low = bits & -bits
                r = low.bit_length() - 1
                val_cop[base + r] = level
                reach |= cmask[r]
                bits ^= low
            # robber step: a robber vertex next to a new cop state settles
            # once its whole closed neighbourhood is settled
            cand = reach & ~wr[ci]
            unsettled = ~w
            won = 0
            while cand:
                low = cand & -cand
                r = low.bit_length() - 1
                if not cmask[r] & unsettled:
                    won |= low
                    val_rob[base + r] = level
                cand ^= low
            if won:
                wr[ci] |= won
                visited += won.bit_count()
                fresh.append((ci, won))

    table.states_visited = visited
    return table


def capture_time(g: Graph, k: int, **caps) -> int:
    """Optimal game length with k cops; MAXDIST when k cops cannot win.

    With k >= n the cops can stand on every vertex, so the answer is 0
    without building a table.
    """
    if k >= g.n:
        return 0
    return solve(g, k, **caps).capture_time()


def cop_number(g: Graph, *, max_k: int | None = None, **caps) -> int:
    k = 1
    limit = max_k if max_k is not None else g.n
    while k <= limit:
        if k >= g.n:
            return k
        if solve(g, k, **caps).capture_time() < MAXDIST:
            return k
        k += 1
    raise StateBudgetExceeded(f"no winning k found up to {limit}")


def audit_fixed_point(table: ValueTable) -> list:
    """Re-evaluate the optimality recurrence at every state; returns the
    states whose stored value disagrees (empty list = table is a fixed point)."""
    g = table.graph
    n = g.n
    closed = g.closed
    bad = []
    for ci, cfg in enumerate(table.configs):
        base = ci * n
        occupied = set(cfg)
        succs = table.joint_moves(ci)
        for r in range(n):
            stored_c = table.val_cop[base + r]
            stored_r = table.val_rob[base + r]
            stored_c = MAXDIST if stored_c is None else stored_c
            stored_r = MAXDIST if stored_r is None else stored_r
            if r in occupied:
                exp_c = exp_r = 0
            else:
                best = MAXDIST
                for cj in succs:
                    v = table.val_rob[cj * n + r]
                    v = MAXDIST if v is None else v
                    if v < best:
                        best = v
                exp_c = MAXDIST if best >= MAXDIST else best + 1
                worst = 0
                for rp in closed[r]:
                    v = table.val_cop[base + rp]
                    v = MAXDIST if v is None else v
                    if v > worst:
                        worst = v
                exp_r = worst
            if exp_c != stored_c:
                bad.append((cfg, r, COP, stored_c, exp_c))
            if exp_r != stored_r:
                bad.append((cfg, r, ROB, stored_r, exp_r))
    return bad


def _realize_joint_move(closed, current, target_multiset):
    """Per-cop assignment realising a canonical target multiset from ordered
    cop positions; first lexicographic legal assignment wins."""
    seen = set()
    for perm in itertools.permutations(target_multiset):
        if perm in seen:
            continue
        seen.add(perm)
        if all(dst in closed[src] for src, dst in zip(current, perm)):
            return perm
    raise ValueError("target multiset is not reachable from current positions")


class SolverCopPolicy:
    """Optimal cop play read off a completed value table.

    Placement is the lexicographically smallest optimal config; moves pick
    the joint move minimising the successor robber-turn value, ties broken
    by the lexicographically smallest destination config.
    """

    def __init__(self, table: ValueTable):
        self.table = table
        self.metadata = {"policy": "solver-cops"}

    def placement(self, g: Graph, k: int):
        if k != self.table.k:
            raise ValueError("table was solved for a different k")
        cfg, _ = self.table.best_placement()
        return tuple(cfg)

    def move(self, g: Graph, cops, robber: int, rnd: int):
        t = self.table
        n = g.n
        ci = t.config_index[tuple(sorted(cops))]
        best_val, best_cfg = MAXDIST + 1, None
        for cj in t.joint_moves(ci):
            v = t.val_rob[cj * n + robber]
            v = MAXDIST if v is None else v
            if v < best_val:
                best_val, best_cfg = v, t.configs[cj]
        return _realize_joint_move(g.closed, tuple(cops), best_cfg)


class SolverRobberPolicy:
    """Optimal robber play: place at (the smallest) vertex of maximum game
    value given the cops, then always move to the neighbour of maximum
    cop-turn value (smallest id on ties)."""

    def __init__(self, table: ValueTable):
        self.table = table
        self.metadata = {"policy": "solver-robber"}

    def _cop_value(self, ci: int, r: int) -> int:
        v = self.table.val_cop[ci * self.table.graph.n + r]
        return MAXDIST if v is None else v

    def placement(self, g: Graph, cops) -> int:
        ci = self.table.config_index[tuple(sorted(cops))]
        best_r, best_v = 0, -1
        for r in range(g.n):
            v = self._cop_value(ci, r)
            if v > best_v:
                best_r, best_v = r, v
        return best_r

    def move(self, g: Graph, cops, robber: int, rnd: int) -> int:
        ci = self.table.config_index[tuple(sorted(cops))]
        best_r, best_v = robber, -1
        for r in g.closed[robber]:
            v = self._cop_value(ci, r)
            if v > best_v:
                best_r, best_v = r, v
        return best_r


def extract_policies(table: ValueTable):
    return SolverCopPolicy(table), SolverRobberPolicy(table)
