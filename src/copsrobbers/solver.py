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
neighbourhood with one AND. The masks after each level are the only store
of game values: a state's value is the first level whose mask holds it,
and MAXDIST (a robber win) when none does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import StateBudgetExceeded
from .graphs import MAXDIST, Graph

COP = 0
ROB = 1

DEFAULT_STATE_CAP = 2_000_000
DEFAULT_MOVE_CAP = 20_000_000


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
    """Game values for every (cop multiset, robber, mover) state, held as the
    level sweep's masks.

    levels[L][mover][ci] has bit r set when the state (configs[ci], r,
    mover) is won by the cops within L cop moves, so the state's value is
    the first L whose mask has the bit, and MAXDIST if none has. Masks are
    ints, so a config's mask that did not change between levels is one
    shared object.
    """

    graph: Graph
    k: int
    configs: tuple
    config_index: dict
    moves: tuple = field(repr=False)
    levels: list = field(default_factory=list, repr=False)
    states_visited: int = 0

    def _value(self, ci: int, robber: int, mover: int) -> int:
        bit = 1 << robber
        for level, masks in enumerate(self.levels):
            if masks[mover][ci] & bit:
                return level
        return MAXDIST

    def value(self, config, robber: int, mover: int = COP) -> int:
        return self._value(self.config_index[tuple(sorted(config))], robber, mover)

    def capture_time(self) -> int:
        return self.best_placement()[1]

    def best_placement(self):
        """Lexicographically smallest cop placement minimising the worst-case
        robber placement value, paired with that value: the first config
        whose cop-to-move mask holds every robber vertex, at the first level
        where one does."""
        full = (1 << self.graph.n) - 1
        for level, (cop_masks, _) in enumerate(self.levels):
            if full in cop_masks:
                return self.configs[cop_masks.index(full)], level
        return self.configs[0], MAXDIST

    def joint_moves(self, ci: int):
        """Indices of the configs reachable from configs[ci] in one joint cop
        move, ascending (which is lexicographic config order). The move
        relation is symmetric, so this doubles as the predecessor set."""
        return self.moves[ci]


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
    if g.n == 0:
        raise ValueError("the empty graph has no game to solve")
    states, move_work = estimate_cost(g, k)
    if states > state_cap:
        raise StateBudgetExceeded(f"{states} states exceed cap {state_cap}")
    if move_work > move_cap:
        raise StateBudgetExceeded(f"{move_work} joint-move pairs exceed cap {move_cap}")

    configs = tuple(itertools.combinations_with_replacement(range(g.n), k))
    table = ValueTable(
        graph=g,
        k=k,
        configs=configs,
        config_index={c: i for i, c in enumerate(configs)},
        moves=_move_table(g, k, configs),
    )
    moves, levels = table.moves, table.levels
    cmask = [m | 1 << v for v, m in enumerate(g.masks)]

    # Level 0: the capture states, settled for both movers. wc[ci] / wr[ci]
    # hold the robber vertices settled so far with the cops / robber to move.
    wc = []
    for cfg in configs:
        occ = 0
        for c in cfg:
            occ |= 1 << c
        wc.append(occ)
    wr = list(wc)
    levels.append((tuple(wc), tuple(wr)))
    fresh = list(enumerate(wc))  # (config, robber bits settled at this level)
    visited = 2 * sum(occ.bit_count() for occ in wc)

    while fresh:
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
            reach = 0
            while bits:
                low = bits & -bits
                reach |= cmask[low.bit_length() - 1]
                bits ^= low
            # robber step: a robber vertex next to a new cop state settles
            # once its whole closed neighbourhood is settled
            cand = reach & ~wr[ci]
            unsettled = ~w
            won = 0
            while cand:
                low = cand & -cand
                if not cmask[low.bit_length() - 1] & unsettled:
                    won |= low
                cand ^= low
            if won:
                wr[ci] |= won
                visited += won.bit_count()
                fresh.append((ci, won))
        levels.append((tuple(wc), tuple(wr)))

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
    if g.n == 0:
        raise ValueError("the empty graph has no game to solve")
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
        ci = t.config_index[tuple(sorted(cops))]
        # min keeps the first minimum, and joint_moves ascends
        cj = min(t.joint_moves(ci), key=lambda c: t._value(c, robber, ROB))
        return _realize_joint_move(g.closed, tuple(cops), t.configs[cj])


class SolverRobberPolicy:
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
