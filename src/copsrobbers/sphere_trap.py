"""Sphere trapping: occupy the whole distance-d sphere around the robber's
start within d+1 rounds via a saturating bipartite matching, confining the
robber to the ball, then tighten layer by layer. Certified capture within
2d+1 rounds whenever the matching saturates; a Hall witness is reported (and
greedy pursuit substituted) otherwise. One routine, `trap_matching`, does
every matching: the sphere's, and each tightening step's, which is the trap
matching of the next inner layer at reach 1. It takes the centre's
distances, not the centre, so a game runs one BFS from the centre, at its
first move. The cops eligible for each target vertex, and their routes,
come from its distance balls over `Graph.masks`. A game's state is its
trap, built as the game needs it.

Also houses the exact threshold formulas governing when the trap (or its
counting counterpart) applies on hypercubes, and the net radius used for
dense random graphs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError
from .graphs import Graph, bfs_distances, step_toward
from .matching import hopcroft_karp
from .play import CopPolicy
from .rng import make_rng, sample_distinct, sample_with_replacement

# d <= GUARANTEE_SLOPE*n - 2 is the regime where the trap threshold formula
# is a decreasing function of d.
GUARANTEE_SLOPE = 0.5 - math.sqrt(2) / 4


@dataclass(frozen=True)
class TrapAssignment:
    """A saturating trap matching, kept as its routes: cop id -> path from
    the cop's position to its target, no longer than the admission
    distance, in target order. A route ends on its target, so the matching
    is read off the routes."""

    routes: dict

    @property
    def matching(self) -> dict:
        """Target vertex -> cop id, in target order."""
        return {route[-1]: cop_id for cop_id, route in self.routes.items()}


@dataclass(frozen=True)
class HallWitnessResult:
    deficient_targets: tuple
    reachable_cops: tuple


def trap_matching(g: Graph, cops, dist, d: int, reach: int, mode: str = "hypercube"):
    """Match every vertex of the sphere N_d(v) to a distinct cop that can
    reach it in time.

    `dist` is every vertex's distance from the centre v, from the caller's
    BFS, and the sphere is the vertices at distance d. hypercube mode admits
    a cop for a target iff the cop stands on the target or at distance
    exactly d+1 from it; general mode admits any cop within `reach`.
    Returns a TrapAssignment, one route per target, when the matching
    saturates the sphere, otherwise a HallWitnessResult with a deficient
    target set. Cop positions must be vertex ids (ValueError otherwise). A
    tightening step is this matching at reach 1: layer i-1 is the sphere,
    the layer-i cops the cops.

    For each target t, ball[i] is the bitmask of vertices within distance i
    of t, grown ring by ring from `Graph.masks` until no cop is outside it
    or the radius is the admission distance (only the last ball may stop
    part-grown). Routes step inward to
    the smallest-id neighbour in the next smaller ball: `step_toward`'s rule.
    Memory: the masks, n ints of n bits (about n^2/8 bytes; they are all a
    G(n, p) graph holds, from its construction, and any other graph builds
    them on first use, here), and up to radius + 1 n-bit balls per target.
    Targets whose ball holds every cop share one list of all the cops,
    which Hopcroft-Karp's first phase scans once in all, not once per
    target.
    """
    if reach < 1:
        raise ValueError("reach must be at least 1")
    if mode not in ("hypercube", "general"):
        raise ValueError(f"unknown mode {mode!r}")
    cops = list(cops)
    occupied = 0
    for pos in cops:
        if not 0 <= pos < g.n:
            raise ValueError(f"cop position {pos} out of range")
        occupied |= 1 << pos
    targets = [u for u in range(g.n) if dist[u] == d]
    if not targets:
        return TrapAssignment({})

    need = d + 1 if mode == "hypercube" else reach
    masks = g.masks
    everyone = list(range(len(cops)))
    balls = []
    adj = []
    for t in targets:
        ball = [1 << t]
        ring = ball[0]
        far = occupied & ~ring
        while far and len(ball) <= need:
            grown = ball[-1]
            while ring and far:
                low = ring & -ring
                ring ^= low
                nbrs = masks[low.bit_length() - 1]
                grown |= nbrs
                far &= ~nbrs
            ring = grown & ~ball[-1]
            ball.append(grown)
        balls.append(ball)
        if mode == "general":
            elig = ball[-1]
        else:
            elig = 1 << t | (ball[need] & ~ball[need - 1] if len(ball) > need else 0)
        if occupied & ~elig:
            adj.append([cop_id for cop_id, pos in enumerate(cops) if elig >> pos & 1])
        else:
            adj.append(everyone)

    # prefer cops already standing on their target, then augment
    size, pair_left, _, deficient = hopcroft_karp(adj, len(cops))
    if size < len(targets):
        return HallWitnessResult(
            tuple(targets[i] for i in deficient),
            tuple(sorted({c for i in deficient for c in adj[i]})),
        )
    routes = {}
    for cop_id, ball in zip(pair_left, balls):
        pos = cops[cop_id]
        level = next(j for j, b in enumerate(ball) if b >> pos & 1)
        route = [pos]
        for inner in reversed(ball[:level]):
            step = masks[pos] & inner
            pos = (step & -step).bit_length() - 1
            route.append(pos)
        routes[cop_id] = tuple(route)
        if level > max(need, reach):
            raise AssertionError("route longer than the admissibility bound")
    return TrapAssignment(routes)


class _Trap(NamedTuple):
    """A sphere-trap game's state from its first move on: the matching's
    routes (None if it failed), the trap centre's distances, and `failure`,
    the metadata key and witness of the first failed matching. The plan's
    round is the `rnd` that `move` is given, not a count kept here."""

    routes: tuple | None
    dist: tuple
    failure: tuple = ()


class SphereTrapPolicy(CopPolicy):
    """Random placement, then trap the robber's starting sphere.

    Placement is a uniform k-subset when k <= n and uniform with replacement
    otherwise (teams may co-locate). The trap is set against the robber's
    first observed position, the trap centre; per-run success is certified
    by the matching, never assumed. The first move runs the game's one BFS
    from the centre and computes the matching, and the move of round `rnd`
    plays that round of the plan: d+1 routing rounds, one tightening step
    per layer, then the cops stay. A tightening step from layer i is the
    trap matching of layer i-1 at reach 1 by the cops on layer i; the cops
    it leaves unmatched step inward. When a matching fails, the state keeps
    the witness and the policy falls back to greedy shortest-path pursuit.
    Its bound, 2d+1, holds only on runs whose matching saturates.
    """

    def __init__(self, g: Graph, k: int, d: int, mode: str = "hypercube", seed=0):
        if type(d) is not int or d < 0:
            raise ValueError(f"d must be a nonnegative int, got {d!r}")
        if mode not in ("hypercube", "general"):
            raise ValueError(f"unknown mode {mode!r}")
        self.d = d
        self.mode = mode
        self.seed = seed
        self.bound = 2 * d + 1
        self.metadata = {
            "policy": "sphere-trap",
            "mode": mode,
            "d": d,
            "matching_saturated": False,
        }

    def placement(self, g: Graph, k: int):
        rng = make_rng(f"sphere-trap:{self.seed}")
        if k <= g.n:
            pos = sample_distinct(rng, g.n, k)
        else:
            pos = sample_with_replacement(rng, g.n, k)
        return tuple(pos), None

    def move(self, g: Graph, state, cops, robber: int, rnd: int):
        d = self.d
        if state is None:
            dist = tuple(bfs_distances(g, robber))
            result = trap_matching(g, cops, dist, d, d + 1, mode=self.mode)
            if isinstance(result, TrapAssignment):
                state = _Trap(tuple(result.routes.items()), dist)
            else:
                state = _Trap(None, dist, failure=("hall_deficient", result.deficient_targets))
        dist = state.dist
        if not state.failure:
            pos = list(cops)
            if rnd <= d + 1:  # routing
                for cid, route in state.routes:
                    pos[cid] = route[min(rnd, len(route) - 1)]
                return tuple(pos), state
            layer = 2 * d + 2 - rnd
            if layer < 1:  # every layer tightened: stay
                return tuple(cops), state
            occupiers = [cid for cid, p in enumerate(cops) if dist[p] == layer]
            if len({cops[cid] for cid in occupiers}) != dist.count(layer):
                raise AssertionError(f"the cops do not cover layer {layer}")
            result = trap_matching(g, [cops[cid] for cid in occupiers], dist, layer - 1, 1,
                                   mode="general")
            if isinstance(result, TrapAssignment):
                for j, cid in enumerate(occupiers):
                    route = result.routes.get(j)
                    pos[cid] = route[1] if route else step_toward(g, dist, cops[cid])
                return tuple(pos), state
            state = state._replace(failure=("tighten_failure", result.deficient_targets))
        if dist[robber]:  # pursue from where the robber stands, unless at the centre
            dist = bfs_distances(g, robber)
        return tuple(c if dist[c] == 0 else step_toward(g, dist, c) for c in cops), state

    def record(self, state) -> dict:
        meta = dict(self.metadata)
        if state and state.routes is not None:
            meta.update(matching_saturated=True, certified_bound=self.bound)
        if state and state.failure:
            meta[state.failure[0]] = list(state.failure[1])
        return meta


# ---------------------------------------------------------------------------
# threshold formulas


def trap_cop_threshold(n: int, d: int) -> Fraction:
    """Cop count above which the sphere trap certifies capture within 2d+1
    on the n-cube: 36 * 2^n * (2d+1)_{d+1} / (n-d)_{d+1} (math.perm), exact.
    Every factor n-d, ..., n-2d of the denominator is positive only when
    n >= 2d + 1, so any other (n, d) is refused."""
    if n < 1 or d < 0:
        raise DomainError("need n >= 1 and d >= 0")
    if n < 2 * d + 1:
        raise DomainError(f"need n >= 2d + 1 for a positive (n-d)_(d+1), got n={n}, d={d}")
    return Fraction(36 * (1 << n) * math.perm(2 * d + 1, d + 1), math.perm(n - d, d + 1))


def counting_cop_bound(n: int, d: int) -> Fraction:
    """Cop count below which the robber survives more than d rounds on the
    n-cube: 2^n / sum_{i<=d} C(n, i), exact."""
    if n < 1 or d < 0:
        raise DomainError("need n >= 1 and d >= 0")
    ball = sum(math.comb(n, i) for i in range(min(d, n) + 1))
    return Fraction(1 << n, ball)


def net_radius(n: int, degree: float, k: int, C: float = 10.0) -> int:
    """Smallest positive integer r with degree^(r+1) >= C n ln(n) / k, found
    by stepping up from just below the logarithms' estimate; where the power
    or the target overflows a float, their logarithms are compared. An n of
    2^1024 or more is outside the domain, and so is a degree <= 1 whose
    square falls short, as then no r exists."""
    if not (2 <= n <= sys.float_info.max and degree > 0 and k >= 1 and 0 < C < math.inf):
        raise DomainError("need 2 <= n <= the largest float, degree > 0, k >= 1, 0 < C < inf")
    target = C * n * math.log(n) / k
    log_target = math.log(C) + math.log(n) + math.log(math.log(n)) - math.log(k)

    def reaches(r):
        try:
            if target < math.inf:
                return degree ** (r + 1) >= target
        except OverflowError:
            pass
        return (r + 1) * math.log(degree) >= log_target

    if degree <= 1 and not reaches(1):
        raise DomainError(f"no net radius: degree {degree} <= 1 and degree^2 < C n ln(n) / k")
    r = 1 if degree <= 1 else max(1, math.ceil(log_target / math.log(degree)) - 2)
    while not reaches(r):
        r += 1
    return r


def trap_depth_in_guarantee_range(n: int, d: int) -> bool:
    return d <= GUARANTEE_SLOPE * n - 2


def thresholds(n: int, d: int, k: int, C: float = 10.0) -> dict:
    """All threshold quantities for one (n, d, k, C) on the n-cube, whose
    net radius `r` is that of 2^n vertices of degree n; entries that are out
    of their formula's domain come back as None."""
    out = {"n": n, "d": d, "k": k, "C": C}
    try:
        out["qn_upper_k_min"] = trap_cop_threshold(n, d)
    except DomainError:
        out["qn_upper_k_min"] = None
    try:
        out["qn_lower_k_max"] = counting_cop_bound(n, d)
    except DomainError:
        out["qn_lower_k_max"] = None
    try:
        out["r"] = net_radius(1 << n, float(n), k, C)
    except DomainError:
        out["r"] = None
    out["d_within_guarantee"] = trap_depth_in_guarantee_range(n, d)
    return out
