"""Separator sweeps and shortest-path guarding for planar-style play.

Two cop strategies live here:

* SeparatorSweepPolicy: stationed teams occupy balanced separators of the
  robber's shrinking territory until nothing is left. Works against the
  ordinary robber and the infinitely-fast variant (territory is recomputed
  from scratch every phase, so robber speed never enters the bookkeeping).

* ThreeCopPlanarPolicy: the three-cop phase machine. One cop guards an
  isometric path by holding the robber's shadow (image under the path
  retract); phases repeatedly wall off the robber's component with a new
  guarded path and then release every guard whose path no longer bounds the
  territory. Regions are operationalised as connected components of the
  graph minus guarded vertices; planarity is not checked, but a territory
  that stops shrinking raises ProgressStall.

Each policy builds what every game shares; what a game changes, its phase
log included, is a hashable state that `move` takes and returns. It keeps
nothing that `move`'s arguments (the cops' positions, the round) or the
phase log fix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .errors import DisconnectedGraph, ProgressStall, TeamBudgetExceeded
from .graphs import (
    Graph,
    bfs_distances,
    component_of,
    extremes,
    walk_toward,
)
from .play import CopPolicy


# ---------------------------------------------------------------------------
# balanced separators


@dataclass(frozen=True)
class SeparatorResult:
    separator: tuple
    side_a: tuple
    side_b: tuple


def verify_separator(g: Graph, res: SeparatorResult):
    """Check the separator contract; returns (ok, reason)."""
    s, a, b = set(res.separator), set(res.side_a), set(res.side_b)
    if s | a | b != set(range(g.n)) or (s & a) or (s & b) or (a & b):
        return False, "S, A, B do not partition V"
    if 3 * len(a) > 2 * g.n or 3 * len(b) > 2 * g.n:
        return False, "a side exceeds 2n/3"
    for u, v in g.edges():
        if (u in a and v in b) or (u in b and v in a):
            return False, f"edge ({u},{v}) joins A and B"
    return True, None


def separator(g: Graph) -> SeparatorResult:
    """Balanced vertex separator: S, A, B partition V, no A-B edge, both
    sides at most 2n/3.

    S is the cheapest single BFS level from the first vertex of maximum
    eccentricity, which `extremes` finds (ties: most balanced split, then
    lowest level); A is every level below it and B every level above. On a
    connected graph one level always balances, so no wider separator is
    needed.
    """
    if g.n == 0:
        raise DisconnectedGraph("empty graph")
    try:
        root = extremes(g)[3]
    except DisconnectedGraph:
        raise DisconnectedGraph("separator needs a connected graph") from None
    return _level_cut(g, root)


def _level_cut(g: Graph, root: int) -> SeparatorResult:
    """The cheapest balancing BFS level from `root` of a connected graph,
    with the levels below and above it: `separator`'s rule."""
    dist = bfs_distances(g, root)
    levels = [[] for _ in range(max(dist) + 1)]
    for v in range(g.n):
        levels[dist[v]].append(v)
    prefix = [0]
    for lv in levels:
        prefix.append(prefix[-1] + len(lv))

    # Some level balances (Lipton & Tarjan 1979): take the smallest i with
    # prefix[i+1] >= n/3. Then a = prefix[i] < n/3 by minimality, and
    # b = n - prefix[i+1] <= 2n/3. Both sides are at most 2n/3, so `best`
    # is never None on a connected graph.
    best = None  # (|S|, maxside, index)
    for i, lv in enumerate(levels):
        a, b = prefix[i], g.n - prefix[i + 1]
        if 3 * a <= 2 * g.n and 3 * b <= 2 * g.n:
            cand = (len(lv), max(a, b), i)
            if best is None or cand < best:
                best = cand
    i = best[2]
    return SeparatorResult(
        tuple(sorted(levels[i])),
        tuple(sorted(v for lv in levels[:i] for v in lv)),
        tuple(sorted(v for lv in levels[i + 1 :] for v in lv)),
    )


# ---------------------------------------------------------------------------
# separator sweep


class SeparatorSweepPolicy(CopPolicy):
    """Stationed cops hold balanced separators of the robber's territory;
    each phase walks a fresh team onto a BFS-level separator (see
    `separator`) of the current territory, multiplying it by at most 2/3.
    Cops never leave a separator once placed, and idle cops wait at the
    lowest-id centre. The bound is 6 * radius * log2(n) rounds. The build
    takes the first separator's root, the centre and the radius from one
    `extremes` call, which raises `metrics`' errors on an empty or a
    disconnected graph.

    A game's state is (walkers as (cop, route) pairs, each phase's
    (territory, separator) sizes). A walker leaves from the centre, where
    it idled, and its route is the rest of `walk_toward`'s path from there
    to its separator vertex; a walker whose route is spent is stationed
    where it stands. Cops are stationed in id order, so when no walker is
    moving the stationed cops are `cops[:used]`, `used` being the sum of
    the phases' separator sizes."""

    def __init__(self, g: Graph, k: int):
        self.k = k
        radius, self._centre, _, root = extremes(g)
        self._first_separator = _level_cut(g, root).separator
        self.bound = 6 * radius * math.log2(g.n)
        self.metadata = {"policy": "separator-sweep"}

    def placement(self, g: Graph, k: int):
        if k != self.k:
            raise ValueError("policy built for a different k")
        s0 = self._first_separator
        if len(s0) > k:
            raise TeamBudgetExceeded(len(s0), k)
        return s0 + (self._centre,) * (k - len(s0)), ((), ((g.n, len(s0)),))

    def _plan(self, g: Graph, cops, phases, robber: int):
        """The walkers onto a separator of the robber's territory, and the
        phase's sizes; every cop the phases placed is stationed."""
        used = sum(s for _, s in phases)
        territory = component_of(g, robber, blocked=set(cops[:used]))
        sub_g, _, to_global = g.induced(sorted(territory))
        sep = separator(sub_g).separator
        targets = sorted(to_global[v] for v in sep)
        if used + len(targets) > self.k:
            raise TeamBudgetExceeded(used + len(targets), self.k)
        walkers = tuple((used + j, tuple(walk_toward(g, bfs_distances(g, t), self._centre)[1:]))
                        for j, t in enumerate(targets))
        return walkers, (len(territory), len(targets))

    def move(self, g: Graph, state, cops, robber: int, rnd: int):
        walkers, phases = state
        if not walkers:
            walkers, phase = self._plan(g, cops, phases, robber)
            phases += (phase,)
        out = list(cops)
        moving = []
        for c, route in walkers:
            if route:
                out[c], route = route[0], route[1:]
            if route:
                moving.append((c, route))
        return tuple(out), (tuple(moving), phases)

    def record(self, state) -> dict:
        return {**self.metadata,
                "phases": [{"territory": t, "separator": s} for t, s in state[1]]}


# ---------------------------------------------------------------------------
# path guarding


@dataclass(frozen=True)
class GuardedPath:
    """An isometric path being guarded via its retract shadow.

    home_dist[u] is the distance from path[0] to u inside the subgraph the
    path is isometric in (MAXDIST outside it); the shadow of a robber at u is
    the path vertex at index min(home_dist[u], len(path)-1). The guard's
    cop stands on the path whenever it moves by `guard_path_moves`, so its
    place on the path is read off the cop's vertex, not kept here.
    """

    path: tuple
    home_dist: tuple
    cop: int
    status: str = "chase"  # "chase" until the cop reaches the shadow, then "guard"

    def shadow_index(self, robber: int) -> int:
        return min(self.home_dist[robber], len(self.path) - 1)


def guard_path_moves(guard: GuardedPath, at: int, robber: int):
    """Next vertex for the guarding cop, which stands at path vertex `at`,
    and the guard after that step. Chasing steps along the path toward the
    shadow and flips to guarding on contact; guarding mirrors the shadow
    (always a legal step: the shadow moves at most one path vertex per
    robber move)."""
    i, j = guard.path.index(at), guard.shadow_index(robber)
    if guard.status == "chase" and i != j:
        return guard.path[i + (1 if j > i else -1)], guard
    if guard.status == "chase":
        guard = replace(guard, status="guard")
    return guard.path[j], guard


def _path(g: Graph, src: int, dst: int, allowed=None) -> list[int]:
    """Shortest src -> dst path inside `allowed`: BFS from src, then the
    step rule from dst back to src."""
    return walk_toward(g, bfs_distances(g, src, allowed), dst)[::-1]


def _join_path(g: Graph, territory, v1: int, v2: int) -> list[int]:
    """Shortest v1 -> v2 path whose inner vertices all lie in `territory`,
    never using a direct v1-v2 edge: BFS from v1 over the territory, then
    enter v2 from its nearest territory neighbour (smallest id on ties)."""
    dist = bfs_distances(g, v1, set(territory) | {v1})
    _, u = min((dist[u], u) for u in g.adj[v2] if u in territory)
    return walk_toward(g, dist, u)[::-1] + [v2]


# ---------------------------------------------------------------------------
# three-cop phase machine


class _Guarding(NamedTuple):
    """A three-cop game's state. `pending` is the guard walking its route to
    its path, or None. `plan` is the phase planned and not yet settled:
    (case, new guard's cop), and for "II-split" also the split guard's cop,
    the span's ends v1, v2 and the new path's first vertex. `phases` logs
    each settled phase as (case, shrink, round, territory size). Derived,
    not kept: the free cops (of 0, 1, 2, those neither guarding nor
    pending), the territory size before a phase (the last phase's, or n)
    and the last progress round (that of the last phase that shrank the
    territory or ended on a wall, or 0)."""

    guards: tuple
    pending: tuple | None
    plan: tuple
    phases: tuple = ()


def _auto_free(g: Graph, guards: tuple, robber: int):
    """Release guards whose removal leaves the robber's component unchanged.
    Returns the resulting territory (None if the robber is standing on a
    wall) and guards."""
    while True:
        guarding = [gd for gd in guards if gd.status == "guard"]
        walls = set()
        for gd in guarding:
            walls.update(gd.path)
        if robber in walls:
            return None, guards
        territory = component_of(g, robber, blocked=walls)
        for gd in guarding:
            rest = set()
            for other in guarding:
                if other.cop != gd.cop:
                    rest.update(other.path)
            if robber not in rest and component_of(g, robber, blocked=rest) == territory:
                guards = tuple(other for other in guards if other.cop != gd.cop)
                break
        else:
            return territory, guards


def _try_extension(g: Graph, guards: tuple, plan: tuple, territory, cops):
    """After a II-split, graft the split wall's outer segments onto the new
    guard's path: the guards with the new guard re-chasing on the graft, or
    None when the graft does not apply or leaves the new guard's cop off it."""
    if not plan or plan[0] != "II-split":
        return None
    _, new_cop, split_cop, v1, v2, u1 = plan
    by_cop = {gd.cop: gd for gd in guards}
    if split_cop not in by_cop or new_cop not in by_cop:
        return None
    new_guard = by_cop[new_cop]
    p1 = list(by_cop[split_cop].path)
    i1, i2 = p1.index(v1), p1.index(v2)
    if i1 > i2:
        i1, i2 = i2, i1
    mid = list(new_guard.path)
    if mid[0] != u1:
        mid.reverse()
    pprime = p1[: i1 + 1] + mid + p1[i2:]
    if len(set(pprime)) != len(pprime):
        return None
    for a, b in zip(pprime, pprime[1:]):
        if b not in g.adj[a]:
            return None
    allowed = set(territory) | set(pprime)
    dist = bfs_distances(g, pprime[0], allowed)
    if dist[pprime[-1]] != len(pprime) - 1:
        # asserted shortest path is not isometric here; take a real one
        pprime = walk_toward(g, dist, pprime[-1])[::-1]
    if cops[new_cop] not in pprime:
        return None
    grafted = replace(new_guard, path=tuple(pprime), home_dist=tuple(dist), status="chase")
    return tuple(grafted if gd.cop == new_cop else gd for gd in guards)


def _settle(g: Graph, state: _Guarding, robber: int, rnd: int, cops) -> _Guarding:
    """Release guards, graft after a II-split, and log the settled phase."""
    territory, guards = _auto_free(g, state.guards, robber)
    if territory is not None and sum(gd.status == "guard" for gd in guards) > 2:
        grafted = _try_extension(g, guards, state.plan, territory, cops)
        if grafted is not None:
            territory, guards = _auto_free(g, grafted, robber)
    size = len(territory) if territory is not None else 0
    case = state.plan[0] if state.plan else "rechase"
    prev = state.phases[-1][3] if state.phases else g.n
    phase = (case, prev - size, rnd, size)
    return state._replace(guards=guards, plan=(), phases=state.phases + (phase,))


def _plan(g: Graph, state: _Guarding, robber: int, cops) -> _Guarding:
    """Send the first free cop toward a new path that walls off the robber's
    territory, by the phase rules of ThreeCopPlanarPolicy."""
    walls = set()
    for gd in state.guards:
        walls.update(gd.path)
    free = [c for c in range(3) if all(gd.cop != c for gd in state.guards)]  # none is pending
    if robber in walls or not free:
        return state
    territory = component_of(g, robber, blocked=walls)
    guarding = [gd for gd in state.guards if gd.status == "guard"]
    atts = {gd.cop: [v for v in gd.path if any(u in territory for u in g.adj[v])]
            for gd in guarding}
    all_atts = sorted({v for a in atts.values() for v in a})
    if not all_atts:
        # nothing bounds the territory; should not happen after init
        return state
    split = ()

    if len(all_atts) == 1:
        v = all_atts[0]
        allowed = set(territory) | {v}
        dist = bfs_distances(g, v, allowed)
        far = max(dist[u] for u in allowed)
        u = min(w for w in allowed if dist[w] == far)
        newpath = _path(g, u, v, allowed)
        case, home_allowed = "III", allowed
    elif len(guarding) == 1:
        att = atts[guarding[0].cop]
        v1, v2 = att[0], att[-1]
        u1 = min(u for u in g.adj[v1] if u in territory)
        u2 = min(u for u in g.adj[v2] if u in territory)
        newpath = _path(g, u1, u2, territory)
        case, home_allowed = "I", set(territory)
    else:
        a1, a2 = atts[guarding[0].cop], atts[guarding[1].cop]
        if len(a1) == 1 and len(a2) == 1:
            v1, v2 = a1[0], a2[0]
            newpath = _join_path(g, territory, v1, v2)
            case, home_allowed = "II-join", set(territory) | {v1, v2}
        else:
            split_cop = guarding[0].cop if len(a1) >= 2 else guarding[1].cop
            att = atts[split_cop]
            v1, v2 = att[0], att[-1]
            u1 = min(u for u in g.adj[v1] if u in territory)
            u2 = min(u for u in g.adj[v2] if u in territory)
            newpath = _path(g, u1, u2, territory)
            case, home_allowed = "II-split", set(territory)
            split = (split_cop, v1, v2, newpath[0])

    cop = free[0]
    dist = bfs_distances(g, newpath[0], set(home_allowed) | set(newpath))
    guard = GuardedPath(path=tuple(newpath), home_dist=tuple(dist), cop=cop, status="chase")
    centre = newpath[len(newpath) // 2]
    route = tuple(_path(g, cops[cop], centre)[1:])
    return state._replace(pending=(guard, route), plan=(case, cop) + split)


class ThreeCopPlanarPolicy(CopPolicy):
    """Guard a diametral shortest path, then repeatedly wall off the robber's
    component with a new guarded path, releasing every guard whose path no
    longer bounds the territory. The bound is (diam + 1) * n rounds.

    Phase selection (att = path vertices with a neighbour in territory Y):

    * one attachment vertex overall: cut-vertex case; guard a farthest
      shortest path from it inside Y.
    * one guarded wall: connect the neighbours of its first and last
      attachments by a shortest path inside Y.
    * two walls with a single attachment each: connect those two attachment
      vertices through Y, ignoring any direct edge between them; both old
      guards release afterwards.
    * two walls, one with two or more attachments: split its span with a
      shortest path inside Y; if afterwards neither old wall can release,
      graft the split wall's outer segments onto the new path (re-verifying
      isometry, recomputing the path when the check fails) and re-chase.

    The build is the initial path and the state placement starts from; it
    takes the diameter and the path's first vertex from `extremes`. A
    game's state is a `_Guarding`, whose phase log `record` reports.
    """

    def __init__(self, g: Graph):
        if g.n == 0:
            raise DisconnectedGraph("empty graph has no metrics")
        # the diametral pair: the first u of largest eccentricity, and the
        # first vertex farthest from it
        try:
            _, _, self.diam, u = extremes(g)
        except DisconnectedGraph:
            raise DisconnectedGraph("three-cop policy needs a connected graph") from None
        self.bound = (self.diam + 1) * g.n
        du = bfs_distances(g, u)
        self.init_path = tuple(walk_toward(g, du, du.index(self.diam))[::-1])
        guard = GuardedPath(path=self.init_path, home_dist=tuple(du), cop=0, status="chase")
        self._start = _Guarding(guards=(), pending=(guard, ()), plan=("init", 0))
        self.metadata = {"policy": "three-cop"}

    def placement(self, g: Graph, k: int):
        if k != 3:
            raise ValueError("three-cop policy needs exactly k = 3")
        centre = self.init_path[len(self.init_path) // 2]
        return (centre, centre, centre), self._start

    def move(self, g: Graph, state, cops, robber: int, rnd: int):
        stuck = rnd - next((r for _, shrink, r, size in reversed(state.phases)
                            if shrink > 0 or size == 0), 0)
        if stuck > self.diam + g.n + 2:
            raise ProgressStall(f"territory stuck for {stuck} rounds")
        out = list(cops)
        guards = list(state.guards)
        pending = state.pending
        moved = set()
        settled = False

        if pending is not None:
            gd, route = pending
            if route:
                out[gd.cop], route = route[0], route[1:]
            else:
                out[gd.cop], gd = guard_path_moves(gd, cops[gd.cop], robber)
            pending = (gd, route)
            if gd.status == "guard":  # a pending guard chases until it settles
                guards.append(gd)
                pending = None
                settled = True
            moved.add(gd.cop)

        for i, gd in enumerate(guards):
            if gd.cop in moved:
                continue
            out[gd.cop], guards[i] = guard_path_moves(gd, cops[gd.cop], robber)
            moved.add(gd.cop)
            if gd.status == "chase" and guards[i].status == "guard":
                settled = True

        state = state._replace(guards=tuple(guards), pending=pending)
        if settled:
            state = _settle(g, state, robber, rnd, out)
        if state.pending is None and not any(gd.status == "chase" for gd in state.guards):
            state = _plan(g, state, robber, out)
        return tuple(out), state

    def record(self, state) -> dict:
        keys = ("case", "shrink", "round", "territory")
        return {**self.metadata, "phases": [dict(zip(keys, phase)) for phase in state.phases]}
