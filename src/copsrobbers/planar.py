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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DisconnectedGraph, ProgressStall, TeamBudgetExceeded
from .graphs import (
    Graph,
    bfs_distances,
    component_of,
    eccentricities,
    metrics,
    step_toward,
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

    S is the cheapest single BFS level from a vertex of maximum eccentricity
    (ties: most balanced split, then lowest level); A is every level below
    it and B every level above. On a connected graph one level always
    balances, so no wider separator is needed.
    """
    if g.n == 0:
        raise DisconnectedGraph("empty graph")
    try:
        ecc = eccentricities(g)
    except DisconnectedGraph:
        raise DisconnectedGraph("separator needs a connected graph") from None
    return _level_cut(g, ecc.index(max(ecc)))


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
    lowest-id centre. The bound is 6 * radius * log2(n) rounds."""

    def __init__(self, g: Graph, k: int):
        self.g = g
        self.k = k
        met = metrics(g)
        ecc = met.eccentricities
        self._first_separator = _level_cut(g, ecc.index(met.diameter)).separator
        self._centre = ecc.index(met.radius)
        self.bound = 6 * met.radius * math.log2(g.n)
        self.stationed: dict[int, int] = {}
        self.walkers: list[dict] = []
        self.metadata = {"policy": "separator-sweep", "phases": []}

    def placement(self, g: Graph, k: int):
        if k != self.k:
            raise ValueError("policy built for a different k")
        s0 = self._first_separator
        if len(s0) > k:
            raise TeamBudgetExceeded(len(s0), k)
        pos = list(s0) + [self._centre] * (k - len(s0))
        self.stationed = {i: s0[i] for i in range(len(s0))}
        self.walkers = []
        # a new list: the last game's transcript holds the old one
        self.metadata["phases"] = [{"territory": g.n, "separator": len(s0)}]
        return tuple(pos)

    def _plan(self, robber: int):
        g = self.g
        walls = set(self.stationed.values())
        territory = component_of(g, robber, blocked=walls)
        sub_g, _, to_global = g.induced(sorted(territory))
        sep = separator(sub_g).separator
        targets = sorted(to_global[v] for v in sep)
        used = len(self.stationed) + len(self.walkers)
        if used + len(targets) > self.k:
            raise TeamBudgetExceeded(used + len(targets), self.k)
        self.metadata["phases"].append(
            {"territory": len(territory), "separator": len(targets)}
        )
        for j, t in enumerate(targets):
            self.walkers.append(
                {"cop": used + j, "target": t, "dist": bfs_distances(g, t)}
            )

    def move(self, g: Graph, cops, robber: int, rnd: int):
        if not self.walkers:
            self._plan(robber)
        out = list(cops)
        arrived = []
        for w in self.walkers:
            c = w["cop"]
            pos = cops[c]
            if pos != w["target"]:
                pos = step_toward(g, w["dist"], pos)
                out[c] = pos
            if pos == w["target"]:
                arrived.append(w)
        for w in arrived:
            self.stationed[w["cop"]] = w["target"]
            self.walkers.remove(w)
        return tuple(out)


# ---------------------------------------------------------------------------
# path guarding


@dataclass
class GuardedPath:
    """An isometric path being guarded via its retract shadow.

    home_dist[u] is the distance from path[0] to u inside the subgraph the
    path is isometric in (MAXDIST outside it); the shadow of a robber at u is
    the path vertex at index min(home_dist[u], len(path)-1).
    """

    path: tuple
    home_dist: tuple
    cop: int
    status: str = "chase"  # "chase" until the cop reaches the shadow, then "guard"
    index: int = 0  # cop's current position as a path index

    def shadow_index(self, robber: int) -> int:
        return min(self.home_dist[robber], len(self.path) - 1)

    def shadow(self, robber: int) -> int:
        return self.path[self.shadow_index(robber)]


def guard_path_moves(guard: GuardedPath, robber: int) -> int:
    """Next vertex for the guarding cop. Chasing steps along the path toward
    the shadow and flips to guarding on contact; guarding mirrors the shadow
    (always a legal step: the shadow moves at most one path vertex per
    robber move)."""
    j = guard.shadow_index(robber)
    if guard.status == "chase" and guard.index == j:
        guard.status = "guard"
    if guard.status == "guard":
        guard.index = j
        return guard.path[j]
    guard.index += 1 if j > guard.index else -1
    return guard.path[guard.index]


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
    """

    def __init__(self, g: Graph):
        if g.n == 0:
            raise DisconnectedGraph("empty graph has no metrics")
        self.g = g
        # the diametral pair: the first u of largest eccentricity, and the
        # first vertex farthest from it
        try:
            ecc = eccentricities(g)
        except DisconnectedGraph:
            raise DisconnectedGraph("three-cop policy needs a connected graph") from None
        self.diam = max(ecc)
        self.bound = (self.diam + 1) * g.n
        du = self._init_dist = bfs_distances(g, ecc.index(self.diam))
        self.init_path = tuple(walk_toward(g, du, du.index(self.diam))[::-1])
        self.guards: list[GuardedPath] = []
        self.pending: dict | None = None
        self.free: list[int] = []
        self.last_progress = 0
        self.prev_territory = g.n
        self.metadata = {"policy": "three-cop", "phases": []}
        self._plan_info: dict | None = None

    def _auto_free(self, robber: int):
        """Release guards whose removal leaves the robber's component
        unchanged; returns the resulting territory (None if the robber is
        standing on a wall)."""
        while True:
            guarding = [gd for gd in self.guards if gd.status == "guard"]
            walls = set()
            for gd in guarding:
                walls.update(gd.path)
            if robber in walls:
                return None
            territory = component_of(self.g, robber, blocked=walls)
            dropped = False
            for gd in guarding:
                rest = set()
                for other in guarding:
                    if other is not gd:
                        rest.update(other.path)
                if robber in rest:
                    continue
                if component_of(self.g, robber, blocked=rest) == territory:
                    self.guards.remove(gd)
                    self.free.append(gd.cop)
                    self.free.sort()
                    dropped = True
                    break
            if not dropped:
                return territory

    def _try_extension(self, robber: int, territory):
        info = self._plan_info
        if not info or info.get("case") != "II-split":
            return False
        old_guard, new_guard = info["split_guard"], info["new_guard"]
        if old_guard not in self.guards or new_guard not in self.guards:
            return False
        p1 = list(old_guard.path)
        i1, i2 = p1.index(info["v1"]), p1.index(info["v2"])
        if i1 > i2:
            i1, i2 = i2, i1
        mid = list(new_guard.path)
        if mid[0] != info["u1"]:
            mid.reverse()
        pprime = p1[: i1 + 1] + mid + p1[i2:]
        if len(set(pprime)) != len(pprime):
            return False
        for a, b in zip(pprime, pprime[1:]):
            if b not in self.g.adj[a]:
                return False
        allowed = set(territory) | set(pprime)
        dist = bfs_distances(self.g, pprime[0], allowed)
        if dist[pprime[-1]] != len(pprime) - 1:
            # asserted shortest path is not isometric here; take a real one
            pprime = walk_toward(self.g, dist, pprime[-1])[::-1]
        cop_v = new_guard.path[new_guard.index]
        if cop_v not in pprime:
            return False
        new_guard.path = tuple(pprime)
        new_guard.home_dist = tuple(dist)
        new_guard.index = pprime.index(cop_v)
        new_guard.status = "chase"
        return True

    def _settle(self, robber: int, rnd: int):
        territory = self._auto_free(robber)
        if (
            territory is not None
            and sum(gd.status == "guard" for gd in self.guards) > 2
        ):
            if self._try_extension(robber, territory):
                territory = self._auto_free(robber)
        size = len(territory) if territory is not None else 0
        shrink = self.prev_territory - size
        case = self._plan_info["case"] if self._plan_info else "rechase"
        self.metadata["phases"].append(
            {"case": case, "shrink": shrink, "round": rnd, "territory": size}
        )
        if shrink > 0 or territory is None:
            self.last_progress = rnd
        self.prev_territory = size
        self._plan_info = None

    def _plan(self, robber: int, cops):
        walls = set()
        for gd in self.guards:
            walls.update(gd.path)
        if robber in walls or not self.free:
            return
        g = self.g
        territory = component_of(g, robber, blocked=walls)
        guarding = [gd for gd in self.guards if gd.status == "guard"]
        atts = {id(gd): [v for v in gd.path if any(u in territory for u in g.adj[v])]
                for gd in guarding}
        all_atts = sorted({v for a in atts.values() for v in a})
        if not all_atts:
            # nothing bounds the territory; should not happen after init
            return
        info: dict = {}

        if len(all_atts) == 1:
            v = all_atts[0]
            allowed = set(territory) | {v}
            dist = bfs_distances(g, v, allowed)
            far = max(dist[u] for u in allowed)
            u = min(w for w in allowed if dist[w] == far)
            newpath = _path(g, u, v, allowed)
            case, home_allowed = "III", allowed
        elif len(guarding) == 1:
            gd = guarding[0]
            att = atts[id(gd)]
            v1, v2 = att[0], att[-1]
            u1 = min(u for u in g.adj[v1] if u in territory)
            u2 = min(u for u in g.adj[v2] if u in territory)
            newpath = _path(g, u1, u2, territory)
            case, home_allowed = "I", set(territory)
        else:
            a1, a2 = atts[id(guarding[0])], atts[id(guarding[1])]
            if len(a1) == 1 and len(a2) == 1:
                v1, v2 = a1[0], a2[0]
                newpath = _join_path(g, territory, v1, v2)
                case, home_allowed = "II-join", set(territory) | {v1, v2}
            else:
                split = guarding[0] if len(a1) >= 2 else guarding[1]
                att = atts[id(split)]
                v1, v2 = att[0], att[-1]
                u1 = min(u for u in g.adj[v1] if u in territory)
                u2 = min(u for u in g.adj[v2] if u in territory)
                newpath = _path(g, u1, u2, territory)
                case, home_allowed = "II-split", set(territory)
                info.update({"split_guard": split, "v1": v1, "v2": v2, "u1": newpath[0]})

        cop = self.free.pop(0)
        dist = bfs_distances(g, newpath[0], set(home_allowed) | set(newpath))
        guard = GuardedPath(
            path=tuple(newpath),
            home_dist=tuple(dist),
            cop=cop,
            status="chase",
            index=len(newpath) // 2,
        )
        centre = newpath[len(newpath) // 2]
        route = _path(g, cops[cop], centre)[1:]
        self.pending = {"guard": guard, "route": route}
        info.update({"case": case, "new_guard": guard})
        self._plan_info = info

    def placement(self, g: Graph, k: int):
        if k != 3:
            raise ValueError("three-cop policy needs exactly k = 3")
        centre = self.init_path[len(self.init_path) // 2]
        guard = GuardedPath(
            path=self.init_path,
            home_dist=tuple(self._init_dist),
            cop=0,
            status="chase",
            index=len(self.init_path) // 2,
        )
        self.guards = []
        self.pending = {"guard": guard, "route": []}
        self._plan_info = {"case": "init", "new_guard": guard}
        self.metadata["phases"] = []
        self.free = [1, 2]
        self.last_progress = 0
        self.prev_territory = g.n
        return (centre, centre, centre)

    def move(self, g: Graph, cops, robber: int, rnd: int):
        if rnd - self.last_progress > self.diam + g.n + 2:
            raise ProgressStall(
                f"territory stuck for {rnd - self.last_progress} rounds"
            )
        out = list(cops)
        moved = set()
        settled = False

        if self.pending is not None:
            pd = self.pending
            cop = pd["guard"].cop
            if pd["route"]:
                out[cop] = pd["route"].pop(0)
            else:
                gd = pd["guard"]
                out[cop] = guard_path_moves(gd, robber)
                if gd.status == "guard":
                    self.guards.append(gd)
                    self.pending = None
                    settled = True
            moved.add(cop)

        for gd in list(self.guards):
            if gd.cop in moved:
                continue
            was = gd.status
            out[gd.cop] = guard_path_moves(gd, robber)
            moved.add(gd.cop)
            if was == "chase" and gd.status == "guard":
                settled = True

        if settled:
            self._settle(robber, rnd)
        if self.pending is None and not any(gd.status == "chase" for gd in self.guards):
            self._plan(robber, out)
        return tuple(out)
