"""Independent reference implementations used only as test oracles.

These deliberately use different algorithm families from the package code:
global relaxation sweeps and per-state counter retrograde analysis instead
of the bitset level sweep, and plain subset enumeration instead of pruned or
branch-and-bound search. Graph walks and matching are checked against
straightforward per-purpose versions: a multi-source level-set BFS (run
from every vertex in place of the bit-parallel eccentricity sweep),
parent-pointer BFS, edge-forbidding restricted BFS, set-grown components
and the recursive augmenting DFS.
The solver's placement and policy choices are checked against full scans
of counter_retrograde's dense per-state values.
Graph construction is checked against per-entry validation over a set of
directed pairs, and G(n, p) against its edge-list build.
The tree chase and the solver's cop move are checked against their rules
as first written: a clamp walked onto each cop's home ball, and a joint move
realised by scanning permutations of the chosen config.
The sphere trap's distance balls are checked against one BFS per target,
and the greedy k-center's multi-source BFS against the all-pairs table.
The k-center ball search is checked against the exhaustive k-subset scan
over that table, and the domination search against subset enumeration, a
tree dynamic program and the small-grid closed forms.
The exhaustive worst-case search is checked against replaying every robber
line with `play`, a fresh policy per line and no memo.
The greedy robbers' territory searches are checked against their rule as
first written: the argmax over a full BFS from the cops.
"""

import itertools
from collections import deque

from copsrobbers.graphs import MAXDIST, Graph, walk_toward
from copsrobbers.matching import hopcroft_karp
from copsrobbers.play import RobberPolicy, play
from copsrobbers.rng import make_rng
from copsrobbers.solver import ROB
from copsrobbers.sphere_trap import HallWitnessResult, TrapAssignment
from copsrobbers.strategies import _farthest

INF = float("inf")


def naive_game_values(g, k):
    """Game values by fixed-point relaxation over the entire state space.

    Starts every non-capture state at infinity and sweeps until stable; the
    decreasing iteration converges to the true optimal values.
    """
    closed = g.closed
    configs = list(itertools.combinations_with_replacement(range(g.n), k))
    vc, vr = {}, {}
    for C in configs:
        occ = set(C)
        for r in range(g.n):
            base = 0 if r in occ else INF
            vc[(C, r)] = base
            vr[(C, r)] = base
    moves = {}
    for C in configs:
        ms = set()
        for prod in itertools.product(*(closed[c] for c in C)):
            ms.add(tuple(sorted(prod)))
        moves[C] = sorted(ms)
    changed = True
    while changed:
        changed = False
        for C in configs:
            occ = set(C)
            for r in range(g.n):
                if r in occ:
                    continue
                worst = max(vc[(C, rp)] for rp in closed[r])
                if worst != vr[(C, r)]:
                    vr[(C, r)] = worst
                    changed = True
                best = min(vr[(C2, r)] for C2 in moves[C])
                best = best + 1 if best != INF else INF
                if best != vc[(C, r)]:
                    vc[(C, r)] = best
                    changed = True
    return vc, vr


def product_moves(g, configs, config_index):
    """Joint-move sets as config-index sets, one per config, from the full
    per-cop product of closed neighbourhoods, each product sorted into a
    canonical multiset."""
    closed = g.closed
    out = []
    for cfg in configs:
        seen = {tuple(sorted(prod)) for prod in itertools.product(*(closed[c] for c in cfg))}
        out.append({config_index[c] for c in seen})
    return out


def counter_retrograde(g, k):
    """Game values by frontier retrograde analysis with per-state counters.

    Returns (val_cop, val_rob, states_visited, moves) in the solver's dense
    layout (index config_index * n + robber, None for robber-win states);
    moves[ci] is the set of config indices one joint move away. A robber-turn
    state keeps a counter of its robber moves not yet known to be losing and
    settles when it reaches zero; a cop-turn state settles the first time a
    joint move reaches a settled robber-turn state.
    """
    n = g.n
    closed = g.closed
    configs = tuple(itertools.combinations_with_replacement(range(n), k))
    config_index = {c: i for i, c in enumerate(configs)}
    moves = product_moves(g, configs, config_index)
    val_cop = [None] * (len(configs) * n)
    val_rob = [None] * (len(configs) * n)
    counter = [len(closed[r]) for _ in configs for r in range(n)]

    cur = []
    for ci, cfg in enumerate(configs):
        for r in set(cfg):
            val_cop[ci * n + r] = 0
            val_rob[ci * n + r] = 0
            cur.append((ci, r, 0))
            cur.append((ci, r, 1))
    visited = len(cur)
    level = 0
    while cur:
        nxt = []
        i = 0
        while i < len(cur):
            ci, r, mover = cur[i]
            i += 1
            if mover == 0:
                for rp in closed[r]:
                    idx = ci * n + rp
                    if val_rob[idx] is None:
                        counter[idx] -= 1
                        if counter[idx] == 0:
                            val_rob[idx] = level
                            cur.append((ci, rp, 1))
                            visited += 1
            else:
                for cj in moves[ci]:
                    idx = cj * n + r
                    if val_cop[idx] is None:
                        val_cop[idx] = level + 1
                        nxt.append((cj, r, 0))
                        visited += 1
        cur = nxt
        level += 1
    return val_cop, val_rob, visited, moves


def _dense(vals, ci, n, r):
    v = vals[ci * n + r]
    return MAXDIST if v is None else v


def dense_best_placement(configs, n, val_cop):
    """(config, value): the first config whose worst robber placement is
    smallest, scanning every cop-to-move state."""
    best_cfg, best_val = None, MAXDIST + 1
    for ci, cfg in enumerate(configs):
        worst = max(_dense(val_cop, ci, n, r) for r in range(n))
        if worst < best_val:
            best_cfg, best_val = cfg, worst
    return best_cfg, best_val


def dense_cop_move(val_rob, n, succs, r):
    """The successor config index of least robber-to-move value, smallest
    index on ties."""
    best_val, best = MAXDIST + 1, None
    for cj in sorted(succs):
        v = _dense(val_rob, cj, n, r)
        if v < best_val:
            best_val, best = v, cj
    return best


def dense_robber_choice(val_cop, n, ci, choices):
    """The first of `choices` with the largest cop-to-move value."""
    best_r, best_v = None, -1
    for r in choices:
        v = _dense(val_cop, ci, n, r)
        if v > best_v:
            best_r, best_v = r, v
    return best_r


def naive_capture_time(g, k):
    vc, _ = naive_game_values(g, k)
    configs = sorted({C for C, _ in vc})
    best = INF
    for C in configs:
        worst = max(vc[(C, r)] for r in range(g.n))
        best = min(best, worst)
    return best


def all_pairs(g):
    """The n x n distance table, one level-set BFS per vertex."""
    return [reference_bfs_distances(g, v) for v in range(g.n)]


def brute_force_k_center(g, k):
    """Exhaustive k-center over the all-pairs table: every k-subset in
    lexicographic order, each scan cut off once it reaches the incumbent
    radius, so ties keep the lexicographically smallest set. Returns
    (centers, radius)."""
    dist = all_pairs(g)
    best_r, best = INF, None
    for combo in itertools.combinations(range(g.n), min(k, g.n)):
        rows = [dist[c] for c in combo]
        r = 0
        for v in range(g.n):
            r = max(r, min(row[v] for row in rows))
            if r >= best_r:
                break
        else:
            best_r, best = r, combo
    return best, best_r


def reference_greedy_k_center(g, k, dist):
    """Farthest-point k-center from vertex 0 over the all-pairs table: each
    added center is the first vertex of largest distance to the centers so
    far. Returns (sorted centers, radius)."""
    centers = [0]
    while len(centers) < k:
        best_v, best_d = -1, -1
        for v in range(g.n):
            dv = min(dist[c][v] for c in centers)
            if dv > best_d:
                best_v, best_d = v, dv
        centers.append(best_v)
    radius = max(min(dist[c][v] for c in centers) for v in range(g.n))
    return tuple(sorted(centers)), radius


def brute_force_domination(g):
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            covered = set()
            for v in combo:
                covered.add(v)
                covered.update(g.adj[v])
            if len(covered) == g.n:
                return size
    return g.n


def tree_domination(g):
    """Domination number of a tree by dynamic programming over the BFS tree
    from vertex 0. Per subtree, the least dominating set with its root in
    the set (a), out of it but dominated by a child (b), and out of it and
    left to its parent (c)."""
    dist, parent = bfs_parents(g, 0)
    a, b, c = [1] * g.n, [0] * g.n, [0] * g.n
    extra = [INF] * g.n  # least cost of putting one child of b's root in the set
    for v in sorted(range(g.n), key=lambda v: -dist[v]):
        b[v] += extra[v]
        p = parent[v]
        if p >= 0:
            a[p] += min(a[v], b[v], c[v])
            b[p] += min(a[v], b[v])
            c[p] += b[v]
            extra[p] = min(extra[p], a[v] - min(a[v], b[v]))
    return min(a[0], b[0])


def grid_domination(m, n):
    """Domination number of the m x n grid for m <= 4 (Jacobson & Kinch,
    "On the domination number of products of graphs: I", 1984)."""
    m, n = sorted((m, n))
    if m == 1:
        return (n + 2) // 3
    if m == 2:
        return (n + 2) // 2
    if m == 3:
        return (3 * n + 4) // 4
    if m == 4:
        return n + 1 if n in (5, 6, 9) else n
    raise ValueError("closed form known here only for m <= 4")


def has_cycle(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return True
        parent[ru] = rv
    return False


# ---------------------------------------------------------------------------
# graph walks and matching: references for the BFS kernel, the step rule
# and the iterative augmenting search

MAXDIST = 2**31 - 1


def bfs_parents(g, source):
    """BFS tree (dist, parent) from source; a parent is the vertex that
    discovered the child first."""
    dist = [MAXDIST] * g.n
    parent = [-1] * g.n
    dist[source] = 0
    q = deque([source])
    while q:
        v = q.popleft()
        for u in g.adj[v]:
            if dist[u] == MAXDIST:
                dist[u] = dist[v] + 1
                parent[u] = v
                q.append(u)
    return dist, parent


def reference_bfs_distances(g, sources, allowed=None):
    """Level-set BFS with bfs_distances' contract: one id or an iterable of
    ids, confined to `allowed` when given, every id range-checked. Each
    level is the set of unvisited allowed neighbours of the one before."""
    sources = [sources] if isinstance(sources, int) else list(sources)
    inside = set(range(g.n)) if allowed is None else set(allowed)
    for v in sources + sorted(inside):
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    dist = [MAXDIST] * g.n
    level, d = {s for s in sources if s in inside}, 0
    while level:
        for v in level:
            dist[v] = d
        level = {u for v in level for u in g.adj[v] if u in inside and dist[u] == MAXDIST}
        d += 1
    return dist


def reference_eccentricities(g):
    """Eccentricities from one level-set BFS per vertex."""
    return [max(reference_bfs_distances(g, v)) for v in range(g.n)]


def reference_erosion_tables(g):
    """The solver's erosion tables, byte by byte from Graph.masks: for each
    robber byte j, the (b, table) pairs for every cop byte b that holds a
    closed neighbour of a vertex of byte j, and for b = j; bit i of
    table[x] is 1 when every closed neighbour u of r = 8j + i with
    u // 8 == b has bit u % 8 set in x."""
    n = g.n
    cell = (n + 7) // 8
    erosion = []
    for j in range(cell):
        tables = []
        for b in range(cell):
            need = [[u % 8 for u in range(8 * b, min(8 * b + 8, n)) if g.masks[r] >> u & 1]
                    for r in range(8 * j, min(8 * j + 8, n))]
            if b != j and not any(need):
                continue
            table = bytes(sum(1 << i for i, bits in enumerate(need)
                              if all(x >> u & 1 for u in bits)) for x in range(256))
            tables.append((b, table))
        erosion.append(tables)
    return erosion


def reference_separator(g):
    """(root, separator, side_a, side_b) of the one-level separator: the root
    is the first vertex of largest eccentricity (one BFS per vertex), S the
    balanced BFS level from it with the fewest vertices, then the smallest
    larger side, then the lowest level; A is every level below S, B above."""
    ecc = reference_eccentricities(g)
    root = ecc.index(max(ecc))
    dist = reference_bfs_distances(g, root)
    n = g.n
    best = min(
        (len([v for v in range(n) if dist[v] == i]), max(below, above), i)
        for i in range(max(ecc) + 1)
        for below, above in [(sum(d < i for d in dist), sum(d > i for d in dist))]
        if 3 * below <= 2 * n and 3 * above <= 2 * n
    )
    i = best[2]
    return (
        root,
        tuple(v for v in range(n) if dist[v] == i),
        tuple(v for v in range(n) if dist[v] < i),
        tuple(v for v in range(n) if dist[v] > i),
    )


def parent_walk(parent, v, steps):
    """Follow BFS parents from v for `steps` steps."""
    for _ in range(steps):
        v = parent[v]
    return v


def restricted_dist(g, allowed, source, forbidden_edge=None):
    """BFS distances inside `allowed`, optionally never using one edge."""
    dist = [MAXDIST] * g.n
    if source not in allowed:
        return dist
    dist[source] = 0
    q = deque([source])
    fe = frozenset(forbidden_edge) if forbidden_edge else None
    while q:
        v = q.popleft()
        for u in g.adj[v]:
            if u not in allowed or dist[u] != MAXDIST:
                continue
            if fe and {u, v} == fe:
                continue
            dist[u] = dist[v] + 1
            q.append(u)
    return dist


def restricted_path(g, allowed, src, dst, forbidden_edge=None):
    """Shortest src -> dst path inside `allowed` (BFS from src, then walk
    back from dst through smallest-id predecessors); None if unreachable."""
    dist = restricted_dist(g, allowed, src, forbidden_edge)
    if dist[dst] == MAXDIST:
        return None
    fe = frozenset(forbidden_edge) if forbidden_edge else None
    path = [dst]
    while path[-1] != src:
        v = path[-1]
        path.append(
            min(
                u
                for u in g.adj[v]
                if u in allowed
                and dist[u] == dist[v] - 1
                and not (fe and {u, v} == fe)
            )
        )
    path.reverse()
    return path


def component_of(g, start, blocked=frozenset()):
    """Vertices reachable from start in g minus `blocked`, grown as a set."""
    if start in blocked:
        return set()
    seen = {start}
    q = deque([start])
    while q:
        v = q.popleft()
        for u in g.adj[v]:
            if u not in seen and u not in blocked:
                seen.add(u)
                q.append(u)
    return seen


def recursive_hopcroft_karp(adj, n_right):
    """Hopcroft-Karp with the textbook recursive augmenting DFS; small
    instances only (recursion depth grows with the augmenting chain)."""
    n_left = len(adj)
    pair_left = [-1] * n_left
    pair_right = [-1] * n_right
    dist = [-1] * n_left

    def bfs():
        q = deque()
        found = False
        for u in range(n_left):
            if pair_left[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = -1
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = pair_right[v]
                if w == -1:
                    found = True
                elif dist[w] == -1:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return found

    def dfs(u):
        for v in adj[u]:
            w = pair_right[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                pair_left[u] = v
                pair_right[v] = u
                return True
        dist[u] = -1
        return False

    size = 0
    while bfs():
        for u in range(n_left):
            if pair_left[u] == -1 and dfs(u):
                size += 1
    return size, pair_left, pair_right


# ---------------------------------------------------------------------------
# graph construction: per-entry validation and the edge-list G(n, p)


def reference_graph_adj(n, adjacency):
    """(adj, m) as Graph(n, adjacency) builds them, validated entry by entry
    and with symmetry checked on the set of directed pairs; raises
    ValueError with Graph's message, naming the first offending vertex and,
    for asymmetry, the smallest offending pair."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if len(adjacency) != n:
        raise ValueError("adjacency must have one entry per vertex")
    adj = []
    for v, nbrs in enumerate(adjacency):
        try:
            nbrs = list(nbrs)
        except TypeError:
            raise ValueError(f"neighbours of {v} must be an iterable of ints") from None
        if any(type(u) is not int for u in nbrs):
            raise ValueError(f"neighbour ids of {v} must be ints")
        ns = tuple(sorted(nbrs))
        for u in ns:
            if not 0 <= u < n:
                raise ValueError(f"neighbour {u} of {v} out of range")
            if u == v:
                raise ValueError(f"self-loop stored at {v}; reflexivity is implicit")
        if any(ns[i] == ns[i + 1] for i in range(len(ns) - 1)):
            raise ValueError(f"duplicate neighbour entry at {v}")
        adj.append(ns)
    directed = {(v, u) for v in range(n) for u in adj[v]}
    for v, u in sorted(directed):
        if (u, v) not in directed:
            raise ValueError(f"asymmetric adjacency: {v}->{u} without {u}->{v}")
    return tuple(adj), len(directed) // 2


def reference_gen_gnp(n, p, seed):
    """G(n, p) as an edge list over the pairs u < v in lexicographic order,
    one rng draw per pair, built by Graph.from_edges."""
    rng = make_rng(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# sphere-trap matching: one BFS per target and the special-cased route


def _reference_route(g, src, dst):
    """Deterministic shortest route src -> dst; fast paths for length <= 2."""
    if src == dst:
        return [src]
    if dst in g.adj[src]:
        return [src, dst]
    common = g.masks[src] & g.masks[dst]
    if common:
        mid = (common & -common).bit_length() - 1
        return [src, mid, dst]
    return walk_toward(g, reference_bfs_distances(g, dst), src)


def reference_trap_matching(g, cops, v, d, reach, mode="hypercube"):
    """sphere_trap.trap_matching as it was before the distance balls: the
    eligible cops of each sphere target come from a BFS run from that
    target, and routes from `_reference_route`. The matching itself is the
    package's Hopcroft-Karp, so equal eligibility lists give equal results."""
    if reach < 1:
        raise ValueError("reach must be at least 1")
    if mode not in ("hypercube", "general"):
        raise ValueError(f"unknown mode {mode!r}")
    dist_v = reference_bfs_distances(g, v)
    targets = [u for u in range(g.n) if dist_v[u] == d]
    if not targets:
        return TrapAssignment({})
    cops = list(cops)
    need = d + 1 if mode == "hypercube" else reach
    adj = []
    for t in targets:
        dist_t = reference_bfs_distances(g, t)
        elig = []
        for cop_id, pos in enumerate(cops):
            if mode == "hypercube":
                if pos == t or dist_t[pos] == d + 1:
                    elig.append(cop_id)
            elif dist_t[pos] <= reach:
                elig.append(cop_id)
        adj.append(elig)
    size, pair_left, _, deficient = hopcroft_karp(adj, len(cops))
    if size < len(targets):
        reached = {c for i in deficient for c in adj[i]}
        return HallWitnessResult(tuple(targets[i] for i in deficient), tuple(sorted(reached)))
    routes = {}
    for i, t in enumerate(targets):
        cop_id = pair_left[i]
        routes[cop_id] = tuple(_reference_route(g, cops[cop_id], t))
        if len(routes[cop_id]) - 1 > max(need, reach):
            raise AssertionError("route longer than the admissibility bound")
    return TrapAssignment(routes)


# ---------------------------------------------------------------------------
# cop move rules as first written


def reference_tree_move(g, homes, radius, cops, robber):
    """TreePolicy's move by its definition: walk the robber toward each cop's
    home until it is within `radius` of it (the clamp), then take the cop's
    smallest-id step along a BFS from the clamp; a cop on the clamp stays."""
    out = []
    for c, h in zip(cops, homes):
        home = reference_bfs_distances(g, h)
        clamp = robber
        while home[clamp] > radius:
            clamp = min(u for u in g.adj[clamp] if home[u] < home[clamp])
        if c == clamp:
            out.append(c)
            continue
        dist = reference_bfs_distances(g, clamp)
        out.append(min(u for u in g.adj[c] if dist[u] < dist[c]))
    return tuple(out)


def reference_solver_cop_move(table, cops, robber):
    """SolverCopPolicy's move as first written: the first config, in
    ascending joint_moves order, of least robber-turn value, realised by the
    first permutation of it, in lexicographic order, that every cop can step
    to."""
    ci = table.config_index[tuple(sorted(cops))]
    succs = [table.configs[cj] for cj in table.joint_moves(ci)]
    target = min(succs, key=lambda cfg: table.value(cfg, robber, ROB))
    closed = table.graph.closed
    for perm in sorted(set(itertools.permutations(target))):
        if all(dst in closed[src] for src, dst in zip(cops, perm)):
            return perm
    raise ValueError("target config is not one joint move away")


# ---------------------------------------------------------------------------
# robber move rules as first written


def reference_greedy_move(g, cops, robber):
    """GreedyRobber's move as first written: the robbers' argmax over a full
    BFS from the cops, on N[robber]."""
    return _farthest(reference_bfs_distances(g, cops), robber, g.closed[robber])


def reference_greedy_fast_move(g, cops, robber):
    """GreedyFastRobber's move as first written: the same argmax over the
    robber's sorted component of g minus the cops' vertices."""
    dist = reference_bfs_distances(g, cops)
    return _farthest(dist, robber, sorted(component_of(g, robber, set(cops))))


class ScriptedRobber(RobberPolicy):
    """Places at line[0] and moves to line[rnd] in round rnd; once the line
    runs out it stays."""

    metadata = {"policy": "scripted"}

    def __init__(self, line):
        self.line = tuple(line)

    def placement(self, g, cops):
        return self.line[0]

    def move(self, g, cops, robber, rnd):
        return self.line[rnd] if rnd < len(self.line) else robber


def replayed_worst_case(g, make, k, horizon):
    """worst_case_capture_round by replay: each robber line is a game that
    `play` referees from placement, with a fresh cop policy from make() and
    no memo. Lines go in the search's order (ascending start, then ascending
    N[robber]) and stop at the first surviving line; an error a game raises
    propagates."""
    def value(line):
        # the robber stands at line[-1] before the cops' move of round len(line)
        rnd = len(line)
        if rnd > horizon:
            return None
        t = play(g, k, make(), ScriptedRobber(line), max_rounds=rnd)
        if t.capture_round is not None:
            return t.capture_round
        cops = t.rounds[-1][0]
        worst = 0
        for nr in g.closed[line[-1]]:
            res = rnd if nr in cops else value(line + (nr,))
            if res is None:
                return None
            worst = max(worst, res)
        return worst

    cops0, _ = make().placement(g, k)
    worst = 0
    for r0 in range(g.n):
        res = 0 if r0 in cops0 else value((r0,))
        if res is None:
            return None
        worst = max(worst, res)
    return worst
