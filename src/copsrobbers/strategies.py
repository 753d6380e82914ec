"""Constructive cop strategies (tree chase, territory partitions, grid
covers, subcube partitions) and robber counter-strategies.

The territory machinery follows one scheme: split the vertex set into
territories that are retracts of the whole graph, each given by its retract
map alone (the territory is the map's image), give each territory a team
that plays a winning sub-strategy against the robber's image under the
retract, and keep shadowing after the image is caught. Once every team holds
its image, the team owning the robber's actual territory holds the robber.
"""

from __future__ import annotations

import itertools
import math

from .errors import (
    CoverageGap,
    NotATree,
    PackingImpossible,
    RetractInvalid,
    SubcubeTooLarge,
    TooFewCops,
)
from .generators import CubeCodec, GridCodec, box_retract, subcube_partition, subcube_retract
from .graphs import (
    Graph,
    bfs_distances,
    component_of,
    is_tree,
    k_center,
    step_toward,
    verify_retract,
)
from .play import CopPolicy, RobberPolicy
from .rng import make_rng, rand_below
from .solver import MAXDIST, extract_policies, solve


# ---------------------------------------------------------------------------
# robber policies


def _farthest(dist, start: int, choices) -> int:
    """The robbers' one argmax rule: `start`, unless some vertex of `choices`
    (ascending) is farther in `dist`, and then the first farthest one. On a
    move `start` is the robber's own vertex, so a tie with it stays; at
    placement it is vertex 0."""
    best, best_d = start, dist[start]
    for v in choices:
        if dist[v] > best_d:
            best, best_d = v, dist[v]
    return best


class StayFarRobber(RobberPolicy):
    """Place at the smallest-id vertex of maximum distance to the nearest
    cop, never move."""

    metadata = {"policy": "stay-far"}

    def placement(self, g: Graph, cops) -> int:
        return _farthest(bfs_distances(g, cops), 0, range(g.n))

    def move(self, g: Graph, cops, robber: int, rnd: int) -> int:
        return robber


class GreedyRobber(StayFarRobber):
    """Move to the closed-neighbourhood vertex maximising distance to the
    nearest cop: staying on a tie with its own vertex, and otherwise the
    smallest id among the farthest. Places like the stay-far robber."""

    metadata = {"policy": "greedy"}

    def move(self, g: Graph, cops, robber: int, rnd: int) -> int:
        return _farthest(bfs_distances(g, cops), robber, g.closed[robber])


class GreedyFastRobber(StayFarRobber):
    """Greedy robber for the infinitely-fast variant: relocates anywhere in
    its component of the graph minus the cops' vertices, by the greedy
    robber's rule."""

    metadata = {"policy": "greedy-fast"}
    fast_only = True

    def move(self, g: Graph, cops, robber: int, rnd: int) -> int:
        reachable = component_of(g, robber, blocked=set(cops))
        return _farthest(bfs_distances(g, cops), robber, sorted(reachable))


class RandomWalkRobber(RobberPolicy):
    """Uniform step within the closed neighbourhood each round; placement is
    a uniform vertex and restarts the seeded stream, as a fresh robber would."""

    def __init__(self, seed):
        self.seed = seed
        self.metadata = {"policy": "random-walk", "seed": str(seed)}

    def placement(self, g: Graph, cops) -> int:
        self.rng = make_rng(self.seed)
        return rand_below(self.rng, g.n)

    def move(self, g: Graph, cops, robber: int, rnd: int) -> int:
        nbrs = g.closed[robber]
        return nbrs[rand_below(self.rng, len(nbrs))]


class PigeonholeGridRobber(RobberPolicy):
    """Packs k+1 pairwise-disjoint boxes, sits at the centre of a cop-free
    one (one exists by pigeonhole), and never moves."""

    metadata = {"policy": "pigeonhole-grid"}

    def __init__(self, g: Graph, codec: GridCodec, k: int):
        dims = codec.dims
        d = len(dims)
        m = 1
        while m**d < k + 1:
            m += 1
        sides = [dim // m for dim in dims]
        if any(s < 1 for s in sides):
            raise PackingImpossible(
                f"cannot pack {k + 1} disjoint boxes into grid {dims}"
            )
        self.codec = codec
        self.min_side = min(sides)
        # (lo, hi) corners of the m**d boxes, the first axis outermost
        self.boxes = [
            tuple(zip(*((j * s, (j + 1) * s - 1) for j, s in zip(js, sides))))
            for js in itertools.product(range(m), repeat=d)
        ]

    def placement(self, g: Graph, cops) -> int:
        cop_coords = {self.codec.coord_of(c) for c in cops}
        for lo, hi in self.boxes:
            if any(
                all(l <= c <= h for c, l, h in zip(coord, lo, hi))
                for coord in cop_coords
            ):
                continue
            centre = tuple(l + (h - l) // 2 for l, h in zip(lo, hi))
            return self.codec.id_of(centre)
        raise PackingImpossible("no cop-free box found")  # k+1 boxes, k cops

    def move(self, g: Graph, cops, robber: int, rnd: int) -> int:
        return robber


class StaticCopPolicy(CopPolicy):
    """Cops that place at fixed positions and never move; test scaffolding."""

    metadata = {"policy": "static"}

    def __init__(self, positions):
        self.positions = tuple(positions)

    def placement(self, g: Graph, k: int):
        if len(self.positions) != k:
            raise ValueError("position count mismatch")
        return self.positions, None

    def move(self, g: Graph, state, cops, robber: int, rnd: int):
        return tuple(cops), None


# ---------------------------------------------------------------------------
# tree chase


class TreePolicy(CopPolicy):
    """One cop per exact k-center vertex; each cop chases the robber's image
    under the retract onto its radius-rad_k ball. Captures within rad_k
    rounds, its bound. It plays len(homes) cops, one per home.

    One BFS from the robber decides every cop's move. On a tree the ball is
    a convex subtree, so the image (the clamp) lies on every path from the
    ball to the robber, max(0, dist(robber, home) - rad_k) from the robber.
    A cop in its ball is on the clamp exactly when it is that close to the
    robber; there it stays, and otherwise it steps along the unique tree
    path toward the robber, which passes through the clamp."""

    def __init__(self, g: Graph, k: int):
        if not is_tree(g):
            raise NotATree("tree policy needs an acyclic connected graph")
        kc = k_center(g, k, mode="exact")
        self.bound = kc.radius
        homes = list(kc.centers)
        while len(homes) < k:
            homes.append(homes[0])
        self.homes = tuple(homes)
        self.metadata = {"policy": "tree", "radius": self.bound}

    def placement(self, g: Graph, k: int):
        if k != len(self.homes):
            raise ValueError("policy built for a different k")
        return self.homes, None

    def move(self, g: Graph, state, cops, robber: int, rnd: int):
        dist = bfs_distances(g, robber)
        return tuple(
            c if dist[c] <= max(0, dist[h] - self.bound) else step_toward(g, dist, c)
            for c, h in zip(cops, self.homes)
        ), None


# ---------------------------------------------------------------------------
# territory partitions


class RetractPartitionPolicy(CopPolicy):
    """Territory play: team i runs the solver's optimal policy on territory i
    against the robber's image under the territory's retract.

    territories: iterable of (RetractMap, k_i) pairs. Territory i is the
    image of retract i; each retract must pass verification, and the images
    must cover V(g). Surplus cops idle at vertex 0. Territories that induce
    the same graph with the same team size share one (stateless) sub-policy.
    Every team holds its robber image within its territory's capture time,
    so the largest of these is the policy's bound.

    A team is (retract, to_local, to_global, sub_policy): its size is the
    sub-policy table's k and its territory graph is the table's graph.
    """

    def __init__(self, g: Graph, territories):
        covered = set()
        self.teams = []
        sub_policies = {}
        for retract, k_i in territories:
            ok, violation = verify_retract(g, retract)
            if not ok:
                raise RetractInvalid(f"territory retract fails: {violation}")
            verts = sorted(retract.image)
            sub_g, to_local, to_global = g.induced(verts)
            if (sub_g, k_i) not in sub_policies:
                sub_policy, _ = extract_policies(solve(sub_g, k_i))
                if sub_policy.bound >= MAXDIST:
                    raise TooFewCops(f"{k_i} cops cannot win on a {sub_g.n}-vertex territory")
                sub_policies[sub_g, k_i] = sub_policy
            self.teams.append((retract, to_local, to_global, sub_policies[sub_g, k_i]))
            covered.update(verts)
        if covered != set(range(g.n)):
            missing = sorted(set(range(g.n)) - covered)
            raise CoverageGap(f"territories miss vertices {missing[:10]}")
        self.bound = max(pol.bound for pol in sub_policies.values())
        self.metadata = {
            "policy": "retract-partition",
            "territories": len(self.teams),
        }

    def placement(self, g: Graph, k: int):
        need = sum(sub.table.k for *_, sub in self.teams)
        if k < need:
            raise TooFewCops(f"need {need} cops, given {k}")
        out = []
        for _, _, to_global, sub in self.teams:
            local, _ = sub.placement(sub.table.graph, sub.table.k)
            out.extend(to_global[v] for v in local)
        out.extend([0] * (k - need))  # idle surplus
        return tuple(out), None

    def move(self, g: Graph, state, cops, robber: int, rnd: int):
        out = list(cops)
        base = 0
        for retract, to_local, to_global, sub in self.teams:
            kk = sub.table.k
            local_cops = tuple(to_local[cops[base + i]] for i in range(kk))
            local_new, _ = sub.move(
                sub.table.graph, None, local_cops, to_local[retract.mapping[robber]], rnd
            )
            for i, v in enumerate(local_new):
                out[base + i] = to_global[v]
            base += kk
        return tuple(out), None


def _int_root_floor(t: int, d: int) -> int:
    m = max(1, int(round(t ** (1.0 / d))))
    while m**d > t:
        m -= 1
    while (m + 1) ** d <= t:
        m += 1
    return m


def grid_cover_policy(g: Graph, codec: GridCodec, k: int) -> RetractPartitionPolicy:
    """Cover the grid with floor(k/c) boxes of roughly equal side (c = (d + 2)
    // 2, the cop number of a d-dimensional grid with sides >= 2), one team
    of c cops per box playing a winning sub-strategy on it. Per-axis tiles
    may clip at the boundary; overlap is allowed."""
    dims = codec.dims
    d = len(dims)
    c = (d + 2) // 2
    if k < c:
        raise TooFewCops(f"grid needs at least {c} cops, given {k}")
    t = k // c
    m = _int_root_floor(t, d)
    axis_boxes = []
    for dim in dims:
        side = math.ceil(dim / m)
        starts = list(range(0, dim, side))
        axis_boxes.append([(s, min(s + side, dim) - 1) for s in starts])

    return RetractPartitionPolicy(g, [
        (box_retract(g, codec, *zip(*box)), c) for box in itertools.product(*axis_boxes)
    ])


def choose_subcube_dim(n: int, k: int) -> int:
    """Smallest ell with 2^ell / ell >= 2^n / k (enough cops for one team per
    subcube in the partition)."""
    for ell in range(1, n + 1):
        if (1 << ell) * k >= ell * (1 << n):
            return ell
    return n


# Largest subcube dimension the exact solver handles per territory team.
MAX_SUBCUBE_DIM = 4


def subcube_partition_policy(
    g: Graph, codec: CubeCodec, k: int, ell: int | None = None
) -> RetractPartitionPolicy:
    """Partition the cube into 2^(n-ell) subcubes, each a retract, and give
    each a team of ceil((ell+1)/2) cops with a winning sub-strategy. ell =
    None takes choose_subcube_dim(n, k)."""
    ell = choose_subcube_dim(codec.n_bits, k) if ell is None else int(ell)
    if ell > MAX_SUBCUBE_DIM:
        raise SubcubeTooLarge(f"ell={ell} exceeds solver-friendly cap {MAX_SUBCUBE_DIM}")
    if not 1 <= ell <= codec.n_bits:
        raise ValueError("ell out of range")
    c = (ell + 2) // 2
    teams = 1 << (codec.n_bits - ell)
    if k < teams * c:
        raise TooFewCops(f"need {teams * c} cops for {teams} subcube teams, given {k}")
    return RetractPartitionPolicy(g, [
        (subcube_retract(g, codec, fixed), c) for fixed in subcube_partition(codec, ell)
    ])
