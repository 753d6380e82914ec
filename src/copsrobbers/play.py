"""Game referee: policy interfaces, legality enforcement, transcripts, and
exhaustive adversarial auditing of deterministic cop policies.

Policies see the full state (perfect information). Cop policies receive and
return per-cop position tuples so team identities persist; the referee checks
each cop's step against its closed neighbourhood and, in the fast-robber
variant, lets the robber relocate anywhere in its component of the graph
minus the cops' vertices. A cop policy never changes once built: `play` and
`worst_case_capture_round` pass a game's hashable state from move to move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import IllegalMove
from .graphs import Graph, component_of
from .serialize import stable_json


class CopPolicy:
    """Interface: placement(g, k) -> (per-cop positions, state); move(g,
    state, cops, robber, rnd) -> (new per-cop positions, state), each cop
    within its closed neighbourhood; record(state) -> the game's metadata.
    The state is hashable, None when a policy keeps none, and move is a
    function of its arguments. `bound` is the capture round the policy's
    proof guarantees on the (g, k) it was built for, or None."""

    metadata: dict = {}
    bound: int | float | None = None

    def placement(self, g: Graph, k: int):
        raise NotImplementedError

    def move(self, g: Graph, state, cops, robber: int, rnd: int):
        raise NotImplementedError

    def record(self, state) -> dict:
        return dict(self.metadata)


class RobberPolicy:
    """Interface: placement(g, cops) -> vertex; move(g, cops, robber, rnd) ->
    vertex in the robber's closed neighbourhood (or component, when fast).

    `fast_only` marks a robber that relocates, which `play` admits only in
    the fast-robber variant."""

    metadata: dict = {}
    fast_only: bool = False

    def placement(self, g: Graph, cops) -> int:
        raise NotImplementedError

    def move(self, g: Graph, cops, robber: int, rnd: int) -> int:
        raise NotImplementedError


@dataclass
class PlayTranscript:
    """Full game record. capture_round counts cop moves, with placement as
    round 0; None means the game timed out uncaptured."""

    cops_start: tuple
    robber_start: int
    rounds: list = field(default_factory=list)  # (cops tuple, robber) after each round
    capture_round: int | None = None
    metadata: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "placements": {"cops": list(self.cops_start), "robber": self.robber_start},
            "rounds": [
                {"cops": list(c), "robber": r} for c, r in self.rounds
            ],
            "capture_round": self.capture_round,
            "metadata": self.metadata,
        }

    def to_json(self, indent: int | None = None) -> str:
        return stable_json(self.to_jsonable(), indent=indent)


def _check_vertex(g: Graph, v, who: str):
    if not isinstance(v, int) or not 0 <= v < g.n:
        raise IllegalMove(who, f"vertex {v!r} out of range")


def _legal_cop_step(g: Graph, old, new):
    """Raise IllegalMove for the first cop whose step leaves its closed
    neighbourhood: one `Graph.is_step` per cop that moved."""
    is_step = g.is_step
    for i, (a, b) in enumerate(zip(old, new)):
        if a != b and not is_step(a, b):
            raise IllegalMove(f"cops (cop {i})", f"{a} -> {b} is not a step in N[{a}]")


def _check_cops(g: Graph, k: int, cops, old=None):
    """The referee's checks on a placement of k cops, or on a move from `old`.
    The range checks run on the whole tuple at C speed, and their per-cop
    loop only names an offender."""
    if len(cops) != k:
        raise IllegalMove("cops", f"placement produced {len(cops)} positions, wanted {k}"
                          if old is None else "move changed the number of cops")
    if not {int}.issuperset(map(type, cops)) or cops and (min(cops) < 0 or max(cops) >= g.n):
        for v in cops:
            _check_vertex(g, v, "cops")
    if old is not None:
        _legal_cop_step(g, old, cops)


def play(
    g: Graph,
    k: int,
    cop_policy: CopPolicy,
    robber_policy: RobberPolicy,
    max_rounds: int,
    *,
    fast_robber: bool = False,
) -> PlayTranscript:
    """Referee a full game and return its transcript. A `fast_only` robber
    outside the fast-robber variant is a ValueError before placement."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    if robber_policy.fast_only and not fast_robber:
        raise ValueError(f"robber {type(robber_policy).__name__} relocates, so it plays "
                         "only in the fast-robber variant (fast_robber, --fast-robber)")
    cops, state = cop_policy.placement(g, k)
    cops = tuple(cops)
    _check_cops(g, k, cops)
    robber = robber_policy.placement(g, cops)
    _check_vertex(g, robber, "robber")

    transcript = PlayTranscript(cops_start=cops, robber_start=robber)
    cop_set = set(cops)
    if robber in cop_set:
        transcript.capture_round = 0
    else:
        for rnd in range(1, max_rounds + 1):
            new_cops, state = cop_policy.move(g, state, cops, robber, rnd)
            new_cops = tuple(new_cops)
            _check_cops(g, k, new_cops, cops)
            cops = new_cops
            cop_set = set(cops)
            if robber in cop_set:
                transcript.rounds.append((cops, robber))
                transcript.capture_round = rnd
                break
            new_robber = robber_policy.move(g, cops, robber, rnd)
            _check_vertex(g, new_robber, "robber")
            if fast_robber:
                if new_robber != robber and new_robber not in component_of(
                    g, robber, blocked=cop_set
                ):
                    raise IllegalMove(
                        "robber",
                        f"{robber} -> {new_robber} leaves the cop-free component",
                    )
            else:
                if not g.is_step(robber, new_robber):
                    raise IllegalMove(
                        "robber", f"{robber} -> {new_robber} is not a step in N[{robber}]"
                    )
            robber = new_robber
            transcript.rounds.append((cops, robber))
            if robber in cop_set:
                transcript.capture_round = rnd
                break

    if meta := cop_policy.record(state):
        transcript.metadata["cop"] = meta
    if robber_policy.metadata:
        transcript.metadata["robber"] = dict(robber_policy.metadata)
    if fast_robber:
        transcript.metadata["fast_robber"] = True
    return transcript


def worst_case_capture_round(
    g: Graph, cop_policy: CopPolicy, k: int, horizon: int
) -> int | None:
    """Exact worst-case capture round of a deterministic cop policy against
    every robber behaviour, by exhaustive search of the robber's decision
    tree (all placements, all move sequences) up to `horizon` cop moves.
    Returns None if some robber line survives past the horizon; starts and
    a robber's steps ascend, and the search stops at the first such line.

    The memo keys on (cops, robber, round, state). The placement and every
    move pass the referee's checks, as in `play` (IllegalMove otherwise).
    """
    closed = g.closed
    cops0, state0 = cop_policy.placement(g, k)
    cops0 = tuple(cops0)
    _check_cops(g, k, cops0)
    memo: dict = {}

    def explore(cops, robber, rnd, state):
        # robber alive before the round-`rnd` cop move
        if rnd > horizon:
            return None
        key = (cops, robber, rnd, state)
        if key in memo:
            return memo[key]
        new_cops, new_state = cop_policy.move(g, state, cops, robber, rnd)
        new_cops = tuple(new_cops)
        _check_cops(g, k, new_cops, cops)
        new_set = set(new_cops)
        if robber in new_set:
            memo[key] = rnd
            return rnd
        worst = 0
        for nr in closed[robber]:
            if nr in new_set:
                res = rnd  # stepping onto a cop: capture at this round
            else:
                res = explore(new_cops, nr, rnd + 1, new_state)
            if res is None:
                memo[key] = None
                return None
            if res > worst:
                worst = res
        memo[key] = worst
        return worst

    cset = set(cops0)
    worst = 0
    for r0 in range(g.n):
        res = 0 if r0 in cset else explore(cops0, r0, 1, state0)
        if res is None:
            return None
        if res > worst:
            worst = res
    return worst
