"""The four benchmark workloads: their fixed inputs, their ops and the
correctness check of every op.

A workload is built from a seed and a size ("full" for measurement, "tiny"
for the benchmark's own tests). Building it generates every input the
program receives; running an op calls the public API of ``copsrobbers``,
and checking its result returns a verdict. ``worker.py`` times the ops.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import copsrobbers as cr
from copsrobbers import MAXDIST, MCConfig, generators
from copsrobbers.sphere_trap import SphereTrapPolicy
from copsrobbers.strategies import StayFarRobber

# Program functions are looked up on their module at call time, so that the
# traced run's wrappers see the benchmark's own calls too.

SIZES = ("full", "tiny")


@dataclass
class Verdict:
    """Outcome of one op: ``ok`` is False when a correctness check failed."""

    ok: bool
    detail: str = ""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


# ---------------------------------------------------------------------------
# solve_large: exact retrograde solves, one op per instance


def _solve_instances(seed: int, size: str):
    """(label, graph, k, expected capture time); expected None means the
    tree theorem capt_k = rad_k supplies the value."""
    if size == "tiny":
        return [
            (f"tree:12,{seed} k=2", cr.from_spec(f"tree:12,{seed}")[0], 2, None),
            ("grid 3x4 k=2", cr.gen_grid_dims([3, 4])[0], 2, (3 + 4) // 2 - 1),
            ("Q3 k=1", cr.gen_hypercube(3)[0], 1, MAXDIST),
        ]
    return [
        (f"tree:40,{seed} k=3", cr.from_spec(f"tree:40,{seed}")[0], 3, None),
        ("grid 3x3x3 k=3", cr.gen_grid_dims([3, 3, 3])[0], 3, 2),
        ("grid 5x5 k=3", cr.gen_grid_dims([5, 5])[0], 3, 3),
        ("grid 8x8 k=2", cr.gen_grid_dims([8, 8])[0], 2, (8 + 8) // 2 - 1),
        ("Q4 k=3", cr.gen_hypercube(4)[0], 3, 2),
        ("Q6 k=2", cr.gen_hypercube(6)[0], 2, MAXDIST),
        ("Q5 k=2", cr.gen_hypercube(5)[0], 2, MAXDIST),
    ]


def solve_op(label: str, g, k: int, expected) -> Op:
    """solve(g, k) with default caps, then .capture_time()."""

    def run():
        return cr.solve(g, k).capture_time()

    def check(value) -> Verdict:
        want = cr.k_center(g, k).radius if expected is None else expected
        if value != want:
            return Verdict(False, f"capture time {value}, expected {want}")
        return Verdict(True)

    return Op(label, run, check)


def build_solve_large(seed: int, size: str) -> list:
    return [solve_op(*inst) for inst in _solve_instances(seed, size)]


# ---------------------------------------------------------------------------
# study_small: many small lower-bound studies


def study_op(label: str, params: dict) -> Op:
    def run():
        return cr.verify_suite("lower_bounds", params)

    def check(reports) -> Verdict:
        if not reports:
            return Verdict(False, "suite returned no reports")
        bad = [r for r in reports if not r.passed]
        if bad:
            return Verdict(False, f"{len(bad)} of {len(reports)} bound reports failed")
        return Verdict(True)

    return Op(label, run, check)


def build_study_small(seed: int, size: str) -> list:
    count, n_lo, n_hi = (6, 5, 6) if size == "tiny" else (300, 5, 10)
    span = n_hi - n_lo + 1
    ops = []
    for i in range(count):
        n = n_lo + i % span
        p = (0.3, 0.5)[(i // span) % 2]
        params = {
            "count_per_p": 1, "n_lo": n, "n_hi": n, "ps": (p,),
            "base_seed": f"{seed}-{i}",
        }
        ops.append(study_op(f"lower_bounds n={n} p={p} #{i}", params))
    return ops


# ---------------------------------------------------------------------------
# dense_trap: the random_graphs suite's recipe, one op per trial


def trap_op(label: str, n: int, p: float, k: int, r: int, trial_seed: str) -> Op:
    bound = 2 * r + 1

    def run():
        g, _ = generators.gen_connected_gnp(n, p, trial_seed)
        policy = SphereTrapPolicy(g, k, r, mode="general", seed=trial_seed)
        return cr.play(g, k, policy, StayFarRobber(), max_rounds=50)

    def check(transcript) -> Verdict:
        saturated = transcript.metadata.get("cop", {}).get("matching_saturated")
        rnd = transcript.capture_round
        if saturated and (rnd is None or rnd > bound):
            return Verdict(False, f"saturated trap captured at {rnd}, bound {bound}")
        return Verdict(True)

    return Op(label, run, check)


def build_dense_trap(seed: int, size: str) -> list:
    n, p, trials = (40, 0.5, 3) if size == "tiny" else (500, 0.5, 40)
    k = math.ceil(10 * math.sqrt(n * math.log(n)))
    r = cr.net_radius(n, p * (n - 1), k, 10.0)
    return [
        trap_op(f"gnp({n},{p}) trap k={k} r={r} #{i}", n, p, k, r, f"trap-{seed}-{i}")
        for i in range(trials)
    ]


# ---------------------------------------------------------------------------
# mc_games: Monte Carlo batches, one op per mc_run batch


def mc_op(config: MCConfig) -> Op:
    label = f"{config.cop} vs {config.robber} on {config.graph} k={config.k}"

    def run():
        summary = cr.mc_run(config)
        return summary, summary.to_json()

    def check(result) -> Verdict:
        summary, text = result
        errored = sum(1 for row in summary.rows if row.get("error"))
        uncaptured = sum(1 for row in summary.rows if not row["captured"])
        if errored or uncaptured:
            first = next((row["error"] for row in summary.rows if row.get("error")), "")
            return Verdict(
                False,
                f"{errored} of {len(summary.rows)} trials errored, {uncaptured} uncaptured "
                f"{first}".rstrip(),
            )
        if json.loads(text)["captured"] != summary.captured:
            return Verdict(False, "summary JSON disagrees with the summary")
        return Verdict(True)

    return Op(label, run, check)


def mc_configs(seed: int, size: str) -> list:
    base = seed * 1000
    if size == "tiny":
        return [
            MCConfig("tree:12,{seed}", 2, cop="tree", robber="solver", trials=2, base_seed=base),
            MCConfig("tree:10,{seed}", 3, cop="three_cop_planar", robber="greedy",
                     trials=2, base_seed=base),
            MCConfig("grid:d=2,q=6", 20, cop="separator_sweep", robber="greedy",
                     trials=1, base_seed=base),
            MCConfig("grid:d=2,q=3", 2, cop="solver", robber="solver", trials=2, base_seed=base),
            MCConfig("grid:d=2,q=6", 4, cop="grid_cover", robber="pigeonhole_grid",
                     trials=1, base_seed=base),
            MCConfig("hypercube:4", 4, cop="sphere_trap", cop_params={"d": 1, "mode": "hypercube"},
                     robber="random_walk", trials=2, base_seed=base),
        ]
    return [
        MCConfig("tree:40,{seed}", 2, cop="tree", robber="solver", trials=20, base_seed=base),
        MCConfig("tree:30,{seed}", 3, cop="three_cop_planar", robber="greedy",
                 trials=20, base_seed=base),
        MCConfig("grid:d=2,q=20", 240, cop="separator_sweep", robber="greedy",
                 trials=5, base_seed=base),
        MCConfig("grid:d=2,q=20", 240, cop="separator_sweep", robber="greedy_fast",
                 fast_robber=True, trials=5, base_seed=base),
        MCConfig("grid:d=2,q=5", 2, cop="solver", robber="solver", trials=20, base_seed=base),
        MCConfig("grid:d=2,q=12", 9, cop="grid_cover", robber="pigeonhole_grid",
                 trials=10, base_seed=base),
        MCConfig("hypercube:6", 8, cop="sphere_trap", cop_params={"d": 1, "mode": "hypercube"},
                 robber="random_walk", trials=40, base_seed=base),
        MCConfig("hypercube:6", 24, cop="subcube_partition", robber="stay_far",
                 trials=10, base_seed=base),
    ]


def build_mc_games(seed: int, size: str) -> list:
    return [mc_op(cfg) for cfg in mc_configs(seed, size)]


# ---------------------------------------------------------------------------

# Why each workload was chosen: README.md and BENCHMARK.json.
WORKLOADS = {
    "solve_large": build_solve_large,
    "study_small": build_study_small,
    "dense_trap": build_dense_trap,
    "mc_games": build_mc_games,
}


def build(name: str, seed: int, size: str = "full") -> list:
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; known: {SIZES}")
    return WORKLOADS[name](seed, size)


def warm_up() -> None:
    """Run one tiny call through each code path the ops use, so lazy set-up
    is paid before the first timed op."""
    g, _ = cr.gen_grid_dims([2, 2])
    cr.solve(g, 1).capture_time()
    cr.k_center(g, 1)
    trap_op("warm-up", 12, 0.5, 12, 1, "warm-up").run()
    cr.mc_run(MCConfig("path:4", 1, cop="tree", robber="greedy"))
