"""Verification harness: named bound-checking suites, the capture-time
regime classifier for cubes, and the seeded Monte Carlo runner.

Every asymptotic claim is checked as exact values or explicit inequalities
on fixed finite families; suites yield one BoundReport per checked instance
and never assert limits. All randomness is seeded; suite output is a pure
function of its parameters.

Each cop policy states its certified bound once, as its `bound` attribute:
the capture round its proof guarantees on the (g, k) it was built for. The
suites that check a strategy call one audit, `_audit`, which plays the policy
against one robber (or, exhaustively, against every robber up to the bound)
and reports whether capture came within `policy.bound`. The sphere-trap
suites count certified runs: `policy.bound`, and the trap's outcome as the
transcript records it.

SUITES, COP_POLICIES and ROBBER_POLICIES map each name the command line
takes to its function and its parameters with defaults; `_lookup` reads all
three and refuses an undeclared key. `play_config` plays a game of named
policies for `simulate` and for `mc_run`, which decides once per batch what
its games depend on: it plays one game per seed, or one in all, and builds
what no game's seed changes once (`play` carries each game's cop state).
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import AmbiguousRegime, DomainError, StateBudgetExceeded, UnknownPolicy, UnknownSuite
from .generators import (
    CubeCodec,
    GridCodec,
    gen_connected_gnp,
    gen_cycle,
    gen_grid,
    gen_grid_dims,
    gen_hypercube,
    gen_tree,
    from_spec,
)
from .graphs import MAXDIST, Graph, domination_number, k_center, metrics
from .planar import SeparatorSweepPolicy, ThreeCopPlanarPolicy
from .play import play, worst_case_capture_round
from .solver import capture_time, cop_number, extract_policies, solve
from .sphere_trap import GUARANTEE_SLOPE, SphereTrapPolicy, counting_cop_bound, net_radius
from .strategies import (
    GreedyFastRobber,
    GreedyRobber,
    PigeonholeGridRobber,
    RandomWalkRobber,
    StayFarRobber,
    StaticCopPolicy,
    TreePolicy,
    grid_cover_policy,
    subcube_partition_policy,
)
from .serialize import csv_lines, stable_json

# ---------------------------------------------------------------------------
# regime machinery


def g_eval(x: float) -> float:
    """Binary-entropy style exponent balance function on (0, 1/2], with the
    0 * log2(0) = 0 convention at x = 1/2."""
    if not 0.0 < x <= 0.5:
        raise DomainError(f"g is defined on (0, 1/2], got {x}")

    def xlog2(t: float) -> float:
        return 0.0 if t == 0.0 else t * math.log2(t)

    return xlog2(2 * x) + xlog2(1 - 2 * x) - xlog2(x) - xlog2(1 - x)


# The regime classifier's constant b = -g(c) at c = GUARANTEE_SLOPE, about
# 0.2716: part iii is the band 1 - b + eps < log2(k) / n <= 1 - eps.
REGIME_B = -g_eval(GUARANTEE_SLOPE)


@dataclass(frozen=True)
class RegimeResult:
    part: str
    order: str
    n: int
    log2_k: float
    x: float  # log2(k) / n
    f: float  # n - log2(k)


_REGIME_ORDERS = {
    "i": "Theta(n log n)",
    "ii": "Omega(n), O(n log n)",
    "iii": "Theta(n)",
    "iv": "Theta(n / (omega log omega))",
    "v": "O(1)",
}


# Part v holds while f = n - log2(k) is at most this multiple of log2(n).
POLYLOG_CAP = 4.0


def qn_regime(n: int, k: int, eps: float = 0.05) -> RegimeResult:
    """Classify the capture-time order of the n-cube with k cops.

    Decision order (boundaries within 1e-9 raise AmbiguousRegime):
    1. x = log2(k)/n in (1 - b + eps, 1 - eps]  -> part iii, Theta(n)
    2. f = n - log2(k) <= POLYLOG_CAP * log2(n) -> part v, O(1)
    3. x > 1 - eps                              -> part iv, with omega = n/f
    4. alpha = ln(log2 k)/ln(n) <= 1 - eps      -> part i, Theta(n log n)
    5. otherwise                                -> part ii (both bounds kept)
    """
    if n < 2:
        raise DomainError("need n >= 2")
    if k < (n + 2) // 2:
        raise ValueError(f"k = {k} is below the cube cop number {(n + 2) // 2}")
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    log2k = math.log2(k)
    x = log2k / n
    f = n - log2k

    def near(a, b_):
        return abs(a - b_) <= 1e-9 * max(1.0, abs(a), abs(b_))

    band_lo, band_hi = 1 - REGIME_B + eps, 1 - eps
    for boundary in (band_lo, band_hi):
        if near(x, boundary):
            raise AmbiguousRegime(f"x = {x} sits on a regime boundary {boundary}")
    if near(f, POLYLOG_CAP * math.log2(n)):
        raise AmbiguousRegime(f"f = {f} sits on the polylog boundary")

    def done(part):
        return RegimeResult(part, _REGIME_ORDERS[part], n, log2k, x, f)

    if band_lo < x <= band_hi:
        return done("iii")
    if f <= POLYLOG_CAP * math.log2(n):
        return done("v")
    if x > band_hi:
        return done("iv")
    alpha = math.log(log2k) / math.log(n) if log2k > 0 else 0.0
    if near(alpha, 1 - eps):
        raise AmbiguousRegime(f"alpha = {alpha} sits on the regime boundary")
    if alpha <= 1 - eps:
        return done("i")
    return done("ii")


# ---------------------------------------------------------------------------
# bound reports


@dataclass(frozen=True)
class BoundReport:
    suite: str
    instance: str
    quantity: str
    measured: float | int | None
    bound: float | int | None
    passed: bool
    seed: str = ""
    rounds: int | None = None
    runtime_ms: int = 0


CSV_HEADER = ["suite", "instance", "quantity", "measured", "bound", "pass", "seed", "rounds", "runtime_ms"]


def _num(value):
    """A report value for CSV and JSON: MAXDIST (robber wins) becomes "inf";
    None stays None, which CSV writes as an empty cell."""
    if isinstance(value, int) and value >= MAXDIST:
        return "inf"
    return value


def _report_rows(reports) -> list:
    """Each report's values, in CSV_HEADER order."""
    return [[r.suite, r.instance, r.quantity, _num(r.measured), _num(r.bound),
             r.passed, r.seed, _num(r.rounds), r.runtime_ms] for r in reports]


def reports_to_csv(reports) -> str:
    return csv_lines(CSV_HEADER, _report_rows(reports))


def reports_to_jsonable(reports) -> list:
    return [dict(zip(CSV_HEADER, row)) for row in _report_rows(reports)]


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)


# ---------------------------------------------------------------------------
# shared instance builders


def tree_instances(count: int, n_max: int, base_seed):
    if n_max < 3:
        raise ValueError(f"n_max must be at least 3, got {n_max}")
    out = []
    for i in range(count):
        n = 3 + (i % (n_max - 2))
        seed = f"tree-{base_seed}-{i}"
        out.append((f"tree{i:02d}-n{n}", gen_tree(n, seed), seed))
    return out


def random_small_study(count_per_p: int, n_lo: int, n_hi: int, ps, base_seed):
    """Connected G(n, p) instances with their domination number gamma, exact
    capture times and k-center radii for every k < n, and metrics. Only
    k = 1..gamma-1 is solved, the k that no theorem settles; from gamma on
    both values come from the domination theorem, and rad_1 from the
    eccentricities `metrics` reads once. The `monotonicity` suite checks that
    theorem against the solver at k = gamma."""
    if not 1 <= n_lo <= n_hi:
        raise ValueError(f"need 1 <= n_lo <= n_hi, got n_lo={n_lo}, n_hi={n_hi}")
    study = []
    for p in ps:
        for i in range(count_per_p):
            n = n_lo + (i % (n_hi - n_lo + 1))
            g, probe = gen_connected_gnp(n, p, f"study-{base_seed}-{p}-{i}")
            gamma = domination_number(g)
            met = metrics(g)
            # Cops on a dominating set catch the robber at round 1, and with
            # k < n it can place off them: capt_k = rad_k = 1 for gamma <= k < n.
            capts = {k: capture_time(g, k) if k < gamma else 1 for k in range(1, n)}
            radk = {k: 1 if k >= gamma else met.radius if k == 1 else k_center(g, k).radius
                    for k in range(1, n)}
            study.append(
                {
                    "id": f"gnp-p{p}-{i:02d}-n{n}",
                    "graph": g,
                    "seed": probe,
                    "capts": capts,
                    "radk": radk,
                    "gamma": gamma,
                    "diam": met.diameter,
                }
            )
    return study


# ---------------------------------------------------------------------------
# suites


# Parameters (with defaults) of two suites each; SUITES declares every suite's.
TREE_PARAMS = {"count": 20, "n_max": 12, "base_seed": 0, "k_max": 3}
STUDY_PARAMS = {"count_per_p": 25, "n_lo": 5, "n_hi": 10, "ps": (0.3, 0.5), "base_seed": 0}


def _suite_trees(params):
    for name, g, seed in tree_instances(params["count"], params["n_max"], params["base_seed"]):
        for k in range(1, params["k_max"] + 1):
            capt = capture_time(g, k)
            rad = k_center(g, k).radius
            yield BoundReport(
                "trees", name, f"capt_{k}_equals_rad_{k}", capt, rad,
                capt == rad, seed=seed,
            )


def _suite_grid_closed_form(params):
    lo, hi = params["m_min"], params["m_max"]
    for m in range(lo, hi + 1):
        for n in range(lo, hi + 1):
            g, _ = gen_grid_dims([m, n])
            capt = capture_time(g, 2)
            want = (m + n) // 2 - 1
            yield BoundReport(
                "grid_closed_form", f"grid{m}x{n}", "capt_2", capt, want,
                capt == want,
            )


def _suite_lower_bounds(params):
    for inst in random_small_study(**params):
        diam = inst["diam"]
        for k, capt in sorted(inst["capts"].items()):
            rad = inst["radk"][k]
            yield BoundReport(
                "lower_bounds", inst["id"], f"capt_{k}_ge_rad_{k}",
                capt, rad, capt >= rad, seed=inst["seed"],
            )
            diam_bound = max(0, -(-(diam - k + 1) // (2 * k)))
            yield BoundReport(
                "lower_bounds", inst["id"], f"capt_{k}_ge_diam_bound",
                capt, diam_bound, capt >= diam_bound, seed=inst["seed"],
            )


def _suite_monotonicity(params):
    for inst in random_small_study(**params):
        g = inst["graph"]
        capts = inst["capts"]
        ks = sorted(capts)
        for a, b in zip(ks, ks[1:]):
            yield BoundReport(
                "monotonicity", inst["id"], f"capt_{b}_le_capt_{a}",
                capts[b], capts[a], capts[b] <= capts[a], seed=inst["seed"],
            )
        gamma = inst["gamma"]
        if gamma in capts:
            # the study takes capts[gamma] from the theorem; the solver checks it
            capt = capture_time(g, gamma)
            yield BoundReport(
                "monotonicity", inst["id"], "capt_gamma_is_1",
                capt, 1, capt == 1, seed=inst["seed"],
            )
        capt = capture_time(g, g.n)
        yield BoundReport(
            "monotonicity", inst["id"], "capt_n_is_0",
            capt, 0, capt == 0, seed=inst["seed"],
        )


def _suite_hypercube_small(params):
    for n, want in ((2, 2), (3, 2)):
        g, _ = gen_hypercube(n)
        c = cop_number(g)
        yield BoundReport("hypercube_small", f"Q{n}", "cop_number", c, want, c == want)
    capt = capture_time(gen_hypercube(3)[0], 2)
    yield BoundReport("hypercube_small", "Q3", "capt_2", capt, 1, capt == 1)
    # counting bound: with k cops below 2^n / |ball_d|, survival exceeds d
    bound = counting_cop_bound(4, 1)
    yield BoundReport(
        "hypercube_small", "Q4", "counting_admits_k3",
        float(Fraction(3)), float(bound), 3 < bound,
    )
    capt3 = capture_time(gen_hypercube(4)[0], 3)
    yield BoundReport("hypercube_small", "Q4", "capt_3_ge_2", capt3, 2, capt3 >= 2)


def _audit(suite, instance, quantity, g, k, policy, robber=None, *, seed="", fast_robber=False):
    """Play `policy` on (g, k) against `robber` and report whether capture
    came within `policy.bound`. With robber None the policy plays every
    robber: `worst_case_capture_round` searches all of them up to the bound.
    Returns the report and the transcript (None for the exhaustive audit)."""
    bound = policy.bound
    if robber is None:
        t = None
        caught = worst_case_capture_round(g, policy, k, horizon=bound)
    else:
        t = play(g, k, policy, robber, max_rounds=int(bound) + 50, fast_robber=fast_robber)
        caught = t.capture_round
    report = BoundReport(
        suite, instance, quantity, caught, bound, caught is not None and caught <= bound,
        seed=seed, rounds=caught,
    )
    return report, t


def _suite_strategy_audits(params):
    # tree chase versus the solver-extracted optimal robber
    for name, g, seed in tree_instances(params["count"], params["n_max"], params["base_seed"]):
        for k in range(1, min(params["k_max"] + 1, g.n)):
            _, robber = extract_policies(solve(g, k))
            yield _audit(
                "strategy_audits", name, f"tree_policy_k{k}_within_rad",
                g, k, TreePolicy(g, k), robber, seed=seed,
            )[0]
    # retract territories versus every robber: grid boxes, then subcubes
    g6, codec6 = gen_grid(2, 6)
    yield _audit(
        "strategy_audits", "grid6x6-k8", "grid_cover_within_capt2_grid3",
        g6, 8, grid_cover_policy(g6, codec6, 8),
    )[0]
    q4, codec4 = gen_hypercube(4)
    yield _audit(
        "strategy_audits", "Q4-k4-ell3", "subcube_within_capt2_Q3",
        q4, 4, subcube_partition_policy(q4, codec4, 4, 3),
    )[0]


def _suite_sphere_trap(params):
    seeds = params["seeds"]
    d = params["d"]
    k = params["k"]
    n = params["n"]
    g, _ = gen_hypercube(n)
    table = solve(g, k)
    _, robber = extract_policies(table)
    saturated = 0
    worst_saturated = 0
    miscertified = 0
    unflagged = 0
    for i in range(seeds):
        pol = SphereTrapPolicy(g, k, d, mode="hypercube", seed=f"trap-{i}")
        t = play(g, k, pol, robber, max_rounds=8 * g.n)
        meta = t.metadata.get("cop", {})
        if meta.get("matching_saturated"):
            saturated += 1
            if t.capture_round is None or t.capture_round > pol.bound:
                miscertified += 1
            else:
                worst_saturated = max(worst_saturated, t.capture_round)
        else:
            if "hall_deficient" not in meta:
                unflagged += 1
    instance, seed = f"Q{n}-d{d}-k{k}", f"0..{seeds - 1}"
    yield BoundReport(
        "sphere_trap", instance, "saturated_capture_within_bound",
        miscertified, 0, miscertified == 0, seed=seed, rounds=worst_saturated,
    )
    yield BoundReport(
        "sphere_trap", instance, "hall_failures_flagged",
        unflagged, 0, unflagged == 0, seed=seed,
    )
    yield BoundReport(
        "sphere_trap", instance, "saturated_runs_present",
        saturated, 1, saturated >= 1, seed=seed,
    )


def _suite_random_graphs(params):
    n = params["n"]
    p = params["p"]
    trials = params["trials"]
    k = params["k"]
    if k is None:
        k = math.ceil(10 * math.sqrt(n * math.log(n)))
    need_rate = params["rate"]
    r = net_radius(n, p * (n - 1), k, params["C"])
    instance, seed = f"gnp-{n}-{p}", f"0..{trials - 1}"
    yield BoundReport("random_graphs", instance, "net_radius", r, params["expect_r"],
                      r == params["expect_r"])
    certified = 0
    survived_all = True
    worst_round = 0
    for i in range(trials):
        g, probe = gen_connected_gnp(n, p, f"rg-{i}")
        pol = SphereTrapPolicy(g, k, r, mode="general", seed=f"rg-{i}")
        t = play(g, k, pol, StayFarRobber(), max_rounds=50)
        meta = t.metadata.get("cop", {})
        if meta.get("matching_saturated") and t.capture_round is not None and t.capture_round <= pol.bound:
            certified += 1
            worst_round = max(worst_round, t.capture_round)
        if t.capture_round is not None and t.capture_round < r:
            survived_all = False
    rate = certified / trials
    yield BoundReport(
        "random_graphs", instance, "certified_capture_rate",
        rate, need_rate, rate >= need_rate, seed=seed, rounds=worst_round,
    )
    yield BoundReport(
        "random_graphs", instance, "stay_far_survives_r",
        1 if survived_all else 0, 1, survived_all, seed=seed,
    )


def _suite_separator_sweep(params):
    q = params["q"]
    k = params["k"]
    g, _ = gen_grid(2, q)
    for fast in (False, True):
        instance = f"grid{q}x{q}-k{k}-{'fast' if fast else 'normal'}"
        report, t = _audit(
            "separator_sweep", instance, "capture_within_6radlog", g, k,
            SeparatorSweepPolicy(g, k), GreedyFastRobber() if fast else GreedyRobber(),
            fast_robber=fast,
        )
        yield report
        phases = t.metadata.get("cop", {}).get("phases", [])
        shrink_ok = all(
            3 * b_["territory"] <= 2 * a_["territory"]
            for a_, b_ in zip(phases, phases[1:])
        )
        yield BoundReport(
            "separator_sweep", instance, "territory_shrinks_2_3",
            len(phases), None, shrink_ok,
        )


def _suite_planar_3cop(params):
    instances = [("grid4x4", gen_grid_dims([4, 4])[0]), ("C6", gen_cycle(6))]
    for name, g, seed in tree_instances(params["tree_count"], 12, params["base_seed"]):
        instances.append((name, g))
    for name, g in instances:
        table = solve(g, 3)
        for rname, robber in (("greedy", GreedyRobber()), ("optimal", extract_policies(table)[1])):
            report, t = _audit(
                "planar_3cop", name, f"capture_within_diam1_n_vs_{rname}",
                g, 3, ThreeCopPlanarPolicy(g), robber,
            )
            yield report
            phases = t.metadata.get("cop", {}).get("phases", [])
            total_shrink = sum(ph["shrink"] for ph in phases)
            yield BoundReport(
                "planar_3cop", name, f"phase_shrink_total_le_n_vs_{rname}",
                total_shrink, g.n, total_shrink <= g.n,
            )
            if rname == "optimal":
                capt3 = table.capture_time()
                yield BoundReport(
                    "planar_3cop", name, "rounds_ge_capt3",
                    t.capture_round, capt3,
                    t.capture_round is not None and t.capture_round >= capt3,
                    rounds=t.capture_round,
                )


def _suite_regime(params):
    yield BoundReport(
        "regime", "constants", "b_matches_reference",
        REGIME_B, 0.2716, abs(REGIME_B - 0.2716) <= 1e-3,
    )
    cases = [
        ("k_eq_n_squared", 60, 3600, 0.05, "i"),
        ("k_eq_2_pow_0.9n", 40, 1 << 36, params["eps"], "iii"),
        ("k_eq_2n_over_n3", 20, (1 << 20) // 8000, 0.05, "v"),
    ]
    for name, n, k, eps, want in cases:
        try:
            got = qn_regime(n, k, eps).part
        except AmbiguousRegime:
            got = "ambiguous"
        yield BoundReport("regime", name, "part", got, want, got == want)


def _suite_grid_scaling(params):
    """Both sides of capt_k on d-dimensional grids: the k-center lower bound,
    and the grid cover's bound (the largest capture time over its boxes).
    A cell the exact solver refuses gets one capt_{k}_refused row with no
    measured or bound value."""
    d = params["d"]
    for q in params["sizes"]:
        g, codec = gen_grid(d, q)
        for k in params["ks"]:
            instance = f"grid-d{d}-q{q}-k{k}"
            try:
                capt = capture_time(g, k)
            except StateBudgetExceeded:
                yield BoundReport("grid_scaling", instance, f"capt_{k}_refused", None, None, True)
                continue
            rad = k_center(g, k).radius
            yield BoundReport(
                "grid_scaling", instance, f"capt_{k}_ge_rad_{k}", capt, rad, capt >= rad,
            )
            cover = grid_cover_policy(g, codec, k).bound
            yield BoundReport(
                "grid_scaling", instance, f"capt_{k}_le_grid_cover", capt, cover, capt <= cover,
            )


# suite name -> (function, its parameters with their defaults). verify_suite
# fills in the defaults and rejects any other key. random_graphs' k = None
# stands for ceil(10 sqrt(n ln n)).
SUITES = {
    "trees": (_suite_trees, TREE_PARAMS),
    "grid_closed_form": (_suite_grid_closed_form, {"m_min": 2, "m_max": 5}),
    "lower_bounds": (_suite_lower_bounds, STUDY_PARAMS),
    "monotonicity": (_suite_monotonicity, STUDY_PARAMS),
    "hypercube_small": (_suite_hypercube_small, {}),
    "strategy_audits": (_suite_strategy_audits, TREE_PARAMS),
    "sphere_trap": (_suite_sphere_trap, {"seeds": 200, "d": 1, "k": 4, "n": 3}),
    "random_graphs": (_suite_random_graphs, {
        "n": 500, "p": 0.5, "trials": 100, "C": 10.0, "k": None, "rate": 0.95, "expect_r": 1,
    }),
    "separator_sweep": (_suite_separator_sweep, {"q": 20, "k": 240}),
    "planar_3cop": (_suite_planar_3cop, {"tree_count": 10, "base_seed": 7}),
    "regime": (_suite_regime, {"eps": 0.02}),
    "grid_scaling": (_suite_grid_scaling, {"d": 2, "sizes": (4, 6, 8), "ks": (2, 4, 8)}),
}


def _lookup(table: dict, kind: str, name: str, params, unknown: Exception):
    """The entry of ``name`` in ``table`` and ``params`` over its defaults.
    An unknown name raises ``unknown``; an undeclared key, or a list element
    not of the type of its default's elements (an int may be a float), ValueError."""
    if name not in table:
        raise unknown
    entry, defaults = table[name]
    params = params or {}
    extra = sorted(set(params) - set(defaults))
    if extra:
        raise ValueError(
            f"unknown parameter {', '.join(extra)} for {kind} {name!r}; "
            f"accepted: {', '.join(sorted(defaults)) or 'none'}"
        )
    for key, value in params.items():
        if isinstance(defaults[key], tuple) and defaults[key] and isinstance(value, (tuple, list)):
            want = type(defaults[key][0])
            bad = [x for x in value if type(x) is not want and (want, type(x)) != (float, int)]
            if bad:
                raise ValueError(f"parameter {key} of {kind} {name!r} takes {want.__name__} "
                                 f"elements, got {bad[0]!r}")
    return entry, {**defaults, **params}


def verify_suite(name: str, params: dict | None = None, *, timings: bool = False):
    """Run suite `name` with `params` over its defaults; a key the suite does
    not read raises ValueError before anything runs. With `timings`, each
    report's runtime_ms is the time since the report before it (the first
    report's, since the suite started)."""
    run, params = _lookup(SUITES, "suite", name, params,
                          UnknownSuite(f"unknown suite {name!r}; known: {sorted(SUITES)}"))
    reports = []
    t0 = time.perf_counter()
    for report in run(params):
        if timings:
            t1 = time.perf_counter()
            report = replace(report, runtime_ms=int((t1 - t0) * 1000))
            t0 = t1
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# Monte Carlo runner


@dataclass(frozen=True)
class MCConfig:
    graph: str
    k: int
    cop: str = "solver"
    cop_params: dict = field(default_factory=dict)
    robber: str = "stay_far"
    robber_params: dict = field(default_factory=dict)
    trials: int = 1
    base_seed: int = 0
    seeds: tuple | None = None
    max_rounds: int = 1000
    fast_robber: bool = False


def _codec(codec, kind, policy: str):
    """`codec` if it is a `kind`, else ValueError naming `policy` and the graphs that have one."""
    if isinstance(codec, kind):
        return codec
    graphs = "path or grid" if kind is GridCodec else "hypercube"
    raise ValueError(f"{policy} needs a {graphs} graph")


def _positions(positions) -> list:
    """The static cop's `positions` as a list of vertices; one int, as an
    mc config may give it, is a one-vertex list."""
    if isinstance(positions, int) and not isinstance(positions, bool):
        return [positions]
    if not isinstance(positions, (list, tuple)) or not {int}.issuperset(map(type, positions)):
        raise ValueError(f"cop policy 'static' needs positions to be a vertex or a list "
                         f"of vertices, got {positions!r}")
    return list(positions)


# policy name -> (builder, its parameters with their defaults), read like
# SUITES. A builder takes g, codec, k, seed, solved (which returns the value
# table of (g, k)) and the parameters as keywords; a builder whose parameter
# list does not name `seed` builds a policy that does not depend on it (see
# mc_run for what a batch builds and plays once).
COP_POLICIES = {
    "solver": (lambda solved, **_: extract_policies(solved())[0], {}),
    "tree": (lambda g, k, **_: TreePolicy(g, k), {}),
    "grid_cover": (lambda g, codec, k, **_: grid_cover_policy(
        g, _codec(codec, GridCodec, "cop policy 'grid_cover'"), k), {}),
    "subcube_partition": (lambda g, codec, k, ell, **_: subcube_partition_policy(
        g, _codec(codec, CubeCodec, "cop policy 'subcube_partition'"), k, ell), {"ell": None}),
    "sphere_trap": (lambda g, k, seed, d, mode, **_: SphereTrapPolicy(
        g, k, d, mode=mode, seed=seed), {"d": 1, "mode": "hypercube"}),
    "separator_sweep": (lambda g, k, **_: SeparatorSweepPolicy(g, k), {}),
    "three_cop_planar": (lambda g, **_: ThreeCopPlanarPolicy(g), {}),
    "static": (lambda positions, **_: StaticCopPolicy(_positions(positions)), {"positions": ()}),
}
ROBBER_POLICIES = {
    "stay_far": (lambda **_: StayFarRobber(), {}),
    "greedy": (lambda **_: GreedyRobber(), {}),
    "greedy_fast": (lambda **_: GreedyFastRobber(), {}),
    "random_walk": (lambda seed, **_: RandomWalkRobber(seed), {}),
    "pigeonhole_grid": (lambda g, codec, k, **_: PigeonholeGridRobber(
        g, _codec(codec, GridCodec, "robber policy 'pigeonhole_grid'"), k), {}),
    "solver": (lambda solved, **_: extract_policies(solved())[1], {}),
}


def _names_seed(table: dict, name: str) -> bool:
    """Whether the builder of ``name`` in ``table`` takes the seed; an unknown
    name takes nothing, as building it raises."""
    return name in table and _takes_seed(table[name][0])


@functools.cache
def _takes_seed(build) -> bool:
    """Whether ``build`` has a ``seed`` parameter: one signature read per
    builder, not one per game."""
    return "seed" in inspect.signature(build).parameters


def make_cop_policy(name: str, params: dict, g: Graph, codec, k: int, seed, solved):
    """Build cop policy ``name`` of COP_POLICIES for (g, k); ``solved()``
    returns the value table of (g, k)."""
    build, params = _lookup(COP_POLICIES, "cop policy", name, params,
                            UnknownPolicy(f"unknown cop policy {name!r}"))
    return build(g=g, codec=codec, k=k, seed=seed, solved=solved, **params)


def make_robber_policy(name: str, params: dict, g: Graph, codec, k: int, seed, solved):
    """Build robber policy ``name`` of ROBBER_POLICIES, as ``make_cop_policy``."""
    build, params = _lookup(ROBBER_POLICIES, "robber policy", name, params,
                            UnknownPolicy(f"unknown robber policy {name!r}"))
    return build(g=g, codec=codec, k=k, seed=seed, solved=solved, **params)


def play_config(config: MCConfig, seed, kept: dict):
    """Play one game of the policies ``config`` names on config.graph with
    {seed} filled in: ``simulate`` and each game of an mc batch.

    ``kept`` holds what the game takes from earlier games, or else keeps for
    later ones: the (g, codec) under "graph", the value table of (g, k) under
    "table", and under "cop" and "robber" each policy whose builder does not
    name ``seed``. Each is built on first use, so the solver policies of one
    game share one solve; a builder that raises keeps nothing. ``simulate``
    passes its graph as {"graph": (g, codec)}."""
    def once(key, make):
        if key not in kept:
            kept[key] = make()
        return kept[key]

    g, codec = once("graph", lambda: from_spec(config.graph.replace("{seed}", str(seed))))
    solved = lambda: once("table", lambda: solve(g, config.k))  # noqa: E731

    def policy(side, table, make, name, params):
        build = lambda: make(name, params, g, codec, config.k, f"{seed}:{side}", solved)  # noqa: E731
        return build() if _names_seed(table, name) else once(side, build)

    cop = policy("cop", COP_POLICIES, make_cop_policy, config.cop, config.cop_params)
    rob = policy("robber", ROBBER_POLICIES, make_robber_policy, config.robber, config.robber_params)
    return play(g, config.k, cop, rob, config.max_rounds, fast_robber=config.fast_robber)


@dataclass
class MCSummary:
    """An mc batch: its config and one row per trial. The capture count,
    success rate and capture-round quantiles are read off the rows."""

    config: MCConfig
    rows: list

    @property
    def captured(self) -> int:
        return sum(r["capture_round"] is not None for r in self.rows)

    @property
    def success_rate(self) -> float:
        return self.captured / self.config.trials

    @property
    def quantiles(self) -> dict:
        """The capture rounds at ranks 0, 0.5, 0.9 and 1 of the sorted
        captured rounds (index rounded), or None when nothing was captured."""
        rounds = sorted(r["capture_round"] for r in self.rows if r["capture_round"] is not None)
        return {name: rounds[round(p * (len(rounds) - 1))] if rounds else None
                for name, p in (("min", 0.0), ("p50", 0.5), ("p90", 0.9), ("max", 1.0))}

    def to_jsonable(self) -> dict:
        return {
            "graph": self.config.graph,
            "k": self.config.k,
            "cop": self.config.cop,
            "robber": self.config.robber,
            "trials": self.config.trials,
            "captured": self.captured,
            "success_rate": self.success_rate,
            "quantiles": self.quantiles,
            "rows": self.rows,
        }

    def to_json(self, indent: int | None = None) -> str:
        return stable_json(self.to_jsonable(), indent=indent)

    def to_csv(self) -> str:
        header = ["trial", "seed", "captured", "capture_round",
                  "matching_saturated", "certified_bound", "error"]
        rows = [
            [r["trial"], r["seed"], r["captured"], r["capture_round"],
             r.get("matching_saturated"), r.get("certified_bound"), r.get("error")]
            for r in self.rows
        ]
        return csv_lines(header, rows)


def _game(config: MCConfig, seed, kept: dict) -> dict:
    """The row fields of one ``play_config`` game; an error is kept in them,
    so the batch never aborts."""
    try:
        t = play_config(config, seed, kept)
    except Exception as exc:
        return {"captured": False, "capture_round": None, "error": f"{type(exc).__name__}: {exc}"}
    meta = t.metadata.get("cop", {})
    return {"captured": t.capture_round is not None, "capture_round": t.capture_round,
            **{key: meta[key] for key in ("matching_saturated", "certified_bound") if key in meta}}


def mc_run(config: MCConfig) -> MCSummary:
    """Play ``config.trials`` games, one row each; an error stays in its row.

    A game depends on its seed only through a {seed} in config.graph and
    through a policy builder that names ``seed``. So the batch plays one game
    per distinct ``str(seed)`` when either holds, and otherwise one game in
    all; each row is {"trial", "seed", **that game's fields}. A spec without
    {seed} builds its graph, its value table and each seed-free policy once,
    in one ``kept`` dict for all the batch's games; `play` carries each
    game's cop state, and a robber starts afresh at placement. A {seed} spec
    gets a fresh dict per game. Every row is as if built and played afresh."""
    if config.trials < 1:
        raise ValueError("trials must be at least 1")
    if config.k < 1:
        raise ValueError("k must be at least 1 (no zero-cop games)")
    if config.seeds is not None and not isinstance(config.seeds, (list, tuple)):
        raise ValueError(f"seeds must be a list of seeds, got {config.seeds!r}")
    seeds = (list(config.seeds) if config.seeds is not None
             else [config.base_seed + i for i in range(config.trials)])
    if len(seeds) != config.trials:
        raise ValueError("seed list length must equal trials")

    fixed = "{seed}" not in config.graph
    seeded = (not fixed or _names_seed(COP_POLICIES, config.cop)
              or _names_seed(ROBBER_POLICIES, config.robber))
    kept, games, rows = {}, {}, []
    for trial, seed in enumerate(seeds):
        key = str(seed) if seeded else None
        if key not in games:
            games[key] = _game(config, seed, kept if fixed else {})
        rows.append({"trial": trial, "seed": str(seed), **games[key]})
    return MCSummary(config, rows)
