import ast
import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from copsrobbers import experiments
from copsrobbers.errors import AmbiguousRegime
from copsrobbers.experiments import MCConfig, mc_run, qn_regime, verify_suite
from copsrobbers.graphs import k_center
from copsrobbers.solver import capture_time, solve


def _fresh_rows(config):
    """Each trial's row from a game built and played afresh by
    ``play_config(config, seed, {})``, seeds 0, 1, ..."""
    rows = []
    for i in range(config.trials):
        row = {"trial": i, "seed": str(i), "captured": False, "capture_round": None}
        try:
            t = experiments.play_config(config, i, {})
        except Exception as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        else:
            meta = t.metadata.get("cop", {})
            row.update({key: meta[key] for key in ("matching_saturated", "certified_bound")
                        if key in meta})
            row["captured"], row["capture_round"] = t.capture_round is not None, t.capture_round
        rows.append(row)
    return rows


def test_mc_run_solves_each_graph_once(monkeypatch):
    """A batch on one graph solves it once for both solver policies and every
    trial; a batch over seeded graphs solves each graph once. Sharing a table
    changes no trial row."""
    calls = []
    solve = experiments.solve

    def counting_solve(g, k):
        calls.append((g.n, k))
        return solve(g, k)

    monkeypatch.setattr(experiments, "solve", counting_solve)
    fixed = MCConfig("grid:d=2,q=3", 2, cop="solver", robber="solver", trials=4)
    seeded = MCConfig("tree:9,{seed}", 2, cop="tree", robber="solver", trials=3)
    summaries = [mc_run(fixed), mc_run(seeded)]
    assert calls == [(9, 2)] * 4

    for config, summary in zip((fixed, seeded), summaries):
        alone = _fresh_rows(config)
        assert summary.rows == alone
        assert all(row["captured"] and "error" not in row for row in alone)


def test_mc_trials_report_refused_parameters_and_graphs():
    """An undeclared policy parameter, or a graph without the codec a policy
    needs, is a ValueError in every trial's row, and the batch runs on."""
    cases = [
        (MCConfig("hypercube:3", 4, cop="sphere_trap", cop_params={"depth": 3}, trials=2),
         "ValueError: unknown parameter depth for cop policy 'sphere_trap'; accepted: d, mode"),
        (MCConfig("path:5", 1, cop="tree", robber="greedy", robber_params={"bar": 2}, trials=2),
         "ValueError: unknown parameter bar for robber policy 'greedy'; accepted: none"),
        (MCConfig("tree:12,{seed}", 2, cop="grid_cover", trials=2),
         "ValueError: cop policy 'grid_cover' needs a path or grid graph"),
        (MCConfig("grid:d=2,q=4", 2, cop="subcube_partition", trials=2),
         "ValueError: cop policy 'subcube_partition' needs a hypercube graph"),
        (MCConfig("hypercube:3", 2, cop="solver", robber="pigeonhole_grid", trials=2),
         "ValueError: robber policy 'pigeonhole_grid' needs a path or grid graph"),
        (MCConfig("path:5", 1, cop="tree", robber="greedy_fast", trials=2),
         "ValueError: robber GreedyFastRobber relocates, so it plays only in the "
         "fast-robber variant (fast_robber, --fast-robber)"),
        (MCConfig("path:5", 1, cop="static", cop_params={"positions": "a"}, trials=2),
         "ValueError: cop policy 'static' needs positions to be a vertex or a list "
         "of vertices, got 'a'"),
        (MCConfig("path:5", 1, cop="static", cop_params={"positions": [1.7, True]}, trials=2),
         "ValueError: cop policy 'static' needs positions to be a vertex or a list "
         "of vertices, got [1.7, True]"),
    ]
    for config, error in cases:
        rows = mc_run(config).rows
        assert [row.get("error") for row in rows] == [error] * 2


def test_mc_seeds_name_the_trials_in_order(tmp_path, capsys):
    """Given seeds, the rows carry them in order, from the API and from an mc
    JSON file with a seeds list; a list whose length is not trials, an empty
    one included, is a ValueError, and so are seeds given as anything but a
    list or tuple (a string would play its characters, a dict its keys); the
    command line reports each with exit code 1."""
    from copsrobbers.cli import main

    raw = {"graph": "tree:8,{seed}", "k": 1, "cop": "tree", "robber": "greedy",
           "trials": 3, "seeds": [7, 2, 5]}
    rows = mc_run(MCConfig(**{**raw, "seeds": (7, 2, 5)})).rows
    assert [row["seed"] for row in rows] == ["7", "2", "5"]
    assert [row["trial"] for row in rows] == [0, 1, 2]
    for seeds in ((7, 2), ()):
        with pytest.raises(ValueError, match="seed list length must equal trials"):
            mc_run(MCConfig(**{**raw, "seeds": seeds}))
    for seeds in ("749", {"7": 1, "4": 2, "9": 3}):
        with pytest.raises(ValueError, match="seeds must be a list of seeds"):
            mc_run(MCConfig(**{**raw, "seeds": seeds}))

    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["mc", str(config)]) == 0
    assert [row["seed"] for row in json.loads(capsys.readouterr().out)["rows"]] == ["7", "2", "5"]
    for seeds in ([7, 2], []):
        config.write_text(json.dumps({**raw, "seeds": seeds}))
        assert main(["mc", str(config)]) == 1
        assert capsys.readouterr().err == "error: seed list length must equal trials\n"
    for seeds in ("749", {"7": 1, "4": 2, "9": 3}):
        config.write_text(json.dumps({**raw, "seeds": seeds}))
        assert main(["mc", str(config)]) == 1
        assert capsys.readouterr().err == f"error: seeds must be a list of seeds, got {seeds!r}\n"


def test_simulate_solves_once_for_both_solver_policies(monkeypatch, capsys):
    """simulate plays through play_config, whose kept value table lets a
    solver cop and a solver robber share one solve."""
    from copsrobbers.cli import main

    calls = []
    solve = experiments.solve
    monkeypatch.setattr(experiments, "solve", lambda g, k: calls.append(k) or solve(g, k))
    argv = ["simulate", "--gen", "grid:d=2,q=4", "-k", "2", "--cop", "solver", "--robber", "solver"]
    assert main(argv) == 0
    assert calls == [2]
    assert '"capture_round": 3,' in capsys.readouterr().out  # capt_2 of grid 4x4


def test_mc_run_builds_what_the_seed_does_not_change_once(monkeypatch):
    """A batch on a fixed spec builds its graph, its value table and each
    policy whose builder does not name `seed` once, also when the other side
    is seeded, and when neither builder names it, plays its game once; a
    {seed} spec builds its graph and policies and plays every trial, and so
    do the seeded builders (sphere_trap, random_walk). A game that raises is
    copied as its error row. Every row is the row of a trial that built and
    played everything afresh."""
    calls = Counter()

    def count(name):
        build = getattr(experiments, name)
        monkeypatch.setattr(experiments, name,
                            lambda *a, **kw: calls.update([name]) or build(*a, **kw))

    for name in ("from_spec", "grid_cover_policy", "PigeonholeGridRobber", "SphereTrapPolicy",
                 "RandomWalkRobber", "TreePolicy", "GreedyRobber", "StayFarRobber",
                 "SeparatorSweepPolicy", "play", "solve"):
        count(name)
    cases = [
        (MCConfig("grid:d=2,q=6", 4, cop="grid_cover", robber="pigeonhole_grid", trials=3),
         {"from_spec": 1, "grid_cover_policy": 1, "PigeonholeGridRobber": 1, "play": 1}),
        (MCConfig("hypercube:4", 4, cop="sphere_trap", robber="random_walk", trials=3),
         {"from_spec": 1, "SphereTrapPolicy": 3, "RandomWalkRobber": 3, "play": 3}),
        (MCConfig("tree:9,{seed}", 2, cop="tree", robber="greedy", trials=3),
         {"from_spec": 3, "TreePolicy": 3, "GreedyRobber": 3, "play": 3}),
        (MCConfig("tree:12,{seed}", 2, cop="tree", robber="stay_far", trials=4),
         {"from_spec": 4, "TreePolicy": 4, "StayFarRobber": 4, "play": 4}),
        (MCConfig("tree:60,1", 3, cop="tree", robber="random_walk", trials=4),
         {"from_spec": 1, "TreePolicy": 1, "RandomWalkRobber": 4, "play": 4}),
        (MCConfig("hypercube:3", 4, cop="sphere_trap", robber="solver", trials=3),
         {"from_spec": 1, "SphereTrapPolicy": 3, "solve": 1, "play": 3}),
        (MCConfig("grid:d=2,q=5", 8, cop="separator_sweep", robber="greedy", trials=3),
         {"from_spec": 1, "SeparatorSweepPolicy": 1, "GreedyRobber": 1, "play": 1}),
    ]
    batches = []
    for config, built in cases:
        calls.clear()
        rows = mc_run(config).rows
        assert calls == built, config
        assert rows == _fresh_rows(config)
        batches.append(rows)
    *won, trap, failed = batches
    assert all(row["captured"] and "error" not in row for rows in won for row in rows)
    assert [row["capture_round"] for row in won[3]] == [2, 3, 2, 3]
    assert [row["capture_round"] for row in won[4]] == [1, 3, 2, 3]
    # the seeded trap varies by seed against the one solved robber
    assert [row["capture_round"] for row in trap] == [None, 1, 3]
    assert {row["error"] for row in failed} == {
        "TeamBudgetExceeded: needs 9 cops but only 8 available"}


def test_mc_run_reads_each_builder_signature_once(monkeypatch):
    """Whether a builder names `seed` is read off its signature once, not
    once per game: a 40-trial sphere-trap batch inspects its cop builder and
    its robber builder at most once each, and its rows are those of games
    built and played afresh."""
    import inspect

    reads = []
    signature = inspect.signature
    monkeypatch.setattr(inspect, "signature", lambda f, *a, **kw: reads.append(f) or signature(f, *a, **kw))
    config = MCConfig("hypercube:6", 8, cop="sphere_trap", cop_params={"d": 1, "mode": "hypercube"},
                      robber="random_walk", trials=40)
    rows = mc_run(config).rows
    builders = (experiments.COP_POLICIES["sphere_trap"][0],
                experiments.ROBBER_POLICIES["random_walk"][0])
    assert all(reads.count(build) <= 1 for build in builders)
    assert rows == _fresh_rows(config)


# policy name -> (graph spec of its kind, k, {declared parameter: another value})
POLICY_CASES = {
    "cop": {
        "solver": ("grid:d=2,q=3", 2, {}),
        "tree": ("tree:12,3", 2, {}),
        "grid_cover": ("grid:d=2,q=6", 4, {}),
        "subcube_partition": ("hypercube:4", 4, {"ell": 3}),
        "sphere_trap": ("hypercube:3", 4, {"d": 2, "mode": "general"}),
        "separator_sweep": ("grid:d=2,q=6", 20, {}),
        "three_cop_planar": ("tree:12,3", 3, {}),
        "static": ("path:5", 1, {"positions": [2]}),
    },
    "robber": {
        "stay_far": ("path:5", 1, {}),
        "greedy": ("path:5", 1, {}),
        "greedy_fast": ("path:5", 1, {}),
        "random_walk": ("path:5", 1, {}),
        "pigeonhole_grid": ("grid:d=2,q=6", 4, {}),
        "solver": ("path:5", 1, {}),
    },
}


def _built(policy):
    """A policy's plain settings: its attributes that are numbers, strings,
    tuples or dicts (metadata included)."""
    return {key: value for key, value in vars(policy).items()
            if isinstance(value, (int, float, str, tuple, dict))}


@pytest.mark.parametrize("side", sorted(POLICY_CASES))
def test_every_policy_builds_and_reads_each_parameter(side):
    """Every table entry builds with its defaults on a graph of its kind, and
    changing any one declared parameter changes the policy built: no declared
    parameter is ignored. Each entry also plays a game there (a cop with the
    changed parameters, a robber against static cops)."""
    table = {"cop": experiments.COP_POLICIES, "robber": experiments.ROBBER_POLICIES}[side]
    make = {"cop": experiments.make_cop_policy, "robber": experiments.make_robber_policy}[side]
    cases = POLICY_CASES[side]
    assert set(cases) == set(table)
    for name, (spec, k, changes) in cases.items():
        assert set(changes) == set(table[name][1]), name
        g, codec = experiments.from_spec(spec)
        solved = lambda: experiments.solve(g, k)  # noqa: E731
        default = make(name, {}, g, codec, k, "s", solved)
        for key, value in changes.items():
            changed = make(name, {key: value}, g, codec, k, "s", solved)
            assert _built(changed) != _built(default), (name, key)
        if side == "cop":
            config = MCConfig(spec, k, cop=name, cop_params=changes, max_rounds=20)
        else:
            config = MCConfig(spec, k, cop="static", cop_params={"positions": [0] * k},
                              robber=name, max_rounds=20, fast_robber=name == "greedy_fast")
        assert "error" not in mc_run(config).rows[0], name


@pytest.mark.parametrize(
    "changes, message",
    [({"trials": 0}, "trials must be at least 1"),
     ({"k": 0}, "k must be at least 1 (no zero-cop games)")],
)
def test_mc_run_refuses_an_empty_batch_or_no_cops(changes, message):
    config = MCConfig(**{"graph": "path:3", "k": 1, "cop": "tree", "trials": 1, **changes})
    with pytest.raises(ValueError) as exc:
        mc_run(config)
    assert str(exc.value) == message


def test_sphere_trap_suite_names_the_cube_it_plays_on():
    reports = verify_suite("sphere_trap", {"n": 2, "k": 2, "seeds": 5})
    assert {r.instance for r in reports} == {"Q2-d1-k2"}


def test_verify_suite_rejects_unknown_parameter(monkeypatch):
    """A key the suite does not read stops the run before it starts, naming
    the key and the accepted ones."""
    ran = []
    run, defaults = experiments.SUITES["regime"]
    monkeypatch.setitem(experiments.SUITES, "regime", (lambda p: ran.append(p) or (), defaults))
    with pytest.raises(ValueError, match="unknown parameter epss for suite 'regime'; accepted: eps$"):
        verify_suite("regime", {"epss": 0.3})
    with pytest.raises(ValueError, match="accepted: none"):
        verify_suite("hypercube_small", {"n": 3})
    assert ran == []
    verify_suite("regime", {"eps": 0.3})
    assert ran == [{"eps": 0.3}]


def test_verify_suite_times_each_report(monkeypatch):
    """With timings on, each report's runtime_ms is the time since the report
    before it, the first one's since the suite started. Without them every
    runtime_ms stays 0."""
    clock = iter([1.0, 1.5, 1.5, 3.25, 3.5])
    monkeypatch.setattr(experiments, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    reports = verify_suite("regime", timings=True)
    assert [r.runtime_ms for r in reports] == [500, 0, 1750, 250]
    monkeypatch.setattr(experiments, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    assert {r.runtime_ms for r in verify_suite("regime")} == {0}


def test_lower_bounds_accepts_the_study_keys():
    params = {"count_per_p": 1, "n_lo": 5, "n_hi": 5, "ps": (0.3,), "base_seed": "x"}
    reports = verify_suite("lower_bounds", params)
    assert reports and all(r.passed for r in reports)


def test_the_domination_theorem_holds_on_study_graphs():
    """Cops on a dominating set catch the robber at round 1, and fewer than
    n cannot catch it at placement: capt_k = rad_k = 1 for gamma <= k < n,
    and capt_k >= 2 below gamma. A study takes its values above gamma from
    this, so the solver checks it here."""
    for inst in experiments.random_small_study(2, 5, 8, (0.3, 0.5), 0):
        g, gamma = inst["graph"], inst["gamma"]
        for k in range(1, g.n):
            if k < gamma:
                assert capture_time(g, k) >= 2, (inst["id"], k)
            else:
                assert solve(g, k).capture_time() == 1, (inst["id"], k)
                assert k_center(g, k).radius == 1, (inst["id"], k)
        assert inst["capts"] == {k: capture_time(g, k) for k in range(1, g.n)}
        assert inst["radk"] == {k: k_center(g, k).radius for k in range(1, g.n)}


def test_study_solves_only_below_the_domination_number(monkeypatch):
    """A study solves each graph once for each k = 1..gamma-1 and no other
    k: from gamma on the domination theorem gives capt_k = 1."""
    calls = []
    for name in ("capture_time", "solve"):
        real = getattr(experiments, name)
        monkeypatch.setattr(experiments, name,
                            lambda g, k, real=real: calls.append((id(g), k)) or real(g, k))
    study = experiments.random_small_study(2, 5, 8, (0.3, 0.5), 0)
    assert calls == [(id(inst["graph"]), k) for inst in study
                     for k in range(1, inst["gamma"])]
    assert any(inst["gamma"] < inst["graph"].n - 1 for inst in study)


def test_monotonicity_checks_capt_gamma_with_the_solver(monkeypatch):
    """The study's capts[gamma] is the theorem's 1, so `capt_gamma_is_1`
    must solve k = gamma itself: a solver that reads 2 there fails every
    such report, while the study still reads 1."""
    from copsrobbers.graphs import domination_number

    real = experiments.capture_time
    monkeypatch.setattr(experiments, "capture_time",
                        lambda g, k: 2 if k == domination_number(g) else real(g, k))
    params = {"count_per_p": 2, "n_lo": 5, "n_hi": 8}
    study = experiments.random_small_study(**{**experiments.STUDY_PARAMS, **params})
    assert all(inst["capts"][inst["gamma"]] == 1 for inst in study)
    gamma_reports = [r for r in verify_suite("monotonicity", params)
                     if r.quantity == "capt_gamma_is_1"]
    assert len(gamma_reports) == len(study)
    assert all(r.measured == 2 and not r.passed for r in gamma_reports)



def test_study_runs_one_eccentricity_sweep_per_graph(monkeypatch):
    """rad_1 is the radius the metrics already hold, so a study graph runs
    one eccentricity sweep, and k_center only for 2 <= k < gamma."""
    from copsrobbers import graphs

    sweeps, centers = [], []
    real_ecc, real_center = graphs.eccentricities, experiments.k_center
    monkeypatch.setattr(graphs, "eccentricities", lambda g: sweeps.append(id(g)) or real_ecc(g))
    monkeypatch.setattr(experiments, "k_center",
                        lambda g, k: centers.append((id(g), k)) or real_center(g, k))
    study = experiments.random_small_study(2, 9, 10, (0.25, 0.5), 0)
    assert sweeps == [id(inst["graph"]) for inst in study]
    assert centers == [(id(inst["graph"]), k) for inst in study for k in range(2, inst["gamma"])]
    assert centers and any(inst["gamma"] == 2 for inst in study)

def _param_keys(tree, fn_name):
    """Keys a module function reads as params["..."], plus the parameter
    names of each module function it calls with **params."""
    fns = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    keys = set()
    for node in ast.walk(fns[fn_name]):
        if (isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "params"
                and isinstance(node.slice, ast.Constant)):
            keys.add(node.slice.value)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) in fns
                and any(kw.arg is None and getattr(kw.value, "id", None) == "params"
                        for kw in node.keywords)):
            keys |= {a.arg for a in fns[node.func.id].args.args}
    return keys


def test_suite_declarations_match_what_each_suite_reads():
    tree = ast.parse(Path(experiments.__file__).read_text(encoding="utf-8"))
    for name, (run, defaults) in experiments.SUITES.items():
        assert _param_keys(tree, run.__name__) == set(defaults), name


@pytest.mark.parametrize(
    "suite,params,message",
    [
        ("trees", {"n_max": 2}, "n_max must be at least 3, got 2"),
        ("trees", {"n_max": 1}, "n_max must be at least 3, got 1"),
        ("strategy_audits", {"n_max": 0}, "n_max must be at least 3, got 0"),
        ("lower_bounds", {"n_lo": 6, "n_hi": 5}, "need 1 <= n_lo <= n_hi, got n_lo=6, n_hi=5"),
        ("lower_bounds", {"n_lo": 0}, "need 1 <= n_lo <= n_hi, got n_lo=0, n_hi=10"),
        ("monotonicity", {"n_lo": 4, "n_hi": 2}, "need 1 <= n_lo <= n_hi, got n_lo=4, n_hi=2"),
        # list elements as `verify --set sizes=4,x` and `--set ps=` give them
        ("grid_scaling", {"sizes": (4, "x")},
         "parameter sizes of suite 'grid_scaling' takes int elements, got 'x'"),
        ("lower_bounds", {"ps": ("",)},
         "parameter ps of suite 'lower_bounds' takes float elements, got ''"),
    ],
)
def test_suite_size_parameters_outside_their_domain(suite, params, message):
    """Sizes a suite cannot build raise ValueError up front, in place of a
    division by zero or a silently different instance set."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_suite(suite, params)


@pytest.mark.parametrize("n,log2k,part", [(1000, 720, "ii"), (1000, 955, "iv")])
def test_qn_regime_parts_the_regime_suite_does_not_reach(n, log2k, part):
    """log2(k) = 720 n / 1000 is below part iii's band and its alpha is
    above 1 - eps: part ii. log2(k) = 955 n / 1000 is above the band, and f
    = 45 is above the polylog cap: part iv."""
    assert qn_regime(n, 2**log2k).part == part


def test_qn_regime_refuses_a_point_on_a_band_edge():
    with pytest.raises(AmbiguousRegime, match="regime boundary"):
        qn_regime(20, 2**19)
