import ast
from pathlib import Path
from types import SimpleNamespace

import pytest

from copsrobbers import experiments
from copsrobbers.experiments import MCConfig, mc_run, verify_suite


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
        alone = [experiments._mc_trial(config, i, i, {}) for i in range(config.trials)]
        assert summary.rows == alone
        assert all(row["captured"] and "error" not in row for row in alone)


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
    ],
)
def test_suite_size_parameters_outside_their_domain(suite, params, message):
    """Sizes a suite cannot build raise ValueError up front, in place of a
    division by zero or a silently different instance set."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_suite(suite, params)
