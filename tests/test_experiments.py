from copsrobbers import experiments
from copsrobbers.experiments import MCConfig, mc_run


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
