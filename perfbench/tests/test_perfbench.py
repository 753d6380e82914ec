"""Fast tests of the benchmark itself (not of copsrobbers):

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from copsrobbers import MCConfig, gen_path  # noqa: E402
from worker import Speedometer, run_ops  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_lists_the_metrics_run_py_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = tracing.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        layer = {k: v["value"] for k, v in result["metrics"].items()}
        assert {
            "solve_large": lambda: layer["solver.solve_calls"] == 3,
            "study_small": lambda: layer["generators.gnp_calls"] >= 6,
            "dense_trap": lambda: layer["play.games"] == 3,
            "mc_games": lambda: layer["experiments.mc_trials"] == 10,
        }[workload]()
        assert (BENCH / "out" / f"spans-{workload}-seed3.jsonl").is_file()
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_unknown_cop_policy_counts_every_op_as_failed():
    op = workloads.mc_op(MCConfig("path:5", 1, cop="no_such_policy", trials=3))
    with Speedometer() as meter:
        rows = run_ops([op, op], meter)
    assert sum(not r["ok"] for r in rows) / len(rows) == 1.0
    assert rows[0]["detail"].startswith("3 of 3 trials errored")
    assert "UnknownPolicy" in rows[0]["detail"]


def test_wrong_pinned_value_fails_the_op_and_the_run(capsys):
    g, _ = gen_path(5)
    good = workloads.solve_op("path 5 k=1", g, 1, 2)
    bad = workloads.solve_op("path 5 k=1 wrong", g, 1, 3)
    with Speedometer() as meter:
        rows = run_ops([good, bad], meter)
    assert rows[0]["ok"] and not rows[1]["ok"]
    assert "expected 3" in rows[1]["detail"]
    passes = [{"ops": rows, "rss_mb": 1.0, "setup_norm_s": 0.1}]
    args = argparse.Namespace(workload="solve_large", seed=1, size="tiny", trace=0)
    assert run.report(args, passes, [], passes) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "solve_large", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
