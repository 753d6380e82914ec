"""Benchmark of the copsrobbers package: one workload per run.

    python3 perfbench/run.py --workload solve_large --seed 1 --seconds 20 --trace 0

Each pass of the workload's fixed work runs in a fresh single-threaded
process (``worker.py``). Passes repeat until the next one would end after
``--seconds``; there is always at least one. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics and the tracing overhead. Every op's result is
checked; the last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and the exit code is 1 when any
op failed. See README.md for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("solve_large", "study_small", "dense_trap", "mc_games")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "norm_cpu_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# A percentile is reported only when at least ten ops lie beyond it.
P90_MIN_OPS = 100


class BenchError(Exception):
    """The benchmark itself could not run (not a failed op)."""


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def spawn(args, mode: str, started: float) -> dict:
    """Run one worker process to completion and return its JSON report."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--mode", mode,
    ]
    if mode == "trace":
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    budget = RUN_LIMIT_S - (time.monotonic() - started)
    if budget <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, env=env)
    try:
        out, err = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} worker did not finish within {RUN_LIMIT_S:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def collect(args) -> tuple:
    """Run passes until the next would overrun --seconds. Returns the
    untraced passes, the traced passes and every set-up report."""
    started = time.monotonic()
    modes = ("pass", "trace") if args.trace else ("pass",)
    passes, traced = [], []
    while True:
        t0 = time.monotonic()
        for mode in modes:
            (traced if mode == "trace" else passes).append(spawn(args, mode, started))
        now = time.monotonic()
        if now - started + (now - t0) > args.seconds:
            break
    setups = list(passes)
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, "setup", started))
    return passes, traced, setups


def op_medians(passes, key: str) -> list:
    """Per-op median of ``key`` across passes (every pass runs the same ops)."""
    return [statistics.median(p["ops"][i][key] for p in passes)
            for i in range(len(passes[0]["ops"]))]


def pass_total(passes, key: str = "norm_s") -> float:
    """Median over passes of the pass's summed op time."""
    return statistics.median(sum(op[key] for op in p["ops"]) for p in passes)


def end_to_end(passes, setups) -> dict:
    cpu = pass_total(passes)
    per_op = op_medians(passes, "norm_s")
    return {
        "setup_s": statistics.median(s["setup_norm_s"] for s in setups),
        "norm_cpu_s": cpu,
        "ops_per_s": len(per_op) / cpu,
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def per_layer(passes, traced) -> tuple:
    """Per-layer metrics: counts from the first traced pass (they repeat
    exactly), times as medians over traced passes, plus the overhead."""
    from tracing import PER_LAYER

    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            continue
        values = [t["layers"][name] for t in traced]
        metrics[name] = values[0] if unit == "count" else statistics.median(values)
    traced_cpu = pass_total(traced)
    metrics["trace.overhead_s"] = traced_cpu - pass_total(passes)
    layers = {}
    for t in traced:
        for layer, (spans, self_s) in t["layer_table"].items():
            layers.setdefault(layer, ([], []))
            layers[layer][0].append(spans)
            layers[layer][1].append(self_s)
    table = {k: (v[0][0], statistics.median(v[1])) for k, v in layers.items()}
    return metrics, table, traced_cpu


def report(args, passes, traced, setups) -> int:
    from tracing import PER_LAYER

    runs = passes + traced
    ops = [op for p in runs for op in p["ops"]]
    failed = [op for op in ops if not op["ok"]]
    n_ops = len(passes[0]["ops"])
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"passes {len(passes)} untraced, {len(traced)} traced  ops/pass {n_ops}")
    if args.trace:
        metrics, table, traced_cpu = per_layer(passes, traced)
        units = PER_LAYER
        total = sum(s for _, s in table.values())
        print(f"\nself time per layer (scaled CPU s, median of {len(traced)} traced "
              f"passes; spans cover {total:.4f} s of {traced_cpu:.4f} s)")
        print(f"{'layer':<14}{'spans':>10}{'self_s':>12}{'share':>8}")
        for layer, (spans, self_s) in sorted(table.items(), key=lambda kv: -kv[1][1]):
            print(f"{layer:<14}{spans:>10}{self_s:>12.4f}{self_s / traced_cpu:>8.1%}")
        print(f"\ntracing overhead: {metrics['trace.overhead_s']:.4f} s scaled CPU "
              f"(traced {traced_cpu:.4f} s minus untraced "
              f"{traced_cpu - metrics['trace.overhead_s']:.4f} s)")
        OUT.mkdir(exist_ok=True)
        dump = {"workload": args.workload, "seed": args.seed, "size": args.size,
                "metrics": metrics, "layers": table}
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(dump, indent=1) + "\n")
    else:
        metrics = end_to_end(passes, setups)
        units = END_TO_END
    print(f"\n{'metric':<40}{'value':>16}  unit")
    for name, value in metrics.items():
        print(f"{name:<40}{value:>16.6g}  {units[name]}")
    per_op = op_medians(passes, "norm_s")
    info = {}
    if len(per_op) >= P90_MIN_OPS:
        info["op_p90_ms (info)"] = percentile(per_op, 0.9) * 1e3
    info["cpu_s (info, raw CPU)"] = pass_total(passes, "cpu_s")
    info["wall_s (info)"] = pass_total(passes, "wall_s")
    info["speed (info, nominal/reference)"] = statistics.median(
        op["speed"] for p in runs for op in p["ops"])
    for name, value in info.items():
        print(f"{name:<40}{value:>16.6g}")
    print(f"{'fail_ratio (info)':<40}{len(failed) / len(ops):>16.6g}  ratio  "
          f"({len(failed)} of {len(ops)} ops)")
    print(f"samples: {n_ops} ops x {len(passes)} untraced passes; op percentiles "
          f"over {n_ops} per-op medians"
          + ("" if args.trace else f"; setup over {len(setups)} processes"))
    for op in failed[:10]:
        print(f"FAILED {op['label']}: {op['detail']}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="passes repeat until the next would end after this many seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input; for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "copsrobbers" / "__init__.py").is_file():
        print(f"error: no copsrobbers source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        passes, traced, setups = collect(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return report(args, passes, traced, setups)


if __name__ == "__main__":
    sys.exit(main())
