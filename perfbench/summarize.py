"""Summarise benchmark results: median, quartiles and spread per metric.

    python3 perfbench/summarize.py results-a.jsonl [results-b.jsonl ...]

Each file holds the last stdout line of several ``run.py`` runs of one
workload, one JSON object a line. The spread is the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median. Every later file is compared with the first: the change of
its median as a share of the first file's median, which ``BENCHMARK.json``
bounds for the end-to-end metrics.
"""

from __future__ import annotations

import json
import statistics
import sys


def summarize(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    out = {}
    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": rows[0]["metrics"][name]["unit"], "runs": len(values),
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    out["_correct"] = all(r["correct"] for r in rows)
    return out


def main(paths) -> int:
    first = None
    for path in paths:
        summary = summarize(path)
        print(f"{path}  (all correct: {summary.pop('_correct')})")
        for name, s in summary.items():
            line = (f"  {name:<40}{s['median']:>14.6g} {s['unit']:<6}"
                    f" q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.3f}")
            if first is not None and first.get(name, {}).get("median"):
                line += f"  vs first {s['median'] / first[name]['median'] - 1:+.3f}"
            print(line)
        first = first or summary
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
