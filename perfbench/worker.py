"""One pass of one workload in a fresh, single-threaded process.

``run.py`` starts this script once per pass and reads the single JSON line
it prints. Modes:

- ``setup``: import, build the fixed inputs, warm up, report set-up cost;
- ``pass``: the same, then run every op untraced;
- ``trace``: the same as ``pass`` with span recorders installed after the
  warm-up; also reports per-layer metrics and writes the span file.

Times are CPU seconds of the worker's only thread (``time.thread_time``,
which unlike ``process_time`` stays precise inside a signal handler) unless
named ``wall``. It counts from process start, so the set-up figure includes
interpreter start-up and imports.

A shared virtual machine can change speed by 1.8x for seconds to tens of
seconds at a time (measured on a 2-vCPU Xeon guest), and CPU time swings
with it. So a
fixed reference loop is timed before every op, after it, and every
SAMPLE_EVERY_S of CPU time while it runs, and each op's CPU time (without
the sampling) is also reported scaled to the reference speed:
``norm_s = cpu_s * REF_NOMINAL_S / mean(reference samples)``. The
end-to-end metrics use the scaled times; raw CPU and wall times are
reported beside them.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


SAMPLE_EVERY_S = 0.02
REF_ITERATIONS = 5_000
REF_NOMINAL_S = 0.001


def reference() -> float:
    """CPU seconds of a fixed loop of integer arithmetic and dict updates."""
    c0 = time.thread_time()
    acc = 0
    table = {}
    for i in range(REF_ITERATIONS):
        j = (i * 7919) & 1023
        table[j] = table.get(j, 0) + 1
        acc += j * j % 7
    return time.thread_time() - c0


class Speedometer:
    """Times the reference loop every SAMPLE_EVERY_S of process CPU time
    (SIGPROF), so that the machine's speed is sampled while an op runs.
    ``clock()`` is process CPU time minus the time spent sampling."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def sample(self, *_):
        t = reference()
        self.samples.append(t)
        self.spent += t

    def clock(self) -> float:
        return time.thread_time() - self.spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)


def run_ops(ops, meter: Speedometer, tracer=None) -> list:
    """Run and check each op. Time it on the speedometer's clock and scale
    it by the mean reference sample from just before it to just after it."""
    from workloads import Verdict

    rows = []
    if tracer is not None:
        tracer.clock = meter.clock
    meter.sample()
    for i, op in enumerate(ops):
        first = len(meter.samples) - 1
        if tracer is not None:
            tracer.op, tracer.enabled = i, True
        spent, c0, w0 = meter.spent, meter.clock(), time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        c1, w1 = meter.clock(), time.perf_counter() - (meter.spent - spent)
        if tracer is not None:
            tracer.op, tracer.enabled = -1, False
        meter.sample()
        speed = REF_NOMINAL_S / statistics.fmean(meter.samples[first:])
        if error is None:
            try:
                verdict = op.check(result)
            except Exception as exc:  # a check that cannot run fails the op
                verdict = Verdict(False, f"check raised {type(exc).__name__}: {exc}")
        else:
            verdict = Verdict(False, error)
        rows.append({
            "label": op.label, "cpu_s": c1 - c0, "norm_s": (c1 - c0) * speed,
            "speed": speed, "wall_s": w1 - w0,
            "ok": verdict.ok, "detail": verdict.detail,
        })
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--mode", choices=("setup", "pass", "trace"), default="pass")
    ap.add_argument("--spans", help="span file written in trace mode")
    args = ap.parse_args(argv)

    with Speedometer() as meter:
        meter.sample()
        import copsrobbers
        import workloads

        src = HERE.parent / "src"
        if src not in Path(copsrobbers.__file__).resolve().parents:
            raise SystemExit(f"copsrobbers imported from {copsrobbers.__file__}, not {src}")
        ops = workloads.build(args.workload, args.seed, args.size)
        workloads.warm_up()
        setup_cpu = meter.clock()
        meter.sample()
        out = {
            "setup_cpu_s": setup_cpu,
            "setup_norm_s": setup_cpu * REF_NOMINAL_S / statistics.fmean(meter.samples),
        }
        if args.mode != "setup":
            tracer = None
            if args.mode == "trace":
                from tracing import Tracer

                tracer = Tracer()
                tracer.install()
            out["ops"] = run_ops(ops, meter, tracer)
            if tracer is not None:
                speeds = [row["speed"] for row in out["ops"]]
                out["layers"] = tracer.metrics(speeds)
                out["layer_table"] = tracer.layer_table(speeds)
                if args.spans:
                    tracer.write_spans(args.spans)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
