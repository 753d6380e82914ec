"""Span recorders installed around the public functions of each
``copsrobbers`` layer, and the per-layer metrics computed from the spans.

Only the traced run calls ``Tracer.install``; untraced runs never import a
wrapper. Spans are recorded only while ``enabled`` is set, which the worker
does for the duration of each op. A span is ``[name, start, end, parent,
op]``: seconds on ``clock`` (the worker sets it to its thread's CPU time
less the time spent sampling the machine's speed), the index of the
enclosing span (-1 at top level) and the id of the benchmark op that caused
it. Spans stay in memory until ``write_spans`` saves them as JSON lines.
Per-layer times are span times scaled by their op's speed factor.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import Counter, defaultdict

PACKAGE = "copsrobbers"
LAYERS = (
    "generators", "graphs", "matching", "solver", "play",
    "strategies", "sphere_trap", "planar", "experiments", "serialize",
)

# Methods wrapped besides module-level functions. Hot inner methods that
# run once per state (ValueTable.value, ValueTable.joint_moves, Graph.closed)
# are left alone: a span each would cost more than the work they do.
POLICY_METHODS = ("__init__", "placement", "move")
CLASS_METHODS = {
    "Graph": ("__init__", "from_edges"),
    "ValueTable": ("capture_time", "best_placement"),
    "MCSummary": ("to_json",),
    "PlayTranscript": ("to_json",),
}

# Per-layer metrics: name -> unit. Times are seconds of span self time
# unless the README says otherwise; calls, states, rounds and trials are
# exact counts.
PER_LAYER = {
    "generators.gnp_calls": "count",
    "generators.gnp_s": "s",
    "generators.connected_probes_per_graph": "ratio",
    "graphs.build_calls": "count",
    "graphs.build_s": "s",
    "graphs.bfs_calls": "count",
    "graphs.bfs_s": "s",
    "graphs.k_center_s": "s",
    "graphs.domination_s": "s",
    "graphs.metrics_s": "s",
    "matching.hk_calls": "count",
    "matching.hk_s": "s",
    "matching.hk_left_total": "count",
    "matching.saturated_ratio": "ratio",
    "solver.solve_calls": "count",
    "solver.solve_s": "s",
    "solver.states_total": "count",
    "solver.move_pairs": "count",
    "solver.states_visited": "count",
    "solver.states_per_s": "1/s",
    "solver.capture_time_s": "s",
    "solver.policy_move_s": "s",
    "solver.resolve_ratio": "ratio",
    "play.games": "count",
    "play.rounds": "count",
    "play.s": "s",
    "play.referee_self_s": "s",
    "strategies.policy_setup_s": "s",
    "strategies.move_calls": "count",
    "strategies.move_s": "s",
    "sphere_trap.trap_matching_calls": "count",
    "sphere_trap.trap_matching_s": "s",
    "sphere_trap.move_s": "s",
    "sphere_trap.saturated_ratio": "ratio",
    "planar.policy_setup_s": "s",
    "planar.move_s": "s",
    "experiments.verify_suite_s": "s",
    "experiments.mc_trials": "count",
    "experiments.mc_errored": "count",
    "experiments.mc_self_s": "s",
    "serialize.to_json_s": "s",
    "trace.overhead_s": "s",
}

BFS_FUNCTIONS = ("bfs_distances", "bfs_multi", "bfs_parents", "component_of")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.enabled = False
        self.clock = time.thread_time
        self._stack: list = []
        self.counts: Counter = Counter()
        self._solved: set = set()
        self._is_policy: dict = {}

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = self.clock()
                stack.pop()
            if hook is not None:
                hook(args, result, rec)
            return result

        return traced

    # -- counters read at the layer boundary --------------------------------

    def _hooks(self):
        counts = self.counts
        spans = self.spans

        def estimate_cost(args, result, rec):
            if rec[3] >= 0 and spans[rec[3]][0] == "solver.solve":
                counts["solver.states_total"] += result[0]
                counts["solver.move_pairs"] += result[1]

        def solve(args, table, rec):
            counts["solver.states_visited"] += table.states_visited
            self._solved.add((table.graph.adj, table.k))

        def hopcroft_karp(args, result, rec):
            left = len(args[0])
            counts["matching.hk_left_total"] += left
            counts["matching.hk_saturated"] += result[0] == left

        def trap_matching(args, result, rec):
            counts["sphere_trap.saturated"] += type(result).__name__ == "TrapAssignment"

        def play(args, transcript, rec):
            counts["play.rounds"] += len(transcript.rounds)

        def mc_run(args, summary, rec):
            counts["experiments.mc_trials"] += len(summary.rows)
            counts["experiments.mc_errored"] += sum(1 for r in summary.rows if r.get("error"))

        return {
            "solver.estimate_cost": estimate_cost,
            "solver.solve": solve,
            "matching.hopcroft_karp": hopcroft_karp,
            "sphere_trap.trap_matching": trap_matching,
            "play.play": play,
            "experiments.mc_run": mc_run,
        }

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of each layer under every name any
        package module binds it to, plus the policy and class methods above."""
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [
            importlib.import_module(f"{PACKAGE}.{m.name}")
            for m in pkgutil.iter_modules(pkg.__path__)
        ]
        from copsrobbers.play import CopPolicy, RobberPolicy

        hooks = self._hooks()
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapper = self._wrap(name, obj, hooks.get(name))
                    for other in modules:
                        for alias, value in list(vars(other).items()):
                            if value is obj:
                                setattr(other, alias, wrapper)
                elif inspect.isclass(obj):
                    policy = issubclass(obj, (CopPolicy, RobberPolicy)) or (
                        hasattr(obj, "placement") and hasattr(obj, "move")
                    )
                    methods = POLICY_METHODS if policy else CLASS_METHODS.get(attr, ())
                    for meth in methods:
                        raw = obj.__dict__.get(meth)
                        if raw is None:
                            continue
                        name = f"{layer}.{attr}.{meth}"
                        self._is_policy[name] = policy
                        if isinstance(raw, classmethod):
                            setattr(obj, meth, classmethod(self._wrap(name, raw.__func__)))
                        else:
                            setattr(obj, meth, self._wrap(name, raw))

    # -- analysis ----------------------------------------------------------

    def durations(self, speeds) -> list:
        """Each span's duration scaled to the reference speed of its op
        (``speeds[op]``, see worker.py)."""
        return [(s[2] - s[1]) * speeds[s[4]] for s in self.spans]

    def self_times(self, speeds) -> list:
        """Each span's scaled duration minus its children's."""
        dur = self.durations(speeds)
        out = list(dur)
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                out[s[3]] -= d
        return out

    def layer_table(self, speeds) -> dict:
        """layer -> [spans, self seconds] over every recorded span."""
        table = defaultdict(lambda: [0, 0.0])
        for s, self_s in zip(self.spans, self.self_times(speeds)):
            row = table[s[0].split(".", 1)[0]]
            row[0] += 1
            row[1] += self_s
        return dict(table)

    def metrics(self, speeds) -> dict:
        """Per-layer metric values (every key of PER_LAYER but the overhead)."""
        spans = self.spans
        dur = self.durations(speeds)
        self_s = self.self_times(speeds)
        calls: Counter = Counter()
        own: defaultdict = defaultdict(float)
        total: defaultdict = defaultdict(float)
        for s, t, d in zip(spans, self_s, dur):
            calls[s[0]] += 1
            own[s[0]] += t
            total[s[0]] += d

        def pick(pred, table):
            return sum((v for k, v in table.items() if pred(k)), 0 if table is calls else 0.0)

        def method_in(layer, methods):
            def pred(k):
                parts = k.split(".")
                return (len(parts) == 3 and parts[0] == layer and parts[2] in methods
                        and self._is_policy.get(k))
            return pred

        def factory(layer):
            def pred(k):
                parts = k.split(".")
                return (len(parts) == 2 and parts[0] == layer
                        and parts[1].endswith(("_policy", "_robber")))
            return pred

        c = self.counts
        connected = calls["generators.gen_connected_gnp"]
        probes = sum(
            1 for s in spans
            if s[0] == "generators.gen_gnp" and s[3] >= 0
            and spans[s[3]][0] == "generators.gen_connected_gnp"
        )
        hk = calls["matching.hopcroft_karp"]
        traps = calls["sphere_trap.trap_matching"]
        solves = calls["solver.solve"]
        solve_s = own["solver.solve"]
        referee = total["play.play"] - sum(
            d for s, d in zip(spans, dur)
            if s[3] >= 0 and spans[s[3]][0] == "play.play" and self._is_policy.get(s[0])
        )
        bfs = tuple(f"graphs.{f}" for f in BFS_FUNCTIONS)
        build = ("graphs.Graph.__init__", "graphs.Graph.from_edges")
        return {
            "generators.gnp_calls": calls["generators.gen_gnp"],
            "generators.gnp_s": own["generators.gen_gnp"],
            "generators.connected_probes_per_graph": probes / connected if connected else 0.0,
            "graphs.build_calls": calls["graphs.Graph.__init__"],
            "graphs.build_s": pick(lambda k: k in build, own),
            "graphs.bfs_calls": pick(lambda k: k in bfs, calls),
            "graphs.bfs_s": pick(lambda k: k in bfs, own),
            "graphs.k_center_s": own["graphs.k_center"],
            "graphs.domination_s": own["graphs.domination_number"],
            "graphs.metrics_s": own["graphs.metrics"],
            "matching.hk_calls": hk,
            "matching.hk_s": own["matching.hopcroft_karp"],
            "matching.hk_left_total": c["matching.hk_left_total"],
            "matching.saturated_ratio": c["matching.hk_saturated"] / hk if hk else 0.0,
            "solver.solve_calls": solves,
            "solver.solve_s": solve_s,
            "solver.states_total": c["solver.states_total"],
            "solver.move_pairs": c["solver.move_pairs"],
            "solver.states_visited": c["solver.states_visited"],
            "solver.states_per_s": c["solver.states_visited"] / solve_s if solve_s else 0.0,
            "solver.capture_time_s": own["solver.ValueTable.capture_time"]
            + own["solver.ValueTable.best_placement"],
            "solver.policy_move_s": pick(
                method_in("solver", ("placement", "move")), own),
            "solver.resolve_ratio": solves / len(self._solved) if self._solved else 0.0,
            "play.games": calls["play.play"],
            "play.rounds": c["play.rounds"],
            "play.s": total["play.play"],
            "play.referee_self_s": referee,
            "strategies.policy_setup_s": pick(
                method_in("strategies", ("__init__", "placement")), own)
            + pick(factory("strategies"), own),
            "strategies.move_calls": pick(method_in("strategies", ("move",)), calls),
            "strategies.move_s": pick(method_in("strategies", ("move",)), own),
            "sphere_trap.trap_matching_calls": traps,
            "sphere_trap.trap_matching_s": own["sphere_trap.trap_matching"],
            "sphere_trap.move_s": own["sphere_trap.SphereTrapPolicy.move"],
            "sphere_trap.saturated_ratio": c["sphere_trap.saturated"] / traps if traps else 0.0,
            "planar.policy_setup_s": pick(
                method_in("planar", ("__init__", "placement")), own)
            + pick(factory("planar"), own),
            "planar.move_s": pick(method_in("planar", ("move",)), own),
            "experiments.verify_suite_s": total["experiments.verify_suite"],
            "experiments.mc_trials": c["experiments.mc_trials"],
            "experiments.mc_errored": c["experiments.mc_errored"],
            "experiments.mc_self_s": own["experiments.mc_run"]
            + own["experiments.make_cop_policy"] + own["experiments.make_robber_policy"],
            "serialize.to_json_s": own["serialize.stable_json"],
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4]}
                ))
                fh.write("\n")
