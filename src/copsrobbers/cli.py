"""Command-line surface.

Subcommands: gen, solve, kcenter, simulate, verify, mc, regime, thresholds.
`simulate` and `mc` take policies by name from experiments.COP_POLICIES and
ROBBER_POLICIES (`name` or `name:key=value,...`); an undeclared parameter,
or a graph without the codec a policy needs, is a validation error.
Exit codes: 0 success, 1 validation/usage error (a value too large to print
included, as in `thresholds -n 1100 -d 1`), 2 runtime error (for `mc`: some
trial row carries an error; the summary is still written in full), 3 suite
failure (some bound report failed).

Output is deterministic: JSON keys sorted, floats fixed to six decimals, and
timing fields are zero unless --timings is passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
import time

from .errors import (
    AmbiguousRegime,
    CopsRobbersError,
    DomainError,
    ParseError,
    UnknownPolicy,
    UnknownSuite,
)
from .experiments import (
    COP_POLICIES,
    REGIME_B,
    ROBBER_POLICIES,
    SUITES,
    MCConfig,
    all_passed,
    mc_run,
    play_config,
    qn_regime,
    reports_to_csv,
    reports_to_jsonable,
    verify_suite,
)
from .generators import format_graph_text, from_spec, load_graph, parse_graph_text
from .graphs import MAXDIST, k_center
from .serialize import stable_json
from .solver import cop_number, solve
from .sphere_trap import thresholds


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_value(text: str):
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    if text in ("true", "false"):
        return text == "true"
    return text


def _parse_kv_list(items, defaults):
    """``key=value`` items as a dict; a key whose value in ``defaults`` is a
    tuple takes its comma-separated values as a tuple."""
    out = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {item!r}")
        out[key] = (tuple(map(_parse_value, value.split(",")))
                    if isinstance(defaults.get(key), tuple) else _parse_value(value))
    return out


def _parse_policy(text: str, table: dict):
    """``name`` or ``name:k=v,...`` as (name, params), split only at a comma
    that starts a new ``key=`` and read as ``verify --set`` reads a suite's."""
    name, sep, rest = text.partition(":")
    items = re.split(r",(?=[^,=]*=)", rest) if sep else []
    return name, _parse_kv_list(items, table.get(name, (None, {}))[1])


def _graph_from_args(args):
    sources = [s for s in (args.gen, args.file, "stdin" if args.stdin else None) if s]
    if len(sources) != 1:
        raise ValueError("choose exactly one graph source: --gen, --file, or --stdin")
    if args.gen:
        g, codec = from_spec(args.gen)
        return g, codec, args.gen
    if args.file:
        return load_graph(args.file), None, args.file
    return parse_graph_text(sys.stdin.read()), None, "stdin"


def _add_graph_source(p):
    p.add_argument("--gen", help="generator spec, e.g. grid:d=2,q=3 or hypercube:3")
    p.add_argument("--file", help="graph file in the edge-list text format")
    p.add_argument("--stdin", action="store_true", help="read a graph file from stdin")


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="copsrobbers", description="Cops-and-robbers games: exact solving, strategies, verification")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="emit a graph file from a generator spec")
    p.add_argument("spec", help="path:<q> | grid:d=<d>,q=<q> | hypercube:<n> | tree:<n>,<seed> | gnp:<n>,<p>,<seed>")
    p.add_argument("-o", "--output", help="output file (default stdout)")

    p = sub.add_parser("solve", help="capture time (and optionally cop number) by exact solving")
    _add_graph_source(p)
    p.add_argument("-k", type=int, required=True, help="number of cops")
    p.add_argument("--cop-number", action="store_true", help="also compute the cop number")
    p.add_argument("--timings", action="store_true", help="fill timing fields (off for byte-stable output)")
    p.add_argument("-o", "--output")

    p = sub.add_parser("kcenter", help="metric k-center")
    _add_graph_source(p)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "greedy"], default="exact")
    p.add_argument("-o", "--output")

    p = sub.add_parser("simulate", help="referee one game between named policies")
    _add_graph_source(p)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--cop", required=True,
                   help="cop policy: a name in experiments.COP_POLICIES with its declared "
                        "parameters, e.g. solver or sphere_trap:d=1,mode=general")
    p.add_argument("--robber", required=True,
                   help="robber policy: a name in experiments.ROBBER_POLICIES, "
                        "e.g. stay_far or random_walk")
    p.add_argument("--seed", default="0")
    p.add_argument("--max-rounds", type=int, default=1000)
    p.add_argument("--fast-robber", action="store_true")
    p.add_argument("-o", "--output")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="suite parameter", default=[])
    p.add_argument("--csv", help="write the report CSV here (default stdout)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p.add_argument("--timings", action="store_true")

    p = sub.add_parser("mc", help="Monte Carlo batch from a JSON config")
    p.add_argument("config", help="JSON file with graph/k/cop/robber/trials fields")
    p.add_argument("--csv", help="write per-trial rows as CSV here")
    p.add_argument("-o", "--output", help="summary JSON file (default stdout)")

    p = sub.add_parser("regime", help="cube capture-time regime for (n, k)")
    p.add_argument("-n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int)
    group.add_argument("--k-pow2", type=int, help="use k = 2**E")
    p.add_argument("--eps", type=float, default=0.05)

    p = sub.add_parser("thresholds", help="trap/counting thresholds and net radius")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-k", type=int, default=1)
    p.add_argument("-C", type=float, default=10.0)

    return parser


def _cmd_gen(args) -> int:
    _emit(format_graph_text(from_spec(args.spec)[0]), args.output)
    return 0


def _cmd_solve(args) -> int:
    g, _, desc = _graph_from_args(args)
    t0 = time.perf_counter()
    if args.k >= g.n:
        capt, states = 0, 0
    else:
        table = solve(g, args.k)
        table.settle()
        capt, states = table.capture_time(), table.states_visited
    out = {
        "graph": desc,
        "k": args.k,
        "capt": None if capt >= MAXDIST else capt,
        "states_visited": states,
        "ms": int((time.perf_counter() - t0) * 1000) if args.timings else 0,
    }
    if args.cop_number:
        out["cop_number"] = cop_number(g)
    _emit(stable_json(out, indent=2) + "\n", args.output)
    return 0


def _cmd_kcenter(args) -> int:
    g, _, desc = _graph_from_args(args)
    res = k_center(g, args.k, mode=args.mode)
    out = {"graph": desc, "k": args.k, "mode": args.mode,
           "radius": res.radius, "centers": list(res.centers)}
    _emit(stable_json(out, indent=2) + "\n", args.output)
    return 0


def _cmd_simulate(args) -> int:
    g, codec, desc = _graph_from_args(args)
    config = MCConfig(desc, args.k, *_parse_policy(args.cop, COP_POLICIES),
                      *_parse_policy(args.robber, ROBBER_POLICIES),
                      max_rounds=args.max_rounds, fast_robber=args.fast_robber)
    t = play_config(config, args.seed, {"graph": (g, codec)})
    _emit(t.to_json(indent=2) + "\n", args.output)
    return 0


def _cmd_verify(args) -> int:
    params = _parse_kv_list(args.set, SUITES.get(args.suite, (None, {}))[1])
    reports = verify_suite(args.suite, params, timings=args.timings)
    if args.json:
        _emit(stable_json(reports_to_jsonable(reports), indent=2) + "\n", args.csv)
    else:
        _emit(reports_to_csv(reports), args.csv)
    return 0 if all_passed(reports) else 3


def _cmd_mc(args) -> int:
    import json

    with open(args.config, encoding="utf-8") as fh:
        raw = json.load(fh)
    config = MCConfig(**raw)
    summary = mc_run(config)
    if args.csv:
        _emit(summary.to_csv(), args.csv)
    _emit(summary.to_json(indent=2) + "\n", args.output)
    return 2 if any(row.get("error") for row in summary.rows) else 0


def _cmd_regime(args) -> int:
    k = args.k if args.k is not None else 1 << args.k_pow2
    out = {**dataclasses.asdict(qn_regime(args.n, k, args.eps)), "b": REGIME_B, "eps": args.eps}
    _emit(stable_json(out, indent=2) + "\n", None)
    return 0


def _cmd_thresholds(args) -> int:
    _emit(stable_json(thresholds(args.n, args.d, args.k, args.C), indent=2) + "\n", None)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "kcenter": _cmd_kcenter,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "mc": _cmd_mc,
    "regime": _cmd_regime,
    "thresholds": _cmd_thresholds,
}

_VALIDATION_ERRORS = (ValueError, KeyError, TypeError, ParseError, UnknownSuite, UnknownPolicy, FileNotFoundError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.cmd](args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AmbiguousRegime, DomainError, CopsRobbersError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
