"""Golden tests for the command-line surface: byte-stable output and exit codes.

Each case runs ``copsrobbers.cli.main`` in-process and compares what it wrote
with ``tests/golden/<case>.txt``: stdout, then the CSV file the case wrote
and then stderr, each after a marker line when it is not empty. A case runs
in its own directory, which holds GRAPH_FILE, with GRAPH_TEXT on stdin. Record a golden file again only for an intended output
change::

    PYTHONPATH=src python tests/test_cli.py CASE [CASE ...]
"""

import io
import json
import os
import sys
from pathlib import Path

import pytest

from copsrobbers.cli import main

GOLDEN = Path(__file__).parent / "golden"
STDERR_MARK = "--- stderr ---\n"
CSV_MARK = "--- csv ---\n"
# the edge-list graph of `--file` and `--stdin`: a 4-cycle with a pendant vertex
GRAPH_TEXT = "# C4 plus a leaf\n5 5\n0 1\n1 2\n2 3\n0 3\n3 4\n"
GRAPH_FILE = "graph.txt"
CSV_FILE = "trials.csv"

# case -> (argv, exit code); "{config}" stands for the MC_CONFIGS file
CASES = {
    "solve_grid3_k1_cop_number": (["solve", "--gen", "grid:d=2,q=3", "-k", "1", "--cop-number"], 0),
    "solve_q3_k2": (["solve", "--gen", "hypercube:3", "-k", "2"], 0),
    # 24.4 M joint-move pairs but 1.9 M states: admitted; capt_3 = rad_3 = 8
    "solve_path48_k3": (["solve", "--gen", "path:48", "-k", "3"], 0),
    # k >= n: capture at placement, no search
    "solve_path3_k3": (["solve", "--gen", "path:3", "-k", "3"], 0),
    "solve_file_k2": (["solve", "--file", GRAPH_FILE, "-k", "2"], 0),
    "solve_stdin_k2": (["solve", "--stdin", "-k", "2"], 0),
    "gen_path4": (["gen", "path:4"], 0),
    "kcenter_tree12_k2": (["kcenter", "--gen", "tree:12,3", "-k", "2"], 0),
    "verify_trees": (["verify", "trees"], 0),
    # G(500, 0.5) games: the dense path of gen_gnp, the sphere trap and the referee
    "verify_random_graphs": (["verify", "random_graphs"], 0),
    "verify_grid_closed_form": (["verify", "grid_closed_form"], 0),
    "verify_hypercube_small": (["verify", "hypercube_small"], 0),
    "verify_regime": (["verify", "regime"], 0),
    "verify_strategy_audits": (["verify", "strategy_audits"], 0),
    "verify_sphere_trap": (["verify", "sphere_trap"], 0),
    "verify_separator_sweep": (["verify", "separator_sweep"], 0),
    "verify_planar_3cop": (["verify", "planar_3cop"], 0),
    "verify_grid_scaling": (["verify", "grid_scaling"], 0),
    # a parameter whose default is a tuple takes one value or a comma list
    "verify_grid_scaling_one_size": (
        ["verify", "grid_scaling", "--set", "sizes=4", "--set", "ks=2,4"], 0),
    # robber-win instances report "inf" capture times
    "verify_lower_bounds_json": (["verify", "lower_bounds", "--set", "count_per_p=2", "--json"], 0),
    # the rows of 12 study graphs, capt_gamma and above from the theorem
    "verify_lower_bounds": (["verify", "lower_bounds", "--set", "count_per_p=6"], 0),
    # capt_k for gamma <= k < n comes from the theorem, not from the solver;
    # capt_gamma_is_1 solves k = gamma to check it
    "verify_monotonicity": (["verify", "monotonicity", "--set", "count_per_p=6"], 0),
    "regime_n20_k100": (["regime", "-n", "20", "--k", "100"], 0),
    # Fraction values, an integral one and a fractional one, and the net
    # radius of the 10-cube (2^10 vertices of degree 10)
    "thresholds_n10_d1_k50": (["thresholds", "-n", "10", "-d", "1", "-k", "50"], 0),
    "regime_n60_k_pow2_30": (["regime", "-n", "60", "--k-pow2", "30"], 0),
    "simulate_tree": (
        ["simulate", "--gen", "tree:12,3", "-k", "2", "--cop", "tree", "--robber", "solver"], 0),
    "simulate_sphere_trap_hypercube_saturated": (
        ["simulate", "--gen", "hypercube:3", "-k", "4", "--cop", "sphere_trap:d=1",
         "--robber", "greedy", "--seed", "2"], 0),
    "simulate_sphere_trap_hypercube_hall_failure": (
        ["simulate", "--gen", "hypercube:3", "-k", "4", "--cop", "sphere_trap:d=1",
         "--robber", "greedy", "--seed", "0", "--max-rounds", "20"], 0),
    "simulate_sphere_trap_general_saturated": (
        ["simulate", "--gen", "gnp:40,0.12,0", "-k", "24", "--cop", "sphere_trap:d=2,mode=general",
         "--robber", "stay_far", "--seed", "0"], 0),
    # the matching saturates and the second tightening step fails
    "simulate_sphere_trap_tighten_failure": (
        ["simulate", "--gen", "hypercube:3", "-k", "2", "--cop", "sphere_trap:d=3,mode=general",
         "--robber", "greedy", "--seed", "0", "--max-rounds", "30"], 0),
    "simulate_sphere_trap_general_hall_failure": (
        ["simulate", "--gen", "gnp:40,0.12,0", "-k", "10", "--cop", "sphere_trap:d=2,mode=general",
         "--robber", "stay_far", "--seed", "0"], 0),
    "simulate_separator_sweep": (
        ["simulate", "--gen", "grid:d=2,q=6", "-k", "20", "--cop", "separator_sweep",
         "--robber", "greedy"], 0),
    "simulate_separator_sweep_fast_robber": (
        ["simulate", "--gen", "grid:d=2,q=6", "-k", "20", "--cop", "separator_sweep",
         "--robber", "greedy_fast", "--fast-robber"], 0),
    # plans the II-join case (connecting path that ignores a direct edge)
    "simulate_three_cop_planar_join": (
        ["simulate", "--gen", "gnp:10,0.3,5", "-k", "3", "--cop", "three_cop_planar",
         "--robber", "greedy"], 0),
    "simulate_three_cop_planar_cut_vertex": (
        ["simulate", "--gen", "tree:17,5", "-k", "3", "--cop", "three_cop_planar",
         "--robber", "random_walk", "--seed", "1"], 0),
    # grafts a wall and recomputes it because the graft is not isometric
    "simulate_three_cop_planar_extension": (
        ["simulate", "--gen", "gnp:20,0.7,12", "-k", "3", "--cop", "three_cop_planar",
         "--robber", "random_walk", "--seed", "1"], 0),
    "simulate_grid_cover": (
        ["simulate", "--gen", "grid:d=2,q=6", "-k", "4", "--cop", "grid_cover", "--robber", "greedy"], 0),
    "simulate_subcube_partition": (
        ["simulate", "--gen", "hypercube:4", "-k", "4", "--cop", "subcube_partition:ell=3",
         "--robber", "greedy"], 0),
    # a policy parameter whose default is a tuple takes one value or a comma
    # list, as a suite's does
    "simulate_static_one_position": (
        ["simulate", "--gen", "path:5", "-k", "1", "--cop", "static:positions=2",
         "--robber", "greedy", "--max-rounds", "2"], 0),
    "simulate_static_two_positions": (
        ["simulate", "--gen", "path:5", "-k", "2", "--cop", "static:positions=1,3",
         "--robber", "greedy", "--max-rounds", "2"], 0),
    "mc_tree": (["mc", "{config}"], 0),
    # batches on fixed graphs, whose graph and seed-free policies are built once
    "mc_grid_cover_vs_pigeonhole_grid": (["mc", "{config}"], 0),
    "mc_subcube_partition_vs_stay_far": (["mc", "{config}"], 0),
    "mc_separator_sweep_vs_greedy_fast": (["mc", "{config}"], 0),
    "mc_sphere_trap_vs_random_walk": (["mc", "{config}"], 0),
    # the per-trial rows as CSV, beside the summary on stdout
    "mc_sphere_trap_vs_random_walk_csv": (["mc", "{config}", "--csv", CSV_FILE], 0),
    "exit1_unknown_suite": (["verify", "nosuch"], 1),
    "exit1_unknown_suite_param": (["verify", "regime", "--set", "epss=0.3"], 1),
    # a suite parameter outside its domain (n_max = 2 divided by zero)
    "exit1_trees_n_max_below_3": (["verify", "trees", "--set", "n_max=2"], 1),
    # a list element of the wrong type, named before the suite runs
    "exit1_grid_scaling_size_not_int": (["verify", "grid_scaling", "--set", "sizes=4,x"], 1),
    # a policy parameter its table entry does not declare, and a graph
    # without the codec the policy needs
    "exit1_unknown_cop_param": (
        ["simulate", "--gen", "hypercube:3", "-k", "4", "--cop", "sphere_trap:depth=3",
         "--robber", "greedy"], 1),
    # sphere-trap parameters are checked when the policy is built, though
    # these games would end at placement
    "exit1_sphere_trap_unknown_mode": (
        ["simulate", "--gen", "hypercube:1", "-k", "16", "--cop", "sphere_trap:mode=foo",
         "--robber", "stay_far"], 1),
    "exit1_sphere_trap_d_not_int": (
        ["simulate", "--gen", "hypercube:1", "-k", "16", "--cop", "sphere_trap:d=1.9",
         "--robber", "stay_far"], 1),
    "exit1_unknown_robber_param": (
        ["simulate", "--gen", "tree:12,3", "-k", "2", "--cop", "tree", "--robber", "greedy:bar=2"], 1),
    "exit1_grid_cover_on_tree": (
        ["simulate", "--gen", "tree:12,3", "-k", "2", "--cop", "grid_cover", "--robber", "greedy"], 1),
    # a robber that relocates, outside the fast-robber variant
    "exit1_greedy_fast_without_fast_robber": (
        ["simulate", "--gen", "grid:d=2,q=6", "-k", "20", "--cop", "separator_sweep",
         "--robber", "greedy_fast"], 1),
    "exit1_bad_spec": (["solve", "--gen", "nosuch:3", "-k", "1"], 1),
    # a --set without "=", and two graph sources at once
    "exit1_set_without_value": (["verify", "regime", "--set", "eps"], 1),
    "exit1_two_graph_sources": (["solve", "--gen", "path:3", "--stdin", "-k", "1"], 1),
    # G(n, 0) on n >= 2 vertices is never connected, so no study graph is found
    "exit1_lower_bounds_no_connected_graph": (
        ["verify", "lower_bounds", "--set", "ps=0", "--set", "count_per_p=1"], 1),
    "exit1_usage": (["solve", "--gen", "path:3"], 1),
    # a fractional threshold beyond a float's range has no six-decimal form
    "exit1_thresholds_fraction_beyond_a_float": (["thresholds", "-n", "1100", "-d", "1"], 1),
    "exit2_domain_error": (["regime", "-n", "1", "--k", "2"], 2),
    "exit2_state_cap": (["solve", "--gen", "path:2000", "-k", "2"], 2),
    "exit2_mc_errored_trials": (["mc", "{config}"], 2),
    "exit3_suite_failure": (["verify", "regime", "--set", "eps=0.3"], 3),
}

MC_CONFIGS = {
    "mc_tree": {"graph": "tree:10,{seed}", "k": 2, "cop": "tree", "robber": "greedy", "trials": 3},
    "mc_grid_cover_vs_pigeonhole_grid": {
        "graph": "grid:d=2,q=6", "k": 4, "cop": "grid_cover", "robber": "pigeonhole_grid",
        "trials": 3},
    "mc_subcube_partition_vs_stay_far": {
        "graph": "hypercube:4", "k": 4, "cop": "subcube_partition", "robber": "stay_far",
        "trials": 3},
    "mc_separator_sweep_vs_greedy_fast": {
        "graph": "grid:d=2,q=6", "k": 20, "cop": "separator_sweep", "robber": "greedy_fast",
        "fast_robber": True, "trials": 3},
    "mc_sphere_trap_vs_random_walk": {
        "graph": "hypercube:6", "k": 8, "cop": "sphere_trap", "cop_params": {"d": 1},
        "robber": "random_walk", "trials": 3},
    "mc_sphere_trap_vs_random_walk_csv": {
        "graph": "hypercube:6", "k": 8, "cop": "sphere_trap", "cop_params": {"d": 1},
        "robber": "random_walk", "trials": 3},
    "exit2_mc_errored_trials": {"graph": "path:5", "k": 1, "cop": "nosuch", "trials": 2},
}


def run_case(name, tmp_dir):
    """Run one case in-process in `tmp_dir` and return its exit code."""
    argv, _ = CASES[name]
    (Path(tmp_dir) / GRAPH_FILE).write_text(GRAPH_TEXT, encoding="utf-8")
    if name in MC_CONFIGS:
        config = Path(tmp_dir) / "config.json"
        config.write_text(json.dumps(MC_CONFIGS[name]))
        argv = [str(config) if a == "{config}" else a for a in argv]
    cwd, stdin = os.getcwd(), sys.stdin
    os.chdir(tmp_dir)
    sys.stdin = io.StringIO(GRAPH_TEXT)
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        os.chdir(cwd)
        sys.stdin = stdin


def transcript(out, err, tmp_dir):
    csv = Path(tmp_dir) / CSV_FILE
    csv_text = csv.read_text(encoding="utf-8") if csv.exists() else ""
    return out + (CSV_MARK + csv_text if csv_text else "") + (STDERR_MARK + err if err else "")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name, tmp_path, capsys):
    code = run_case(name, tmp_path)
    assert code == CASES[name][1]
    text = transcript(*capsys.readouterr(), tmp_path)
    assert text == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import tempfile

    for case in sys.argv[1:]:
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                run_case(case, tmp)
            text = transcript(out.getvalue(), err.getvalue(), tmp)
        (GOLDEN / f"{case}.txt").write_text(text, encoding="utf-8")
        print(f"recorded {case}")
