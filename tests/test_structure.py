"""Structure guards: graph walks stay behind the one kernel in graphs.py, no
policy runs a BFS per cop, the exact k-center and domination searches are
one non-recursive ball search, every Graph goes through its checked
constructor, game values are read only inside solver.py, the solver's level
loop does no per-config work, the solver admits instances by its module caps
alone, the package imports no array library, and every module-level import
is used."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import copsrobbers

SRC = Path(copsrobbers.__file__).parent


def _calls(nodes, name):
    return [c for node in nodes for c in ast.walk(node) if isinstance(c, ast.Call)
            and name in (getattr(c.func, "id", None), getattr(c.func, "attr", None))]


def bfs_in_loops(path, over):
    """Where a module calls bfs_distances in the body of a ``for`` loop or
    comprehension one of whose iterables satisfies `over`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.For):
            iters, body = [node.iter], node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            iters = [gen.iter for gen in node.generators]
            body = [getattr(node, f) for f in ("elt", "key", "value") if hasattr(node, f)]
            body += [cond for gen in node.generators for cond in gen.ifs]
        else:
            continue
        if any(over(it) for it in iters):
            found += [f"{path.name}:{c.lineno}" for c in _calls(body, "bfs_distances")]
    return found


def over_range(it):
    """``range(...)``: one BFS per vertex."""
    return bool(_calls([it], "range"))


def over_cops(it):
    """``cops``, ``enumerate(cops)`` or ``zip(cops, ...)``: one BFS per cop."""
    def is_cops(node):
        return isinstance(node, ast.Name) and node.id == "cops"

    return is_cops(it) or (isinstance(it, ast.Call) and getattr(it.func, "id", None)
                           in ("enumerate", "zip") and any(map(is_cops, it.args)))


def queue_walks(path):
    """(module, function) for each loop that takes vertices from a queue its
    own body fills: a ``while`` loop that calls ``popleft()``, or a ``for``
    loop over a list, or over ``iter()`` of a list, that its body appends to."""
    found = []

    def appended(body):
        return {c.func.value.id for c in _calls(body, "append")
                if isinstance(c.func, ast.Attribute) and isinstance(c.func.value, ast.Name)}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            call = getattr(child, "value", None)
            if isinstance(child, ast.Assign) and isinstance(call, ast.Call) \
                    and getattr(call.func, "id", None) == "iter" \
                    and call.args and isinstance(call.args[0], ast.Name):
                aliases.update((t.id, call.args[0].id) for t in child.targets
                               if isinstance(t, ast.Name))
            if isinstance(child, ast.While) and _calls(child.body, "popleft"):
                found.append((path.name, ".".join(scope)))
            elif isinstance(child, ast.For) and isinstance(child.iter, ast.Name):
                source = aliases.get(child.iter.id, child.iter.id)
                if source in appended(child.body):
                    found.append((path.name, ".".join(scope)))
            visit(child, scope)

    aliases = {}
    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


def test_bfs_loops_only_in_the_kernel_and_matching():
    """The one queue loop of a graph walk is the kernel, bfs_distances in
    graphs.py (matching.py's Hopcroft-Karp layers aside), and no module, not
    even graphs.py, runs a BFS from every vertex, which is what
    eccentricities() is for."""
    walks = sorted(w for p in sorted(SRC.glob("*.py")) for w in queue_walks(p))
    assert walks == [("graphs.py", "bfs_distances"),
                     ("matching.py", "hall_witness"),
                     ("matching.py", "hopcroft_karp.bfs")]
    loops = [hit for p in sorted(SRC.glob("*.py")) for hit in bfs_in_loops(p, over_range)]
    assert loops == []


def test_no_bfs_per_cop():
    """A cop policy decides a round from shared distances: no module runs a
    BFS for each cop inside a loop or comprehension over the cops."""
    assert [hit for p in sorted(SRC.glob("*.py")) for hit in bfs_in_loops(p, over_cops)] == []


def test_one_ball_search_without_subsets_or_recursion():
    """Exact k_center and domination_number share one search over distance
    balls: graphs.py scans no k-subsets and keeps no all-pairs table, and no
    function in it calls itself, since a cover may be hundreds of centers
    deep (k_center(path:1000, 998) is under SUBSET_CAP)."""
    text = (SRC / "graphs.py").read_text(encoding="utf-8")
    assert "combinations" not in text and "all_pairs_distances" not in text
    recursive = [f"{fn.name}:{call.lineno}" for fn in ast.walk(ast.parse(text))
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for call in _calls([fn], fn.name)]
    assert recursive == []


def test_no_recursion_limit_changes():
    for path in SRC.glob("*.py"):
        assert "setrecursionlimit" not in path.read_text(encoding="utf-8"), path.name


def test_solver_imports_no_array_library():
    """The package stays pure Python. Importing numpy was measured at +10.5 MB
    peak RSS and about 0.1-0.2 s, and scipy.sparse at +28 MB: costs a small
    solve would pay on every fresh process."""
    code = (
        "import sys\n"
        "import copsrobbers\n"
        "g, _ = copsrobbers.gen_grid_dims([3, 3])\n"
        "assert copsrobbers.solve(g, 2).capture_time() == 2\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_module_level_imports_are_used():
    """Each name a module imports at top level is read somewhere in it;
    ``__init__.py`` re-exports and is exempt."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


GRAPH_FIELDS = {"adj", "_masks", "_closed"}


def graph_bypasses(path):
    """Where a module calls ``__new__``, or (outside graphs.py) assigns or
    setattr()s a Graph field."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Attribute) and node.attr == "__new__":
            found.append(f"{where} __new__")
        elif path.name == "graphs.py":
            continue
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and node.attr in GRAPH_FIELDS):
            found.append(f"{where} sets .{node.attr}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            fields = {a.value for a in node.args if isinstance(a, ast.Constant)}
            if name in ("setattr", "__setattr__") and fields & GRAPH_FIELDS:
                found.append(f"{where} {name}")
    return found


def test_graphs_built_only_by_the_checked_constructor():
    """Every Graph runs the checks of Graph.__init__: no module makes one
    through ``__new__`` or fills in its fields from outside graphs.py."""
    assert [b for path in sorted(SRC.glob("*.py")) for b in graph_bypasses(path)] == []


def test_value_format_stays_in_the_solver():
    """Only solver.py reads a value table's per-chunk level store, and no
    dense per-state value list comes back under its old names."""
    readers = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "val_cop" not in text and "val_rob" not in text, path.name
        if path.name != "solver.py":
            readers += [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(text))
                        if isinstance(node, ast.Attribute) and node.attr == "chunk_levels"]
    assert readers == []


def test_trap_matching_runs_one_bfs():
    """trap_matching finds the sphere with one BFS from its centre and reads
    every target's eligible cops and routes off distance balls: no BFS per
    target, and no walk_toward route in sphere_trap.py."""
    tree = ast.parse((SRC / "sphere_trap.py").read_text(encoding="utf-8"))
    trap = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "trap_matching")
    assert len(_calls([trap], "bfs_distances")) == 1
    assert _calls([tree], "walk_toward") == []


def test_solver_keeps_no_move_table():
    """The sweep works on images of ordered cop tuples: no joint-move table
    is built or stored, the table keeps its values in one store
    (chunk_levels) and no other, and the solver's public functions are only
    these six. perfbench/tracing.py wraps every public function, so a public
    per-level helper would add a span per call."""
    from dataclasses import fields

    from copsrobbers import solver

    tree = ast.parse((SRC / "solver.py").read_text(encoding="utf-8"))
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "_move_table" not in names
    assert {f.name for f in fields(solver.ValueTable)} == {
        "graph", "k", "configs", "first", "chunk_levels", "placement", "sweep"}
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert public == {"estimate_cost", "solve", "capture_time", "cop_number",
                      "audit_fixed_point", "extract_policies"}


def over_configs(it):
    """An iterable that mentions ``configs``, or a ``range`` over config
    indices (one of whose arguments reads ``first`` or ``configs``)."""
    names = {node.id for node in ast.walk(it) if isinstance(node, ast.Name)}
    ranges = {node.id for call in _calls([it], "range") for arg in call.args
              for node in ast.walk(arg) if isinstance(node, ast.Name)}
    return "configs" in names or bool(ranges & {"first", "configs"})


def test_sweep_levels_do_no_per_config_work():
    """Per-config work happens once per solve: inside _sweep's level loop,
    and in the local functions it calls, no loop or comprehension iterates
    over configs or over a range of config indices."""
    tree = ast.parse((SRC / "solver.py").read_text(encoding="utf-8"))
    sweep = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_sweep")
    local = {node.name: node for node in ast.walk(sweep)
             if isinstance(node, ast.FunctionDef) and node is not sweep}
    loop = next(node for node in ast.walk(sweep) if isinstance(node, ast.While)
                and any(isinstance(n, ast.Yield) for n in ast.walk(node)))
    reached, todo = {}, [("level loop", loop)]
    while todo:
        name, node = todo.pop()
        reached[name] = node
        todo += [(c.func.id, local[c.func.id]) for c in ast.walk(node)
                 if isinstance(c, ast.Call) and getattr(c.func, "id", None) in local
                 and c.func.id not in reached]
    assert {"dilate", "erode"} <= reached.keys()
    found = []
    for name, node in sorted(reached.items()):
        for sub in ast.walk(node):
            if isinstance(sub, ast.For):
                iters = [sub.iter]
            elif isinstance(sub, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                iters = [gen.iter for gen in sub.generators]
            else:
                continue
            found += [f"{name}:{sub.lineno}" for it in iters if over_configs(it)]
    assert found == []


def test_solver_caps_are_not_per_call_options():
    """solve admits an instance by solver.STATE_CAP and solver.IMAGE_CAP
    alone: no entry point takes a cap or a bound on k, and no module passes
    one."""
    from copsrobbers import solver

    for fn in (solver.solve, solver.capture_time, solver.cop_number):
        params = inspect.signature(fn).parameters.values()
        assert [p.name for p in params if p.kind is p.VAR_KEYWORD] == [], fn.__name__
        assert [p.name for p in params if "cap" in p.name or p.name == "max_k"] == [], fn.__name__
    passed = [f"{path.name}:{node.lineno} {kw.arg}=" for path in sorted(SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Call)
              for kw in node.keywords if kw.arg in ("state_cap", "move_cap")]
    assert passed == []
