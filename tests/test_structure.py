"""Structure guards: graph walks stay behind the one kernel in graphs.py."""

from pathlib import Path

import copsrobbers

SRC = Path(copsrobbers.__file__).parent


def test_bfs_loops_only_in_the_kernel_and_matching():
    counts = {p.name: p.read_text(encoding="utf-8").count("popleft") for p in SRC.glob("*.py")}
    assert counts["graphs.py"] == 1
    assert {name for name, c in counts.items() if c} <= {"graphs.py", "matching.py"}


def test_no_recursion_limit_changes():
    for path in SRC.glob("*.py"):
        assert "setrecursionlimit" not in path.read_text(encoding="utf-8"), path.name
