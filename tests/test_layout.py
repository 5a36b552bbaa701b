"""Layout guards.

Only `finite_prob` touches the storage of a process: no other module of
`src/enlab` reads or writes its `_nodes` or `_steps` slots or makes one
with `AdaptedProcess.__new__`.  Every other module constructs processes
through the `finite_prob` constructors (`adapted` for outcome rows,
`AdaptedProcess.from_nodes`/`from_steps`/`from_increments`, the
compensator, brackets, exponential and the process arithmetic) and reads
them through `nodes`, `steps`, `at` and `delta`, so the storage of a
process can change inside `finite_prob` alone.

Only `random_times` forms a survival gap: no other module of
`src/enlab` computes `1 - ....survival.at(...)` or
`1 - ....survival_incl.at(...)`; each reads `gap` or `gap_incl` of the
analysis, which derives them once per model.

Only `poisson_mc` runs worker threads: no other module of `src/enlab`
imports `threading` or `concurrent.futures`.  The exact `Fraction`
engine gains nothing from threads, so its runners map seeds in one
loop.

Every public top-level function and class of `src/enlab` is used by the
package or by the benchmark in `perfbench/`, so code that only tests
call lives in `tests/`.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "enlab"
STORAGE = {"_nodes", "_steps"}
THREAD_MODULES = {"concurrent", "threading"}


def storage_offenders(source: str) -> list[int]:
    """Lines of `source` that read or write a process storage slot, or
    call AdaptedProcess.__new__ (also as object.__new__(AdaptedProcess))."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in STORAGE:
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "__new__"
              and any(isinstance(n, ast.Name) and n.id == "AdaptedProcess"
                      for n in (node.func.value, *node.args))):
            lines.append(node.lineno)
    return lines


def test_storage_guard_sees_each_kind_of_access():
    planted = ("x._steps\nx._nodes = 1\n"
               "AdaptedProcess.__new__(AdaptedProcess)\n"
               "object.__new__(AdaptedProcess)\n")
    assert sorted(storage_offenders(planted)) == [1, 2, 3, 4]
    assert storage_offenders("x.steps\nx.nodes\ncls.__new__(cls)\n") == []


def test_only_finite_prob_touches_process_storage():
    modules = sorted(SRC.glob("*.py"))
    assert any(p.name == "finite_prob.py" for p in modules)
    offenders = [f"{path.name}:{line}"
                 for path in modules if path.name != "finite_prob.py"
                 for line in storage_offenders(path.read_text())]
    assert offenders == []


SURVIVALS = {"survival", "survival_incl"}


def gap_offenders(source: str) -> list[int]:
    """Lines of `source` that subtract a survival value from one:
    `1 - x.survival.at(...)` or `1 - x.survival_incl.at(...)` (also on a
    bare `survival` name, and with `ONE` for 1)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
            continue
        one, read = node.left, node.right
        if not ((isinstance(one, ast.Constant) and one.value == 1)
                or (isinstance(one, ast.Name) and one.id == "ONE")):
            continue
        if (isinstance(read, ast.Call) and isinstance(read.func, ast.Attribute)
                and read.func.attr == "at"):
            owner = read.func.value
            name = (owner.attr if isinstance(owner, ast.Attribute)
                    else getattr(owner, "id", None))
            if name in SURVIVALS:
                lines.append(node.lineno)
    return lines


def test_gap_guard_sees_each_form():
    planted = ("1 - analysis.survival.at(o, t - 1)\n"
               "g = (1 - a.survival_incl.at(o, t)) * d\n"
               "ONE - survival.at(o, t)\n"
               "x / (1 - self.analysis.survival.at(base[0], t - 1))\n")
    assert sorted(gap_offenders(planted)) == [1, 2, 3, 4]
    assert gap_offenders("analysis.gap.at(o, t)\n1 - p\n"
                         "2 - a.survival.at(o, t)\n"
                         "1 - a.fundamental_martingale.at(o, t)\n"
                         "a.survival.at(o, t) < 1\n") == []


def test_only_random_times_forms_survival_gaps():
    offenders = [f"{path.name}:{line}"
                 for path in sorted(SRC.glob("*.py"))
                 if path.name != "random_times.py"
                 for line in gap_offenders(path.read_text())]
    assert offenders == []


def thread_imports(source: str) -> list[int]:
    """Lines of `source` that import `threading` or `concurrent.futures`,
    in any import form."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] in THREAD_MODULES for name in names):
            lines.append(node.lineno)
    return lines


def test_thread_guard_sees_each_kind_of_import():
    planted = ("import threading\n"
               "from concurrent.futures import ThreadPoolExecutor\n"
               "import concurrent.futures as cf\n"
               "from concurrent import futures\n"
               "import os, threading\n"
               "def f():\n    from threading import Lock\n")
    assert sorted(thread_imports(planted)) == [1, 2, 3, 4, 5, 7]
    assert thread_imports("import os\nimport threadingx\n"
                          "from .threading import x\n"
                          "from concurrent_x import y\n") == []


def test_only_poisson_mc_imports_thread_machinery():
    offenders = {path.name: thread_imports(path.read_text())
                 for path in sorted(SRC.glob("*.py"))}
    assert offenders.pop("poisson_mc.py")
    assert {name: lines for name, lines in offenders.items() if lines} == {}


# Public names that only tests call, each kept for the ROADMAP item that
# will give it a caller.
TEST_ONLY_KEPT = {
    "replay_path",           # item 10: the replay command of a failure
    "example2_selftest",     # item 5: the example-2 control row
    "levy_condition_check",  # item 1: folded into the universal check
    "corollary_check",       # item 1
}


def _referenced(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_public_names_have_a_caller_outside_tests():
    # a name counts as used when code of `src/enlab` outside its own
    # definition, or a `perfbench/` module, refers to it
    tops = [node for path in sorted(SRC.glob("*.py"))
            for node in ast.parse(path.read_text()).body]
    refs = {id(node): _referenced(node) for node in tops}
    uses = Counter(name for names in refs.values() for name in names)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        uses.update(_referenced(ast.parse(path.read_text())))
    unused = {node.name for node in tops
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              # no reference but, for a recursive one, its own
              and uses[node.name] == int(node.name in refs[id(node)])}
    assert unused == TEST_ONLY_KEPT
