"""Layout guards.

Only `finite_prob` builds or reads process rows.  Every other module
constructs processes through the `finite_prob` constructors (`adapted`,
`constant_process`, `AdaptedProcess.from_increments`, the compensator,
brackets, exponential and the process arithmetic) and reads them through
`at`, `delta` and `equals`, so the storage of a process can change
inside `finite_prob` alone.

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
ROW_TYPES = {"AdaptedProcess"}


def _called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def test_only_finite_prob_constructs_process_rows():
    modules = sorted(SRC.glob("*.py"))
    assert any(p.name == "finite_prob.py" for p in modules)
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in modules if path.name != "finite_prob.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _called_name(node) in ROW_TYPES]
    assert offenders == []


def test_only_finite_prob_reads_process_rows():
    # `x.values` not called as a method: the derived outcome rows of a
    # process (dict.values() stays allowed)
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "finite_prob.py":
            continue
        tree = ast.parse(path.read_text())
        called = {id(node.func) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)}
        offenders += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "values"
            and id(node) not in called]
    assert offenders == []


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
