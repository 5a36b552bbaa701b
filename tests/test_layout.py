"""Layout guard: only `finite_prob` builds or reads process rows.

Every other module constructs processes through the `finite_prob`
constructors (`adapted`, `constant_process`,
`AdaptedProcess.from_increments`, the compensator, brackets,
exponential and the process arithmetic) and reads them through
`at`, `delta` and `equals`, so the storage of a process can change
inside `finite_prob` alone.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "enlab"
ROW_TYPES = {"AdaptedProcess", "PredictableProcess"}


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
