"""Layout guards.

Only `finite_prob` touches the storage of a process: no other module of
`src/enlab` reads or writes its numerator or denominator slots (`_num`,
`_den`, `_dnum`, `_dden`) or makes one with `AdaptedProcess.__new__`.
Every other module constructs processes through the `finite_prob`
constructors (`adapted` for outcome rows, `AdaptedProcess.from_rows`/
`from_step_rows`/`from_nodes`/`from_steps`/`from_increments`,
`integral`, the compensator, brackets, exponential and the process
arithmetic) and reads them through `node_rows` and `step_rows`, or, as
Fractions, through `nodes`, `steps`, `at` and `delta`, so the storage of
a process can change inside `finite_prob` alone.

`after_integral` gathers rows: every caller in `src/enlab` and `tests/`
passes it one sequence of increment rows (numerators, denominator),
never an outcome function.

Only `random_times` forms a survival gap: no other module of
`src/enlab` computes `1 - ....survival.at(...)` or
`1 - ....survival_incl.at(...)`; each reads `gap` or `gap_incl` of the
analysis, which derives them once per model.

Every benchmark set-up probe imports the engine in a fresh interpreter,
so that import is silent and raises nothing, warnings included.

Only `poisson_mc` runs worker threads: no other module of `src/enlab`
imports `threading` or `concurrent.futures`.  The exact integer
engine gains nothing from threads, so its runners map seeds in one
loop.

Every random stream of `src/enlab` comes from a `SeedSequence`: no
module sets the `state` of a bit generator (of any object but `self`)
or builds a `Philox` from a raw key, so no code depends on numpy's
internal state layout.

Every public top-level function and class of `src/enlab` is used by the
package or by the benchmark in `perfbench/`, so code that only tests
call lives in `tests/`.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "enlab"
STORAGE = {"_num", "_den", "_dnum", "_dden"}
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
    planted = ("x._num\nx._den = 1\ndel x._dnum\ny = x._dden[t]\n"
               "AdaptedProcess.__new__(AdaptedProcess)\n"
               "object.__new__(AdaptedProcess)\n"
               "a, b = p._num, q._dnum\n")
    assert sorted(storage_offenders(planted)) == [1, 2, 3, 4, 5, 6, 7, 7]
    assert storage_offenders("x.steps\nx.nodes\nx.node_rows\nx.step_rows\n"
                             "x.num\nx._nodes\ncls.__new__(cls)\n") == []


def test_only_finite_prob_touches_process_storage():
    modules = sorted(SRC.glob("*.py"))
    assert any(p.name == "finite_prob.py" for p in modules)
    offenders = [f"{path.name}:{line}"
                 for path in modules if path.name != "finite_prob.py"
                 for line in storage_offenders(path.read_text())]
    assert offenders == []


def after_integral_offenders(source: str) -> list[int]:
    """Lines of `source` that call `after_integral` with anything but
    one positional argument of rows: a lambda, a function defined in the
    source, a bound `at` or `delta` of a process, a keyword, or more or
    fewer arguments."""
    tree = ast.parse(source)
    functions = {node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "attr",
                            getattr(node.func, "id", None)) == "after_integral"):
            continue
        [arg, *rest] = node.args or [None]
        if (rest or node.keywords or arg is None
                or isinstance(arg, (ast.Lambda, ast.Starred))
                or (isinstance(arg, ast.Name) and arg.id in functions)
                or (isinstance(arg, ast.Attribute)
                    and arg.attr in {"at", "delta"})):
            lines.append(node.lineno)
    return lines


def test_after_integral_guard_sees_each_outcome_function():
    planted = ("a.after_integral(lambda o, t: x.delta(o, t))\n"
               "a.after_integral(mart.delta)\n"
               "def step(o, t):\n    return 1\n"
               "a.after_integral(step)\n"
               "self.after_integral(rows, lambda o, t: 1)\n"
               "after_integral()\n"
               "a.after_integral(step=rows)\n"
               "a.after_integral(*steps)\n")
    assert sorted(after_integral_offenders(planted)) == [1, 2, 5, 6, 7, 8, 9]
    assert after_integral_offenders(
        "a.after_integral(rows)\n"
        "self.after_integral(zip(dnum[1:], dden[1:]))\n"
        "a.after_integral([row(t) for t in times])\n") == []


def test_after_integral_callers_pass_rows():
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    calls = {path.name: after_integral_offenders(path.read_text())
             for path in paths}
    assert {name: lines for name, lines in calls.items() if lines} == {}


def test_engine_imports_silently_in_a_fresh_interpreter():
    # what every benchmark set-up probe imports first
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import enlab.harness, enlab.poisson_mc, enlab.ruin, "
         "enlab.brownian_demo"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


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


def _stored(target):
    """The expressions an assignment to `target` writes into, with the
    objects whose items it writes."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _stored(elt)
    elif isinstance(target, ast.Starred):
        yield from _stored(target.value)
    else:
        yield target
        if isinstance(target, ast.Subscript):
            yield from _stored(target.value)


def _foreign_state(node) -> bool:
    """`node` is the `state` attribute of an object other than `self`."""
    return (isinstance(node, ast.Attribute) and node.attr == "state"
            and not (isinstance(node.value, ast.Name)
                     and node.value.id == "self"))


def stream_offenders(source: str) -> list[int]:
    """Lines of `source` that set the `state` of an object other than
    `self`, by assignment (also into its items) or by `setattr`, or that
    build a `Philox` from a raw key (`key=` or a third positional
    argument)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(_foreign_state(stored) for target in targets
                   for stored in _stored(target)):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "setattr" and len(node.args) > 1:
                obj, attr = node.args[:2]
                if (isinstance(attr, ast.Constant) and attr.value == "state"
                        and not (isinstance(obj, ast.Name)
                                 and obj.id == "self")):
                    lines.append(node.lineno)
            elif name == "Philox" and (
                    len(node.args) > 2
                    or any(k.arg == "key" for k in node.keywords)):
                lines.append(node.lineno)
    return lines


def test_stream_guard_sees_each_state_write_and_raw_key():
    planted = ("bitgen.state = {'bit_generator': 'Philox'}\n"
               "gen.bit_generator.state = saved\n"
               "n, gen.state = 1, saved\n"
               "gen.state['state']['counter'] = zeros\n"
               "setattr(gen, 'state', saved)\n"
               "np.random.Philox(key=k)\n"
               "Philox(None, None, k)\n"
               "random.Philox(seed, key=k)\n"
               "gen.state: dict = saved\n")
    assert sorted(stream_offenders(planted)) == list(range(1, 10))
    assert stream_offenders(
        "self.state = seed\nself.state += 1\nsetattr(self, 'state', 0)\n"
        "saved = gen.state\nx = {'state': gen.state}\n"
        "np.random.Philox(np.random.SeedSequence(1, spawn_key=(2,)))\n"
        "Philox(ss)\nkey = 3\n") == []


def test_every_stream_comes_from_a_seed_sequence():
    offenders = [f"{path.name}:{line}"
                 for path in sorted(SRC.glob("*.py"))
                 for line in stream_offenders(path.read_text())]
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
