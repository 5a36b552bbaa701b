"""The contract between the engine and the benchmark's tracer.

`perfbench.tracing` rebinds the module attributes it traces by name, and
its count hooks read the parameters of the traced calls, so a refactor
that renames a traced function, calls it other than through a module
global, or changes a parameter a hook reads shows up here.
"""

from __future__ import annotations

import sys

import numpy as np

from enlab import brownian_demo, harness, poisson_mc, ruin
from perfbench import tracing

# the spans of traced functions that the calls below do not reach (the
# tail level is cached per rate, so only a first call reaches it)
UNREACHED = {"poisson_mc.example1_run", "poisson_mc.example2_run"}
CACHED = {"ruin.tail_level"}
HOOK_COUNTS = {
    "finite_prob.outcomes", "finite_prob.nodes", "finite_prob.cells",
    "enlargement.after_atoms.count", "nupbr.nodes_solved",
    "ruin.psi_many.points", "poisson_mc.paths", "poisson_mc.chunks",
    "brownian_demo.walk_steps", "brownian_demo.censored",
}


def _bindings():
    """Every attribute of the loaded enlab modules, and of RuinOracle."""
    out = {(name, key): value
           for name, module in list(sys.modules.items())
           if name == "enlab" or name.startswith("enlab.")
           for key, value in vars(module).items()}
    out.update({("RuinOracle", key): value
                for key, value in vars(ruin.RuinOracle).items()})
    return out


def test_tracer_records_every_layer_and_restores_the_modules():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness.run_identity_suite([1], depth=2, branching=3,
                                          threads=1).ok
        harness.run_crosscheck([1], depth=2, branching=3, threads=1)
        poisson_mc.ruin_mc(2.0, np.array([0.0, 1.0]), 64, 1)
        ruin.RuinOracle.shared(2.0).psi_many(np.array([0.0, 1.0]))
        brownian_demo.brownian_demo(0.25, 1e-3, 2, 1, time_cap=1.0,
                                    nested_outer=2, nested_inner=8)
        patched = _bindings()
    finally:
        tracer.uninstall()

    names = {s.name for s in tracer.spans}
    expected = {tracing.span_name(m, a) for m, a, _ in tracing.TARGETS}
    assert expected - names - CACHED == UNREACHED
    assert HOOK_COUNTS <= set(tracer.counts)
    assert tracer.counts["poisson_mc.paths"] == 64
    assert all(tracer.counts[k] > 0 for k in (
        "finite_prob.outcomes", "enlargement.after_atoms.count",
        "nupbr.nodes_solved", "ruin.psi_many.points",
        "brownian_demo.walk_steps"))
    # installing rebinds attributes, and uninstalling puts every one back
    assert any(patched[k] is not before[k] for k in before)
    assert _bindings().keys() == before.keys()
    assert all(_bindings()[k] is before[k] for k in before)
