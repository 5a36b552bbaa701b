"""Spans and counts around the calls into each enlab layer.

The tracer records from outside the engine: while installed, it rebinds
every module attribute (and, for ``RuinOracle``, class attribute) that
refers to a traced public function, so calls that callers look up
through a module global go through a recording wrapper.  Calls inside a
function body that use a local helper (``cond_exp``,
``_simulate_chunk``, ``_Walk.first_passage``, simplex pivots) stay
untraced.

Spans are kept in memory; ``layer_metrics`` derives busy seconds, self
seconds and counts from them, and ``write_spans`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str


# ---------------------------------------------------------------------------
# Counts taken from the arguments and results of traced calls
# ---------------------------------------------------------------------------

def _count_model(counts, args, result):
    space = result[0]
    outcomes = len(space.outcomes)
    counts["finite_prob.outcomes"] += outcomes
    counts["finite_prob.nodes"] += sum(len(p) for p in
                                       space.filtration.partitions)
    counts["finite_prob.cells"] += outcomes * (space.horizon + 1)


def _count_after_atoms(counts, args, result):
    counts["enlargement.after_atoms.count"] += len(result)


def _count_verdict(counts, args, verdict):
    f = args["filtration"] or args["space"].filtration
    if verdict.satisfied:
        counts["nupbr.verdicts_deflator"] += 1
        counts["nupbr.nodes_solved"] += len(verdict.witness.node_weights)
    else:
        # nodes are solved in (t, atom) order up to the arbitrage node
        w = verdict.witness
        counts["nupbr.verdicts_arbitrage"] += 1
        counts["nupbr.nodes_solved"] += (
            sum(len(f.partitions[t - 1]) for t in range(1, w.t))
            + f.partitions[w.t - 1].index(w.atom) + 1)


def _count_psi(counts, args, result):
    counts["ruin.psi_many.points"] += int(result.size)


def _count_mc(counts, args, result):
    paths = args["paths"] if "paths" in args else args["n_paths"]
    chunk = sys.modules["enlab.poisson_mc"].CHUNK
    counts["poisson_mc.paths"] += paths
    counts["poisson_mc.chunks"] += math.ceil(paths / chunk)
    if hasattr(result, "n_censored"):
        counts["poisson_mc.censored"] += result.n_censored


def _count_ladder_path(counts, args, path):
    # steps to the first passage to one; a censored path counts its cap
    dt = args["dt"]
    counts["brownian_demo.walk_steps"] += (
        int(args["time_cap"] / dt) if path.censored
        else round(path.first_hit_one / dt))


def _count_demo(counts, args, report):
    counts["brownian_demo.censored"] += report.n_censored


# (module, attribute, count hook); the span name is "module.attribute"
# with the "enlab." prefix and any class name dropped.
TARGETS = (
    ("enlab.harness", "run_identity_suite", None),
    ("enlab.harness", "run_crosscheck", None),
    ("enlab.harness", "check_transfer_basis", None),
    ("enlab.harness", "check_hat_basis", None),
    ("enlab.random_times", "generate_honest_model", _count_model),
    ("enlab.random_times", "analyze", None),
    ("enlab.random_times", "enlarge", None),
    ("enlab.finite_prob", "compensator", None),
    ("enlab.finite_prob", "bracket", None),
    ("enlab.enlargement", "after_atoms", _count_after_atoms),
    ("enlab.enlargement", "hat_transform", None),
    ("enlab.enlargement", "g_compensator_after", None),
    ("enlab.enlargement", "proj_identity_check", None),
    ("enlab.enlargement", "jump_functionals", None),
    ("enlab.enlargement", "g_characteristics", None),
    ("enlab.enlargement", "build_deflator", None),
    ("enlab.enlargement", "deflator_verify", None),
    ("enlab.nupbr", "theorem2_crosscheck", None),
    ("enlab.nupbr", "transform", None),
    ("enlab.nupbr", "nupbr_check", _count_verdict),
    ("enlab.nupbr", "verify_witness", None),
    ("enlab.ruin", "RuinOracle.tail_level", None),
    ("enlab.ruin", "RuinOracle.psi_many", _count_psi),
    ("enlab.poisson_mc", "example1_run", _count_mc),
    ("enlab.poisson_mc", "example2_run", _count_mc),
    ("enlab.poisson_mc", "ruin_mc", _count_mc),
    ("enlab.brownian_demo", "brownian_demo", _count_demo),
    ("enlab.brownian_demo", "simulate_ladder_path", _count_ladder_path),
)


def span_name(module: str, attribute: str) -> str:
    return f"{module.removeprefix('enlab.')}.{attribute.split('.')[-1]}"


class Tracer:
    """Installs recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.request = ""
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "enlab" or n.startswith("enlab.")) and m]
        for module_name, attribute, hook in TARGETS:
            module = importlib.import_module(module_name)
            name = span_name(module_name, attribute)
            if "." in attribute:
                cls_name, attr = attribute.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, attr,
                            self._wrap(name, cls.__dict__[attr], hook))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn, hook):
        sig = inspect.signature(fn) if hook else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span = Span(len(self.spans), name, clock(), 0.0,
                        stack[-1].id if stack else None, self.request)
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counts, bound.arguments, result)
            return result
        return traced


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def span_seconds(spans: list[Span]) -> tuple[dict, dict, Counter]:
    """Busy seconds (outermost span of each name, so recursion is not
    counted twice), self seconds (duration minus child spans) and calls,
    per span name."""
    by_id = {s.id: s for s in spans}
    child = Counter()
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    busy, own, calls = Counter(), Counter(), Counter()
    for s in spans:
        duration = s.end - s.start
        own[s.name] += duration - child[s.id]
        calls[s.name] += 1
        p = s.parent
        while p is not None and by_id[p].name != s.name:
            p = by_id[p].parent
        if p is None:
            busy[s.name] += duration
    return busy, own, calls


# name -> (unit, "busy"/"self"/"count"/"ratio", source, workloads, moves)
# `moves` is the end-to-end metric the layer metric should move.
_FINITE = ("finite",)
_MC = ("poisson-mc",)
_LADDER = ("ladder",)
LAYER_METRICS = {
    "random_times.generate_honest_model.s":
        ("s", "busy", "random_times.generate_honest_model", _FINITE,
         ("items_per_s",)),
    "random_times.analyze.s":
        ("s", "busy", "random_times.analyze", _FINITE, ("items_per_s",)),
    "random_times.enlarge.s":
        ("s", "busy", "random_times.enlarge", _FINITE, ("items_per_s",)),
    "finite_prob.compensator.s":
        ("s", "busy", "finite_prob.compensator", _FINITE,
         ("items_per_s", "request_tail_ms")),
    "finite_prob.bracket.s":
        ("s", "busy", "finite_prob.bracket", _FINITE,
         ("items_per_s", "request_tail_ms")),
    "finite_prob.outcomes":
        ("count", "count", "finite_prob.outcomes", _FINITE,
         ("items_per_s", "request_tail_ms")),
    "finite_prob.nodes":
        ("count", "count", "finite_prob.nodes", _FINITE,
         ("items_per_s", "request_tail_ms")),
    "finite_prob.cells_per_node":
        ("ratio", "ratio", ("finite_prob.cells", "finite_prob.nodes"),
         _FINITE, ("items_per_s", "request_tail_ms")),
    "harness.check_transfer_basis.s":
        ("s", "busy", "harness.check_transfer_basis", _FINITE,
         ("items_per_s",)),
    "harness.check_hat_basis.s":
        ("s", "busy", "harness.check_hat_basis", _FINITE, ("items_per_s",)),
    "enlargement.after_atoms.count":
        ("count", "count", "enlargement.after_atoms.count", _FINITE,
         ("items_per_s",)),
    **{f"enlargement.{f}.s": ("s", "busy", f"enlargement.{f}", _FINITE,
                              ("items_per_s",))
       for f in ("hat_transform", "g_compensator_after",
                 "proj_identity_check", "jump_functionals",
                 "g_characteristics", "build_deflator", "deflator_verify")},
    **{f"nupbr.{f}.s": ("s", "busy", f"nupbr.{f}", _FINITE, ("items_per_s",))
       for f in ("theorem2_crosscheck", "transform", "nupbr_check",
                 "verify_witness")},
    **{f"nupbr.{c}": ("count", "count", f"nupbr.{c}", _FINITE,
                      ("items_per_s",))
       for c in ("verdicts_deflator", "verdicts_arbitrage", "nodes_solved")},
    "harness.run_identity_suite.s":
        ("s", "busy", "harness.run_identity_suite", _FINITE,
         ("items_per_s", "request_p50_ms")),
    "harness.run_crosscheck.s":
        ("s", "busy", "harness.run_crosscheck", _FINITE,
         ("items_per_s", "request_p50_ms")),
    "harness.unattributed.s":
        ("s", "self", ("harness.run_identity_suite", "harness.run_crosscheck"),
         _FINITE, ("items_per_s",)),
    "ruin.tail_level.s":
        ("s", "busy", "ruin.tail_level", _MC, ("setup_s", "items_per_s")),
    "ruin.psi_many.s":
        ("s", "busy", "ruin.psi_many", _MC, ("items_per_s",)),
    "ruin.psi_many.points":
        ("count", "count", "ruin.psi_many.points", _MC, ("items_per_s",)),
    **{f"poisson_mc.{f}.s": ("s", "busy", f"poisson_mc.{f}", _MC,
                             ("items_per_s", "peak_rss_mb"))
       for f in ("example1_run", "example2_run", "ruin_mc")},
    **{f"poisson_mc.{c}": ("count", "count", f"poisson_mc.{c}", _MC,
                           ("items_per_s", "peak_rss_mb"))
       for c in ("paths", "chunks", "censored")},
    "brownian_demo.outer.s":
        ("s", "busy", "brownian_demo.simulate_ladder_path", _LADDER,
         ("items_per_s",)),
    "brownian_demo.nested.s":
        ("s", "self", ("brownian_demo.brownian_demo",), _LADDER,
         ("items_per_s",)),
    "brownian_demo.walk_steps":
        ("count", "count", "brownian_demo.walk_steps", _LADDER,
         ("items_per_s",)),
    "brownian_demo.censored":
        ("count", "count", "brownian_demo.censored", _LADDER,
         ("items_per_s",)),
}
OVERHEAD_METRIC = "trace.overhead_pct"
NOISE_METRIC = "trace.noise_pct"  # the overhead resolves only above it


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Every per-layer metric of one traced pass; a layer the pass does
    not reach reads 0."""
    busy, own, _ = span_seconds(spans)
    out = {}
    for name, (_, kind, source, _, _) in LAYER_METRICS.items():
        if kind == "busy":
            out[name] = busy[source]
        elif kind == "self":
            out[name] = sum(own[s] for s in source)
        elif kind == "count":
            out[name] = counts[source]
        else:
            num, den = source
            out[name] = counts[num] / counts[den] if counts[den] else 0.0
    return out


def write_spans(path, passes: list[list[Span]]) -> None:
    """One JSON line per span, times relative to the start of its pass."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for k, spans in enumerate(passes):
            origin = spans[0].start if spans else 0.0
            for s in spans:
                row = asdict(s) | {"pass": k, "start": s.start - origin,
                                   "end": s.end - origin}
                fh.write(json.dumps(row) + "\n")
