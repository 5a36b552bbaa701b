"""The finite engine's integer rows against outcome-by-outcome Fraction
references.

A process holds, per time, int numerators over one int denominator,
normal (the denominator is the lcm of the values' reduced ones); every
operation runs on those ints.  Here each operation is checked against a
reference that reads the values outcome by outcome as Fractions, on
generated models over the generator's scope (each depth and branching,
seeds 1-3, d = 1 and 2) and on the archived fixtures, in the base
filtration and in its enlargement.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache
from itertools import cycle
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enlab import harness
from enlab.enlargement import (
    build_deflator,
    g_characteristics,
    g_compensator_after,
    jump_functionals,
)
from enlab.finite_prob import (
    AdaptedProcess,
    bracket,
    compensator,
    is_martingale,
    mass_average,
    stochastic_exponential,
)
from enlab.model_io import load_model
from enlab.nupbr import nupbr_check
from enlab.random_times import BRANCHINGS, DEPTHS, analyze, generate_honest_model

from .oracles import (
    enum_survival,
    ref_after_part,
    ref_average,
    ref_bracket,
    ref_combine,
    ref_compensator,
    ref_exponential,
    ref_first_drift,
    ref_node_map,
    ref_values,
    ref_weights,
)

Q = Fraction
FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures")
                  .glob("*.json"))
SCOPE = [(seed, depth, branching, d) for depth in DEPTHS
         for branching in BRANCHINGS for seed in (1, 2, 3) for d in (1, 2)]


@cache
def _model(key):
    """(space, tau, components, analysis) of a scope key or a fixture."""
    if isinstance(key, Path):
        space, tau, asset = load_model(key)
        return space, tau, [asset], analyze(space, tau)
    seed, depth, branching, d = key
    space, tau, asset, analysis = generate_honest_model(seed, depth,
                                                        branching, d=d)
    return space, tau, asset if d > 1 else [asset], analysis


def _normal(x: AdaptedProcess) -> bool:
    return all(den > 0 and gcd(den, *row) == 1
               for num, dens in (x.node_rows, x.step_rows)
               for row, den in zip(num, dens))


# the largest per-time denominator, in bits, of each process over the
# generator's scope: the model's own values stay within int64, the
# deflator's products do not (Python ints hold both)
DENOMINATOR_BITS = {
    "asset": 15, "compensator": 15, "after_part": 15, "survival": 44,
    "survival_incl": 41, "gap": 44, "gap_incl": 41,
    "fundamental_martingale": 46, "weight": 470, "weight_comp": 905,
    "driver": 420, "deflator": 262}


def test_rows_are_normal_and_their_denominators_are_pinned():
    bits = dict.fromkeys(DENOMINATOR_BITS, 0)
    for key in SCOPE + FIXTURES:
        space, tau, components, a = _model(key)
        named = [("survival", a.survival), ("survival_incl", a.survival_incl),
                 ("gap", a.gap), ("gap_incl", a.gap_incl),
                 ("fundamental_martingale", a.fundamental_martingale)]
        for c in components:
            named += [("asset", c), ("compensator", compensator(c, space)),
                      ("after_part", a.after_part(c))]
        if len(components) == 1:
            bundle = build_deflator(a)
            named += [(name, getattr(bundle, name)) for name in
                      ("weight", "weight_comp", "driver", "deflator")]
        for name, x in named:
            assert _normal(x), (key, name)
            if not isinstance(key, Path):
                bits[name] = max([bits[name]] + [
                    den.bit_length() for den in x.node_rows[1]
                    + x.step_rows[1]])
    assert bits == DENOMINATOR_BITS


def test_node_map_against_a_scan_of_the_partitions():
    for key in SCOPE + FIXTURES:
        space, tau, _, a = _model(key)
        assert a.node_map == ref_node_map(space.filtration, a.enlarged, tau)
        assert a.after_nodes == [sorted(set(row) - {-1})
                                 for row in a.node_map[1]]


def test_fundamental_martingale_against_enumeration():
    # analyze builds M = Z + A without testing it: outcome by outcome it
    # has no drift, and M - Z is A_t = sum over s <= t of Z~_s - Z_s
    # (P(tau = s | atom at s)), with Z and Z~ enumerated per atom
    for key in SCOPE + FIXTURES:
        space, tau, _, a = _model(key)
        parts = space.filtration.partitions
        m = ref_values(a.fundamental_martingale)
        assert ref_first_drift(m, space.prob, parts) is None, key
        description = {"prob": space.prob, "partitions": parts}
        occurred = dict.fromkeys(space.outcomes, Q(0))
        for t in range(space.horizon + 1):
            z = enum_survival(description, tau, t)
            z_incl = enum_survival(description, tau, t, inclusive=True)
            for o in space.outcomes:
                occurred[o] += z_incl[o] - z[o]
                assert m[o][t] - z[o] == occurred[o], (key, o, t)


# ---------------------------------------------------------------------------
# Operations against the outcome-by-outcome references
# ---------------------------------------------------------------------------

MODELS = st.sampled_from(SCOPE + FIXTURES)
DRAWS = st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 12)),
                 min_size=1, max_size=12)


def _drawn(f, draws, start=0):
    """A process on f whose time-0 values and increments are the drawn
    fractions, taken in turn (from `start`) atom by atom."""
    draw = cycle(draws[start % len(draws):] + draws[:start % len(draws)])
    return AdaptedProcess.from_steps(
        f, [[Q(*next(draw)) for _ in part] for part in f.partitions])


def _filtrations(key, enlarged):
    space, tau, components, a = _model(key)
    return space, (a.enlarged if enlarged else space.filtration)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(MODELS, st.booleans(), DRAWS)
def test_arithmetic_against_outcome_rows(key, enlarged, draws):
    space, f = _filtrations(key, enlarged)
    x, y = _drawn(f, draws), _drawn(f, draws, start=1)
    xs, ys = ref_values(x), ref_values(y)
    for op, ref in ((operator.add, operator.add), (operator.sub, operator.sub),
                    (operator.mul, operator.mul)):
        z = op(x, y)
        assert _normal(z) and z.filtration is f
        assert ref_values(z) == ref_combine(xs, ys, ref)
    assert (x - x).equals(_drawn(f, [(0, 1)]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(MODELS, st.booleans(), DRAWS)
def test_calculus_against_outcome_rows(key, enlarged, draws):
    space, f = _filtrations(key, enlarged)
    x, y = _drawn(f, draws), _drawn(f, draws, start=2)
    xs, ys = ref_values(x), ref_values(y)
    comp = compensator(x, space, f)
    assert ref_values(comp) == ref_compensator(xs, space.prob, f.partitions)
    assert ref_values(bracket(x, y)) == ref_bracket(xs, ys)
    assert ref_values(stochastic_exponential(x)) == ref_exponential(xs)
    assert is_martingale(x - comp, space, f).ok
    for z in (comp, bracket(x, y), stochastic_exponential(x)):
        assert _normal(z)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(MODELS, st.booleans(), DRAWS, st.data())
def test_mass_average_against_the_fraction_average(key, enlarged, draws,
                                                   data):
    space, f = _filtrations(key, enlarged)
    x = _drawn(f, draws)
    num, den = x.node_rows
    w = ref_weights(f)
    t = data.draw(st.integers(0, f.horizon))
    idxs = data.draw(st.lists(st.integers(0, len(f.partitions[t]) - 1),
                              min_size=1, unique=True))
    got = Q(*mass_average(f.masses[t], idxs, num[t], den[t]))
    assert got == ref_average([w[t][i] for i in idxs],
                              [Q(num[t][i], den[t]) for i in idxs])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(MODELS, DRAWS)
def test_after_part_against_outcome_rows(key, draws):
    space, tau, _, a = _model(key)
    x = _drawn(space.filtration, draws)
    after = a.after_part(x)
    assert after.filtration is a.enlarged and _normal(after)
    assert ref_values(after) == ref_after_part(ref_values(x), tau)


# ---------------------------------------------------------------------------
# Exits: a value leaves the engine as a normalized Fraction
# ---------------------------------------------------------------------------

def _canonical(text: str) -> bool:
    return str(Q(text)) == text


def test_every_exit_is_a_normalized_fraction():
    for key in [(seed, 5, 3, 1) for seed in (1, 2, 3)] + FIXTURES:
        space, _, (asset, *_), a = _model(key)
        for x in (asset, a.survival, a.fundamental_martingale,
                  a.after_part(asset)):
            f = x.filtration
            values = [v for rows in (x.nodes, x.steps) for row in rows
                      for v in row]
            values += [x.at(block[0], t) for t, part in enumerate(f.partitions)
                       for block in part]
            values += [x.delta(block[0], t)
                       for t, part in enumerate(f.partitions) for block in part]
            assert all(type(v) is Fraction and gcd(v.numerator, v.denominator)
                       == 1 for v in values)
        jf = jump_functionals(asset, a)
        assert all(type(v) is Fraction for law in jf.law.values()
                   for pair in law.items() for v in pair)
        assert all(type(v) is Fraction for v in jf.mart_mean.values())
        verdict = nupbr_check(asset, space).to_json()["witness"]
        texts = ([w for node in verdict["nodes"] for w in node["weights"]]
                 if verdict["kind"] == "deflator" else verdict["direction"])
        assert all(map(_canonical, texts))
        drift = is_martingale(asset + a.survival, space)
        assert drift.ok or type(drift.drift) is Fraction


def test_every_report_value_is_a_fraction_string():
    # the checks read with the base filtration in place of the enlarged
    # one (or the left survival in place of the inclusive one) report
    # violations; each of their values is the string of a Fraction, not
    # of an int row or an unreduced pair
    import dataclasses
    _, _, asset, analysis = generate_honest_model(3, depth=5, branching=3)
    unenlarged = dataclasses.replace(analysis)
    unenlarged.__dict__["enlarged"] = analysis.space.filtration
    swapped = dataclasses.replace(analysis,
                                  survival_incl=analysis.survival)
    reports = (g_compensator_after(bracket(asset, asset), unenlarged)
               + g_characteristics(asset, unenlarged)
               + harness.check_hat_basis(unenlarged)
               + harness.proj_identity_check(
                   asset - compensator(asset, analysis.space), swapped))
    keys = {"lhs", "rhs", "drift", "x"}
    values = [v for r in reports for k, v in r.items() if k in keys]
    assert {r["identity"] for r in reports} >= {
        "compensator", "jump_kernel", "hat_basis_martingale"}
    assert values and all(map(_canonical, values))
