from __future__ import annotations

from fractions import Fraction
from itertools import cycle
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enlab.errors import (
    NonRefiningFiltration,
    NotAdapted,
    ProbabilityNotOne,
    SchemaError,
    ZeroProbabilityOutcome,
)
from enlab.finite_prob import (
    AdaptedProcess,
    adapted,
    angle_bracket,
    bracket,
    build_space,
    compensator,
    is_martingale,
    is_positive,
    stochastic_exponential,
)
from enlab.model_io import load_model
from enlab.random_times import (
    RandomTimeMap,
    analyze,
    enlarge,
    generate_honest_model,
)

from .conftest import TREE
from .oracles import (
    cond_average,
    ref_average,
    ref_cond_exp,
    ref_constant,
    ref_values,
    ref_weights,
)

Q = Fraction


def test_build_space_valid(tree_space):
    assert tree_space.horizon == 2
    assert sum(tree_space.prob.values()) == 1
    assert tree_space.filtration.partitions[0] == (("dd", "du", "ud", "uu"),)


def test_build_space_rejects_bad_inputs():
    bad = dict(TREE, prob={o: "1/3" for o in TREE["outcomes"]})
    with pytest.raises(ProbabilityNotOne):
        build_space(bad)

    bad = dict(TREE, prob={"uu": "0", "ud": "1/2", "du": "1/4", "dd": "1/4"})
    with pytest.raises(ZeroProbabilityOutcome):
        build_space(bad)

    # P_2 not refining P_1
    bad = dict(TREE, partitions=[
        [["uu", "ud", "du", "dd"]],
        [["uu", "ud"], ["du", "dd"]],
        [["uu", "du"], ["ud"], ["dd"]],
    ])
    with pytest.raises(NonRefiningFiltration):
        build_space(bad)


def test_adaptedness_is_checked(tree_space):
    with pytest.raises(NotAdapted):
        adapted({"uu": [0, 1, 2], "ud": [0, 2, 0],
                 "du": [0, -1, 0], "dd": [0, -1, -2]}, tree_space)


def test_cond_exp_constant_and_terminal(tree_space):
    # E[X | atom] through the one primitive: the mass-weighted average of
    # X over the atom's terminal children
    f = tree_space.filtration
    for atom in f.partitions[1]:
        assert cond_average(f, 2, f.children(1, atom),
                            lambda o: Q(7, 3)) == Q(7, 3)

    x = {"uu": Q(1), "ud": Q(2), "du": Q(3), "dd": Q(4)}
    for atom in f.partitions[2]:
        assert cond_average(f, 2, [atom], x.get) == x[atom[0]]


def test_cond_exp_indicator(tree_space):
    f = tree_space.filtration
    ind = {o: Q(1 if o == "uu" else 0) for o in tree_space.outcomes}

    def given_time_1(o):
        atom = f.partitions[1][f.block_of[1][o]]
        return cond_average(f, 2, f.children(1, atom), ind.get)

    assert given_time_1("uu") == given_time_1("ud") == Q(1, 2)
    assert given_time_1("du") == given_time_1("dd") == 0
    # over a union of atoms: the whole space
    assert cond_average(f, 2, f.partitions[2], ind.get) == Q(1, 4)


def test_optional_projection_of_occupation_indicators(tree_space, tent_analysis):
    # projecting the pre-time and at-or-pre-time indicators, outcome by
    # outcome, recovers the two survival processes of the random time
    tau = tent_analysis.tau
    parts = tree_space.filtration.partitions
    for t in range(3):
        before = {o: Q(1 if t < tau[o] else 0) for o in tree_space.outcomes}
        at_or_before = {o: Q(1 if t <= tau[o] else 0)
                        for o in tree_space.outcomes}
        for indicator, process in ((before, tent_analysis.survival),
                                   (at_or_before, tent_analysis.survival_incl)):
            ref = ref_cond_exp(indicator, t, tree_space.prob, parts)
            assert {o: process.at(o, t) for o in tree_space.outcomes} == ref


def test_compensator_deterministic_and_martingale(tree_space, walk):
    det = adapted({o: [Q(0), Q(2), Q(5)] for o in tree_space.outcomes},
                  tree_space)
    assert ref_values(compensator(det, tree_space)) == ref_values(det)

    qv = bracket(walk, walk)
    comp = compensator(qv, tree_space)
    for o in tree_space.outcomes:
        assert [comp.at(o, t) for t in range(3)] == [0, 1, 2]

    assert ref_values(compensator(walk, tree_space)) == \
        ref_values(ref_constant(0, tree_space.filtration))


def test_compensator_property(tree_space, walk):
    qv = bracket(walk, walk)
    diff = qv - compensator(qv, tree_space)
    assert is_martingale(diff, tree_space).ok


def test_dual_optional_projection(tree_space, stop_analysis):
    # deterministic time 1: occurrence projection (0, 1, 1)
    proj = stop_analysis.occurrence_proj
    for o in tree_space.outcomes:
        assert [proj.at(o, t) for t in range(3)] == [0, 1, 1]


def test_dual_optional_projection_tent(tent_analysis, tree_space):
    proj = tent_analysis.occurrence_proj
    for o in tree_space.outcomes:
        assert proj.at(o, 0) == Q(1, 2)
        assert proj.at(o, 1) == Q(1, 2)
        expected = Q(3, 2) if o in ("ud", "du") else Q(1, 2)
        assert proj.at(o, 2) == expected


def test_bracket(tree_space, walk):
    const = ref_constant(3, tree_space.filtration)
    assert ref_values(bracket(walk, const)) == \
        ref_values(ref_constant(0, tree_space.filtration))

    qv = bracket(walk, walk)
    for o in tree_space.outcomes:
        assert [qv.at(o, t) for t in range(3)] == [0, 1, 2]


def test_angle_bracket_of_fundamental(tree_space, tent_analysis):
    m = tent_analysis.fundamental_martingale
    sharp = angle_bracket(m, m, tree_space)
    for o in tree_space.outcomes:
        assert sharp.at(o, 2) - sharp.at(o, 1) == Q(1, 4)


def test_stochastic_exponential(tree_space, walk):
    zero = ref_constant(0, tree_space.filtration)
    assert ref_values(stochastic_exponential(zero)) == \
        ref_values(ref_constant(1, tree_space.filtration))

    # an increment of -1 sends the exponential to 0, where it stays
    drop = adapted({o: [Q(0), Q(-1), Q(-1)] for o in tree_space.outcomes},
                   tree_space)
    exp = stochastic_exponential(drop)
    for o in tree_space.outcomes:
        assert [exp.at(o, t) for t in range(3)] == [1, 0, 0]
    assert not is_positive(exp)


def test_yor_product_formula(tree_space, walk, tent_analysis):
    # E(X)E(Y) = E(X + Y + [X,Y]) exactly
    m = tent_analysis.fundamental_martingale
    x = walk
    y = m - ref_constant(1, tree_space.filtration)
    lhs = stochastic_exponential(x) * stochastic_exponential(y)
    rhs = stochastic_exponential(x + y + bracket(x, y))
    assert ref_values(lhs) == ref_values(rhs)


def test_equals_from_values_or_increments(tree_space, walk):
    f = tree_space.filtration
    steps = walk.on(f).steps
    shifted = [[Q(1)]] + steps[1:]  # the same increments from 1
    from_steps = AdaptedProcess.from_steps
    assert from_steps(f, steps).equals(AdaptedProcess.from_nodes(f, walk.nodes))
    assert not from_steps(f, shifted).equals(from_steps(f, steps))
    assert not from_steps(f, shifted).equals(walk)
    assert from_steps(f, shifted).equals(walk + ref_constant(1, f))


# Each way an F-process can be read on G (y is a G-process): none lifts it.
_READS_ON_G = {
    "on": lambda space, g, x, y: x.on(g),
    "add": lambda space, g, x, y: y + x,
    "add_f_first": lambda space, g, x, y: x + y,
    "mul": lambda space, g, x, y: y * x,
    "equals": lambda space, g, x, y: y.equals(x),
    "bracket": lambda space, g, x, y: bracket(y, x),
    "compensator": lambda space, g, x, y: compensator(x, space, g),
    "is_martingale": lambda space, g, x, y: is_martingale(x, space, g),
}


@pytest.mark.parametrize("read", _READS_ON_G.values(), ids=_READS_ON_G)
def test_a_base_process_is_not_read_on_the_enlarged_filtration(
        read, tree_space, walk, tent_analysis):
    g = tent_analysis.enlarged
    after = tent_analysis.after_part(walk)
    assert after.filtration is g and g.partitions != \
        tree_space.filtration.partitions
    with pytest.raises(NotAdapted):
        read(tree_space, g, walk, after)


def test_a_process_is_read_only_on_the_filtration_it_was_built_on(
        tree_space, walk, tent_analysis):
    # the rule is identity, not equal atoms: a second enlargement of the
    # same time has the same partitions and still does not read the first
    # one's processes
    g = tent_analysis.enlarged
    after = tent_analysis.after_part(walk)
    assert after.on(g) is after and walk.on(tree_space.filtration) is walk
    again = enlarge(tree_space, tent_analysis)
    assert again is not g and again.partitions == g.partitions
    for read in (lambda: after.on(again),
                 lambda: is_martingale(after, tree_space, again),
                 lambda: compensator(after, tree_space, again)):
        with pytest.raises(NotAdapted):
            read()


def test_is_martingale(tree_space, walk, tent_analysis):
    assert is_martingale(walk, tree_space).ok
    assert is_martingale(tent_analysis.fundamental_martingale, tree_space).ok

    drift = adapted({o: [Q(t) for t in range(3)]
                     for o in tree_space.outcomes}, tree_space)
    report = is_martingale(drift, tree_space)
    assert not report.ok
    assert report.t == 1 and report.drift == 1


# ---------------------------------------------------------------------------
# Properties over generated models
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6))
def test_compensator_yields_martingale(seed):
    space, tau, asset, _ = generate_honest_model(seed, depth=3, branching=3)
    fv = bracket(asset, asset)
    assert is_martingale(fv - compensator(fv, space), space).ok


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6))
def test_yoeurp_identity(seed):
    # compensator of a predictable-integrand martingale integral is zero
    space, tau, asset, _ = generate_honest_model(seed, depth=3, branching=3)
    mart = asset - compensator(asset, space)
    integral = AdaptedProcess.from_increments(
        space.filtration, step=lambda o, t: mart.at(o, t - 1) * mart.delta(o, t))
    comp = compensator(integral, space)
    assert all(v == 0 for row in ref_values(comp).values() for v in row)


# ---------------------------------------------------------------------------
# The atom tree and the increment constructor against brute force
# ---------------------------------------------------------------------------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TREE_MODELS = ["stop.json", "tent.json"] + [f"seed-{s}" for s in range(1, 21)]


def _model(name):
    if name.startswith("seed-"):
        space, tau, asset, _ = generate_honest_model(
            int(name.removeprefix("seed-")), depth=5, branching=3)
        return space, tau, asset
    return load_model(FIXTURES / name)


@pytest.mark.parametrize("name", TREE_MODELS)
def test_filtration_tree_against_brute_force(name):
    space, tau, _ = _model(name)
    for f in (space.filtration, enlarge(space, analyze(space, tau))):
        for t in range(f.horizon + 1):
            for atom, mass in zip(f.partitions[t], f.masses[t]):
                assert Q(mass, f.scale) == sum(space.prob[o] for o in atom)
                if t == f.horizon:
                    continue
                # a child is a block at t + 1 inside the atom; partition
                # order is the order of the blocks' first outcomes
                brute = [b for b in f.partitions[t + 1] if set(b) <= set(atom)]
                assert list(f.children(t, atom)) == \
                    sorted(brute, key=lambda b: b[0])
                assert sorted(o for c in brute for o in c) == sorted(atom)


@pytest.mark.parametrize("name", TREE_MODELS)
def test_from_increments_against_reference_loop(name):
    space, _, asset = _model(name)

    def step(o, t):
        return asset.delta(o, t) * t + Q(1, len(o) + t)

    expected = {}
    for o in space.outcomes:
        row = [Q(0)]
        for t in range(1, space.horizon + 1):
            row.append(row[-1] + step(o, t))
        expected[o] = row
    built = AdaptedProcess.from_increments(space.filtration, step)
    assert ref_values(built) == expected
    assert list(ref_values(built)) == list(space.outcomes)
    assert built.filtration is space.filtration


# ---------------------------------------------------------------------------
# The node layout against per-outcome references
# ---------------------------------------------------------------------------

def _random_rows(f, space, rng):
    """Outcome rows constant on the atoms of f: one draw per atom."""
    rows = {o: [] for o in space.outcomes}
    for part in f.partitions:
        for block in part:
            value = Q(rng.randint(0, 6) - 3, rng.randint(1, 3))
            for o in block:
                rows[o].append(value)
    return rows


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6),
       st.integers(min_value=1, max_value=5))
def test_node_layout_against_outcome_references(seed, depth):
    from enlab.rng import SplitMix64

    from .oracles import (
        ref_bracket,
        ref_compensator,
        ref_exponential,
        ref_first_drift,
    )

    space, _, _, analysis = generate_honest_model(seed, depth=depth,
                                                  branching=3)
    rng = SplitMix64(seed)
    prob = space.prob
    for f in (space.filtration, analysis.enlarged):
        parts = f.partitions
        x_rows, y_rows = _random_rows(f, space, rng), _random_rows(f, space, rng)
        x, y = adapted(x_rows, space, f), adapted(y_rows, space, f)
        assert x.filtration is f and ref_values(x) == x_rows

        # the node primitive: E[X_{t+1} | atom at t] over the children
        for t in range(space.horizon):
            ref = ref_cond_exp({o: row[t + 1] for o, row in x_rows.items()},
                               t, prob, parts)
            for block in parts[t]:
                assert cond_average(f, t + 1, f.children(t, block),
                                    lambda o: x.at(o, t + 1)) == ref[block[0]]

        comp = compensator(x, space, f)
        assert ref_values(comp) == ref_compensator(x_rows, prob, parts)
        mart = x - comp
        assert is_martingale(mart, space, f).ok
        assert ref_first_drift(ref_values(mart), prob, parts) is None

        report = is_martingale(x, space, f)
        expected = ref_first_drift(x_rows, prob, parts)
        if expected is None:
            assert report.ok
        else:
            assert (report.t, report.block, report.drift) == expected

        assert ref_values(bracket(x, y)) == ref_bracket(x_rows, y_rows)
        assert ref_values(stochastic_exponential(x)) == ref_exponential(x_rows)

        # rows that differ inside one atom do not bind to f (the root
        # of the base filtration always holds several outcomes)
        wide = [(t, b) for t, part in enumerate(parts) for b in part
                if len(b) > 1]
        assert wide or f is analysis.enlarged
        for t, block in wide[:3]:
            bad = {o: list(row) for o, row in x_rows.items()}
            bad[block[-1]][t] += 1
            with pytest.raises(NotAdapted):
                adapted(bad, space, f)
        # and rows one step too long do not bind either
        with pytest.raises(SchemaError):
            adapted({o: row + row[-1:] for o, row in x_rows.items()}, space, f)


# ---------------------------------------------------------------------------
# Integer atom masses and the conditional-average kernel
# ---------------------------------------------------------------------------

# Coprime denominators (the scale is their lcm, 1806): the atom {a} has
# a single child, the increments at t = 2 vanish on {b, c}, and on
# {d, e} they are nonzero with a weighted sum of zero (42/5 - 42/5).
COPRIME = {
    "outcomes": ["a", "b", "c", "d", "e"],
    "prob": {"a": "1/2", "b": "1/3", "c": "1/7", "d": "1/43",
             "e": "1/1806"},
    "partitions": [
        [["a", "b", "c", "d", "e"]],
        [["a"], ["b", "c"], ["d", "e"]],
        [["a"], ["b"], ["c"], ["d"], ["e"]],
    ],
}
COPRIME_X = {"a": [0, Q(1, 3), Q(5, 6)], "b": [0, Q(-2, 7), Q(-2, 7)],
             "c": [0, Q(-2, 7), Q(-2, 7)], "d": [0, Q(11, 5), Q(12, 5)],
             "e": [0, Q(11, 5), Q(11, 5) - Q(42, 5)]}


def _kernel_models():
    space = build_space(COPRIME)
    tau = {"a": 1, "b": 2, "c": 0, "d": 1, "e": 2}
    yield space, analyze(space, RandomTimeMap.build(tau, space))
    for seed in (1, 2, 3):
        space, _, _, analysis = generate_honest_model(seed, depth=4,
                                                      branching=3)
        yield space, analysis


def _check_kernel(space, f, x):
    """cond_average, the compensator's increments and the drift test's
    witness against the Fraction-only average, atom by atom."""
    w = ref_weights(f)
    first = None
    comp = compensator(x, space, f)
    for t in range(1, f.horizon + 1):
        for i, (block, kids) in enumerate(zip(f.partitions[t - 1],
                                              f.kids[t - 1])):
            steps = [x.delta(f.partitions[t][c][0], t) for c in kids]
            ref = ref_average([w[t][c] for c in kids], steps)
            got = cond_average(f, t, [f.partitions[t][c] for c in kids],
                               lambda o: x.delta(o, t))
            assert got == ref and type(got) is Fraction
            for c in kids:
                assert comp.delta(f.partitions[t][c][0], t) == ref
            if ref and first is None:
                first = (t, block, ref)
    report = is_martingale(x, space, f)
    if first is None:
        assert report.ok
    else:
        assert (report.t, report.block, report.drift) == first
    assert is_martingale(x - comp, space, f).ok


def test_kernel_branches_on_coprime_denominators():
    space = build_space(COPRIME)
    f = space.filtration
    assert f.scale == 1806 and f.masses == [[1806], [903, 860, 43],
                                            [903, 602, 258, 42, 1]]
    x = adapted(COPRIME_X, space)
    d = lambda t: (lambda o: x.delta(o, t))  # noqa: E731
    # single child, all-zero values, zero weighted sum, mixed denominators
    assert cond_average(f, 2, [("a",)], d(2)) == Q(1, 2)
    assert cond_average(f, 2, [("b",), ("c",)], d(2)) == 0
    assert cond_average(f, 2, [("d",), ("e",)], d(2)) == 0
    assert cond_average(f, 1, f.partitions[1], d(1)) == ref_average(
        ref_weights(f)[1], [Q(1, 3), Q(-2, 7), Q(11, 5)])
    _check_kernel(space, f, x)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 60)),
                min_size=1, max_size=40))
def test_kernel_matches_fraction_average(draws):
    """Per-atom increments with mixed denominators, drawn in turn from
    the list (a zero numerator gives zero increments), on the coprime
    fixture and generated models, in F and in the enlarged G."""
    for space, analysis in _kernel_models():
        for f in (space.filtration, analysis.enlarged):
            draw = cycle(draws)
            steps = [[Q(*next(draw)) for _ in part] for part in f.partitions]
            x = AdaptedProcess.from_steps(f, steps)
            _check_kernel(space, f, x)


@pytest.mark.parametrize("name", ["coprime"] + TREE_MODELS)
def test_integer_atom_masses(name):
    if name == "coprime":
        space, analysis = next(_kernel_models())
        filtrations = (space.filtration, analysis.enlarged)
    else:
        space, tau, _ = _model(name)
        filtrations = (space.filtration, enlarge(space, analyze(space, tau)))
    for f in filtrations:
        assert f.scale == lcm(*(p.denominator for p in space.prob.values()))
        # the time-0 atoms carry all the mass: the root of F, or the
        # split of the root by {tau = 0} in G
        assert sum(f.masses[0]) == f.scale
        assert f.label == "G" or f.masses[0] == [f.scale]
        for t in range(f.horizon):
            for mass, kids in zip(f.masses[t], f.kids[t]):
                assert mass == sum(f.masses[t + 1][c] for c in kids)
        for t in range(f.horizon + 1):
            assert all(type(m) is int for m in f.masses[t])
