from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enlab.errors import DivisionGuard, NotHonest
from enlab.finite_prob import (
    adapted,
    bracket,
    build_space,
    compensator,
    is_martingale,
)
from enlab.enlargement import (
    after_atoms,
    build_deflator,
    deflator_verify,
    g_characteristics,
    g_compensator_after,
    hat_transform,
    jump_functionals,
    proj_identity_check,
    transfer_rows,
)
from enlab.harness import check_transfer_basis
from enlab.random_times import RandomTimeMap, analyze, generate_honest_model

from .oracles import ref_constant, ref_values, ref_weights

Q = Fraction


def _mart(walk, space):
    return walk - compensator(walk, space)


def test_after_atoms_tent(tent_analysis):
    atoms = {(a.t, a.members) for a in after_atoms(tent_analysis)}
    assert atoms == {(1, ("dd", "uu")), (2, ("uu",)), (2, ("dd",))}


def test_hat_transform_requires_honest_class_h(tree_space, walk):
    space = build_space({
        "outcomes": ["a", "b", "c", "d"],
        "prob": {"a": "1/4", "b": "1/4", "c": "1/4", "d": "1/4"},
        "partitions": [
            [["a", "b", "c", "d"]],
            [["a", "b"], ["c", "d"]],
            [["a", "b"], ["c", "d"]],
            [["a"], ["b"], ["c"], ["d"]],
        ],
    })
    tau = RandomTimeMap.build({"a": 0, "b": 1, "c": 3, "d": 3}, space)
    analysis = analyze(space, tau)
    flat = ref_constant(0, space.filtration)
    with pytest.raises(NotHonest):
        hat_transform(flat, analysis)


def test_hat_transform_stop_is_after_part(tree_space, walk, stop_analysis):
    # constant fundamental martingale: the transform is the plain
    # strictly-after part, a martingale of the (unchanged) filtration
    hat = hat_transform(walk, stop_analysis)
    for o in tree_space.outcomes:
        assert hat.at(o, 0) == 0 and hat.at(o, 1) == 0
        assert hat.at(o, 2) == walk.delta(o, 2)
    assert is_martingale(hat, tree_space).ok


def test_hat_transform_tent_walk(tree_space, walk, tent_analysis):
    hat = hat_transform(walk, tent_analysis)
    expected = {
        "uu": [0, 1, 1],
        "dd": [0, -1, -1],
        "ud": [0, 0, 0],
        "du": [0, 0, 0],
    }
    assert {o: list(ref_values(hat)[o]) for o in expected} == expected


def test_hat_transform_tent_fundamental(tree_space, tent_analysis):
    hat = hat_transform(tent_analysis.fundamental_martingale, tent_analysis)
    # increment at t=2 on uu: -1/2 + (1/4)/(1/2) = 0; everything cancels
    assert ref_values(hat) == ref_values(ref_constant(0, tree_space.filtration))


def test_g_compensator_after_tent(tree_space, walk, tent_analysis):
    qv = bracket(walk, walk)
    cmp = g_compensator_after(qv, tent_analysis)
    assert ref_values(cmp.direct) == ref_values(cmp.via_formula)


def test_g_compensator_after_deterministic(tree_space, tent_analysis):
    det = adapted({o: [Q(0), Q(2), Q(3)] for o in tree_space.outcomes},
                  tree_space)
    cmp = g_compensator_after(det, tent_analysis)
    # deterministic integrand: the direct increment on the after atom is
    # dV_t * (1 - E[incl survival | atom]) / (1 - survival_left)
    a = tent_analysis
    for o in ("uu", "dd"):
        for t in (1, 2):
            gap = 1 - a.survival.at(o, t - 1)
            atom = [x for x in after_atoms(a)
                    if x.t == t and o in x.members][0]
            avg = sum(tree_space.prob[w] * (1 - a.survival_incl.at(w, t))
                      for w in atom.base)
            avg /= sum(tree_space.prob[w] for w in atom.base)
            dv = det.at(o, t) - det.at(o, t - 1)
            assert cmp.direct.delta(o, t) == dv * avg / gap


def test_proj_identities(tree_space, walk, stop_analysis, tent_analysis):
    for analysis in (stop_analysis, tent_analysis):
        report = proj_identity_check(walk, analysis)
        assert len(report.rows) > 0


def test_transfer_rows_tent(tree_space, walk, tent_analysis):
    # first after-atom: A = {uu, dd} inside the root, incl = 1/2 on the
    # root at t = 1 and survival_left = 1/2, so gap = 1/2
    atom = after_atoms(tent_analysis)[0]
    assert (atom.t, atom.members) == (1, ("dd", "uu"))
    rows = transfer_rows(tent_analysis, atom,
                         (lambda o: walk.delta(o, 1), lambda o: Q(1)),
                         ("plain", "over_gap", "one_over_gap"))
    assert rows == [
        ("plain", 0, 0),           # avg_A(dS) = 0; avg_B(dS / 2) / gap = 0
        ("over_gap", 0, 0),
        ("plain", 1, 1),           # avg_A(1) = 1; (1/2) / (1/2)
        ("over_gap", 2, 2),        # avg_A(1 / (1/2)) = 2; 1 / (1/2)
        ("one_over_gap", 2, 2),    # the g = 1 row, once per atom
    ]


def test_unit_inclusive_survival_trips_the_guard(tree_space, walk,
                                                  tent_analysis):
    pinned = dataclasses.replace(
        tent_analysis, survival_incl=ref_constant(1, tree_space.filtration))
    with pytest.raises(DivisionGuard):
        check_transfer_basis(pinned)
    with pytest.raises(DivisionGuard):
        proj_identity_check(walk, pinned)


def test_jump_law_against_outcomes():
    # P(dS = x | B) over the nonzero sizes, summed outcome by outcome;
    # every base atom has a law, empty where the asset does not jump
    empty = 0
    for seed in range(1, 21):
        space, _, asset, analysis = generate_honest_model(seed, depth=4,
                                                          branching=3)
        jf = jump_functionals(asset, analysis)
        chars = g_characteristics(asset, analysis)
        f = space.filtration
        rows = ref_values(asset)
        keys = []
        for t in range(1, space.horizon + 1):
            for base in f.partitions[t - 1]:
                keys.append((t, base))
                mass = sum(space.prob[o] for o in base)
                expected = {}
                for o in base:
                    x = rows[o][t] - rows[o][t - 1]
                    if x != 0:
                        expected[x] = expected.get(x, 0) + space.prob[o]
                law = jf.law[(t, base)]
                assert list(law) == sorted(expected)
                assert law == {x: p / mass for x, p in expected.items()}
                assert chars.char_base.kernel[(t, base)] == law
                if not law:
                    empty += 1
                    assert chars.char_base.drift[(t, base)] == 0
        assert list(jf.law) == keys
    assert empty > 0


def test_jump_functionals_stop(tree_space, walk, stop_analysis):
    # constant fundamental martingale: zero jump means everywhere; the
    # alive probability is one on the support where survival_left < 1
    # (at t=1 the deterministic time pins the inclusive supermartingale
    # at one together with its left limit, making alive_prob zero there
    # while the set identity still holds)
    jf = jump_functionals(walk, stop_analysis)
    assert all(v == 0 for v in jf.mart_mean.values())
    for (t, base, x), alive in jf.alive_prob.items():
        left = stop_analysis.survival.at(base[0], t - 1)
        assert alive == (1 if left < 1 else 0)


def test_jump_functionals_tent(tree_space, walk, tent_analysis):
    jf = jump_functionals(walk, tent_analysis)
    up_block = ("ud", "uu")
    assert jf.alive_prob[(2, up_block, Q(1))] == 1
    assert jf.mart_mean[(2, up_block, Q(1))] == Q(-1, 2)
    assert jf.alive_prob[(2, up_block, Q(-1))] == 0
    assert jf.mart_mean[(2, up_block, Q(-1))] == Q(1, 2)  # equals 1 - survival_left


def test_g_characteristics_tent(tree_space, walk, tent_analysis):
    report = g_characteristics(walk, tent_analysis)
    assert report.direct[(2, ("uu",), Q(1))] == 1
    assert report.direct[(2, ("uu",), Q(-1))] == 0
    assert report.char_enlarged.kernel[(2, ("uu",))][Q(1)] == 1


def test_g_characteristics_stop(tree_space, walk, stop_analysis):
    report = g_characteristics(walk, stop_analysis)
    # zero jump mean: the enlarged kernel is the restriction of the base one
    for (t, members, x), v in report.direct.items():
        base = [a.base for a in after_atoms(stop_analysis)
                if a.t == t and a.members == members][0]
        assert v == report.char_base.kernel[(t, base)][x]


def test_g_characteristics_kernels(class_h_cases):
    # both tuples: nonnegative kernels of mass at most one, and the drift
    # is the kernel mean (g_characteristics no longer checks either)
    for asset, analysis in class_h_cases:
        report = g_characteristics(asset, analysis)
        for char in (report.char_base, report.char_enlarged):
            assert char.drift.keys() == char.kernel.keys()
            for key, law in char.kernel.items():
                assert all(p >= 0 for p in law.values())
                assert sum(law.values()) <= 1
                assert char.drift[key] == sum(x * p for x, p in law.items())


def test_build_deflator_stop(tree_space, stop_analysis):
    bundle = build_deflator(stop_analysis)
    f = tree_space.filtration
    assert ref_values(bundle.driver) == ref_values(ref_constant(0, f))
    assert ref_values(bundle.deflator) == ref_values(ref_constant(1, f))


def test_build_deflator_tent(tree_space, tent_analysis):
    bundle = build_deflator(tent_analysis)
    assert bundle.weight.delta("uu", 2) == Q(1, 2)
    assert bundle.weight_comp.delta("uu", 2) == Q(1, 2)
    f = tree_space.filtration
    assert ref_values(bundle.driver) == ref_values(ref_constant(0, f))
    assert ref_values(bundle.deflator) == ref_values(ref_constant(1, f))


def test_deflator_verify_stop(tree_space, walk, stop_analysis):
    bundle = build_deflator(stop_analysis)
    report = deflator_verify(walk, bundle, stop_analysis)
    assert report.hypothesis_holds and report.conclusion_holds


def test_deflator_verify_tent(tree_space, walk, tent_analysis):
    bundle = build_deflator(tent_analysis)
    report = deflator_verify(walk, bundle, tent_analysis)
    assert not report.hypothesis_holds
    assert not report.conclusion_holds
    # the failure is the deterministic +1 increment on the atom {uu}
    assert report.conclusion_witness.t == 2


# ---------------------------------------------------------------------------
# Quantified identities over generated models
# ---------------------------------------------------------------------------

def _basis_martingales(space):
    """All single-increment indicator-difference martingales of the tree."""
    out = []
    f = space.filtration
    w = ref_weights(f)
    for t in range(1, space.horizon + 1):
        for base_idx, base in enumerate(f.partitions[t - 1]):
            children = sorted({f.block_of[t][o] for o in base})
            if len(children) < 2:
                continue
            base_mass = w[t - 1][base_idx]
            for child_idx in children[:-1]:
                child = f.partitions[t][child_idx]
                p_child = w[t][child_idx] / base_mass
                vals = {}
                for o in space.outcomes:
                    step = ((1 if o in child else 0) - p_child) \
                        if o in base else Q(0)
                    row = [Q(0)] * t + [step] * (space.horizon + 1 - t)
                    vals[o] = row
                out.append(adapted(vals, space))
    return out


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6))
def test_hat_transform_martingale_for_all_basis(seed):
    space, _, _, analysis = generate_honest_model(seed, depth=4, branching=3)
    for mart in _basis_martingales(space):
        hat_transform(mart, analysis)  # hard-asserts internally


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6))
def test_transfer_identities_on_models(seed):
    space, _, asset, analysis = generate_honest_model(seed, depth=4,
                                                      branching=3)
    g_compensator_after(bracket(asset, asset), analysis)
    proj_identity_check(_mart(asset, space), analysis)
    jump_functionals(asset, analysis)
    g_characteristics(asset, analysis)
    build_deflator(analysis)
