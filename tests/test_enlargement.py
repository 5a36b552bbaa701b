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
    row_of,
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

from .oracles import (
    cond_average,
    ref_constant,
    ref_deflator_drift,
    ref_jump_fibres,
    ref_values,
    ref_weights,
)

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
    # strictly-after part, a martingale of the enlarged filtration (whose
    # atoms are the base ones: the time is a stopping time)
    hat = hat_transform(walk, stop_analysis)
    for o in tree_space.outcomes:
        assert hat.at(o, 0) == 0 and hat.at(o, 1) == 0
        assert hat.at(o, 2) == walk.delta(o, 2)
    assert is_martingale(hat, tree_space, stop_analysis.enlarged).ok


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
    assert g_compensator_after(qv, tent_analysis) == []


def test_g_compensator_after_deterministic(tree_space, tent_analysis):
    det = adapted({o: [Q(0), Q(2), Q(3)] for o in tree_space.outcomes},
                  tree_space)
    assert g_compensator_after(det, tent_analysis) == []
    # deterministic integrand: the direct increment on the after atom is
    # dV_t * (1 - E[incl survival | atom]) / (1 - survival_left)
    a = tent_analysis
    direct = compensator(a.after_part(det), tree_space, a.enlarged)
    for o in ("uu", "dd"):
        for t in (1, 2):
            gap = 1 - a.survival.at(o, t - 1)
            atom = [x for x in after_atoms(a)
                    if x.t == t and o in x.members][0]
            avg = sum(tree_space.prob[w] * (1 - a.survival_incl.at(w, t))
                      for w in atom.base)
            avg /= sum(tree_space.prob[w] for w in atom.base)
            dv = det.at(o, t) - det.at(o, t - 1)
            assert direct.delta(o, t) == dv * avg / gap


def test_proj_identities(tree_space, walk, stop_analysis, tent_analysis):
    for analysis in (stop_analysis, tent_analysis):
        assert after_atoms(analysis)
        assert proj_identity_check(walk, analysis) == []


def test_transfer_rows_tent(tree_space, walk, tent_analysis):
    # first after-atom: A = {uu, dd} inside the root, incl = 1/2 on the
    # root at t = 1 and survival_left = 1/2, so gap = 1/2
    atom = after_atoms(tent_analysis)[0]
    assert (atom.t, atom.members) == (1, ("dd", "uu"))
    # the integrands on the children of the root, in their order: dS_1
    # and the constant 1
    f = tree_space.filtration
    kids = f.children(0, f.partitions[0][0])
    rows = transfer_rows(tent_analysis, atom,
                         (row_of(walk.delta(c[0], 1) for c in kids),
                          ([1] * len(kids), 1)),
                         ("plain", "over_gap", "one_over_gap"))
    assert [(name, Q(*lhs), Q(*rhs)) for name, lhs, rhs in rows] == [
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
    # a law is emitted at each base atom with an after-atom, the only
    # ones g_characteristics reads, and is empty where the asset does
    # not jump
    empty = 0
    for seed in range(1, 21):
        space, _, asset, analysis = generate_honest_model(seed, depth=4,
                                                          branching=3)
        jf = jump_functionals(asset, analysis)
        assert g_characteristics(asset, analysis) == []
        rows = ref_values(asset)
        assert list(jf.law) == [(a.t, a.base) for a in after_atoms(analysis)]
        for (t, base), law in jf.law.items():
            mass = sum(space.prob[o] for o in base)
            expected = {}
            for o in base:
                x = rows[o][t] - rows[o][t - 1]
                if x != 0:
                    expected[x] = expected.get(x, 0) + space.prob[o]
            assert list(law) == sorted(expected)
            assert law == {x: p / mass for x, p in expected.items()}
            empty += not law
    assert empty > 0


def _split_at_after_atoms(ref, tau):
    """The reference fibres at base atoms with an after-atom (an outcome
    with tau <= t - 1), where mart_mean is read, and the keys of the
    others, where it is not computed."""
    read = {k: v for k, v in ref.items()
            if any(tau[o] <= k[0] - 1 for o in k[1])}
    return read, [k for k in ref if k not in read]


def test_jump_functionals_stop(tree_space, walk, stop_analysis):
    # constant fundamental martingale: zero jump means everywhere; the
    # alive probability is one on the support where survival_left < 1
    # (at t=1 the deterministic time pins the inclusive supermartingale
    # at one together with its left limit, making it zero there while
    # the set identity still holds)
    jf = jump_functionals(walk, stop_analysis)
    assert all(v == 0 for v in jf.mart_mean.values())
    ref = ref_jump_fibres(tree_space, stop_analysis.tau, walk)
    read, unread = _split_at_after_atoms(ref, stop_analysis.tau)
    assert list(read) == list(jf.mart_mean)
    assert unread and not set(unread) & set(jf.mart_mean)
    for (t, base, x), (alive, _) in ref.items():
        left = stop_analysis.survival.at(base[0], t - 1)
        assert alive == (1 if left < 1 else 0)


def test_jump_functionals_tent(tree_space, walk, tent_analysis):
    jf = jump_functionals(walk, tent_analysis)
    ref = ref_jump_fibres(tree_space, tent_analysis.tau, walk)
    up_block = ("ud", "uu")
    assert ref[(2, up_block, Q(1))][0] == 1
    assert jf.mart_mean[(2, up_block, Q(1))] == Q(-1, 2)
    assert ref[(2, up_block, Q(-1))][0] == 0
    assert jf.mart_mean[(2, up_block, Q(-1))] == Q(1, 2)  # equals 1 - survival_left


def test_jump_fibre_facts_against_outcomes(class_h_cases):
    # per jump fibre, with left = Z_{t-1} on the base atom and alive the
    # reference probability that Z~_t < 1 on the fibre: mart_mean is the
    # fibre's mean of dM, {alive = 0} = {left + mean = 1}, 0 <= 1 - left
    # - mean <= alive, and Z~_t = 1 on every child of a dead fibre
    # (jump_functionals no longer checks these; they follow from
    # Z~ in [0, 1] and Z~_t = Z_{t-1} + dM_t)
    # mart_mean is computed only at base atoms with an after-atom
    dead = unread_total = 0
    for asset, analysis in class_h_cases:
        jf = jump_functionals(asset, analysis)
        ref = ref_jump_fibres(analysis.space, analysis.tau, asset)
        read, unread = _split_at_after_atoms(ref, analysis.tau)
        assert list(jf.mart_mean) == list(read)
        assert jf.mart_mean == {k: mean for k, (_, mean) in read.items()}
        assert not set(unread) & set(jf.mart_mean)
        unread_total += len(unread)
        for (t, base, x), (alive, mean) in ref.items():
            rest = 1 - analysis.survival.at(base[0], t - 1) - mean
            assert (alive == 0) == (rest == 0)
            assert 0 <= rest <= alive
            if alive == 0:
                dead += 1
                assert all(analysis.survival_incl.at(o, t) == 1
                           for o in base if asset.delta(o, t) == x)
    assert dead > 0 and unread_total > 0


def _enlarged_jump_law(asset, analysis, atom, x):
    """P(the asset jumps by x at atom.t | the after-atom), from first
    principles on the enlarged filtration."""
    t = atom.t
    return cond_average(analysis.enlarged, t,
                        analysis.enlarged.children(t - 1, atom.members),
                        lambda o: Q(1) if asset.delta(o, t) == x else Q(0))


def test_g_characteristics_tent(tree_space, walk, tent_analysis):
    assert g_characteristics(walk, tent_analysis) == []
    atom = [a for a in after_atoms(tent_analysis)
            if (a.t, a.members) == (2, ("uu",))][0]
    assert _enlarged_jump_law(walk, tent_analysis, atom, Q(1)) == 1
    assert _enlarged_jump_law(walk, tent_analysis, atom, Q(-1)) == 0


def test_g_characteristics_stop(tree_space, walk, stop_analysis):
    assert g_characteristics(walk, stop_analysis) == []
    # zero jump mean: the enlarged kernel is the restriction of the base one
    law = jump_functionals(walk, stop_analysis).law
    atoms = after_atoms(stop_analysis)
    assert any(law[(a.t, a.base)] for a in atoms)
    for atom in atoms:
        for x, p in law[(atom.t, atom.base)].items():
            assert _enlarged_jump_law(walk, stop_analysis, atom, x) == p


def test_g_characteristics_kernels(class_h_cases):
    # the enlarged kernel, density 1 - mart_mean/(1 - left) times the
    # base law, is nonnegative of mass at most one on every after-atom
    # (g_characteristics does not check it; its first-principles side,
    # which it equals, is a conditional law of disjoint jump events)
    for asset, analysis in class_h_cases:
        assert g_characteristics(asset, analysis) == []
        jf = jump_functionals(asset, analysis)
        for atom in after_atoms(analysis):
            t, base = atom.t, atom.base
            gap = 1 - analysis.survival.at(base[0], t - 1)
            kernel = [(1 - jf.mart_mean[(t, base, x)] / gap) * p
                      for x, p in jf.law[(t, base)].items()]
            assert all(p >= 0 for p in kernel)
            assert sum(kernel) <= 1


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
    assert g_compensator_after(bracket(asset, asset), analysis) == []
    assert proj_identity_check(_mart(asset, space), analysis) == []
    assert g_characteristics(asset, analysis) == []
    build_deflator(analysis)  # hard-asserts internally


def _deflator_drift_cases():
    # three martingales on each model: the compensated components of a
    # d = 3 draw, whose tree and time are those of the scalar model
    for seed in range(1, 61):
        for depth in range(3, 7):
            space, tau, components, analysis = generate_honest_model(
                seed, depth, branching=3, d=3)
            yield space, tau, analysis, [c - compensator(c, space)
                                         for c in components]


def test_deflator_drift_is_the_pinned_term():
    # E[d(D X)_t ; A] = D_{t-1}(A) (pi_B E[dM_t ; A] - gap_B E[dM_t ; B & J_t])
    # at zero tolerance on every after-atom A in its base atom B, with
    # X = M - M^tau; the left side read off the engine's rows (the
    # enlarged masses of A's children) against the outcome-by-outcome
    # reference, which also checks the identity itself
    atoms = obstructed = 0
    for space, tau, analysis, marts in _deflator_drift_cases():
        bundle = build_deflator(analysis)
        g = analysis.enlarged
        for mart in marts:
            product = bundle.deflator * analysis.after_part(mart)
            num, den = product.step_rows
            ref = ref_deflator_drift(space, tau, bundle.deflator, mart)
            assert [(t, a) for t, a, _, _ in ref] == [
                (a.t, a.members) for a in after_atoms(analysis)]
            for t, members, lhs, rhs in ref:
                a = g.block_of[t - 1][members[0]]
                engine = Q(sum(g.masses[t][j] * num[t][j]
                               for j in g.kids[t - 1][a]),
                           den[t] * g.scale)
                assert engine == lhs == rhs
                atoms += 1
                obstructed += lhs != 0
    assert atoms > 20_000 and obstructed > 0
