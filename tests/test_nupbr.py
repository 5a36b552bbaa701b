from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enlab.errors import DimensionTooLarge
from enlab.finite_prob import (
    adapted,
    build_space,
    compensator,
)
from enlab.nupbr import (
    corollary_check,
    levy_condition_check,
    nupbr_check,
    theorem2_crosscheck,
    transform,
    verify_witness,
)
from enlab.random_times import enlarge, generate_honest_model
from enlab.rng import SplitMix64
from enlab.simplex import solve_nonneg_equalities

from .oracles import grid_feasible, ref_jump_fibres, ref_values

Q = Fraction


# ---------------------------------------------------------------------------
# simplex
# ---------------------------------------------------------------------------

def test_simplex_feasible_system():
    rows = [[Q(1), Q(1), Q(1)], [Q(1), Q(-1), Q(0)]]
    x = solve_nonneg_equalities(rows, [Q(2), Q(0)])
    assert x is not None
    assert sum(x) == 2 and x[0] == x[1]
    assert all(v >= 0 for v in x)


def test_simplex_infeasible_system():
    rows = [[Q(1), Q(1)], [Q(1), Q(1)]]
    assert solve_nonneg_equalities(rows, [Q(1), Q(2)]) is None
    # nonnegativity makes a negative target unreachable
    assert solve_nonneg_equalities([[Q(1), Q(2)]], [Q(-1)]) is None


# ---------------------------------------------------------------------------
# verdicts on the curated tree
# ---------------------------------------------------------------------------

def test_martingale_satisfies(tree_space, walk):
    verdict = nupbr_check(walk, tree_space)
    assert verdict.satisfied
    # canonical weights are the conditional probabilities
    for weights in verdict.witness.node_weights.values():
        assert all(w == Q(1, 2) for w in weights)
    assert verify_witness(verdict, walk, tree_space)


def test_deterministic_drift_fails(tree_space):
    drift = adapted({o: [Q(t) for t in range(3)]
                     for o in tree_space.outcomes}, tree_space)
    verdict = nupbr_check(drift, tree_space)
    assert not verdict.satisfied
    assert verdict.witness.t == 1
    assert verdict.witness.direction == (Q(1),)
    assert verify_witness(verdict, drift, tree_space)


def test_after_part_fails_under_enlargement(tree_space, walk, tent_analysis):
    enlarged = enlarge(tree_space, tent_analysis)
    after = adapted(
        {o: [walk.at(o, t) - walk.at(o, min(t, tent_analysis.tau[o]))
             for t in range(3)] for o in tree_space.outcomes},
        tree_space, enlarged)
    verdict = nupbr_check(after, tree_space, enlarged)
    assert not verdict.satisfied
    assert verdict.witness.t == 2
    assert verify_witness(verdict, after, tree_space, enlarged)


def test_vector_verdict_and_dimension_guard(tree_space, walk):
    anti = adapted({o: [-v for v in row]
                    for o, row in ref_values(walk).items()}, tree_space)
    verdict = nupbr_check([walk, anti], tree_space)
    assert verdict.satisfied
    assert verify_witness(verdict, [walk, anti], tree_space)

    with pytest.raises(DimensionTooLarge):
        nupbr_check([walk] * 5, tree_space)


def test_vector_arbitrage_witness(tree_space, walk):
    drift = adapted({o: [Q(t) for t in range(3)]
                     for o in tree_space.outcomes}, tree_space)
    verdict = nupbr_check([walk, drift], tree_space)
    assert not verdict.satisfied
    assert verify_witness(verdict, [walk, drift], tree_space)


def test_verdict_json_roundtrip(tree_space, walk):
    import json
    verdict = nupbr_check(walk, tree_space)
    payload = json.loads(json.dumps(verdict.to_json()))
    assert payload["satisfied"] is True
    assert payload["witness"]["kind"] == "deflator"


# ---------------------------------------------------------------------------
# transform bundle
# ---------------------------------------------------------------------------

def test_transform_stop(tree_space, walk, stop_analysis):
    bundle = transform(walk, stop_analysis)
    assert ref_values(bundle.purged) == ref_values(walk)  # jump set empty
    for o in tree_space.outcomes:
        assert bundle.scaled.delta(o, 1) == 0
        assert bundle.scaled.delta(o, 2) == walk.delta(o, 2)


def test_transform_tent(tree_space, walk, tent_analysis):
    bundle = transform(walk, tent_analysis)
    expected_purged = {
        "uu": [0, 1, 2], "ud": [0, 1, 1], "du": [0, -1, -1], "dd": [0, -1, -2]}
    assert {o: list(map(Fraction, r)) for o, r in expected_purged.items()} == \
        {o: ref_values(bundle.purged)[o] for o in expected_purged}
    assert bundle.scaled.delta("uu", 2) == Q(1, 2)
    assert bundle.scaled.delta("ud", 2) == 0
    assert bundle.scaled.delta("du", 2) == 0
    assert bundle.scaled.delta("dd", 2) == Q(-1, 2)


def test_crosscheck_stop_all_true(tree_space, walk, stop_analysis):
    report = theorem2_crosscheck(walk, stop_analysis)
    assert report.a and report.b and report.c and report.agree
    assert report.jump_set_size == 0


def test_crosscheck_tent_all_false(tree_space, walk, tent_analysis):
    report = theorem2_crosscheck(walk, tent_analysis)
    assert not report.a and not report.b and not report.c
    assert report.agree
    assert report.jump_set_size == 2


def test_corollary_check(tree_space, walk, stop_analysis, tent_analysis):
    stop = corollary_check(walk, stop_analysis)
    assert stop.jump_set_empty and stop.after_nupbr_g
    assert stop.implication_observed

    tent = corollary_check(walk, tent_analysis)
    assert not tent.jumps_disjoint_from_jump_set
    assert not tent.after_nupbr_g
    assert tent.implication_observed  # hypothesis fails, nothing claimed

    flat = adapted({o: [Q(5)] * 3 for o in tree_space.outcomes}, tree_space)
    assert corollary_check(flat, tent_analysis).after_nupbr_g


def test_levy_condition(tree_space, walk, stop_analysis, tent_analysis):
    stop = levy_condition_check(walk, stop_analysis)
    assert stop.equivalent
    assert stop.theorem_hypothesis_holds

    tent = levy_condition_check(walk, tent_analysis)
    assert not tent.equivalent
    assert (2, ("ud", "uu"), Q(-1)) in tent.witnesses


def test_fully_alive_model_has_null_pinned_martingale():
    # generator-selected model where every jump fibre below the survival
    # barrier stays alive: support equivalence holds and the compensated
    # pinned-jump martingale vanishes identically
    for seed in range(1, 200):
        space, tau, asset, analysis = generate_honest_model(seed, depth=4,
                                                            branching=3)
        # fully alive: unit alive probability on every fibre below the
        # barrier, i.e. the asset never jumps together with the pinning
        below = [alive for (t, base, _), (alive, _) in
                 ref_jump_fibres(space, tau, asset).items()
                 if analysis.survival.at(base[0], t - 1) < 1]
        if not all(alive == 1 for alive in below):
            continue
        report = levy_condition_check(asset, analysis)
        assert report.equivalent and report.witnesses == ()
        return
    raise AssertionError("no fully alive model found in the seed range")


def test_levy_witnesses_are_the_dead_fibres_below_the_barrier(class_h_cases):
    # the support condition fails exactly at the fibres below the
    # barrier (Z_{t-1} < 1) where the reference alive probability is 0
    witnessed = 0
    for asset, analysis in class_h_cases:
        dead = tuple(
            (t, base, x) for (t, base, x), (alive, _) in
            ref_jump_fibres(analysis.space, analysis.tau, asset).items()
            if analysis.survival.at(base[0], t - 1) < 1 and alive == 0)
        report = levy_condition_check(asset, analysis)
        assert report.witnesses == dead
        assert report.equivalent == (not dead)
        witnessed += bool(dead)
    assert 0 < witnessed < len(class_h_cases)


# ---------------------------------------------------------------------------
# properties over generated models
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6))
def test_witness_soundness_on_models(seed):
    space, tau, asset, analysis = generate_honest_model(seed, depth=4,
                                                        branching=3)
    report = theorem2_crosscheck(asset, analysis)
    enlarged = enlarge(space, analysis)
    after = adapted(
        {o: [asset.at(o, t) - asset.at(o, min(t, tau[o]))
             for t in range(space.horizon + 1)] for o in space.outcomes},
        space, enlarged)
    assert verify_witness(report.after_g, after, space, enlarged)
    bundle = transform(asset, analysis)
    assert verify_witness(report.scaled_f, bundle.scaled, space)
    assert verify_witness(report.indicator_f, bundle.indicator_scaled, space)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6))
def test_predictable_nonconstant_after_part_fails(seed):
    # a predictable finite-variation process moving after the time is
    # never viable: the node increment is deterministic and nonzero
    space, tau, _, analysis = generate_honest_model(seed, depth=4,
                                                    branching=3)
    enlarged = enlarge(space, analysis)
    rng = SplitMix64(seed)
    moved = False
    values = {o: [Q(0)] * (space.horizon + 1) for o in space.outcomes}
    steps = {}
    for t in range(1, space.horizon + 1):
        for atom in enlarged.partitions[t - 1]:
            after = all(tau[o] <= t - 1 for o in atom)
            step = Q(rng.randint(1, 3)) if after else Q(0)
            steps[(t, atom)] = step
            if after:
                moved = True
            for o in atom:
                values[o][t] = values[o][t - 1] + step
    if not moved:
        return
    proc = adapted(values, space, enlarged)
    verdict = nupbr_check(proc, space, enlarged)
    assert not verdict.satisfied
    assert verify_witness(verdict, proc, space, enlarged)


def test_transform_after_part_invariant(class_h_cases):
    # purging touches only the stopped part: every increment strictly
    # after the time is the asset's, and the purged asset does not move
    # on the jump set, which lies before the time (Z~_t = 1 on an atom
    # forces tau >= t on all of it)
    for asset, analysis in class_h_cases:
        purged = transform(asset, analysis).purged
        tau, space = analysis.tau, analysis.space
        for o in space.outcomes:
            for t in range(tau[o] + 1, space.horizon + 1):
                assert purged.delta(o, t) == asset.delta(o, t)
        for t, block in analysis.jump_set:
            assert all(tau[o] >= t for o in block)
            assert purged.delta(block[0], t) == 0


# ---------------------------------------------------------------------------
# grid-oracle agreement on one-step instances
# ---------------------------------------------------------------------------

def _one_step_space(n, rng):
    outcomes = [f"w{i}" for i in range(n)]
    raw = [rng.randint(1, 4) for _ in range(n)]
    total = sum(raw)
    prob = {o: Fraction(raw[i], total) for i, o in enumerate(outcomes)}
    return build_space({"outcomes": outcomes, "prob": prob,
                        "partitions": [[outcomes], [[o] for o in outcomes]]})


def test_grid_oracle_agreement_200():
    rng = SplitMix64(2024)
    for case in range(200):
        n = rng.randint(2, 3)
        d = rng.randint(1, 2)
        space = _one_step_space(n, rng)
        vectors = [tuple(Q(rng.randint(-3, 3)) for _ in range(d))
                   for _ in range(n)]
        comps = [adapted({o: [Q(0), vectors[i][k]]
                          for i, o in enumerate(space.outcomes)}, space)
                 for k in range(d)]
        x = comps[0] if d == 1 else comps
        verdict = nupbr_check(x, space)
        assert verdict.satisfied == grid_feasible(vectors, 40), \
            f"case {case}: {vectors}"
        assert verify_witness(verdict, x, space)
