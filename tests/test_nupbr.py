from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enlab import nupbr
from enlab.errors import DimensionTooLarge
from enlab.finite_prob import (
    ONE,
    ZERO,
    adapted,
    build_space,
    compensator,
)
from enlab.nupbr import (
    ArbitrageWitness,
    NupbrVerdict,
    corollary_check,
    levy_condition_check,
    node_verdicts,
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


def test_witness_check_rejects_zero_and_losing_directions(tree_space, walk):
    # an arbitrage direction must gain somewhere and lose nowhere: the
    # zero direction gains nothing, and (1,) on the walk loses on "d*"
    drift = adapted({o: [Q(t) for t in range(3)]
                     for o in tree_space.outcomes}, tree_space)
    f = tree_space.filtration
    root = f.partitions[0][0]

    def planted(direction):
        return NupbrVerdict(False, ArbitrageWitness(1, root, direction),
                            f.label)

    assert verify_witness(planted((Q(1),)), drift, tree_space)
    assert not verify_witness(planted((Q(0),)), drift, tree_space)
    assert not verify_witness(planted((Q(1),)), walk, tree_space)
    assert not verify_witness(planted((Q(0), Q(0))), [walk, drift],
                              tree_space)


@pytest.mark.parametrize("d", [3, 4])
def test_verdicts_at_the_dimension_bound(d):
    # the base filtration of generated d-dimensional models: every node
    # of the walk re-verifies, and the compensated components (a
    # martingale vector) get a deflator that re-verifies
    for seed in range(1, 6):
        space, _, asset, _ = generate_honest_model(seed, 4, 3, d=d)
        verdict = nupbr_check(asset, space)
        assert not verdict.satisfied
        assert verify_witness(verdict, asset, space)
        label = space.filtration.label
        for _, node in node_verdicts(asset, space):
            if isinstance(node, ArbitrageWitness):
                assert verify_witness(NupbrVerdict(False, node, label),
                                      asset, space)
        mart = [c - compensator(c, space) for c in asset]
        verdict = nupbr_check(mart, space)
        assert verdict.satisfied
        assert verify_witness(verdict, mart, space)


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


@pytest.mark.parametrize("d", [2, 3, 4])
def test_crosscheck_of_vector_assets(d):
    # each process is the list of its components' processes, every
    # verdict re-verifies, and b == c: per node, the gap-scaled and the
    # gated increments differ by the positive factor 1 - Z_{t-1}, or
    # both vanish
    for seed in range(1, 6):
        space, _, asset, analysis = generate_honest_model(seed, 4, 3, d=d)
        report = theorem2_crosscheck(asset, analysis)
        for processes in (report.after, report.scaled,
                          report.indicator_scaled):
            assert isinstance(processes, list) and len(processes) == d
        for component, after, jumps in zip(asset, report.after,
                                           analysis.jump_part(asset)):
            assert ref_values(after) == ref_values(
                analysis.after_part(component))
            assert ref_values(jumps) == ref_values(
                analysis.jump_part(component))
        assert verify_witness(report.after_g, report.after, space,
                              analysis.enlarged)
        assert verify_witness(report.scaled_f, report.scaled, space)
        assert verify_witness(report.indicator_f, report.indicator_scaled,
                              space)
        assert report.b == report.c


def test_crosscheck_of_a_vector_on_the_tree(tree_space, walk, stop_analysis):
    anti = adapted({o: [-v for v in row]
                    for o, row in ref_values(walk).items()}, tree_space)
    report = theorem2_crosscheck([walk, anti], stop_analysis)
    assert report.a and report.b and report.c
    assert verify_witness(report.after_g, report.after, tree_space,
                          stop_analysis.enlarged)
    assert verify_witness(report.scaled_f, report.scaled, tree_space)


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


def test_indicator_gate_against_outcomes(class_h_cases):
    # the indicator-gated asset moves by the purged increment where
    # Z_{t-1} = P(tau > t - 1 | atom) < 1 and stays put where Z_{t-1} = 1,
    # with Z summed outcome by outcome
    gated = 0
    for asset, analysis in class_h_cases:
        space, tau = analysis.space, analysis.tau
        bundle = transform(asset, analysis)
        for t in range(1, space.horizon + 1):
            for block in space.filtration.partitions[t - 1]:
                mass = sum(space.prob[o] for o in block)
                alive = sum(space.prob[o] for o in block if tau[o] > t - 1)
                for o in block:
                    step = bundle.purged.delta(o, t)
                    assert bundle.indicator_scaled.delta(o, t) == (
                        step if alive < mass else 0)
                    gated += alive == mass and step != 0
    assert gated > 0


# ---------------------------------------------------------------------------
# grid-oracle agreement on one-step instances
# ---------------------------------------------------------------------------

def _one_step_instances(seed, count=200):
    """(space, process, child increment vectors) of `count` one-step
    instances drawn from SplitMix64(seed): 2-3 outcomes of masses 1-4,
    dimension 1-2, integer increments in [-3, 3].  Seed 99 draws the
    instances of acceptance criterion 3, in its order."""
    rng = SplitMix64(seed)
    for _ in range(count):
        n = rng.randint(2, 3)
        d = rng.randint(1, 2)
        outcomes = [f"w{i}" for i in range(n)]
        raw = [rng.randint(1, 4) for _ in range(n)]
        prob = {o: Fraction(raw[i], sum(raw)) for i, o in enumerate(outcomes)}
        space = build_space({"outcomes": outcomes, "prob": prob,
                             "partitions": [[outcomes],
                                            [[o] for o in outcomes]]})
        vectors = [tuple(Q(rng.randint(-3, 3)) for _ in range(d))
                   for _ in range(n)]
        comps = [adapted({o: [Q(0), vectors[i][k]]
                          for i, o in enumerate(outcomes)}, space)
                 for k in range(d)]
        yield space, comps[0] if d == 1 else comps, vectors


def test_grid_oracle_agreement_200():
    for case, (space, x, vectors) in enumerate(_one_step_instances(2024)):
        verdict = nupbr_check(x, space)
        assert verdict.satisfied == grid_feasible(vectors, 40), \
            f"case {case}: {vectors}"
        assert verify_witness(verdict, x, space)


# ---------------------------------------------------------------------------
# the node walk: every node against the grid oracle, and its LP work
# ---------------------------------------------------------------------------

def _integer_tree(seed, depth=3):
    """A tree of the given depth whose nodes have 2 or 3 children, leaf
    masses 1-4, and a process of dimension 1 or 2 with integer increments
    in [-3, 3], drawn per node from SplitMix64(seed): (space, process,
    steps), steps mapping each node (its outcomes' common prefix) to its
    increment."""
    rng = SplitMix64(seed)
    d = rng.randint(1, 2)
    leaves = [""]
    for _ in range(depth):
        leaves = [p + str(c) for p in leaves for c in range(rng.randint(2, 3))]
    steps = {}
    for o in leaves:
        for t in range(1, depth + 1):
            if o[:t] not in steps:
                steps[o[:t]] = tuple(Q(rng.randint(-3, 3)) for _ in range(d))
    raw = {o: rng.randint(1, 4) for o in leaves}
    partitions = [[[o for o in leaves if o[:t] == p]
                   for p in dict.fromkeys(o[:t] for o in leaves)]
                  for t in range(depth + 1)]
    space = build_space({"outcomes": leaves,
                         "prob": {o: Q(m, sum(raw.values()))
                                  for o, m in raw.items()},
                         "partitions": partitions})
    comps = [adapted({o: [sum((steps[o[:s]][k] for s in range(1, t + 1)),
                              Q(0)) for t in range(depth + 1)]
                      for o in leaves}, space)
             for k in range(d)]
    return space, comps[0] if d == 1 else comps, steps


def _check_node(key, node, vectors):
    """The facts a node verdict carries, from its children's increments:
    weights strictly positive, summing to one, with zero weighted
    increment; or a witness naming the node whose direction, in coprime
    integers, gains on no child less than zero and on some child more.
    Returns whether the node is viable."""
    if isinstance(node, ArbitrageWitness):
        assert (node.t, node.atom) == key
        assert all(h.denominator == 1 for h in node.direction)
        assert gcd(*(int(h) for h in node.direction)) == 1
        gains = [sum(h * c for h, c in zip(node.direction, v))
                 for v in vectors]
        assert all(g >= 0 for g in gains) and any(g > 0 for g in gains)
        return False
    assert len(node) == len(vectors)
    assert all(w > 0 for w in node) and sum(node) == 1
    assert all(sum(w * v[k] for w, v in zip(node, vectors)) == 0
               for k in range(len(vectors[0])))
    return True


def test_node_walk_against_grid_oracle():
    # every node the walk yields, on criterion 3's instances and on
    # multi-step integer trees, agrees with the grid oracle and carries
    # its facts; nupbr_check is the walk's first failing node, or the
    # weights of all of them
    walks = [(space, x, {(1, space.filtration.partitions[0][0]): vectors})
             for space, x, vectors in _one_step_instances(99)]
    for seed in range(1, 7):
        space, x, steps = _integer_tree(seed)
        f = space.filtration
        walks.append((space, x, {
            (t, atom): [steps[child[0][:t]]
                        for child in f.children(t - 1, atom)]
            for t in range(1, space.horizon + 1)
            for atom in f.partitions[t - 1]}))
    viable = failing = 0
    for space, x, increments in walks:
        walk = list(node_verdicts(x, space))
        assert [key for key, _ in walk] == list(increments)
        for key, node in walk:
            ok = _check_node(key, node, increments[key])
            assert ok == grid_feasible(increments[key], 40), increments[key]
            viable += ok
            failing += not ok
        verdict = nupbr_check(x, space)
        first = next((node for _, node in walk
                      if isinstance(node, ArbitrageWitness)), None)
        if first is None:
            assert verdict.satisfied
            assert verdict.witness.node_weights == dict(walk)
        else:
            assert verdict.witness == first
    assert viable > 0 and failing > 0


def _weight_lp(vectors, j):
    d, n = len(vectors[0]), len(vectors)
    rows = [[v[k] for v in vectors] for k in range(d)]
    rows.append([ONE if i == j else ZERO for i in range(n)])
    return rows, [ZERO] * d + [ONE]


def _direction_lp(vectors, j):
    d, n = len(vectors[0]), len(vectors)
    rows = [list(v) + [-c for c in v] + [-ONE if c == i else ZERO
                                         for c in range(n)]
            for i, v in enumerate(vectors)]
    return rows, [ONE if i == j else ZERO for i in range(n)]


def test_weight_and_direction_lps_pair_up():
    # Farkas: per child j, exactly one of the weight LP (q >= 0, q_j = 1,
    # zero weighted increment) and the direction LP (h.v_i >= 0 for all
    # i, h.v_j >= 1) is feasible, so a node whose weight LP fails at j
    # always has a separating direction there
    pairs = 0
    for _, _, vectors in _one_step_instances(99):
        for j in range(len(vectors)):
            weights = solve_nonneg_equalities(*_weight_lp(vectors, j))
            direction = solve_nonneg_equalities(*_direction_lp(vectors, j))
            assert (weights is None) != (direction is None), vectors
            pairs += direction is not None
    assert pairs > 0


def _record_lps(monkeypatch):
    """The (rows, rhs, solution) of every LP that the node walk solves."""
    calls = []

    def counted(rows, rhs):
        sol = solve_nonneg_equalities(rows, rhs)
        calls.append((rows, rhs, sol))
        return sol

    monkeypatch.setattr(nupbr, "solve_nonneg_equalities", counted)
    return calls


def _lp_trace(calls, vectors):
    """Each recorded LP as (kind, child, feasible)."""
    lps = {("weight", j): _weight_lp(vectors, j) for j in range(len(vectors))}
    lps.update({("direction", j): _direction_lp(vectors, j)
                for j in range(len(vectors))})
    return [next(name for name, lp in lps.items() if lp == (rows, rhs))
            + (sol is not None,) for rows, rhs, sol in calls]


def test_failing_node_solves_one_direction_lp(monkeypatch):
    # the weight LPs run child by child and stop at the first infeasible
    # one; that child's direction LP is the only direction LP solved.
    # Scalar nodes and nodes where the conditional probabilities already
    # give zero mean increment solve none.
    calls = _record_lps(monkeypatch)
    space = build_space({"outcomes": ["a", "b", "c"],
                         "prob": dict.fromkeys("abc", Q(1, 3)),
                         "partitions": [[["a", "b", "c"]],
                                        [["a"], ["b"], ["c"]]]})
    rows = {"a": (1, 0), "b": (0, 1), "c": (-1, 0)}
    x = [adapted({o: [Q(0), Q(v[k])] for o, v in rows.items()}, space)
         for k in range(2)]
    [(_, node)] = node_verdicts(x, space)
    assert node.direction == (0, 1)
    vectors = [tuple(map(Q, v)) for v in rows.values()]
    assert _lp_trace(calls, vectors) == [
        ("weight", 0, True), ("weight", 1, False), ("direction", 1, True)]

    failing = 0
    for space, x, vectors in _one_step_instances(99):
        calls.clear()
        [(_, node)] = node_verdicts(x, space)
        probs = [space.prob[o] for o in space.outcomes]
        if len(vectors[0]) == 1 or all(
                sum(p * v[k] for p, v in zip(probs, vectors)) == 0
                for k in range(len(vectors[0]))):
            assert calls == []
            continue
        j = next((j for j in range(len(vectors)) if solve_nonneg_equalities(
            *_weight_lp(vectors, j)) is None), None)
        if j is None:
            assert not isinstance(node, ArbitrageWitness)
            assert _lp_trace(calls, vectors) == [
                ("weight", i, True) for i in range(len(vectors))]
        else:
            failing += 1
            assert _lp_trace(calls, vectors) == [
                ("weight", i, True) for i in range(j)] + [
                ("weight", j, False), ("direction", j, True)]
    assert failing > 0
