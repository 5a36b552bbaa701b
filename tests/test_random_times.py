from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enlab.enlargement import after_atoms
from enlab.errors import GenerationExhausted, NotHonest, SchemaError
from enlab.finite_prob import build_space, is_martingale
from enlab.random_times import (
    RandomTimeMap,
    analyze,
    enlarge,
    generate_honest_model,
)

from .conftest import COARSE, TREE, every_time
from .oracles import (
    enum_after_atoms,
    enum_enlarged,
    enum_honest,
    enum_stopping_time,
    ref_cond_exp,
    ref_values,
)

Q = Fraction


def test_stop_analysis(tree_space, stop_analysis):
    a = stop_analysis
    assert a.is_stopping_time and a.honest and a.class_h
    for o in tree_space.outcomes:
        assert [a.survival.at(o, t) for t in range(3)] == [1, 0, 0]
        assert a.survival_incl.at(o, 1) == 1
        # stopping times sit at survival zero when they occur
        assert a.survival.at(o, a.tau[o]) == 0
    assert a.jump_set == ()


def test_tent_analysis(tree_space, tent_analysis):
    a = tent_analysis
    assert a.honest and a.class_h and not a.is_stopping_time
    for o in tree_space.outcomes:
        assert a.survival.at(o, 0) == Q(1, 2)
        assert a.survival.at(o, 1) == Q(1, 2)
        assert a.survival.at(o, 2) == 0
        assert a.survival_incl.at(o, 0) == 1
        assert a.survival_incl.at(o, 1) == Q(1, 2)
        assert a.survival_incl.at(o, 2) == (1 if o in ("ud", "du") else 0)
        m = a.fundamental_martingale
        assert m.at(o, 0) == 1 and m.at(o, 1) == 1
        assert m.at(o, 2) == Q(1, 2) + (1 if o in ("ud", "du") else 0)
    assert a.jump_set == ((2, ("du",)), (2, ("ud",)))
    assert is_martingale(a.fundamental_martingale, tree_space).ok


def test_survival_is_supermartingale(tree_space, tent_analysis):
    a = tent_analysis
    f = tree_space.filtration
    for t in (1, 2):
        for block in f.partitions[t - 1]:
            drift = sum(tree_space.prob[o] * a.survival.delta(o, t)
                        for o in block)
            assert drift <= 0


def test_non_honest_fixture_depth3():
    # two outcomes sharing a depth-2 atom carry different past values of
    # the time, so no measurable version can recover it
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
    assert not analysis.honest
    assert not analysis.class_h  # class-H requires honesty first


def test_tau_validation(tree_space):
    with pytest.raises(SchemaError):
        RandomTimeMap.build({"uu": 0, "ud": 1, "du": 1}, tree_space)
    with pytest.raises(SchemaError):
        RandomTimeMap.build({"uu": 0, "ud": 1, "du": 1, "dd": 5}, tree_space)


def test_enlarge_stop(tree_space, stop_analysis):
    enlarged = enlarge(tree_space, stop_analysis)
    assert enlarged.partitions == tree_space.filtration.partitions


def test_enlarge_tent(tree_space, tent_analysis):
    enlarged = enlarge(tree_space, tent_analysis)
    assert enlarged.partitions[1] == (("dd",), ("du",), ("ud",), ("uu",))
    assert enlarged.label == "G"


def test_enlarge_time_zero(tree_space):
    zero = RandomTimeMap.build({o: 0 for o in tree_space.outcomes}, tree_space)
    enlarged = enlarge(tree_space, analyze(tree_space, zero))
    assert enlarged.partitions == tree_space.filtration.partitions


def _assert_survival_facts(a):
    # what analyze makes true by construction and does not re-test: Z and
    # the inclusive Z lie in [0, 1], Z_T = 0, and inclusive
    # Z_t = Z_{t-1} + dM_t at every node
    f = a.space.filtration
    surv, incl = a.survival.nodes, a.survival_incl.nodes
    steps = a.fundamental_martingale.steps
    assert all(0 <= z <= 1 for rows in (surv, incl) for row in rows
               for z in row)
    assert not any(surv[f.horizon])
    for t in range(1, f.horizon + 1):
        assert incl[t] == [surv[t - 1][p] + dm
                           for p, dm in zip(f.up[t], steps[t])]


@pytest.mark.parametrize("description", [TREE, COARSE], ids=["tree", "coarse"])
def test_split_against_enumeration(description):
    # every time with values in {0, 1, 2}: the flags, the enlarged atoms
    # and the after-atoms read from the one split, against exhaustive
    # scans of the atoms
    seen = set()
    for tau, a in every_time(description):
        _assert_survival_facts(a)
        assert a.honest == enum_honest(description, tau)
        assert a.is_stopping_time == enum_stopping_time(description, tau)
        assert [set(map(frozenset, part)) for part in a.enlarged.partitions
                ] == enum_enlarged(description, tau)
        atoms, unpinned = enum_after_atoms(description, tau)
        if unpinned is None:
            got = [(x.t, frozenset(x.base), frozenset(x.members))
                   for x in after_atoms(a)]
            assert set(got) == atoms and len(got) == len(atoms)
            assert [t for t, _, _ in got] == sorted(t for t, _, _ in got)
        else:
            s, bases = unpinned
            with pytest.raises(NotHonest, match=f"at t={s}$") as info:
                after_atoms(a)
            assert any(str(tuple(sorted(b))) in str(info.value)
                       for b in bases)
        seen.add((a.honest, unpinned is None))
    # honest times, times unpinned before the horizon, and (on COARSE)
    # times dishonest only at the horizon all occur
    assert {(True, True), (False, False)} <= seen
    assert ((False, True) in seen) == (description is COARSE)


def test_generator_determinism():
    one = generate_honest_model(42, depth=4, branching=3)
    two = generate_honest_model(42, depth=4, branching=3)
    assert one[0].prob == two[0].prob
    assert one[1].tau == two[1].tau
    assert ref_values(one[2]) == ref_values(two[2])


def test_generator_vector_asset():
    space, tau, asset, _ = generate_honest_model(17, depth=3, branching=3, d=2)
    assert isinstance(asset, list) and len(asset) == 2
    analysis = analyze(space, tau)
    assert analysis.honest and analysis.class_h
    from enlab.nupbr import nupbr_check, verify_witness
    verdict = nupbr_check(asset, space)
    assert verify_witness(verdict, asset, space)


def test_generator_bounds():
    with pytest.raises(GenerationExhausted):
        generate_honest_model(1, depth=9, branching=3)
    with pytest.raises(GenerationExhausted):
        generate_honest_model(1, depth=3, branching=5)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6))
def test_generated_models_are_honest_class_h(seed):
    space, tau, _, _ = generate_honest_model(seed, depth=4, branching=3)
    analysis = analyze(space, tau)
    assert analysis.honest and analysis.class_h


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6))
def test_stopping_times_are_honest_class_h_with_zero_survival(seed):
    # first-visit times are stopping times; they must land in the class
    # with survival exactly zero at the time
    space, _, asset, _ = generate_honest_model(seed, depth=4, branching=3)
    rows = ref_values(asset)
    level = rows[space.outcomes[0]][0]
    tau_map = {}
    for o in space.outcomes:
        hits = [t for t in range(1, space.horizon + 1)
                if rows[o][t] <= level - 1]
        tau_map[o] = min(hits) if hits else space.horizon
    tau = RandomTimeMap.build(tau_map, space)
    analysis = analyze(space, tau)
    assert analysis.is_stopping_time
    assert analysis.honest and analysis.class_h
    for o in space.outcomes:
        assert analysis.survival.at(o, tau[o]) == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6))
def test_survival_increment_identity_and_bounds(seed):
    space, tau, _, _ = generate_honest_model(seed, depth=4, branching=3)
    a = analyze(space, tau)
    for o in space.outcomes:
        for t in range(1, space.horizon + 1):
            assert a.survival_incl.at(o, t) == (
                a.survival.at(o, t - 1) + a.fundamental_martingale.delta(o, t))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6))
def test_open_interval_equality_after_tau(seed):
    # strictly after the time, the two supermartingales agree on every
    # path whose current atom holds no outcome exiting exactly now
    space, tau, _, _ = generate_honest_model(seed, depth=4, branching=3)
    a = analyze(space, tau)
    f = space.filtration
    for o in space.outcomes:
        for t in range(tau[o] + 1, space.horizon + 1):
            block = f.partitions[t][f.block_of[t][o]]
            if any(tau[other] == t for other in block):
                continue
            assert a.survival.at(o, t) == a.survival_incl.at(o, t)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6))
def test_left_survival_gap_bounded_below(seed):
    # finite-horizon form of the local lower bound on 1 - survival_left:
    # over the finitely many atoms with survival < 1 the gap has a
    # strictly positive minimum
    space, tau, _, _ = generate_honest_model(seed, depth=4, branching=3)
    a = analyze(space, tau)
    gaps = [1 - a.survival.at(o, t)
            for o in space.outcomes for t in range(space.horizon + 1)
            if a.survival.at(o, t) < 1]
    assert gaps and min(gaps) > 0


@pytest.mark.parametrize("seed", range(1, 21))
def test_analysis_against_outcome_references(seed):
    # the survival processes, the occurrence projection and the jump set,
    # from per-outcome conditional expectations of indicator rows
    space, tau, _, a = generate_honest_model(seed, depth=5, branching=3)
    prob, parts = space.prob, space.filtration.partitions

    def projected(indicator, t):
        return ref_cond_exp({o: Q(1 if indicator(o) else 0)
                             for o in space.outcomes}, t, prob, parts)

    survival, incl, occurrence, jump_set = [], [], [], []
    for t in range(space.horizon + 1):
        survival.append(projected(lambda o: t < tau[o], t))
        incl.append(projected(lambda o: t <= tau[o], t))
        hit = projected(lambda o: tau[o] == t, t)
        occurrence.append({o: (occurrence[-1][o] if t else 0) + hit[o]
                           for o in space.outcomes})
        jump_set += [(t, block) for block in parts[t] if t
                     and incl[t][block[0]] == 1
                     and survival[t - 1][block[0]] < 1]
    for process, ref in ((a.survival, survival), (a.survival_incl, incl),
                         (a.occurrence_proj, occurrence)):
        assert ref_values(process) == {
            o: [ref[t][o] for t in range(space.horizon + 1)]
            for o in space.outcomes}
    assert a.jump_set == tuple(jump_set)
    _assert_survival_facts(a)


# ---------------------------------------------------------------------------
# The jump part and the gate of the after integral
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(1, 21))
def test_jump_part_against_reference_loop(seed):
    space, _, asset, a = generate_honest_model(seed, depth=5, branching=3)
    f = space.filtration
    jump_set = set(a.jump_set)
    expected = {}
    for o in space.outcomes:
        row = [Q(0)]
        for t in range(1, space.horizon + 1):
            hit = (t, f.partitions[t][f.block_of[t][o]]) in jump_set
            row.append(row[-1] + (asset.delta(o, t) if hit else 0))
        expected[o] = row
    part = a.jump_part(asset)
    assert ref_values(part) == expected
    assert part.filtration.label == "F"


def test_jump_part_on_tent(tree_space, tent_analysis, walk):
    # the jump set is {(2, ud), (2, du)}, where the walk steps back to 0
    part = tent_analysis.jump_part(walk)
    assert ref_values(part) == {"uu": [0, 0, 0], "ud": [0, 0, -1],
                           "du": [0, 0, 1], "dd": [0, 0, 0]}


@pytest.mark.parametrize("seed", range(1, 21))
def test_after_integral_evaluates_only_strictly_after(seed):
    space, tau, _, a = generate_honest_model(seed, depth=5, branching=3)

    def step(o, t):
        assert t - 1 >= tau[o], f"evaluated before the time at ({o}, {t})"
        return Q(t)

    after = a.after_integral(step)
    for o in space.outcomes:
        assert ref_values(after)[o] == [
            Q(sum(s for s in range(1, t + 1) if s - 1 >= tau[o]))
            for t in range(space.horizon + 1)]
    assert after.filtration.label == "G"
