from __future__ import annotations

import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enlab.enlargement import after_atoms
from enlab.errors import GenerationExhausted, NotHonest, SchemaError
from enlab import random_times
from enlab.finite_prob import AdaptedProcess, build_space, is_martingale
from enlab.model_io import dump_model
from enlab.random_times import (
    _BRANCH_WEIGHTS,
    BRANCHINGS,
    DEPTHS,
    RandomTimeMap,
    analyze,
    enlarge,
    generate_honest_model,
)
from enlab.rng import SplitMix64

from .conftest import COARSE, TREE, every_time
from .oracles import (
    enum_after_atoms,
    enum_enlarged,
    enum_honest,
    enum_stopping_time,
    enum_survival,
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


# sha256 of the canonical bytes of every model in the generator's scope
# (each depth and branching, seeds 1-3, d = 2): a change to how models
# are drawn or analysed must leave every byte in place
GENERATOR_SCOPE_SHA256 = (
    "6ce8126c9061f190982cfd98922d71171af09438fe67ad7f311cae28199572b0")


def _model_bytes(seed: int, depth: int, branching: int) -> bytes:
    """The model file of the first component (the d = 1 asset: the
    components draw from forks taken in order), every component's nodes,
    and the analysis: both survivals, the jump set, the split and the
    three flags."""
    space, tau, asset, a = generate_honest_model(seed, depth, branching, d=2)

    def strings(x):
        return [[str(v) for v in row] for row in x.nodes]

    payload = {"model": dump_model(space, tau, asset[0]),
               "components": [strings(c) for c in asset],
               "survival": strings(a.survival),
               "survival_incl": strings(a.survival_incl),
               "jump_set": a.jump_set, "split": a.split,
               "flags": [a.honest, a.class_h, a.is_stopping_time]}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def test_generator_bytes_over_its_whole_scope():
    digest = hashlib.sha256()
    for depth in DEPTHS:
        for branching in BRANCHINGS:
            for seed in (1, 2, 3):
                digest.update(_model_bytes(seed, depth, branching))
    assert digest.hexdigest() == GENERATOR_SCOPE_SHA256


def test_first_component_is_the_scalar_asset():
    one = generate_honest_model(5, depth=4, branching=3)
    two = generate_honest_model(5, depth=4, branching=3, d=2)
    assert ref_values(one[2]) == ref_values(two[2][0])
    assert one[1].tau == two[1].tau


@pytest.mark.parametrize("seed, u64, ints, weights, forked, after", [
    (1, [10451216379200822465, 13757245211066428519, 17911839290282890590],
     [4, 2, 1, 2], [3, 1, 3, 3],
     [6492591477144452079, 11624700144490430703], 8392123148533390784),
    # the stream of generator seed 1: (1 << 8) ^ 0xE17AB
    (923307, [16418193860844816695, 7926414673390744866, 5516834420066747362],
     [1, 3, 2, 3], [3, 1, 3, 2],
     [17919101070393587202, 16975976863014139849], 9393356010654485605),
])
def test_splitmix64_known_answers(seed, u64, ints, weights, forked, after):
    # every generated model rests on this stream: its first words, draws
    # and fork, in the order the generator takes them
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(3)] == u64
    assert [rng.randint(1, 4) for _ in range(4)] == ints
    assert [rng.choice(_BRANCH_WEIGHTS) for _ in range(4)] == weights
    child = rng.fork(101)
    assert [child.next_u64() for _ in range(2)] == forked
    assert rng.next_u64() == after


@pytest.mark.parametrize("seed", range(1, 9))
def test_last_visit_against_an_outcome_scan(seed):
    # node by node down the tree against the per-outcome definition: the
    # largest t with a hit, 0 when there is none
    space, _, asset, _ = generate_honest_model(seed, depth=4, branching=3)
    rows = ref_values(asset)
    levels = {v for row in rows.values() for v in row}
    for hit in (lambda v: v <= min(levels), lambda v: v > 0,
                lambda v: v == 1, lambda v: False):
        expected = {o: max([t for t, v in enumerate(row) if hit(v)],
                           default=0) for o, row in rows.items()}
        assert random_times.last_visit(space, asset, hit).tau == expected


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


def test_generator_builds_each_model_once(monkeypatch):
    # over the generator's whole scope the one model built from a seed is
    # a last visit on a full-support tree, honest and class H by
    # enumeration, so nothing is resampled: analyze runs once per model
    calls = []
    real = random_times.analyze
    monkeypatch.setattr(random_times, "analyze",
                        lambda *args: calls.append(args) or real(*args))
    models = 0
    for depth in DEPTHS:
        for branching in BRANCHINGS:
            for seed in (1, 2, 3):
                space, tau, _, analysis = generate_honest_model(
                    seed, depth, branching)
                models += 1
                assert all(p > 0 for p in space.prob.values())
                description = {"prob": space.prob,
                               "partitions": space.filtration.partitions}
                assert enum_honest(description, tau)
                survival = [enum_survival(description, tau, t)
                            for t in range(depth + 1)]
                assert all(survival[tau[o]][o] < 1 for o in space.outcomes)
                assert analysis.honest and analysis.class_h
    assert len(calls) == models


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


def _gap_cases(stop_analysis, tent_analysis):
    yield stop_analysis
    yield tent_analysis
    for seed in range(1, 9):
        yield generate_honest_model(seed, depth=5, branching=3)[3]


def test_gaps_are_one_minus_survival(stop_analysis, tent_analysis):
    for a in _gap_cases(stop_analysis, tent_analysis):
        for gap, survival in ((a.gap, a.survival),
                              (a.gap_incl, a.survival_incl)):
            assert gap.filtration is survival.filtration
            assert gap.nodes == [[1 - v for v in row]
                                 for row in survival.nodes]


def test_gaps_follow_a_replaced_survival(stop_analysis, tent_analysis):
    # the gaps are derived from the survivals of the analysis they are
    # read on, so a replaced survival (as the planted-fault tests make)
    # reaches every reader of the gap
    for a in _gap_cases(stop_analysis, tent_analysis):
        a.gap_incl, a.gap  # derived on the original first
        f = a.space.filtration
        halved = AdaptedProcess.from_nodes(
            f, [[v / 2 for v in row] for row in a.survival_incl.nodes])
        for field, gap in (("survival_incl", "gap_incl"),
                           ("survival", "gap")):
            moved = dataclasses.replace(a, **{field: halved})
            assert getattr(moved, gap).nodes == [
                [1 - v / 2 for v in row] for row in a.survival_incl.nodes]
            assert getattr(moved, gap).filtration is f


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
    # the row at t holds t at the base atoms holding an atom strictly
    # after the time, and a poison value elsewhere, which the gather
    # must never read
    space, tau, _, a = generate_honest_model(seed, depth=5, branching=3)
    f = space.filtration
    poison = 10 ** 9
    rows = []
    for t in range(1, space.horizon + 1):
        holds = {f.block_of[t][o] for o in space.outcomes if t - 1 >= tau[o]}
        assert holds == set(a.after_nodes[t])
        rows.append([t if c in holds else poison
                     for c in range(len(f.partitions[t]))])

    after = a.after_integral([(row, 1) for row in rows])
    for o in space.outcomes:
        assert ref_values(after)[o] == [
            Q(sum(s for s in range(1, t + 1) if s - 1 >= tau[o]))
            for t in range(space.horizon + 1)]
    assert after.filtration.label == "G"
