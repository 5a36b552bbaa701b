from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from enlab import harness
from enlab.enlargement import after_atoms, hat_transform
from enlab.errors import InternalCheckFailed
from enlab.finite_prob import AdaptedProcess, is_martingale
from enlab.harness import (
    check_hat_basis,
    check_transfer_basis,
    run_crosscheck,
    run_identity_suite,
    run_model_identities,
)
from enlab.random_times import enlarge, generate_honest_model

Q = Fraction


def test_identity_suite_small():
    suite = run_identity_suite(range(1, 9), depth=4, branching=3)
    assert suite.ok and suite.n_models == 8
    row = suite.rows[0]
    assert set(row["identities"]) == {
        "fundamental_martingale", "hat_basis", "transfer_basis", "hat_full",
        "g_compensator", "proj_identities", "jump_set_identity",
        "jump_characteristics"}
    assert row["deflator"] == {"positivity": True, "pre_tau_zero": True}
    assert row["counterexample"] is None


def test_identity_suite_thread_invariance():
    one = run_identity_suite(range(1, 7), depth=4, branching=3, threads=1)
    two = run_identity_suite(range(1, 7), depth=4, branching=3, threads=3)
    assert one.rows == two.rows


def test_crosscheck_archives_nothing_without_disagreement(tmp_path):
    suite = run_crosscheck(range(1, 9), depth=4, branching=3,
                           fixtures_dir=tmp_path)
    assert suite.n_witness_failures == 0
    archived = list(tmp_path.glob("*.json"))
    assert len(archived) == suite.n_disagreements


def test_model_report_on_curated(tree_space, tent_analysis, walk):
    report = run_model_identities(tent_analysis, walk)
    assert report.ok
    assert report.honest and report.class_h


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6))
def test_collapsed_hat_check_agrees_with_operation(seed):
    """Dual route: the collapsed per-atom drift condition used by the
    harness must coincide with running the real transform on the
    explicit basis martingale and testing it atom by atom."""
    space, _, _, analysis = generate_honest_model(seed, depth=4, branching=3)
    enlarged = enlarge(space, analysis)
    assert check_hat_basis(analysis) == []
    f = space.filtration
    checked = 0
    for atom in after_atoms(analysis):
        t, base = atom.t, atom.base
        children = sorted({f.partitions[t][f.block_of[t][o]] for o in base})
        if len(children) < 2:
            continue
        child = children[0]
        base_mass = sum(space.prob[o] for o in base)
        p_child = sum(space.prob[o] for o in child) / base_mass
        vals = {}
        for o in space.outcomes:
            step = ((Q(1) if o in child else Q(0)) - p_child) \
                if o in base else Q(0)
            vals[o] = [Q(0)] * t + [step] * (space.horizon + 1 - t)
        basis_mart = AdaptedProcess(vals)
        hat = hat_transform(basis_mart, analysis)  # hard-asserts
        assert is_martingale(hat, space, enlarged).ok
        # sparsity: the transform moves only at the basis increment time
        for o in space.outcomes:
            for s in range(1, space.horizon + 1):
                if s != t:
                    assert hat.delta(o, s) == 0
        checked += 1
        if checked >= 3:
            break


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6))
def test_collapsed_transfer_check_matches_identities(seed):
    _, _, _, analysis = generate_honest_model(seed, depth=4, branching=3)
    assert check_transfer_basis(analysis) == []


IDENTITY_KEYS = [
    "fundamental_martingale", "hat_basis", "transfer_basis", "hat_full",
    "g_compensator", "proj_identities", "jump_set_identity",
    "jump_characteristics"]


def test_jump_rows_run_jump_functionals_only_on_failure(monkeypatch):
    """The jump-set row is decided by g_characteristics, which runs
    jump_functionals first; jump_functionals runs on its own only when
    g_characteristics raises, and the rows read as a separate run of
    each check would make them."""
    _, _, asset, analysis = generate_honest_model(3, depth=5, branching=3)
    real = harness.jump_functionals
    alone = []

    def counted(*args):
        alone.append(args)
        return real(*args)

    def raising(*args):
        raise InternalCheckFailed("forced failure")

    monkeypatch.setattr(harness, "jump_functionals", counted)
    report = run_model_identities(analysis, asset)
    assert list(report.identities) == IDENTITY_KEYS
    assert report.identities["jump_set_identity"] == "ok"
    assert report.identities["jump_characteristics"] == "ok"
    assert alone == []

    monkeypatch.setattr(harness, "g_characteristics", raising)
    report = run_model_identities(analysis, asset)
    assert list(report.identities) == IDENTITY_KEYS
    assert report.identities["jump_set_identity"] == "ok"
    assert report.identities["jump_characteristics"] == "violated"
    assert len(alone) == 1

    monkeypatch.setattr(harness, "jump_functionals", raising)
    report = run_model_identities(analysis, asset)
    assert list(report.identities) == IDENTITY_KEYS
    assert report.identities["jump_set_identity"] == "violated"
    assert report.identities["jump_characteristics"] == "violated"
    assert not report.ok
