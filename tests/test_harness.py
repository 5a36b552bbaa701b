from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enlab import harness
from enlab.cli import main
from enlab.enlargement import after_atoms, hat_transform
from enlab.errors import NotClassH, NotHonest
from enlab.finite_prob import AdaptedProcess, adapted, is_martingale
from enlab.harness import (
    check_hat_basis,
    check_transfer_basis,
    run_crosscheck,
    run_identity_suite,
    run_model_identities,
)
from enlab.random_times import generate_honest_model

Q = Fraction


def test_identity_suite_small():
    suite = run_identity_suite(range(1, 9), depth=4, branching=3)
    assert suite.ok and suite.n_models == 8
    row = suite.rows[0]
    assert row["identities"] == dict.fromkeys(IDENTITY_KEYS, "ok")
    assert row["counterexample"] is None and row["ok"]


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
    enlarged = analysis.enlarged
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
        basis_mart = adapted(vals, space)
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
    "hat_basis", "transfer_basis", "hat_full", "g_compensator",
    "proj_identities", "jump_set_identity", "jump_characteristics",
    "deflator"]


def test_jump_set_row_names_a_dropped_node():
    # an analysis whose jump set lacks one node disagrees with the tau
    # split there, and the counterexample names that node
    _, _, asset, analysis = generate_honest_model(3, depth=5, branching=3)
    assert run_model_identities(analysis, asset).ok
    t, atom = analysis.jump_set[0]
    dropped = dataclasses.replace(analysis, jump_set=analysis.jump_set[1:])
    report = run_model_identities(dropped, asset)
    assert list(report.identities) == IDENTITY_KEYS
    assert {k for k, v in report.identities.items() if v != "ok"} == {
        "jump_set_identity"}
    assert not report.ok
    assert report.counterexample == {
        "identity": "jump_set_identity",
        "first": {"identity": "jump_set_identity", "t": t,
                  "atom": list(atom), "misses_after_atom": True}}


SCHEMA = json.loads((Path(__file__).resolve().parent.parent / "schemas"
                     / "verify_report.schema.json").read_text())
ROW_SCHEMA = SCHEMA["properties"]["rows"]["items"]


def test_schema_lists_exactly_the_identity_keys_the_suite_writes():
    written = run_identity_suite([1], depth=3, branching=3).rows[0]
    assert list(ROW_SCHEMA["properties"]) == list(written)
    assert ROW_SCHEMA["required"] == list(written)
    assert ROW_SCHEMA["additionalProperties"] is False
    identities = ROW_SCHEMA["properties"]["identities"]
    assert list(written["identities"]) == IDENTITY_KEYS
    assert list(identities["properties"]) == IDENTITY_KEYS
    assert identities["required"] == IDENTITY_KEYS
    assert identities["additionalProperties"] is False
    counterexample = ROW_SCHEMA["properties"]["counterexample"]
    assert counterexample["properties"]["identity"]["enum"] == IDENTITY_KEYS


def _unenlarged(analysis):
    """The analysis with the base filtration in place of the enlarged
    one."""
    broken = dataclasses.replace(analysis)
    broken.__dict__["enlarged"] = analysis.space.filtration
    return broken


def _inclusive_as_left(analysis):
    """The analysis with the left survival in place of the inclusive
    one."""
    return dataclasses.replace(analysis, survival_incl=analysis.survival)


# per row: the harness function whose analysis is broken, how, and the
# keys of the row's violations besides identity, t and atom
PLANTS = {
    "hat_basis": ("check_hat_basis", _unenlarged, {"drift"}),
    "transfer_basis": ("check_transfer_basis", _inclusive_as_left, {"lhs", "rhs"}),
    "hat_full": ("hat_transform", _unenlarged, None),
    "g_compensator": ("g_compensator_after", _unenlarged, {"lhs", "rhs"}),
    "proj_identities": ("proj_identity_check", _inclusive_as_left, {"lhs", "rhs"}),
    "jump_set_identity": (
        "check_jump_set",
        lambda a: dataclasses.replace(a, jump_set=a.jump_set[1:]),
        {"misses_after_atom"}),
    "jump_characteristics": ("g_characteristics", _unenlarged,
                             {"x", "lhs", "rhs"}),
    "deflator": ("build_deflator", _unenlarged, None),
}


@pytest.mark.parametrize("row", PLANTS)
def test_each_failed_row_names_its_node(monkeypatch, row):
    # one broken input per run: only that row fails, and the
    # counterexample names it with its first (t, atom), or with the
    # error of the constructor it reads
    jsonschema = pytest.importorskip("jsonschema")
    _, _, asset, analysis = generate_honest_model(3, depth=5, branching=3)
    name, plant, keys = PLANTS[row]
    real = getattr(harness, name)
    monkeypatch.setattr(harness, name,
                        lambda *args: real(*args[:-1], plant(args[-1])))
    report = run_model_identities(analysis, asset)
    payload = report.to_json() | {"ok": report.ok}
    jsonschema.validate(payload, ROW_SCHEMA)
    assert not payload["ok"]
    violated = {k for k, v in report.identities.items() if v != "ok"}
    assert violated == {row}
    assert payload["counterexample"]["identity"] == row
    first = payload["counterexample"]["first"]
    if keys is None:
        assert set(first) == {"error"}
        assert first["error"].startswith("InternalCheckFailed: ")
        assert " at t=" in first["error"]
        return
    assert set(first) == {"identity", "t", "atom"} | keys
    if "lhs" in keys:
        assert first["lhs"] != first["rhs"]
    # a node: a sorted set of outcomes inside one base atom at t - 1
    t, atom = first["t"], first["atom"]
    f = analysis.space.filtration
    assert 1 <= t <= f.horizon and atom == sorted(atom)
    assert len({f.block_of[t - 1][o] for o in atom}) == 1


def test_every_identity_row_has_a_planted_fault():
    identities = ROW_SCHEMA["properties"]["identities"]["properties"]
    assert list(PLANTS) == list(identities)


def _drifting(analysis):
    """The analysis with a fundamental martingale that drifts by one at
    t = 1: M plus the process that is 0 at time 0 and 1 after it."""
    f = analysis.space.filtration
    step = AdaptedProcess.from_nodes(
        f, [[Q(int(t > 0))] * len(part) for t, part in enumerate(f.partitions)])
    return dataclasses.replace(
        analysis,
        fundamental_martingale=analysis.fundamental_martingale + step)


def test_a_drifting_fundamental_martingale_fails_its_model():
    # the hat transform's input check sees the drift: hat_full (for the
    # transform of M) and deflator (built on it) are violated, and the
    # counterexample names the drift
    jsonschema = pytest.importorskip("jsonschema")
    _, _, asset, analysis = generate_honest_model(3, depth=5, branching=3)
    report = run_model_identities(_drifting(analysis), asset)
    jsonschema.validate(report.to_json(), ROW_SCHEMA)
    assert not report.ok
    assert {k for k, v in report.identities.items() if v != "ok"} == {
        "hat_full", "deflator"}
    assert report.deflator_harvest == {"hypothesis": False,
                                       "conclusion": False}
    root = analysis.space.filtration.partitions[0][0]
    assert report.counterexample == {
        "identity": "hat_full",
        "first": {"error": "InternalCheckFailed: hat_transform input has "
                           f"drift 1 at t=1 on {root}"}}


def test_verify_reports_a_drifting_fundamental_martingale(monkeypatch,
                                                          capsys, tmp_path):
    # the drift fails the second model's row; the run goes on, writes
    # its report and exits 1 with the replay line, and raises nothing
    real = harness.generate_honest_model

    def planted(seed, *args):
        space, tau, asset, analysis = real(seed, *args)
        return space, tau, asset, (_drifting(analysis) if seed == 2
                                   else analysis)

    monkeypatch.setattr(harness, "generate_honest_model", planted)
    out = tmp_path / "verify.json"
    assert main(["verify", "--models-seed-range", "1..3", "--depth", "4",
                 "--branching", "3", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out.strip().endswith(
        " first=seed-2 row=hat_full replay: enlab verify "
        "--models-seed-range 2..2 --depth 4 --branching 3")
    assert "Traceback" not in captured.out + captured.err
    assert "InvariantError" not in captured.out + captured.err
    rows = json.loads(out.read_text())["rows"]
    assert [r["ok"] for r in rows] == [True, False, True]
    assert "has drift 1 at t=1" in rows[1]["counterexample"]["first"]["error"]


# per row: the harness name a guard raises from in the second model, and
# the guard.  DivisionGuard comes from the real check given the base
# filtration as the enlarged one (a transfer row then divides by a unit
# inclusive survival); NotHonest and NotClassH are raised in its place.
GUARDS = {
    "transfer_basis": ("check_transfer_basis", "DivisionGuard"),
    "proj_identities": ("proj_identity_check", "DivisionGuard"),
    "hat_basis": ("after_atoms", "NotHonest"),
    "jump_set_identity": ("check_jump_set", "NotClassH"),
}


@pytest.mark.parametrize("row", GUARDS)
def test_guard_raised_in_a_check_is_that_rows_violation(monkeypatch, capsys,
                                                        tmp_path, row):
    # the guard is the row's one violation: the suite reports the other
    # models, and the FAIL line names the model, row and replay command
    jsonschema = pytest.importorskip("jsonschema")
    name, guard = GUARDS[row]
    real = getattr(harness, name)
    calls = []

    def planted(*args):
        calls.append(args)
        if len(calls) != 2:
            return real(*args)
        if guard == "DivisionGuard":
            return real(*args[:-1], _unenlarged(args[-1]))
        raise {"NotHonest": NotHonest, "NotClassH": NotClassH}[guard](
            "planted guard")

    monkeypatch.setattr(harness, name, planted)
    out = tmp_path / "verify.json"
    assert main(["verify", "--models-seed-range", "1..3", "--depth", "5",
                 "--branching", "3", "--out", str(out)]) == 1
    line = capsys.readouterr().out.strip()
    assert line.startswith("FAIL verify models=3 violations=1 elapsed=")
    assert line.endswith(
        f" first=seed-2 row={row} replay: enlab verify "
        "--models-seed-range 2..2 --depth 5 --branching 3")
    rows = json.loads(out.read_text())["rows"]
    assert [r["ok"] for r in rows] == [True, False, True]
    failed = rows[1]
    jsonschema.validate(failed, ROW_SCHEMA)
    assert {k for k, v in failed["identities"].items() if v != "ok"} == {row}
    assert failed["counterexample"]["identity"] == row
    first = failed["counterexample"]["first"]
    assert set(first) == {"error"}
    assert first["error"].startswith(f"{guard}: ")


def _record_calls(monkeypatch, name, calls, record):
    """Wrap the function `name` in every loaded enlab module that binds
    it, so that each call first runs record(calls, args)."""
    def wrap(real):
        def wrapped(*args):
            record(calls, args)
            return real(*args)
        return wrapped

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("enlab") and hasattr(module, name):
            monkeypatch.setattr(module, name, wrap(getattr(module, name)))


def test_jump_functionals_calls_per_runner(monkeypatch):
    # the cross-check makes none; the identity suite makes one per
    # model, inside g_characteristics
    calls = []
    _record_calls(monkeypatch, "jump_functionals", calls,
                  lambda calls, args: calls.append(args))
    run_crosscheck(range(1, 4), depth=4, branching=3)
    assert calls == []
    assert run_identity_suite(range(1, 4), depth=4, branching=3).ok
    assert len(calls) == 3


def test_identity_rows_run_no_drift_test_of_the_fundamental_martingale(
        monkeypatch):
    # M has no drift by construction; the hat transform's input check
    # (inside build_deflator) is the one drift test of M per model
    _, _, asset, analysis = generate_honest_model(3, depth=5, branching=3)
    fund = analysis.fundamental_martingale
    callers = []

    def record(callers, args):
        if args[0] is fund:
            callers.append(sys._getframe(2).f_code.co_name)

    _record_calls(monkeypatch, "is_martingale", callers, record)
    assert run_model_identities(analysis, asset).ok
    assert callers == ["require_martingale"]
