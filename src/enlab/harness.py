"""Suite runners: the exact identity suite and the theorem cross-check.

The identity suite re-derives every transfer identity two ways on each
generated model and demands bit equality.  Basis elements (single-
increment martingales and single-child indicator processes) span all
inputs by linearity, and for them the enlarged-side conditional
expectations collapse to one after-atom each, so the per-model cost
stays near-linear in the tree size; the full operations are exercised
as well on whole processes per model, and a dedicated test confirms the
collapsed checks agree with the full operations on sampled elements.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .enlargement import (
    after_atoms,
    build_deflator,
    deflator_verify,
    g_characteristics,
    g_compensator_after,
    hat_transform,
    proj_identity_check,
    transfer_check,
)
from .errors import EnlabError
from .finite_prob import bracket, compensator, mass_average
from .model_io import dump_model
from .nupbr import theorem2_crosscheck, verify_witness
from .random_times import generate_honest_model


def check_transfer_basis(analysis) -> list[dict]:
    """Collapsed per-atom form of the transfer identities, quantified
    over the full indicator basis of the tree.

    For each step, base atom B, its after-atom A (members with the time
    in the past) and each child atom C of B: the direct enlarged
    conditional expectations of I_C, I_C/(1 - incl) and 1/(1 - incl)
    must equal their base-side transfer expressions divided by the left
    survival gap (`enlargement.transfer_rows`).  By linearity this is
    Lemma-level equality for every finite-variation integrand and every
    martingale.
    """
    def indicators(atom, kids):
        return [([int(i == k) for i in range(len(kids))], 1)
                for k in range(len(kids))]

    return transfer_check(analysis, indicators,
                          ("after_indicator", "after_indicator_over_gap",
                           "after_one_over_gap"))


def check_hat_basis(analysis) -> list[dict]:
    """Martingale property of the hat transform for every single-
    increment indicator-difference martingale of the tree.

    Such a basis element has one increment f at (t, B); its transform
    has the single increment f + E[f dm | B]/gap on the after-atom, so
    the enlarged drift condition is one equation per basis element.

    With M the mass of B, m its child C's, F = sum_c m_c dm_c and a_C
    the mass of the after-atom A's enlarged child inside C (read through
    the node map), f = 1{C} - m/M, and all of it runs on integers: the
    drift is the sum of (a_C M - m mass(A)) / (M mass(A)) and
    m (M dm_C - F) / (M^2 gap).
    """
    fn, fd = analysis.fundamental_martingale.step_rows
    gn, gd = analysis.gap.node_rows
    f, g = analysis.space.filtration, analysis.enlarged
    base_of = analysis.node_map[0]
    violations = []
    for atom in after_atoms(analysis):
        t, base, members = atom.t, atom.base, atom.members
        b = f.block_of[t - 1][base[0]]
        kids = f.kids[t - 1][b]
        if len(kids) < 2:
            # the increment is trivial: hat increment is a constant with
            # zero base mean, hence zero
            continue
        mass, gap = f.masses[t - 1][b], gn[t - 1][b]
        dm = fn[t]
        total = mass_average(f.masses[t], kids, dm, 1, 1)[0]
        a = g.block_of[t - 1][members[0]]
        a_mass = g.masses[t - 1][a]
        in_a = {base_of[t][j]: g.masses[t][j] for j in g.kids[t - 1][a]}
        for c in kids[:-1]:
            m = f.masses[t][c]
            # the drift over M^2 fd gap mass(A), whose numerator is
            # (a_C M - m mass(A)) M fd gap + m (M dm_C - F) gd mass(A)
            drift = ((in_a.get(c, 0) * mass - m * a_mass) * mass * fd[t] * gap
                     + m * (mass * dm[c] - total) * gd[t - 1] * a_mass)
            if drift:
                violations.append({
                    "identity": "hat_basis_martingale", "t": t,
                    "atom": list(members),
                    "drift": str(Fraction(drift, mass * mass * fd[t] * gap
                                          * a_mass))})
    return violations


def check_jump_set(analysis) -> list[dict]:
    """analyze's jump set {Z~_t = 1 > Z_{t-1}}, from the survival masses,
    against the children C of each base atom B that miss its after-atom
    B & {tau <= t - 1}, from the tau split: on a full-support space
    Z_{t-1} < 1 on B exactly when B has one, and Z~_t = 1 on C exactly
    when C misses it."""
    f = analysis.space.filtration
    jump_set = set(analysis.jump_set)
    violations = []
    for t in range(1, f.horizon + 1):
        for kids, (pinned, _) in zip(f.kids[t - 1], analysis.split[t - 1]):
            hit = {f.block_of[t][o] for members in pinned for o in members}
            for c in kids:
                atom = f.partitions[t][c]
                missed = bool(pinned) and c not in hit
                if ((t, atom) in jump_set) != missed:
                    violations.append({"identity": "jump_set_identity",
                                       "t": t, "atom": list(atom),
                                       "misses_after_atom": missed})
    return violations


@dataclass
class ModelReport:
    model_id: str
    honest: bool
    class_h: bool
    identities: dict[str, str]
    deflator_harvest: dict[str, bool]
    counterexample: dict | None = None

    @property
    def ok(self) -> bool:
        return all(v == "ok" for v in self.identities.values())

    def to_json(self) -> dict:
        return {"model_id": self.model_id, "honest": self.honest,
                "class_h": self.class_h, "identities": self.identities,
                "deflator_harvest": self.deflator_harvest,
                "counterexample": self.counterexample, "ok": self.ok}


def _built(construct, *args):
    """(construct(*args), []), or (None, [the raised error]) when the
    constructor raises: the one violation of the row that reads it."""
    try:
        return construct(*args), []
    except EnlabError as exc:
        return None, [{"error": f"{type(exc).__name__}: {exc}"}]


def _checked(check, *args) -> list[dict]:
    """The violations check(*args) returns, or, when a guard inside it
    raises (DivisionGuard, NotHonest, ...), that error as the row's one
    violation."""
    violations, errors = _built(check, *args)
    return errors or violations


def run_model_identities(analysis, asset) -> ModelReport:
    """One exact check per row, each `ok` or `violated`; the first
    violation, in row order, is the counterexample."""
    space = analysis.space
    # build_deflator runs the hat transform of the fundamental martingale,
    # whose input check is the one drift test of M; only when the deflator
    # fails is that transform re-run on its own, to tell whether the
    # failure was the transform's
    mart = asset - compensator(asset, space)
    bundle, deflator_errors = _built(build_deflator, analysis)
    _, hat_errors = _built(hat_transform, mart, analysis)
    if bundle is None:
        hat_errors += _built(hat_transform, analysis.fundamental_martingale,
                             analysis)[1]

    rows = {
        "hat_basis": _checked(check_hat_basis, analysis),
        "transfer_basis": _checked(check_transfer_basis, analysis),
        "hat_full": hat_errors,
        "g_compensator": _checked(g_compensator_after,
                                  bracket(asset, asset), analysis),
        "proj_identities": _checked(proj_identity_check, mart, analysis),
        "jump_set_identity": _checked(check_jump_set, analysis),
        "jump_characteristics": _checked(g_characteristics, asset, analysis),
        "deflator": deflator_errors,
    }
    counterexample = next(({"identity": name, "first": violations[0]}
                           for name, violations in rows.items()
                           if violations), None)
    harvest = {"hypothesis": False, "conclusion": False}
    if bundle is not None:
        verdict = deflator_verify(mart, bundle, analysis)
        harvest = {"hypothesis": verdict.hypothesis_holds,
                   "conclusion": verdict.conclusion_holds}

    return ModelReport(
        model_id="", honest=analysis.honest, class_h=analysis.class_h,
        identities={name: "violated" if violations else "ok"
                    for name, violations in rows.items()},
        deflator_harvest=harvest, counterexample=counterexample)


@dataclass
class SuiteReport:
    rows: list[dict] = field(default_factory=list)
    n_models: int = 0
    n_violations: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.n_violations == 0

    def to_json(self) -> dict:
        return {"models": self.n_models, "violations": self.n_violations,
                "elapsed_seconds": round(self.elapsed, 3), "rows": self.rows}


def run_identity_suite(seeds, depth: int = 5, branching: int = 3,
                       threads: int | None = None) -> SuiteReport:
    """One identity row per seed, in seed order.  `threads` is accepted
    and unused: exact `Fraction` work does not run in parallel."""
    start = time.time()

    def one(seed: int) -> dict:
        _, _, asset, analysis = generate_honest_model(seed, depth, branching)
        report = run_model_identities(analysis, asset)
        report.model_id = f"seed-{seed}"
        return report.to_json()

    rows = [one(seed) for seed in seeds]
    suite = SuiteReport(rows=rows, n_models=len(rows),
                        n_violations=sum(not r["ok"] for r in rows),
                        elapsed=time.time() - start)
    return suite


@dataclass
class CrosscheckSuite:
    rows: list[dict] = field(default_factory=list)
    n_disagreements: int = 0
    n_witness_failures: int = 0
    elapsed: float = 0.0

    def csv_lines(self):
        yield "seed,a,b,c,agree,jump_set_size"
        for r in self.rows:
            yield (f"{r['seed']},{int(r['a'])},{int(r['b'])},{int(r['c'])},"
                   f"{int(r['agree'])},{r['jump_set_size']}")


def run_crosscheck(seeds, depth: int = 5, branching: int = 3,
                   fixtures_dir=None, threads: int | None = None
                   ) -> CrosscheckSuite:
    """One theorem-2 row per seed, in seed order.  `threads` is accepted
    and unused, as in `run_identity_suite`."""
    start = time.time()

    def one(seed: int) -> dict:
        space, tau, asset, analysis = generate_honest_model(seed, depth,
                                                            branching)
        report = theorem2_crosscheck(asset, analysis)
        witnesses_ok = (
            verify_witness(report.after_g, report.after, space,
                           analysis.enlarged)
            and verify_witness(report.scaled_f, report.scaled, space)
            and verify_witness(report.indicator_f, report.indicator_scaled,
                               space))
        row = {"seed": seed, "a": report.a, "b": report.b, "c": report.c,
               "agree": report.agree, "jump_set_size": report.jump_set_size,
               "witnesses_ok": witnesses_ok}
        if not report.agree and fixtures_dir is not None:
            target = Path(fixtures_dir)
            target.mkdir(parents=True, exist_ok=True)
            dump_model(space, tau, asset,
                       target / f"disagreement-seed-{seed}.json")
        return row

    rows = [one(seed) for seed in seeds]
    return CrosscheckSuite(
        rows=rows,
        n_disagreements=sum(not r["agree"] for r in rows),
        n_witness_failures=sum(not r["witnesses_ok"] for r in rows),
        elapsed=time.time() - start)
