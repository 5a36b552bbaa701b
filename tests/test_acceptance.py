"""Acceptance gate: every criterion at its stated tolerance.

Exact criteria run with zero tolerance (rational arithmetic); Monte
Carlo criteria use the stated confidence multiples.  Each test prints
one PASS/FAIL line (visible with ``pytest -s``); stated runtime budgets
are asserted with a 3x allowance so a loaded machine cannot flake an
otherwise healthy run.
"""

from __future__ import annotations

import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from enlab.brownian_demo import brownian_demo
from enlab.finite_prob import adapted, build_space
from enlab.harness import run_crosscheck, run_identity_suite
from enlab.model_io import load_model
from enlab.nupbr import nupbr_check, theorem2_crosscheck, verify_witness
from enlab.poisson_mc import (
    PoissonModel,
    example1_run,
    example2_run,
    ruin_mc,
)
from enlab.random_times import analyze
from enlab.rng import SplitMix64
from enlab.ruin import RuinOracle

from .oracles import enum_honest, enum_survival, grid_feasible, ref_values

Q = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
_LINES: list[str] = []


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    _LINES.append(line)
    print("\n" + line)
    assert ok, line


def test_criterion_1_exact_identity_suite():
    start = time.time()
    suite = run_identity_suite(range(1, 501), depth=5, branching=3)
    elapsed = time.time() - start
    _report(1, suite.ok and suite.n_models == 500,
            f"identity suite: {suite.n_models} models, "
            f"{suite.n_violations} violations, {elapsed:.1f}s "
            "(zero tolerance)")
    assert elapsed < 360  # stated budget 120s, 3x allowance


def test_criterion_2_curated_fixtures():
    start = time.time()
    stop_space, stop_tau, stop_walk = load_model(FIXTURES / "stop.json")
    tent_space, tent_tau, tent_walk = load_model(FIXTURES / "tent.json")

    # enumeration oracle recomputation, then comparison with the engine
    raw = {
        "outcomes": list(tent_space.outcomes),
        "prob": {o: str(tent_space.prob[o]) for o in tent_space.outcomes},
        "partitions": [[list(b) for b in part]
                       for part in tent_space.filtration.partitions],
    }
    ok = enum_honest(raw, tent_tau.tau) and enum_honest(raw, stop_tau.tau)

    tent = analyze(tent_space, tent_tau)
    stop = analyze(stop_space, stop_tau)
    for t in range(3):
        for o in tent_space.outcomes:
            ok &= tent.survival.at(o, t) == \
                Q(enum_survival(raw, tent_tau.tau, t)[o])
            ok &= tent.survival_incl.at(o, t) == \
                Q(enum_survival(raw, tent_tau.tau, t, inclusive=True)[o])
            ok &= stop.survival.at(o, t) == \
                Q(enum_survival(raw, stop_tau.tau, t)[o])

    # frozen derived values from the curated tree
    ok &= all(ref_values(stop.survival)[o] == [1, 0, 0]
              for o in stop_space.outcomes)
    ok &= stop.is_stopping_time and stop.class_h and stop.jump_set == ()
    ok &= tent.honest and tent.class_h and not tent.is_stopping_time
    for o in tent_space.outcomes:
        ok &= ref_values(tent.survival)[o] == [Q(1, 2), Q(1, 2), 0]
        ok &= ref_values(tent.survival_incl)[o] == \
            [1, Q(1, 2), 1 if o in ("ud", "du") else 0]
        ok &= ref_values(tent.fundamental_martingale)[o] == \
            [1, 1, Q(3, 2) if o in ("ud", "du") else Q(1, 2)]
        ok &= ref_values(tent.occurrence_proj)[o] == \
            [Q(1, 2), Q(1, 2), Q(3, 2) if o in ("ud", "du") else Q(1, 2)]
    ok &= tent.jump_set == ((2, ("du",)), (2, ("ud",)))

    stop_x = theorem2_crosscheck(stop_walk, stop)
    tent_x = theorem2_crosscheck(tent_walk, tent)
    ok &= stop_x.a and stop_x.b and stop_x.c and stop_x.agree
    ok &= (not tent_x.a) and (not tent_x.b) and (not tent_x.c) \
        and tent_x.agree
    elapsed = time.time() - start
    _report(2, ok, f"curated fixtures reproduce derived values and "
                   f"crosscheck agreement, {elapsed:.2f}s")
    assert elapsed < 3.0


def test_criterion_3_nupbr_soundness():
    start = time.time()
    # brute-force oracle agreement on 200 seeded one-step instances
    rng = SplitMix64(99)
    agree = True
    witnesses_ok = True
    for _ in range(200):
        n = rng.randint(2, 3)
        d = rng.randint(1, 2)
        outcomes = [f"w{i}" for i in range(n)]
        weights = [rng.randint(1, 4) for _ in range(n)]
        total = sum(weights)
        space = build_space({
            "outcomes": outcomes,
            "prob": {o: Q(w, total) for o, w in zip(outcomes, weights)},
            "partitions": [[outcomes], [[o] for o in outcomes]]})
        vectors = [tuple(Q(rng.randint(-3, 3)) for _ in range(d))
                   for _ in range(n)]
        comps = [adapted({o: [Q(0), vectors[i][k]]
                          for i, o in enumerate(outcomes)}, space)
                 for k in range(d)]
        x = comps[0] if d == 1 else comps
        verdict = nupbr_check(x, space)
        agree &= verdict.satisfied == grid_feasible(vectors, 40)
        witnesses_ok &= verify_witness(verdict, x, space)
    elapsed = time.time() - start
    _report(3, agree and witnesses_ok,
            f"200 oracle instances agree, all witnesses re-verified, "
            f"{elapsed:.1f}s (plus the {3 * 1000} verdicts of criterion 7)")


MU, A, N_PATHS, SEED = 2.0, 1.0, 100_000, 7


def test_criterion_4_example1():
    start = time.time()
    model = PoissonModel(mu=MU, a=A)
    report = example1_run(model, N_PATHS, SEED)
    elapsed = time.time() - start
    scaling_exact = (
        report.lambda_table[10.0] == 10.0 * report.lambda_table[1.0]
        and report.lambda_table[100.0] == 100.0 * report.lambda_table[1.0])
    ok = (report.monotone_ok
          and report.frac_strictly_positive == 1.0
          and report.positive_at_99
          and scaling_exact)
    _report(4, ok, f"strategy wealth nondecreasing on "
                   f"{report.n_paths - report.n_censored} uncensored paths, "
                   f"mean {report.mean_terminal:.5f} "
                   f"(99% CI > 0: {report.positive_at_99}), "
                   f"lambda scaling exact, {elapsed:.1f}s")
    assert elapsed < 180


def test_criterion_5_example2():
    start = time.time()
    model = PoissonModel(mu=MU, a=A)
    report = example2_run(model, N_PATHS, SEED, checkpoints=(1.0, 2.0, 5.0))
    elapsed = time.time() - start
    detail = "; ".join(
        f"t={s.checkpoint}: deflator {d.mean:.4f}+-{d.se:.4f}, "
        f"product {s.mean:.4f}+-{s.se:.4f}"
        for d, s in zip(report.deflator, report.product))
    ok = report.positivity_ok and report.martingale_ok
    _report(5, ok, f"deflator positive (min {report.min_deflator:.4f}) and "
                   f"both means inside 4 SE: {detail}, {elapsed:.1f}s")
    assert elapsed < 360


def test_criterion_6_psi_oracle():
    start = time.time()
    us = np.array([0.0, 0.5, 1.0, 2.0])
    ok = True
    details = []
    for i, mu in enumerate((1.5, 2.0, 4.0)):
        oracle = RuinOracle(mu)
        ok &= abs(oracle.psi(0.0) - 1.0 / mu) <= 1e-10
        freq, se = ruin_mc(mu, us, 1_000_000, seed=60 + i)
        pk = oracle.psi_many(us)
        gap = np.abs(pk - freq)
        ok &= bool(np.all(gap <= 3 * se))
        details.append(f"mu={mu}: max|pk-mc|/se="
                       f"{float(np.max(gap / np.maximum(se, 1e-300))):.2f}")
    elapsed = time.time() - start
    _report(6, ok, f"psi(0)=1/mu to 1e-10 and MC within 3 SE at "
                   f"u in {{0,0.5,1,2}} ({'; '.join(details)}), {elapsed:.1f}s")
    assert elapsed < 360


def test_criterion_7_crosscheck_harness(tmp_path):
    start = time.time()
    suite = run_crosscheck(range(1, 1001), depth=5, branching=3,
                           fixtures_dir=tmp_path)
    elapsed = time.time() - start
    archived = list(tmp_path.glob("*.json"))
    ok = (len(suite.rows) == 1000
          and suite.n_witness_failures == 0
          and len(archived) == suite.n_disagreements)
    _report(7, ok, f"1000-seed crosscheck complete: "
                   f"{suite.n_disagreements} disagreements (archived: "
                   f"{len(archived)}), 0 witness failures, {elapsed:.1f}s")


def test_criterion_8_brownian_demo():
    start = time.time()
    report = brownian_demo(0.25, 1e-4, paths=20_000, seed=1)
    elapsed = time.time() - start
    ok = report.structural_ok and elapsed < 300
    _report(8, ok, f"structural honesty checks pass on all "
                   f"{report.n_paths} paths "
                   f"({report.n_censored} censored at the step cap), "
                   f"nested survival {float(report.inner_estimates.mean()):.4f} "
                   f"vs lattice {report.lattice_survival:.4f}, {elapsed:.1f}s")


def test_zz_summary():
    print("\n" + "\n".join(_LINES))
    assert len(_LINES) == 8
