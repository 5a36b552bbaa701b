"""Byte-identity gate for the deterministic reports of both engines.

The digests below were recorded from the reports as they stand, and any
change to how the engine computes them must leave every byte in place:
all finite arithmetic is exact, so a refactor that changes a digest has
changed a verdict, a witness or the report layout.  Wall time
(``elapsed_seconds``) is the one non-deterministic field and is left out.
The Monte Carlo digest covers the ruin oracle's psi values and tail
levels and small seeded example and ruin runs, whose float outputs are
compared as exact reprs; the example-2 control run has a digest of its
own.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from enlab.cli import main
from enlab.harness import run_crosscheck, run_identity_suite
from enlab.poisson_mc import (
    PoissonModel,
    example1_run,
    example2_run,
    example2_selftest,
    ruin_mc,
)
from enlab.ruin import RuinOracle

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

IDENTITY_SUITE_SHA256 = (
    "8192486dff5b52a2ad1b9ef08e54ea2a15c5d7382f21f3fd099a65eb689dca30")
# the same report before the deflator became an identity row, when each
# row had a fundamental_martingale identity that read "ok" and a deflator
# object of two booleans
OLD_LAYOUT_SHA256 = (
    "7a699283a5501a8ba6a24abafdd9f66e3b5ba530b1ad67f8e73ac17900131d86")
CROSSCHECK_SHA256 = (
    "2411e56e3c2db2825fc5b64f51f4cc945308ac2d759f4aee3d8d28cd22be1995")
NUPBR_SHA256 = {
    "tent.json":
        "349cdc4ced04d9b7e80a46ef38d945a7f5167b56ef2894b32024f49c73d67a56",
    "stop.json":
        "50d28904dc168c50a287e764cf0492c1c2e68fccdfb4df8f52704166713311e8",
    "gen-seed-6.json":
        "b07c723640c9067613049ffd0b7bcad94227ad65184c6c483d97226b484882a1",
}

MONTE_CARLO_SHA256 = (
    "f03b169424793355ff2b5330280d643472d8fa9dbf2dc65b894ab519c1bb682f")
EXAMPLE2_SELFTEST_SHA256 = (
    "d3227b8d29ca42352002ed9ba3fbbd1cc2af2bbc4b1c5f1967ef328119ccc7e1")


def _sha256(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def test_identity_suite_report_bytes():
    report = run_identity_suite(range(1, 13), 5, 3).to_json()
    del report["elapsed_seconds"]
    assert _sha256(json.dumps(report, sort_keys=True)) == IDENTITY_SUITE_SHA256
    # only the layout changed: every verdict, witness and row is as before
    for row in report["rows"]:
        built = row["identities"].pop("deflator") == "ok"
        row["identities"]["fundamental_martingale"] = "ok"
        row["deflator"] = {"positivity": built, "pre_tau_zero": built}
    assert _sha256(json.dumps(report, sort_keys=True)) == OLD_LAYOUT_SHA256


def test_crosscheck_rows_bytes():
    suite = run_crosscheck(range(1, 13), 5, 3)
    lines = list(suite.csv_lines())
    lines += [f"{r['seed']},{int(r['witnesses_ok'])}" for r in suite.rows]
    assert _sha256("\n".join(lines) + "\n") == CROSSCHECK_SHA256


@pytest.mark.parametrize("name", sorted(NUPBR_SHA256))
def test_nupbr_report_bytes(name, tmp_path, monkeypatch, capsys):
    # run from the model's directory so the report's "model" field is the
    # bare file name, independent of where the checkout lives
    monkeypatch.chdir(tmp_path)
    if name.startswith("gen-seed-"):
        seed = name.removeprefix("gen-seed-").removesuffix(".json")
        assert main(["gen", "--seed", seed, "--depth", "5", "--branching",
                     "3", "--out", name]) == 0
    else:
        shutil.copy(FIXTURES / name, tmp_path / name)
    assert main(["nupbr", "--model", name, "--out", "verdict.json"]) == 0
    capsys.readouterr()
    assert _sha256((tmp_path / "verdict.json").read_bytes()) == \
        NUPBR_SHA256[name]


def test_monte_carlo_bytes():
    # zero, integers, k/2 switch points and deep-tail reserves
    grid = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.5, 6.0, 9.5, 13.0,
            17.78, 26.84]
    record = {}
    for mu in (1.5, 2.0, 4.0):
        oracle = RuinOracle(mu)
        record[f"psi mu={mu}"] = [repr(v) for v in
                                  oracle.psi_many(grid).tolist()]
        record[f"tail mu={mu}"] = [repr(oracle.tail_level(eps))
                                   for eps in (1e-6, 1e-9)]
        freq, se = ruin_mc(mu, [0.0, 0.5, 1.0, 2.0], 8192, seed=3, threads=1)
        record[f"ruin_mc mu={mu}"] = [repr(v) for v in
                                      freq.tolist() + se.tolist()]
    model = PoissonModel(mu=2.0, a=1.0)
    r1 = example1_run(model, 8192, 7, threads=1)
    record["example1"] = [f"{pid},{w!r},{lo!r}" for pid, w, lo in r1.rows()]
    record["example1 summary"] = repr((
        r1.n_censored, r1.mean_terminal, r1.se_terminal,
        sorted(r1.lambda_table.items())))
    r2 = example2_run(model, 8192, 7, checkpoints=(1.0, 2.0, 5.0),
                      threads=1)
    record["example2"] = [repr((s.checkpoint, s.mean, s.se, s.ok))
                          for s in r2.deflator + r2.product]
    record["example2 min"] = repr((r2.min_deflator, r2.n_censored))
    assert _sha256(json.dumps(record, sort_keys=True)) == MONTE_CARLO_SHA256


def test_example2_selftest_bytes():
    record = {}
    for mu, a in ((2.0, 1.0), (1.3, 0.3)):
        report = example2_selftest(PoissonModel(mu=mu, a=a), 8192, 7,
                                   checkpoints=(1.0, 2.0, 5.0), threads=1)
        record[f"selftest mu={mu} a={a}"] = [
            repr((s.checkpoint, s.mean, s.se, s.ok))
            for s in report.band_product + report.independent_product]
    assert _sha256(json.dumps(record, sort_keys=True)) == \
        EXAMPLE2_SELFTEST_SHA256
