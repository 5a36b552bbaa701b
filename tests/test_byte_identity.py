"""Byte-identity gate for the deterministic finite-engine reports.

The digests below were recorded from the reports as they stand, and any
change to how the engine computes them must leave every byte in place:
all finite arithmetic is exact, so a refactor that changes a digest has
changed a verdict, a witness or the report layout.  Wall time
(``elapsed_seconds``) is the one non-deterministic field and is left out.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from enlab.cli import main
from enlab.harness import run_crosscheck, run_identity_suite

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

IDENTITY_SUITE_SHA256 = (
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


def _sha256(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def test_identity_suite_report_bytes():
    report = run_identity_suite(range(1, 13), 5, 3).to_json()
    del report["elapsed_seconds"]
    assert _sha256(json.dumps(report, sort_keys=True)) == IDENTITY_SUITE_SHA256


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
