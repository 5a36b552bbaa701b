"""Self-tests of the benchmark: every workload at a tiny size.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(capsys, *argv):
    """Run the benchmark in-process at the tiny size; returns (exit
    status, stdout lines, final JSON object)."""
    code = run.main(["--size", "tiny", "--seconds", "0.05", *argv])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    layers = {name: unit for name, (unit, *_) in
              tracing.LAYER_METRICS.items()}
    layers[tracing.OVERHEAD_METRIC] = "%"
    layers[tracing.NOISE_METRIC] = "%"
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_printed_with_unit(capsys, workload, trace):
    code, lines, result = bench(capsys, "--workload", workload, "--seed",
                                "0", "--trace", trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))
        assert any(line.startswith(f"{m['name']} ")
                   and line.endswith(f" {m['unit']}") for line in lines)
    assert any(line.startswith("failed_frac 0 ") for line in lines)


def _digest(lines):
    return next(line.split()[1] for line in lines
                if line.startswith("digest "))


@pytest.mark.parametrize("workload", ["finite", "poisson-mc"])
def test_digest_repeats_for_one_seed(capsys, workload):
    args = ("--workload", workload, "--seed", "3")
    first = _digest(bench(capsys, *args, "--trace", "0")[1])
    again = _digest(bench(capsys, *args, "--trace", "0")[1])
    traced = _digest(bench(capsys, *args, "--trace", "1")[1])
    assert first == again == traced


def _corrupt_witness(monkeypatch):
    """Flip one node weight of a deflator witness (or the direction of an
    arbitrage witness) before the harness re-verifies it."""
    from enlab import harness, nupbr
    real = nupbr.verify_witness

    def corrupted(verdict, *args, **kwargs):
        w = verdict.witness
        if verdict.satisfied:
            key = sorted(w.node_weights)[0]
            weights = list(w.node_weights[key])
            weights[0] = -weights[0]
            w = dataclasses.replace(
                w, node_weights=w.node_weights | {key: tuple(weights)})
        else:
            w = dataclasses.replace(
                w, direction=tuple(-h for h in w.direction))
        return real(dataclasses.replace(verdict, witness=w), *args, **kwargs)
    monkeypatch.setattr(harness, "verify_witness", corrupted)


def _corrupt_identity(monkeypatch):
    from enlab import harness
    monkeypatch.setattr(harness, "check_hat_basis", lambda *a: [
        {"identity": "hat_basis_martingale", "t": 1, "atom": [],
         "drift": "1"}])


def _corrupt_report(module_name, function, field):
    def corrupt(monkeypatch):
        module = importlib.import_module(f"enlab.{module_name}")
        real = getattr(module, function)
        monkeypatch.setattr(module, function, lambda *a, **k: dataclasses
                            .replace(real(*a, **k), **{field: False}))
    return corrupt


def _corrupt_ruin(monkeypatch):
    """Move every ruin frequency far outside its standard errors."""
    from enlab import poisson_mc
    real = poisson_mc.ruin_mc

    def shifted(*args, **kwargs):
        freq, se = real(*args, **kwargs)
        return freq + 0.5, se
    monkeypatch.setattr(poisson_mc, "ruin_mc", shifted)


@pytest.mark.parametrize("workload,corrupt", [
    ("finite", _corrupt_witness),
    ("finite", _corrupt_identity),
    ("poisson-mc", _corrupt_report("poisson_mc", "example1_run",
                                   "monotone_ok")),
    ("poisson-mc", _corrupt_ruin),
    ("ladder", _corrupt_report("brownian_demo", "brownian_demo",
                               "structural_ok")),
])
def test_corrupted_output_counts_as_failed(capsys, monkeypatch, workload,
                                           corrupt):
    run.import_engine()
    corrupt(monkeypatch)
    code, lines, result = bench(capsys, "--workload", workload, "--seed",
                                "0", "--trace", "0")
    assert code == 1
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert any(line.startswith("FAILED ") for line in lines)
    assert not any(line.startswith("failed_frac 0 ") for line in lines)


@pytest.mark.parametrize("threads", [0, (os.cpu_count() or 1) + 1])
def test_thread_count_outside_nproc_refused(threads):
    with pytest.raises(SystemExit) as exc:
        run.parse_args(["--workload", "ladder", "--seed", "1",
                        "--threads", str(threads)])
    assert exc.value.code == 2


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = [float(i) for i in range(100)]
    assert run.tail(samples) == (89.0, 90.0)
    assert run.tail(samples[:21]) == (20.0, 100.0)


def test_fails_without_engine_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
