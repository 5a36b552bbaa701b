from __future__ import annotations

import dataclasses
import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

from enlab import brownian_demo, harness
from enlab.cli import main
from enlab.errors import (
    NonRefiningFiltration,
    ProbabilityNotOne,
    SchemaError,
)
from enlab.model_io import dump_model, load_model, parse_model
from enlab.random_times import analyze, generate_honest_model
from enlab.ruin import RuinOracle

from .oracles import ref_values

Q = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MISSING = str(FIXTURES / "no-such-directory" / "out")


def test_tent_fixture_roundtrip():
    space, tau, asset = load_model(FIXTURES / "tent.json")
    analysis = analyze(space, tau)
    assert analysis.honest and analysis.class_h
    assert not analysis.is_stopping_time
    assert {o: tau[o] for o in space.outcomes} == \
        {"uu": 0, "ud": 2, "du": 2, "dd": 0}
    for o in space.outcomes:
        assert analysis.survival.at(o, 1) == Q(1, 2)

    payload = dump_model(space, tau, asset)
    space2, tau2, asset2 = parse_model(payload)
    assert space2.prob == space.prob
    assert tau2.tau == tau.tau
    assert ref_values(asset2) == ref_values(asset)


def test_stop_fixture():
    space, tau, _ = load_model(FIXTURES / "stop.json")
    analysis = analyze(space, tau)
    assert analysis.is_stopping_time and analysis.class_h
    assert analysis.jump_set == ()


def _tent_payload():
    return json.loads((FIXTURES / "tent.json").read_text())


def test_load_model_schema_errors(tmp_path):
    bad = _tent_payload()
    bad["prob"]["uu"] = "3/8"  # sums to 9/8
    with pytest.raises(ProbabilityNotOne):
        parse_model(bad)

    bad = _tent_payload()
    bad["partitions"][2] = [["uu", "du"], ["ud"], ["dd"]]
    with pytest.raises(NonRefiningFiltration):
        parse_model(bad)

    bad = _tent_payload()
    del bad["S"]
    with pytest.raises(SchemaError):
        parse_model(bad)

    bad = _tent_payload()
    bad["prob"]["uu"] = "one quarter"
    with pytest.raises(SchemaError):
        parse_model(bad)

    target = tmp_path / "broken.json"
    target.write_text("{not json")
    with pytest.raises(SchemaError):
        load_model(target)


def test_cli_usage_error():
    assert main(["no-such-command"]) == 2


def _assert_model_rejected(payload, field, tmp_path, capsys):
    model = tmp_path / "bad.json"
    model.write_text(json.dumps(payload))
    assert main(["nupbr", "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert "--model" in err and f"(field: {field})" in err


@pytest.mark.parametrize("entry, value, field", [
    ("S", ["0", "2", "2"], "S"),  # not constant on the t = 1 atom {uu, ud}
    ("prob", "x/y", "prob.uu"),
    ("S", 3, "S.uu"),
])
def test_cli_nupbr_rejects_malformed_model(entry, value, field, tmp_path,
                                           capsys):
    bad = _tent_payload()
    bad[entry]["uu"] = value
    _assert_model_rejected(bad, field, tmp_path, capsys)


def _stop_payload() -> dict:
    return json.loads((FIXTURES / "stop.json").read_text())


def _with(payload: dict, entry: str, key: str, value) -> dict:
    payload.setdefault(entry, {})[key] = value
    return payload


@pytest.mark.parametrize("payload, field", [
    # a key naming no outcome, in each map keyed by outcome
    (_with(_tent_payload(), "prob", "ghost", "1/2"), "prob.ghost"),
    (_with(_tent_payload(), "S", "ghost", ["0", "0", "0"]), "S.ghost"),
    (_with(_tent_payload(), "processes",
           "X", _tent_payload()["S"] | {"ghost": ["0", "0", "0"]}),
     "processes.X.ghost"),
    (_with(_stop_payload(), "tau", "ghost", 99), "tau.ghost"),
    # a last-visit recipe with an explicit value beside it
    (_with(_tent_payload(), "tau", "uu", 0), "tau"),
])
def test_cli_nupbr_rejects_unknown_outcome_keys(payload, field, tmp_path,
                                                capsys):
    _assert_model_rejected(payload, field, tmp_path, capsys)


def test_cli_nupbr_rejects_an_empty_block(tmp_path, capsys):
    # an empty block covers nothing, so its partition is no partition
    bad = _tent_payload()
    bad["partitions"][1].append([])
    _assert_model_rejected(bad, "partitions", tmp_path, capsys)


@pytest.mark.parametrize("entry, value, field", [
    ("prob", ["1/4", "1/4", "1/4", "1/4"], "prob"),
    ("partitions", 5, "partitions"),
    ("tau", {"uu": "x", "ud": 2, "du": 2, "dd": 0}, "tau.uu"),
    ("tau", {"last_visit": {"process": "S", "set": 3}},
     "tau.last_visit.set"),
])
def test_cli_nupbr_rejects_mistyped_model(entry, value, field, tmp_path,
                                          capsys):
    bad = _tent_payload()
    bad[entry] = value
    _assert_model_rejected(bad, field, tmp_path, capsys)


def test_cli_nupbr_rejects_missing_model(tmp_path, capsys):
    assert main(["nupbr", "--model", str(tmp_path / "absent.json")]) == 2
    assert "--model" in capsys.readouterr().err


def test_cli_gen_nupbr_verify(tmp_path):
    model = tmp_path / "model.json"
    assert main(["gen", "--seed", "3", "--depth", "4", "--branching", "3",
                 "--out", str(model)]) == 0
    out = tmp_path / "verdict.json"
    assert main(["nupbr", "--model", str(model), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["witnesses_verified"] is True
    assert payload["after"]["witness"]["kind"] in ("deflator", "arbitrage")

    suite = tmp_path / "suite.json"
    assert main(["verify", "--models-seed-range", "1..6", "--depth", "4",
                 "--branching", "3", "--out", str(suite)]) == 0
    report = json.loads(suite.read_text())
    assert report["violations"] == 0 and report["models"] == 6


def test_cli_verify_fail_line_names_the_first_failure(monkeypatch, capsys):
    # a jump set that lacks a node, planted in the second model only:
    # the FAIL line names that model, its violated row and the command
    # that replays it
    calls = []
    real = harness.check_jump_set

    def planted(analysis):
        calls.append(analysis)
        if len(calls) == 2:
            analysis = dataclasses.replace(analysis,
                                           jump_set=analysis.jump_set[1:])
        return real(analysis)

    monkeypatch.setattr(harness, "check_jump_set", planted)
    assert main(["verify", "--models-seed-range", "1..3", "--depth", "5",
                 "--branching", "3"]) == 1
    line = capsys.readouterr().out.strip()
    assert line.startswith("FAIL verify models=3 violations=1 elapsed=")
    assert line.endswith(
        " first=seed-2 row=jump_set_identity replay: enlab verify "
        "--models-seed-range 2..2 --depth 5 --branching 3")
    monkeypatch.undo()
    assert main(["verify", "--models-seed-range", "2..2", "--depth", "5",
                 "--branching", "3"]) == 0
    assert capsys.readouterr().out.startswith("PASS verify models=1 ")


def test_cli_nupbr_on_tent(capsys):
    assert main(["nupbr", "--model", str(FIXTURES / "tent.json")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    base = json.loads(lines[0])
    after = json.loads(lines[1])
    assert base["satisfied"] is True      # the walk is a martingale
    assert after["satisfied"] is False    # after-part arbitrage
    assert after["witness"]["kind"] == "arbitrage"


def test_cli_crosscheck(tmp_path):
    csv = tmp_path / "rows.csv"
    assert main(["crosscheck", "--seeds", "1..8", "--depth", "4",
                 "--branching", "3", "--csv", str(csv),
                 "--fixtures-dir", str(tmp_path / "fx")]) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "seed,a,b,c,agree,jump_set_size"
    assert len(lines) == 9


def test_cli_crosscheck_fail_line_replays_the_first_failed_seed(
        monkeypatch, capsys):
    # a witness re-verification that fails on the second model only: the
    # FAIL line names that seed and the command that replays it
    planted = generate_honest_model(2, 4, 3)[0]
    real = harness.verify_witness

    def failing(verdict, x, space, filtration=None):
        return space.prob != planted.prob and real(verdict, x, space,
                                                   filtration)

    monkeypatch.setattr(harness, "verify_witness", failing)
    assert main(["crosscheck", "--seeds", "1..3", "--depth", "4",
                 "--branching", "3"]) == 1
    replay = "enlab crosscheck --seeds 2..2 --depth 4 --branching 3"
    line = capsys.readouterr().out.strip()
    assert line.startswith("FAIL crosscheck seeds=3 ")
    assert line.endswith(f" first=2 replay: {replay}")
    # the replay fails on the same seed, and passes once the fault is gone
    assert main(replay.split()[1:]) == 1
    assert capsys.readouterr().out.strip().endswith(f" first=2 replay: {replay}")
    monkeypatch.undo()
    assert main(replay.split()[1:]) == 0
    assert capsys.readouterr().out.startswith("PASS crosscheck seeds=1 ")


def test_cli_nupbr_fail_line_replays_the_failed_verdict(monkeypatch,
                                                        capsys):
    # a re-verification that fails on the after verdict only: the FAIL
    # line names that verdict, its witness node and the replay command;
    # the printed verdicts are those of a passing run
    from enlab import cli
    model = str(FIXTURES / "tent.json")
    assert main(["nupbr", "--model", model]) == 0
    passing = capsys.readouterr().out.splitlines()
    real = cli.verify_witness

    def failing(verdict, x, space, filtration=None):
        return verdict.filtration_label != "G" and real(verdict, x, space,
                                                         filtration)

    monkeypatch.setattr(cli, "verify_witness", failing)
    replay = f"enlab nupbr --model {model}"
    assert main(replay.split()[1:]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == passing[:2]
    assert out[2] == ("FAIL nupbr base=True after=False failed=after "
                      f"witness=arbitrage t=2 atom=dd replay: {replay}")
    monkeypatch.undo()
    assert main(replay.split()[1:]) == 0
    assert capsys.readouterr().out.splitlines()[2].startswith("PASS nupbr ")


def test_cli_nupbr_fail_line_names_the_failing_deflator_node(monkeypatch,
                                                             capsys):
    # a deflator witness whose weights at one node no longer sum to one
    # fails re-verification for real, and the line names that node
    from enlab import cli
    from enlab.nupbr import DeflatorWitness, NupbrVerdict
    real = cli.nupbr_check

    def skewed(x, space, filtration=None):
        verdict = real(x, space, filtration)
        if filtration is None:
            return verdict
        weights = dict(verdict.witness.node_weights)
        node = sorted(weights)[-1]
        weights[node] = (weights[node][0] * 2, *weights[node][1:])
        return NupbrVerdict(True, DeflatorWitness(weights),
                            verdict.filtration_label)

    monkeypatch.setattr(cli, "nupbr_check", skewed)
    model = str(FIXTURES / "stop.json")
    assert main(["nupbr", "--model", model]) == 1
    assert capsys.readouterr().out.splitlines()[2] == (
        "FAIL nupbr base=True after=True failed=after witness=deflator "
        f"t=2 atom=ud,uu replay: enlab nupbr --model {model}")


def test_cli_example_runs_and_determinism(tmp_path):
    csv = tmp_path / "ex1.csv"
    args = ["example1", "--mu", "2", "--a", "1", "--paths", "6000",
            "--seed", "7", "--csv", str(csv)]
    assert main(args) == 0
    first = csv.read_text()
    assert main(args) == 0
    assert csv.read_text() == first  # byte-identical rerun
    header, row = first.splitlines()[:2]
    assert header == "path_id,terminal_wealth,min_wealth"
    assert float(row.split(",")[1]) > 0

    csv2 = tmp_path / "ex2.csv"
    assert main(["example2", "--mu", "2", "--a", "1", "--paths", "6000",
                 "--seed", "7", "--checkpoints", "1,2",
                 "--csv", str(csv2)]) == 0
    lines = csv2.read_text().strip().splitlines()
    assert lines[0] == "checkpoint,quantity,mean,se,flag"
    assert len(lines) == 5


def test_cli_psi(tmp_path, capsys):
    csv = tmp_path / "psi.csv"
    assert main(["psi", "--mu", "2", "--u", "0", "--mc-paths", "40000",
                 "--seed", "2", "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "psi(0.0) = 0.5000000000" in out
    lines = csv.read_text().splitlines()
    assert lines[0] == "u,psi_pk,psi_mc,se"
    assert all(float(v) >= 0 for v in lines[1].split(","))  # plain floats


def _csv_rows(path):
    """The rows of a CSV report as dicts, each cell read as an int, else
    a float, else kept as text."""
    def cell(text):
        for kind in (int, float):
            try:
                return kind(text)
            except ValueError:
                pass
        return text
    header, *rows = path.read_text().splitlines()
    return [dict(zip(header.split(","), map(cell, row.split(","))))
            for row in rows]


def _not_json(name):
    raise ValueError(f"{name} is not valid JSON")


def test_reports_validate_against_shipped_schemas(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    schemas = Path(__file__).resolve().parent.parent / "schemas"

    model_schema = json.loads((schemas / "model.schema.json").read_text())
    jsonschema.validate(_tent_payload(), model_schema)
    gen = tmp_path / "gen.json"
    assert main(["gen", "--seed", "2", "--depth", "3", "--branching", "2",
                 "--out", str(gen)]) == 0
    jsonschema.validate(json.loads(gen.read_text()), model_schema)

    suite = tmp_path / "suite.json"
    assert main(["verify", "--models-seed-range", "1..3", "--depth", "3",
                 "--branching", "3", "--out", str(suite)]) == 0
    jsonschema.validate(json.loads(suite.read_text()),
                        json.loads((schemas / "verify_report.schema.json")
                                   .read_text()))

    verdict = tmp_path / "verdict.json"
    assert main(["nupbr", "--model", str(gen), "--out", str(verdict)]) == 0
    verdict_schema = json.loads(
        (schemas / "nupbr_verdict.schema.json").read_text())
    payload = json.loads(verdict.read_text())
    jsonschema.validate(payload["base"], verdict_schema)
    jsonschema.validate(payload["after"], verdict_schema)

    csv = tmp_path / "crosscheck.csv"
    assert main(["crosscheck", "--seeds", "1..4", "--depth", "3",
                 "--branching", "3", "--csv", str(csv)]) == 0
    header, *rows = csv.read_text().splitlines()
    row_schema = json.loads((schemas / "crosscheck.schema.json").read_text())
    assert len(rows) == 4
    for row in rows:
        jsonschema.validate(
            dict(zip(header.split(","), map(int, row.split(",")))),
            row_schema)

    for command, extra in (("example1", []),
                           ("example2", ["--checkpoints", "1,2"]),
                           ("psi", ["--u", "0,0.5,2", "--mc-paths", "2000"])):
        csv = tmp_path / f"{command}.csv"
        args = [command, "--mu", "2", "--csv", str(csv), "--seed", "3"]
        if command != "psi":
            args += ["--a", "1", "--paths", "400"]
        assert main(args + extra) == 0
        rows = _csv_rows(csv)
        assert rows
        schema = json.loads((schemas / f"{command}.schema.json").read_text())
        for row in rows:
            jsonschema.validate(row, schema)

    brownian_schema = json.loads(
        (schemas / "brownian_report.schema.json").read_text())
    for cap, last_is_null in (("50", False), ("0.002", True)):
        out = tmp_path / f"brownian-{cap}.json"
        assert main(["brownian", "--epsilon", "0.25", "--dt", "1e-3",
                     "--paths", "3", "--seed", "1", "--time-cap", cap,
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text(), parse_constant=_not_json)
        jsonschema.validate(payload, brownian_schema)
        assert (payload["mean_last_return"] is None) == last_is_null
        assert (payload["censored"] == 3) == last_is_null


def test_cli_brownian(tmp_path):
    out = tmp_path / "bd.json"
    assert main(["brownian", "--epsilon", "0.25", "--dt", "0.001",
                 "--paths", "120", "--seed", "5", "--time-cap", "50",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["structural_ok"] is True


def test_cli_brownian_fail_line_replays_the_first_failed_path(
        tmp_path, monkeypatch, capsys):
    failing = brownian_demo.simulate_ladder_path(0.25, 1e-3, 5, 3, 5.0)
    monkeypatch.setattr(brownian_demo, "_structural_check",
                        lambda path: path != failing)
    out = tmp_path / "bd.json"
    assert main(["brownian", "--epsilon", "0.25", "--dt", "0.001",
                 "--paths", "6", "--seed", "5", "--time-cap", "5",
                 "--out", str(out)]) == 1
    replay = ("enlab brownian --epsilon 0.25 --dt 0.001 --paths 4 --seed 5 "
              "--time-cap 5.0")
    line = capsys.readouterr().out
    assert line.startswith("FAIL ") and f"first_path=3 replay: {replay}" in line
    assert "first_failed_path" not in json.loads(out.read_text())
    # the replay fails on the same path, now the last one it runs
    assert main(replay.split()[1:]) == 1
    assert "first_path=3 " in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [("--paths", "0"), ("--dt", "0"),
                                         ("--time-cap", "0"),
                                         ("--time-cap", "-1"),
                                         ("--epsilon", "1.5"),
                                         ("--dt", "0.01"),
                                         ("--epsilon", "0.999"),
                                         ("--time-cap", "0.0005"),
                                         ("--dt", "1e-7"),
                                         ("--time-cap", "1e6")])
def test_cli_brownian_rejects_bad_input(flag, value, tmp_path, capsys):
    out = tmp_path / "bd.json"
    args = ["brownian", "--epsilon", "0.25", "--dt", "0.001", "--paths",
            "10", "--seed", "5", "--time-cap", "5", "--out", str(out)]
    args[args.index(flag) + 1] = value
    assert main(args) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, flag", [
    (["verify", "--models-seed-range", "5..1"], "--models-seed-range"),
    (["crosscheck", "--seeds", "3..2"], "--seeds"),
    (["psi", "--mu", "2", "--u", "0,-1"], "--u"),
    (["psi", "--mu", "2", "--u", "0", "--mc-paths", "0"], "--mc-paths"),
    (["example1", "--mu", "2", "--a", "1", "--paths", "0", "--seed", "1"],
     "--paths"),
    (["example2", "--mu", "2", "--a", "1", "--paths", "-3", "--seed", "1"],
     "--paths"),
    # a worker-thread count below one ran as one thread with exit 0
    (["example1", "--mu", "2", "--a", "1", "--seed", "1", "--threads", "0"],
     "--threads"),
    (["example2", "--mu", "2", "--a", "1", "--seed", "1", "--threads", "-1"],
     "--threads"),
    (["psi", "--mu", "2", "--u", "0", "--threads", "0"], "--threads"),
    # at 1.0001 the ruin series would need more terms than the oracle's cap
    (["psi", "--mu", "1.0001", "--u", "0.5"], "--mu"),
    (["psi", "--mu", "0.5", "--u", "0.5"], "--mu"),
    (["example1", "--mu", "1.0001", "--a", "1", "--seed", "1"], "--mu"),
    (["example2", "--mu", "1", "--a", "1", "--seed", "1"], "--mu"),
    (["example1", "--mu", "2", "--a", "0", "--seed", "1"], "--a"),
    (["example2", "--mu", "2", "--a", "-1", "--seed", "1"], "--a"),
    # a checkpoint must lie in (0, t_max = 400]: 0 and -1 gave a vacuous
    # PASS, nan and inf a traceback, 1e9 a 14.6 TiB grid and 500 (past
    # the cap, every path censored) an empty-array traceback
    (["example2", "--mu", "2", "--a", "1", "--paths", "10", "--seed", "1",
      "--checkpoints", "0"], "--checkpoints"),
    (["example2", "--mu", "2", "--a", "1", "--paths", "10", "--seed", "1",
      "--checkpoints", "-1"], "--checkpoints"),
    (["example2", "--mu", "2", "--a", "1", "--paths", "10", "--seed", "1",
      "--checkpoints", "nan"], "--checkpoints"),
    (["example2", "--mu", "2", "--a", "1", "--paths", "10", "--seed", "1",
      "--checkpoints", "2,inf"], "--checkpoints"),
    (["example2", "--mu", "2", "--a", "1", "--paths", "10", "--seed", "1",
      "--checkpoints", "1e9"], "--checkpoints"),
    (["example2", "--mu", "2", "--a", "1", "--paths", "10", "--seed", "1",
      "--checkpoints", "500"], "--checkpoints"),
    # the generator's scope is depth 1..8 and branching 1..4
    (["gen", "--seed", "1", "--out", os.devnull, "--depth", "9"], "--depth"),
    (["gen", "--seed", "1", "--out", os.devnull, "--depth", "0"], "--depth"),
    (["gen", "--seed", "1", "--out", os.devnull, "--branching", "7"],
     "--branching"),
    (["verify", "--models-seed-range", "1..1", "--depth", "9"], "--depth"),
    (["verify", "--models-seed-range", "1..1", "--branching", "0"],
     "--branching"),
    (["crosscheck", "--seeds", "1..1", "--depth", "0"], "--depth"),
    (["crosscheck", "--seeds", "1..1", "--branching", "7"], "--branching"),
    # the Philox streams take no negative master seed
    (["example1", "--mu", "2", "--a", "1", "--seed", "-1"], "--seed"),
    (["example2", "--mu", "2", "--a", "1", "--seed", "-1"], "--seed"),
    (["psi", "--mu", "2", "--u", "0", "--seed", "-1"], "--seed"),
    (["brownian", "--epsilon", "0.25", "--seed", "-1"], "--seed"),
    # an output file in a missing directory, and a fixtures directory
    # that is a file, exit 2 before the command runs
    (["gen", "--seed", "1", "--out", MISSING], "--out"),
    (["verify", "--models-seed-range", "1..1", "--out", MISSING], "--out"),
    (["nupbr", "--model", str(FIXTURES / "tent.json"), "--out", MISSING],
     "--out"),
    (["crosscheck", "--seeds", "1..1", "--csv", MISSING], "--csv"),
    (["crosscheck", "--seeds", "1..1",
      "--fixtures-dir", str(FIXTURES / "tent.json")], "--fixtures-dir"),
    (["example1", "--mu", "2", "--a", "1", "--seed", "1", "--csv", MISSING],
     "--csv"),
    (["example2", "--mu", "2", "--a", "1", "--seed", "1", "--csv", MISSING],
     "--csv"),
    (["psi", "--mu", "2", "--u", "0", "--csv", MISSING], "--csv"),
    (["brownian", "--epsilon", "0.25", "--seed", "1", "--out", MISSING],
     "--out"),
    # commands that run no worker threads take no --threads
    (["gen", "--seed", "1", "--out", os.devnull, "--threads", "7"],
     "--threads"),
    (["nupbr", "--model", str(FIXTURES / "tent.json"), "--threads", "7"],
     "--threads"),
    (["brownian", "--epsilon", "0.25", "--dt", "1e-3", "--paths", "1",
      "--seed", "1", "--time-cap", "0.002", "--threads", "7"], "--threads"),
    (["verify", "--models-seed-range", "1..1", "--depth", "2",
      "--threads", "1"], "--threads"),
    (["verify", "--models-seed-range", "1..1", "--depth", "2",
      "--threads", "2"], "--threads"),
    (["crosscheck", "--seeds", "1..1", "--threads", "2"], "--threads"),
    # a non-finite value compared 0 with 0 and passed, or escaped as a
    # traceback, or failed a check that had nothing to run on (a nan
    # --mu and an infinite --dt already exited 2)
    (["psi", "--mu", "2", "--u", "inf"], "--u"),
    (["psi", "--mu", "2", "--u", "0,inf"], "--u"),
    (["psi", "--mu", "inf", "--u", "0"], "--mu"),
    (["psi", "--mu", "nan", "--u", "0"], "--mu"),
    (["example1", "--mu", "inf", "--a", "1", "--seed", "1"], "--mu"),
    (["example1", "--mu", "2", "--a", "inf", "--seed", "1"], "--a"),
    (["example2", "--mu", "2", "--a", "inf", "--seed", "1"], "--a"),
    (["brownian", "--epsilon", "0.25", "--seed", "1", "--time-cap", "inf"],
     "--time-cap"),
    (["brownian", "--epsilon", "0.25", "--seed", "1", "--dt", "inf"],
     "--dt"),
    # the nested walks started 250,000 steps from either boundary and
    # never finished; a 10^8-step cap is the most the walk may take
    (["brownian", "--epsilon", "0.25", "--dt", "1e-12", "--time-cap",
      "1e-4", "--paths", "1", "--seed", "1"], "--dt"),
    (["brownian", "--epsilon", "0.25", "--dt", "1e-6", "--time-cap", "101",
      "--paths", "1", "--seed", "1"], "--time-cap"),
    # path counts stop at 10^7: at 10^12, example1 would first build a
    # list of 2.4e8 chunk tuples, tens of GB
    (["example1", "--mu", "2", "--a", "1", "--paths", "1000000000000",
      "--seed", "1"], "--paths"),
    (["example2", "--mu", "2", "--a", "1", "--paths", "10000001",
      "--seed", "1"], "--paths"),
    (["psi", "--mu", "2", "--u", "0", "--mc-paths", "10000001"],
     "--mc-paths"),
    (["brownian", "--epsilon", "0.25", "--paths", "10000001", "--seed", "1"],
     "--paths"),
])
def test_cli_rejects_out_of_range_flags(args, flag, capsys):
    assert main(args) == 2
    assert flag in capsys.readouterr().err


def test_example2_builds_one_oracle_per_rate(monkeypatch, capsys):
    # the --mu check, the model, its tail level and the deflator grids
    # all read the one shared oracle of the rate
    built = []
    real = RuinOracle.__post_init__

    def counted(self):
        built.append(self.mu)
        real(self)

    monkeypatch.setattr(RuinOracle, "__post_init__", counted)
    RuinOracle.shared.cache_clear()
    assert main(["example2", "--mu", "2", "--a", "1", "--paths", "10",
                 "--seed", "1"]) == 0
    capsys.readouterr()
    assert built == [2.0]
