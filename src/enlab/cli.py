"""Deterministic command-line front end.

Exit codes: 0 all hard checks passed; 1 a hard check failed (each
failing row of a verify report carries its counterexample, and the
FAIL line names the first failure and the command that replays it: the
model and its violated row for verify, the seed whose witness fails for
crosscheck, the verdict whose witness fails and its node for nupbr,
the path failing the structural check for brownian); 2 usage error.
Reports are JSON, tabular Monte Carlo output is CSV.
--threads (a positive count, on the Monte Carlo commands example1,
example2 and psi) caps their worker threads, clamped to the core count
and the chunk count; results are independent of its value.  The exact
commands run in one thread and take no --threads.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .brownian_demo import brownian_demo
from .errors import (
    EnlabError,
    InvalidDrift,
    InvariantError,
    SchemaError,
    UsageError,
)
from .harness import run_crosscheck, run_identity_suite
from .model_io import dump_model, load_model
from .nupbr import nupbr_check, verify_witness, witness_node
from .poisson_mc import (
    PoissonModel,
    example1_run,
    example2_run,
    ruin_mc,
)
from .random_times import BRANCHINGS, DEPTHS, analyze, generate_honest_model
from .ruin import RuinOracle


def _seed_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..", 1)
        seeds = range(int(lo), int(hi) + 1)
    else:
        seeds = range(1, int(text) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _reserves(text: str) -> tuple[float, ...]:
    us = _floats(text)
    if not all(0 <= u < math.inf for u in us):
        raise argparse.ArgumentTypeError(
            f"reserves must be finite and >= 0, got {text}")
    return us


def _positive(kind):
    def parse(text: str):
        value = kind(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be positive and finite, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in errors
    return parse


def _within(bounds: range):
    def parse(text: str) -> int:
        value = int(text)
        if value not in bounds:
            raise argparse.ArgumentTypeError(
                f"must be in {bounds[0]}..{bounds[-1]}, got {text}")
        return value
    parse.__name__ = "int"  # argparse names the type in errors
    return parse


_PATHS = range(1, 10**7 + 1)  # past 10^7 paths the chunk list outgrows memory


def _stream_seed(text: str) -> int:
    """A master seed of the Philox streams, which take no negative one."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return seed


_stream_seed.__name__ = "int"  # argparse names the type in errors


def _output_file(text: str) -> str:
    """A file the command can create: not a directory, in one that exists."""
    path = Path(text)
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"{text} is a directory")
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"no directory {path.parent}")
    return text


def _output_dir(text: str) -> str:
    """A directory the command writes into, made on first use."""
    if Path(text).exists() and not Path(text).is_dir():
        raise argparse.ArgumentTypeError(f"{text} is not a directory")
    return text


def _premium_rate(text: str) -> float:
    """A premium rate mu the ruin oracle accepts: above 1, and far enough
    above it for the series to converge within its term cap."""
    mu = float(text)
    if not math.isfinite(mu):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    try:
        RuinOracle.shared(mu)
    except InvalidDrift as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return mu


def _write_json(path, payload) -> None:
    if path:
        Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True))


def _summary(status: int, line: str) -> int:
    print(("PASS " if status == 0 else "FAIL ") + line)
    return status


def cmd_gen(args) -> int:
    space, tau, asset, _ = generate_honest_model(args.seed, args.depth,
                                                 args.branching)
    dump_model(space, tau, asset, args.out)
    return _summary(0, f"gen seed={args.seed} outcomes={len(space.outcomes)} "
                       f"-> {args.out}")


def cmd_verify(args) -> int:
    suite = run_identity_suite(args.models_seed_range,
                               args.depth, args.branching)
    _write_json(args.out, suite.to_json())
    line = (f"verify models={suite.n_models} "
            f"violations={suite.n_violations} elapsed={suite.elapsed:.1f}s")
    if suite.ok:
        return _summary(0, line)
    seed, row = next((seed, row) for seed, row in
                     zip(args.models_seed_range, suite.rows) if not row["ok"])
    return _summary(1, f"{line} first={row['model_id']} "
                       f"row={row['counterexample']['identity']} replay: "
                       f"enlab verify --models-seed-range {seed}..{seed} "
                       f"--depth {args.depth} --branching {args.branching}")


def cmd_nupbr(args) -> int:
    try:
        space, tau, asset = load_model(args.model)
    except (OSError, SchemaError, InvariantError) as exc:
        raise UsageError(f"argument --model: {type(exc).__name__}: {exc}",
                         field="--model") from exc
    analysis = analyze(space, tau)
    enlarged = analysis.enlarged
    after = analysis.after_part(asset)
    base = nupbr_check(asset, space)
    after_verdict = nupbr_check(after, space, enlarged)
    checks = (("base", base, asset, None),
              ("after", after_verdict, after, enlarged))
    failed = next(((name, verdict, x, f) for name, verdict, x, f in checks
                   if not verify_witness(verdict, x, space, f)), None)
    sound = failed is None
    payload = {"model": str(args.model),
               "honest": analysis.honest, "class_h": analysis.class_h,
               "base": base.to_json(), "after": after_verdict.to_json(),
               "witnesses_verified": sound}
    _write_json(args.out, payload)
    print(json.dumps(payload["base"]))
    print(json.dumps(payload["after"]))
    line = f"nupbr base={base.satisfied} after={after_verdict.satisfied}"
    if failed:
        name, verdict, x, f = failed
        node = witness_node(verdict, x, space, f)
        kind = "deflator" if verdict.satisfied else "arbitrage"
        line += (f" failed={name} witness={kind}"
                 + (f" t={node[0]} atom={','.join(node[1])}" if node else "")
                 + f" replay: enlab nupbr --model {args.model}")
    return _summary(0 if sound else 1, line)


def cmd_crosscheck(args) -> int:
    suite = run_crosscheck(args.seeds, args.depth,
                           args.branching, fixtures_dir=args.fixtures_dir)
    if args.csv:
        Path(args.csv).write_text("\n".join(suite.csv_lines()) + "\n")
    status = 0 if suite.n_witness_failures == 0 else 1
    line = (f"crosscheck seeds={len(suite.rows)} "
            f"disagreements={suite.n_disagreements} "
            f"witness_failures={suite.n_witness_failures} "
            f"elapsed={suite.elapsed:.1f}s")
    if status:
        seed = next(r["seed"] for r in suite.rows if not r["witnesses_ok"])
        line += (f" first={seed} replay: enlab crosscheck --seeds {seed}..{seed}"
                 f" --depth {args.depth} --branching {args.branching}")
    return _summary(status, line)


def cmd_example1(args) -> int:
    model = PoissonModel(mu=args.mu, a=args.a)
    report = example1_run(model, args.paths, args.seed,
                          threads=args.threads)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("path_id,terminal_wealth,min_wealth\n")
            for pid, w, lo in report.rows():
                fh.write(f"{pid},{w!r},{lo!r}\n")
    status = 0 if (report.monotone_ok and report.positive_at_99) else 1
    lam = {str(k): v for k, v in report.lambda_table.items()}
    return _summary(status, f"example1 mean={report.mean_terminal:.5f} "
                            f"se={report.se_terminal:.5f} "
                            f"frac_positive={report.frac_strictly_positive:.4f} "
                            f"censored={report.n_censored} lambda={lam}")


def cmd_example2(args) -> int:
    model = PoissonModel(mu=args.mu, a=args.a)
    try:
        report = example2_run(model, args.paths, args.seed,
                              checkpoints=args.checkpoints,
                              threads=args.threads)
    except UsageError as exc:
        raise UsageError(f"argument --checkpoints: {exc}",
                         field="--checkpoints") from exc
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("checkpoint,quantity,mean,se,flag\n")
            for s in report.deflator:
                fh.write(f"{s.checkpoint},deflator,{s.mean!r},{s.se!r},"
                         f"{int(s.ok)}\n")
            for s in report.product:
                fh.write(f"{s.checkpoint},product,{s.mean!r},{s.se!r},"
                         f"{int(s.ok)}\n")
    status = 0 if (report.positivity_ok and report.martingale_ok) else 1
    return _summary(status, f"example2 positivity={report.positivity_ok} "
                            f"martingale={report.martingale_ok} "
                            f"min_deflator={report.min_deflator:.5f} "
                            f"censored={report.n_censored}")


def cmd_psi(args) -> int:
    oracle = RuinOracle.shared(args.mu)
    us = np.asarray(args.u)
    pk = oracle.psi_many(us)
    freq, se = ruin_mc(args.mu, us, args.mc_paths, args.seed,
                       threads=args.threads)
    ok = bool(np.all(np.abs(pk - freq) <= 3 * se + 1e-12))
    lines = ["u,psi_pk,psi_mc,se"]
    for u, p, f, s in zip(us, pk, freq, se):
        print(f"psi({u}) = {p:.10f}   mc = {f:.6f} +- {s:.6f}")
        lines.append(f"{float(u)!r},{float(p)!r},{float(f)!r},{float(s)!r}")
    if args.csv:
        Path(args.csv).write_text("\n".join(lines) + "\n")
    return _summary(0 if ok else 1,
                    f"psi mu={args.mu} max|pk-mc|/se="
                    f"{float(np.max(np.abs(pk - freq) / np.maximum(se, 1e-300))):.2f}")


# the flag of every field brownian_demo can name in a brownian run, which
# leaves nested_outer and nested_inner at their defaults
_BROWNIAN_FLAGS = {"eps": "--epsilon", "dt": "--dt", "time_cap": "--time-cap",
                   "seed": "--seed", "paths": "--paths"}


def cmd_brownian(args) -> int:
    try:
        report = brownian_demo(args.epsilon, args.dt, args.paths, args.seed,
                               time_cap=args.time_cap)
    except UsageError as exc:
        raise UsageError(f"argument {_BROWNIAN_FLAGS[exc.field]}: {exc}",
                         field=exc.field) from exc
    # NaN when every path is censored; JSON has no NaN, so it reads null
    last = report.mean_last_return
    payload = {"eps": report.eps, "dt": report.dt, "paths": report.n_paths,
               "censored": report.n_censored,
               "structural_ok": report.structural_ok,
               "mean_last_return": None if math.isnan(last) else last,
               "inner_mean": float(report.inner_estimates.mean()),
               "lattice_survival": report.lattice_survival,
               "frac_near_one": report.frac_near_one,
               "class_h_plausible": report.class_h_plausible}
    _write_json(args.out, payload)
    status = 0 if report.structural_ok else 1
    line = (f"brownian structural={report.structural_ok} "
            f"censored={report.n_censored}/{report.n_paths} "
            f"inner_mean={payload['inner_mean']:.4f} "
            f"(lattice {report.lattice_survival:.4f})")
    if report.first_failed_path is not None:
        i = report.first_failed_path
        line += (f" first_path={i} replay: enlab brownian --epsilon "
                 f"{args.epsilon} --dt {args.dt} --paths {i + 1} "
                 f"--seed {args.seed} --time-cap {args.time_cap}")
    return _summary(status, line)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enlab",
        description="exact no-arbitrage verification after random times")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, threads=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        if threads:
            p.add_argument("--threads", type=_positive(int), default=None)
        return p

    def add_tree_shape(p):
        p.add_argument("--depth", type=_within(DEPTHS), default=5)
        p.add_argument("--branching", type=_within(BRANCHINGS), default=3)

    p = add("gen", cmd_gen, help="generate a model file")
    p.add_argument("--seed", type=int, required=True)
    add_tree_shape(p)
    p.add_argument("--out", type=_output_file, required=True)

    p = add("verify", cmd_verify, help="run the exact identity suite")
    p.add_argument("--models-seed-range", type=_seed_range, default="1..500")
    add_tree_shape(p)
    p.add_argument("--out", type=_output_file)

    p = add("nupbr", cmd_nupbr, help="verdicts for a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--out", type=_output_file)

    p = add("crosscheck", cmd_crosscheck, help="three-way theorem harness")
    p.add_argument("--seeds", type=_seed_range, default="1..1000")
    add_tree_shape(p)
    p.add_argument("--csv", type=_output_file)
    p.add_argument("--fixtures-dir", type=_output_dir)

    p = add("example1", cmd_example1, threads=True,
            help="after-time arbitrage strategy run")
    p.add_argument("--mu", type=_premium_rate, required=True)
    p.add_argument("--a", type=_positive(float), required=True)
    p.add_argument("--paths", type=_within(_PATHS), default=100_000)
    p.add_argument("--seed", type=_stream_seed, required=True)
    p.add_argument("--csv", type=_output_file)

    p = add("example2", cmd_example2, threads=True,
            help="deflator martingale run")
    p.add_argument("--mu", type=_premium_rate, required=True)
    p.add_argument("--a", type=_positive(float), required=True)
    p.add_argument("--paths", type=_within(_PATHS), default=100_000)
    p.add_argument("--seed", type=_stream_seed, required=True)
    p.add_argument("--checkpoints", type=_floats, default=(1.0, 2.0, 5.0))
    p.add_argument("--csv", type=_output_file)

    p = add("psi", cmd_psi, threads=True,
            help="ruin probability with MC cross-check")
    p.add_argument("--mu", type=_premium_rate, required=True)
    p.add_argument("--u", type=_reserves, required=True)
    p.add_argument("--mc-paths", type=_within(_PATHS), default=200_000)
    p.add_argument("--seed", type=_stream_seed, default=1)
    p.add_argument("--csv", type=_output_file)

    p = add("brownian", cmd_brownian, help="excursion-ladder diagnostic")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--dt", type=_positive(float), default=1e-4)
    p.add_argument("--paths", type=_within(_PATHS), default=20_000)
    p.add_argument("--seed", type=_stream_seed, required=True)
    p.add_argument("--time-cap", type=_positive(float), default=100.0)
    p.add_argument("--out", type=_output_file)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"enlab: error: {exc}", file=sys.stderr)
        return 2
    except EnlabError as exc:
        print(f"FAIL {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
