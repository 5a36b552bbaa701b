#!/usr/bin/env python3
"""Steadiness check and baseline recorder for the benchmark.

    python3 perfbench/steady.py --seeds 1-10 [--sets 2] \
        [--workloads finite,ladder] [--seconds 30] [--write]

Runs the command of BENCHMARK.json once per (set, seed, workload), seed
by seed so that machine drift spreads over every workload, each run
with --trace 0.  For every end-to-end metric it prints the median, the
quartiles and the spread (q3 - q1) / median of each set, against the
metric's bound; between sets it prints the shift of the median in the
worse direction, and it checks that each seed's output digest is the
same in every set.  --write records the baseline, the environment, one
traced run per workload (seed of the first set) and the per-layer to
end-to-end mapping in perfbench/BASELINE.json.  Raw results go to
.perfbench-out/.  Exit status 1 when a run fails, a digest differs, or
a spread or shift exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    digest = next((line.split()[1] for line in lines
                   if line.startswith("digest ")), None)
    return {"workload": workload, "seed": seed, "trace": trace,
            "returncode": done.returncode, "wall_s": wall, "digest": digest,
            "result": result, "lines": lines[:-1],
            "stderr": done.stderr[-2000:]}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        values = values * 2  # one run: quartiles collapse to the value
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "runs": len(values)}


def summarise(runs: list[dict]) -> dict:
    """workload -> metric -> quartile summary, over the given runs."""
    out = {}
    for w in {r["workload"] for r in runs}:
        mine = [r for r in runs if r["workload"] == w]
        out[w] = {m["name"]: quartiles([r["result"]["metrics"][m["name"]]
                                        ["value"] for r in mine])
                  for m in SPEC["end_to_end"]}
    return out


def worse_shift(first: float, second: float, better: str) -> float:
    """Share by which the second median is worse than the first."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/steady.py")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--write", action="store_true")
    args = p.parse_args(argv)
    seeds = seed_list(args.seeds)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}

    sets: list[list[dict]] = []
    started = time.time()
    for k in range(args.sets):
        runs = []
        for seed in seeds:
            for w in workloads:
                r = run_once(w, seed, args.seconds, 0)
                runs.append(r)
                print(f"set {k} seed {seed} {w}: rc {r['returncode']} "
                      f"wall {r['wall_s']:.1f} s "
                      + " ".join(f"{n}={v['value']:.5g}" for n, v in
                                 r["result"].get("metrics", {}).items()),
                      flush=True)
        sets.append(runs)

    ok = True
    all_runs = [r for runs in sets for r in runs]
    for r in all_runs:
        if r["returncode"] != 0 or not r["result"].get("correct"):
            ok = False
            print(f"FAILED run {r['workload']} seed {r['seed']}: "
                  f"{r['lines'][-8:]} {r['stderr']}")
    if not ok:
        return 1
    for w in workloads:
        for seed in seeds:
            digests = {r["digest"] for r in all_runs
                       if r["workload"] == w and r["seed"] == seed}
            if len(digests) != 1:
                ok = False
                print(f"DIGEST MISMATCH {w} seed {seed}: {digests}")

    summaries = [summarise(runs) for runs in sets]
    for w in workloads:
        print(f"\n{w}")
        for name, m in bounds.items():
            cells = []
            for s in summaries:
                q = s[w][name]
                flag = ("" if q["spread"] <= m["bound"] / 3 else
                        " (above bound/3)" if q["spread"] <= m["bound"]
                        else " (ABOVE BOUND)")
                if q["spread"] > m["bound"]:
                    ok = False
                cells.append(f"median {q['median']:.5g} q1 {q['q1']:.5g} "
                             f"q3 {q['q3']:.5g} spread {q['spread']:.4f}"
                             f"{flag}")
            if len(summaries) > 1:
                shift = worse_shift(summaries[0][w][name]["median"],
                                    summaries[-1][w][name]["median"],
                                    m["better"])
                if shift > m["bound"]:
                    ok = False
                cells.append(f"shift {shift:+.4f}")
            print(f"  {name:<16} bound {m['bound']}: " + " | ".join(cells))
    walls = [r["wall_s"] for r in all_runs]
    print(f"\nruns {len(walls)}, wall per run: median {statistics.median(walls):.1f} s"
          f", max {max(walls):.1f} s; elapsed {time.time() - started:.0f} s")

    stamp = time.strftime("%Y%m%dT%H%M%S")
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"steady-{stamp}.json").write_text(json.dumps(sets, indent=1))

    if args.write:
        write_baseline(sets, summaries, seeds, workloads, args.seconds, ok)
    return 0 if ok else 1


E2E_DEFINITIONS = {
    "setup_s": "median of 15 fresh-interpreter set-ups spread evenly over "
               "the timed loop (whose clock stops meanwhile): engine import "
               "plus the workload's input generation and "
               "PoissonModel/RuinOracle construction",
    "items_per_s": "models (finite workloads: models_per_s) or simulated "
                   "paths (MC workloads: paths_per_s; ladder counts outer "
                   "paths at the default 64 x 500 nested estimate) per "
                   "second of the timed loop",
    "request_p50_ms": "median latency of one closed-loop request "
                      "(model_p50_ms on the finite workloads)",
    "request_tail_ms": "highest percentile with at least ten requests "
                       "beyond it, printed with the request count; with "
                       "fewer than 22 requests (poisson-mc, ladder) the "
                       "maximum (model_tail_ms on the finite workloads)",
    "peak_rss_mb": "ru_maxrss of the benchmark process",
    "failed_frac": "printed line, not a metric because it is 0 on correct "
                   "code: failed operations over attempted ones, the same "
                   "as the result's failed / attempted",
}


def write_baseline(sets, summaries, seeds, workloads, seconds,
                   within_bounds: bool) -> None:
    traced = {w: run_once(w, seeds[0], seconds, 1) for w in workloads}
    env_line = sets[0][0]["lines"][0]
    words = env_line.split("|")[1].split()
    env = {k: int(v) if v.isdigit() else v
           for k, v in zip(words[::2], words[1::2])}
    mapping = {name: {"workloads": list(ws), "moves": list(moves)}
               for name, (_, _, _, ws, moves) in
               tracing.LAYER_METRICS.items()}
    baseline = {
        "recorded": time.strftime("%Y-%m-%d"),
        "within_bounds": within_bounds,
        "environment": env | {
            "cpu": cpu_model(), "run_seconds": seconds,
            "note": "ENLAB_THREADS and every threads= argument set to 1; "
                    "--threads above nproc is refused"},
        "end_to_end_definitions": E2E_DEFINITIONS,
        "per_layer_note": (
            "busy seconds (outermost span of each name) and counts of one "
            "traced pass over the workload's first trace_requests requests, "
            "median over the traced passes of one run; a layer the workload "
            "does not reach reads 0; trace.overhead_pct compares traced and "
            "untraced passes of the same requests and is unresolved "
            "(trace_overhead_resolved false) unless it exceeds "
            "trace.noise_pct, the quartile spread of the untraced passes"),
        "workloads": {
            w: {"why": WORKLOADS[w].why, "request": WORKLOADS[w].request_doc,
                "item": WORKLOADS[w].item,
                "size": {k: v for k, v in WORKLOADS[w].sizes["full"].items()},
                "end_to_end": [s[w] for s in summaries],
                "seeds": seeds,
                "digests": {str(r["seed"]): r["digest"] for r in sets[0]
                            if r["workload"] == w},
                "traced_seed": seeds[0],
                "traced_digest": next((line.split()[1] for line in
                                       traced[w]["lines"]
                                       if line.startswith("digest ")), None),
                "per_layer": traced[w]["result"].get("metrics", {}),
                "trace_overhead_resolved": resolved(traced[w])}
            for w in workloads},
        "per_layer_moves": mapping,
    }
    path = ROOT / "perfbench" / "BASELINE.json"
    path.write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def resolved(traced_run: dict) -> bool:
    """A tracing overhead counts only above the untraced passes' spread."""
    m = traced_run["result"].get("metrics", {})
    return (tracing.OVERHEAD_METRIC in m and m[tracing.OVERHEAD_METRIC]
            ["value"] > m[tracing.NOISE_METRIC]["value"])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
