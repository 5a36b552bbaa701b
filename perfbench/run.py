#!/usr/bin/env python3
"""enlab benchmark: one process, one thread, one closed-loop caller.

    python3 perfbench/run.py --workload finite --seed 1 \
        --seconds 30 --trace 0

  --workload  finite, poisson-mc, ladder, or all
  --seed      workload seed; every input is derived from it
  --seconds   length of the timed loop
  --trace 0   end-to-end metrics, measured untraced
  --trace 1   per-layer metrics from traced passes, plus the tracing
              overhead against untraced passes of the same requests and
              the spread of those untraced passes
  --threads   engine threads (ENLAB_THREADS and every threads=
              argument), default 1; a count above nproc is refused
  --size      full (default) or tiny (the self-tests)

Run it from the repository root; the engine is imported from ./src.
Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Spans of a traced run are written to .perfbench-out/.  Exit status: 0
when every output check passed, 1 when one failed, 2 on a usage error or
when ./src/enlab cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, Outcome  # noqa: E402

OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 15
TAIL_BEYOND = 10
E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# names the issue tracker uses for the generic end-to-end metrics
ALIASES = {
    "model": {"items_per_s": "models_per_s", "request_p50_ms": "model_p50_ms",
              "request_tail_ms": "model_tail_ms"},
    "path": {"items_per_s": "paths_per_s"},
}


class EngineMissing(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Benchmark the enlab engines on one workload.")
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    nproc = os.cpu_count() or 1
    if not 1 <= args.threads <= nproc:
        p.error(f"--threads {args.threads} outside 1..{nproc} (nproc)")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def pin_threads(threads: int) -> None:
    """Set every thread knob before numpy or the engine is imported."""
    os.environ["ENLAB_THREADS"] = str(threads)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_engine():
    src = ROOT / "src"
    if not (src / "enlab" / "__init__.py").is_file():
        raise EngineMissing(f"no engine source at {src / 'enlab'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import numpy
        import enlab
        from enlab import brownian_demo, harness, poisson_mc, ruin  # noqa: F401
    except ImportError as exc:
        raise EngineMissing(f"cannot import enlab from {src}: {exc}") from exc
    if Path(enlab.__file__).resolve().parent != (src / "enlab").resolve():
        raise EngineMissing(f"enlab resolved to {enlab.__file__}, "
                            f"not {src / 'enlab'}")


def environment(threads: int) -> dict:
    import numpy
    return {"threads": threads, "ENLAB_THREADS": os.environ["ENLAB_THREADS"],
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

def call(workload, st, index: int) -> Outcome:
    """One request; an exception counts as one failed operation."""
    try:
        return workload.request(st, index)
    except Exception as exc:  # the loop must go on and report it
        traceback.print_exc(file=sys.stderr)
        return Outcome(0, 1, [f"{workload.name} request {index} raised "
                              f"{type(exc).__name__}: {exc}"],
                       {"raised": type(exc).__name__})


def digest(outputs) -> str:
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.items = self.attempted = self.findings = 0
        self.failures: list[str] = []

    def add(self, outcome: Outcome, latency: float) -> None:
        self.latencies.append(latency)
        self.items += outcome.items
        self.attempted += outcome.ops
        self.findings += outcome.findings
        self.failures.extend(outcome.failures)


def run_pass(workload, st, count: int, tally: Tally, tracer=None):
    """Requests 0..count-1; returns (seconds, digest of their outputs)."""
    outputs = []
    start = time.perf_counter()
    for i in range(count):
        if tracer is not None:
            tracer.request = f"{workload.name}/{st.seed}/{i}"
        t0 = time.perf_counter()
        outcome = call(workload, st, i)
        tally.add(outcome, time.perf_counter() - t0)
        outputs.append(outcome.output)
    return time.perf_counter() - start, digest(outputs)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it, as
    (value, percentile).  With too few samples for that percentile to
    reach the median, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * (TAIL_BEYOND + 1):
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# ---------------------------------------------------------------------------
# End-to-end and traced runs
# ---------------------------------------------------------------------------

def setup_probe(args, name: str) -> float:
    """Set-up time of a fresh interpreter: engine import plus the
    workload's input generation and model/oracle construction."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(args.seed), "--size", args.size,
           "--threads", str(args.threads)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_e2e(args, workload, st) -> tuple[dict, Tally, list[str]]:
    """The timed loop, with SETUP_PROBES set-up probes spread evenly over
    it (so set-up time samples the same stretch of machine time as the
    requests); the loop's clock stops while a probe runs."""
    setup: list[float] = []
    probing = 0.0
    tally = Tally()
    first = st.size["trace_requests"]
    start = time.perf_counter()

    def probe_when_due(at_end: bool = False) -> None:
        nonlocal probing
        while len(setup) < SETUP_PROBES and (
                at_end or time.perf_counter() - start - probing
                >= len(setup) * args.seconds / SETUP_PROBES):
            t0 = time.perf_counter()
            setup.append(setup_probe(args, workload.name))
            probing += time.perf_counter() - t0

    probe_when_due()
    _, first_digest = run_pass(workload, st, first, tally)
    i = first
    while time.perf_counter() - start - probing < args.seconds:
        probe_when_due()
        t0 = time.perf_counter()
        outcome = call(workload, st, i)
        tally.add(outcome, time.perf_counter() - t0)
        i += 1
    elapsed = time.perf_counter() - start - probing
    probe_when_due(at_end=True)
    tail_value, tail_pct = tail(tally.latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": tally.items / elapsed,
        "request_p50_ms": 1000 * statistics.median(tally.latencies),
        "request_tail_ms": 1000 * tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    n = len(tally.latencies)
    notes = [
        f"requests {n} ({workload.item}s: {tally.items}) in {elapsed:.2f} s",
        f"digest {first_digest} over the first {first} requests",
        f"setup_s samples {' '.join(f'{s:.4f}' for s in setup)}",
        f"request_tail_ms is p{tail_pct:.1f} of {n} requests"
        + (" (too few for a percentile with ten beyond it at or above "
           "the median: the maximum)" if tail_pct == 100.0 else ""),
    ]
    for generic, alias in ALIASES[workload.item].items():
        notes.append(f"{alias} = {generic} = {metrics[generic]:.6g}")
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, tally, notes


def run_traced(args, workload, st) -> tuple[dict, Tally, list[str]]:
    """Alternate untraced and traced passes over the same requests until
    the time is up (at least two untraced and one traced)."""
    count = st.size["trace_requests"]
    tally = Tally()
    tracer = tracing.Tracer()
    plain, traced, per_pass, span_passes, digests = [], [], [], [], set()
    start = time.perf_counter()
    while (not traced or len(plain) < 2
           or time.perf_counter() - start < args.seconds):
        if len(plain) > len(traced):
            tracer.reset()
            with tracer:
                seconds, d = run_pass(workload, st, count, tally, tracer)
            traced.append(seconds)
            per_pass.append(tracing.layer_metrics(tracer.spans,
                                                  tracer.counts))
            span_passes.append(tracer.spans)
        else:
            seconds, d = run_pass(workload, st, count, tally)
            plain.append(seconds)
        digests.add(d)
    if len(digests) != 1:
        tally.failures.append(f"{workload.name}: outputs differ between "
                              "passes over the same requests")

    metrics = {name: (statistics.median(p[name] for p in per_pass), unit)
               for name, (unit, *_) in tracing.LAYER_METRICS.items()}
    overhead = 100 * (statistics.median(traced) / statistics.median(plain)
                      - 1)
    q1, _, q3 = statistics.quantiles(plain, n=4)
    noise = 100 * (q3 - q1) / statistics.median(plain)
    metrics[tracing.OVERHEAD_METRIC] = (overhead, "%")
    metrics[tracing.NOISE_METRIC] = (noise, "%")

    trace_file = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
    tracing.write_spans(trace_file, span_passes)
    busy, own, calls = tracing.span_seconds(span_passes[0])
    notes = [f"passes of {count} requests: {len(plain)} untraced "
             f"(median {statistics.median(plain):.3f} s), {len(traced)} "
             f"traced (median {statistics.median(traced):.3f} s)",
             f"digest {digests.pop() if len(digests) == 1 else 'MISMATCH'} "
             f"over the first {count} requests",
             f"trace.overhead_pct {overhead:.3g}% is "
             + ("resolved" if overhead > noise else
                "unresolved: not above trace.noise_pct, the quartile "
                "spread of the untraced passes")
             + f" ({noise:.3g}%)",
             f"spans written to {trace_file.relative_to(ROOT)}",
             "span                                      calls     busy_s"
             "     self_s"]
    for name in sorted(busy, key=busy.get, reverse=True):
        notes.append(f"{name:<40} {calls[name]:>7} {busy[name]:>10.4f} "
                     f"{own[name]:>10.4f}")
    return metrics, tally, notes


def run_workload(args, name: str) -> int:
    workload = WORKLOADS[name]
    st = workload.setup(args.seed, args.size, args.threads)
    runner = run_traced if args.trace else run_e2e
    metrics, tally, notes = runner(args, workload, st)
    env = environment(args.threads)
    print(f"workload {name} seed {args.seed} size {args.size} trace "
          f"{args.trace} | " + " ".join(f"{k} {v}" for k, v in env.items()))
    for line in notes:
        print(line)
    if workload.findings:
        print(f"{workload.findings} {tally.findings} (reported, not failed)")
    for line in tally.failures[:20]:
        print(f"FAILED {line}")
    # one failed check per operation; extra messages (a differing
    # repetition) cannot push the count past the operations attempted
    failed = min(len(tally.failures), tally.attempted)
    print(f"failed_frac {failed / max(tally.attempted, 1):.6g} "
          f"({failed} of {tally.attempted} operations)")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    result = {"correct": failed == 0, "attempted": max(tally.attempted, 1),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads(args.threads)
    t0 = time.perf_counter()
    try:
        import_engine()
    except EngineMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        WORKLOADS[args.workload].setup(args.seed, args.size, args.threads)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(args, name) for name in names)


if __name__ == "__main__":
    sys.exit(main())
