"""The three benchmark workloads.

Each workload derives its inputs from the benchmark seed, runs one
closed-loop request at a time through the public functions of the
engine modules, and checks every output.  A request returns an
``Outcome``: the items it processed, the checked operations it made,
the checks that failed, and a deterministic, JSON-serialisable output
that feeds the run's digest.

Engine functions are always called through their module
(``harness.run_identity_suite(...)``), never through names imported
into this file, so the tracer's rebinding of module attributes sees
every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Acceptance-gate parameter shapes.
DEPTH, BRANCHING = 5, 3
MU, A, CHECKPOINTS = 2.0, 1.0, (1.0, 2.0, 5.0)
RUIN_MUS, RUIN_US = (1.5, 2.0, 4.0), (0.0, 0.5, 1.0, 2.0)
EPS, DT = 0.25, 1e-4


@dataclass
class Outcome:
    items: int                 # models or simulated paths processed
    ops: int                   # checked operations
    failures: list[str]        # one line per failed check
    output: object             # deterministic output, digested
    findings: int = 0          # reportable, non-failing results


@dataclass
class State:
    seed: int
    size: dict
    threads: int
    extra: dict = field(default_factory=dict)


def model_seed(seed: int, index: int) -> int:
    """Model seed of request `index`; seed 0 starts at the acceptance
    gate's model 1."""
    return 1 + 10_000 * seed + index


class Finite:
    name = "finite"
    findings = "disagreements"
    why = ("exact identity suite then theorem-2 cross-check on each "
           "generated model (criteria 1 and 7); Fraction-heavy finite "
           "engine: enlargement, finite_prob, nupbr")
    item = "model"
    request_doc = ("harness.run_identity_suite, then harness.run_crosscheck, "
                   "on one generated model (depth 5, branching 3, scalar "
                   "asset)")
    sizes = {"full": {"trace_requests": 12}, "tiny": {"trace_requests": 2}}

    def setup(self, seed: int, size: str, threads: int) -> State:
        return State(seed, self.sizes[size], threads)

    def request(self, st: State, index: int) -> Outcome:
        from enlab import harness
        seed = model_seed(st.seed, index)
        suite = harness.run_identity_suite([seed], depth=DEPTH,
                                           branching=BRANCHING,
                                           threads=st.threads)
        report = suite.to_json()
        del report["elapsed_seconds"]  # timing is not deterministic output
        failures = [
            f"finite model seed {seed}: identity row not ok "
            f"(replay: enlab verify --models-seed-range {seed}..{seed})"
            for row in suite.rows if not row["ok"]]
        cross = harness.run_crosscheck([seed], depth=DEPTH,
                                       branching=BRANCHING,
                                       threads=st.threads)
        failures += [
            f"finite model seed {seed}: witness re-verification failed "
            f"(replay: enlab crosscheck --seeds {seed}..{seed})"
            for row in cross.rows if not row["witnesses_ok"]]
        if suite.n_models != 1 or len(cross.rows) != 1:
            failures.append(f"finite model seed {seed}: expected one row "
                            "per suite")
        return Outcome(1, 2, failures,
                       {"identity": report, "crosscheck": cross.rows},
                       findings=cross.n_disagreements)


class PoissonMC:
    name = "poisson-mc"
    findings = "ruin_mc comparisons beyond 3 SE"
    why = ("vectorised numpy Poisson examples and ruin MC vs the PK oracle "
           "(criteria 4-6); no Fraction work, so the bypass for finite-"
           "engine changes")
    item = "path"
    request_doc = ("one repetition on fresh MC seeds: example1_run and "
                   "example2_run at mu=2, a=1 (checkpoints 1, 2, 5), then "
                   "ruin_mc against RuinOracle.psi_many at u in "
                   "{0, 0.5, 1, 2} for mu in {1.5, 2, 4}")
    sizes = {
        "full": {"example1": 65_536, "example2": 32_768, "ruin": 32_768,
                 "trace_requests": 1},
        "tiny": {"example1": 4_096, "example2": 4_096, "ruin": 4_096,
                 "trace_requests": 1},
    }

    def setup(self, seed: int, size: str, threads: int) -> State:
        from enlab import poisson_mc, ruin
        st = State(seed, self.sizes[size], threads)
        st.extra["model"] = poisson_mc.PoissonModel(mu=MU, a=A)
        st.extra["oracles"] = {mu: ruin.RuinOracle(mu) for mu in RUIN_MUS}
        return st

    # Criterion 6 compares 12 frequencies with the oracle at 3 SE.  On a
    # fresh seed that family exceeds 3 SE by chance in about 3% of
    # repetitions, so a request fails only beyond RUIN_FAIL_SE (chance
    # about 1e-5 per repetition) and counts its 3 SE exceedances as
    # findings.  The examples are checked exactly or at 4 SE.
    RUIN_STATED_SE, RUIN_FAIL_SE = 3, 5

    def example_seed(self, seed: int, index: int) -> int:
        """Seed 0, repetition 0 is the acceptance gate's seed 7."""
        return 7 + 1000 * seed + index

    def ruin_seed(self, seed: int, index: int, k: int) -> int:
        """Seed 0, repetition 0 is the acceptance gate's seeds 60-62."""
        return 60 + 1000 * seed + 3 * index + k

    def request(self, st: State, index: int) -> Outcome:
        import numpy as np
        from enlab import poisson_mc
        size = st.size
        base = self.example_seed(st.seed, index)
        failures = []
        out = {}

        r1 = poisson_mc.example1_run(st.extra["model"], size["example1"],
                                     base, threads=st.threads)
        scaling = (r1.lambda_table[10.0] == 10.0 * r1.lambda_table[1.0]
                   and r1.lambda_table[100.0] == 100.0 * r1.lambda_table[1.0])
        if not (r1.monotone_ok and r1.frac_strictly_positive == 1.0
                and r1.positive_at_99 and scaling):
            failures.append(f"poisson-mc example1 seed {base}: criterion 4 "
                            "check failed")
        out["example1"] = {
            "n_paths": r1.n_paths, "n_censored": r1.n_censored,
            "mean": r1.mean_terminal, "se": r1.se_terminal,
            "positive_at_99": bool(r1.positive_at_99),
            "frac_strictly_positive": r1.frac_strictly_positive,
            "monotone_ok": bool(r1.monotone_ok)}

        r2 = poisson_mc.example2_run(st.extra["model"], size["example2"],
                                     base, checkpoints=CHECKPOINTS,
                                     threads=st.threads)
        if not (r2.positivity_ok and r2.martingale_ok):
            failures.append(f"poisson-mc example2 seed {base}: criterion 5 "
                            "check (4 SE) failed")
        out["example2"] = {
            "n_censored": r2.n_censored, "min_deflator": r2.min_deflator,
            "deflator": [[s.mean, s.se] for s in r2.deflator],
            "product": [[s.mean, s.se] for s in r2.product]}

        us = np.array(RUIN_US)
        ruin_out = []
        beyond_stated = 0
        for k, mu in enumerate(RUIN_MUS):
            oracle = st.extra["oracles"][mu]
            ruin_seed = self.ruin_seed(st.seed, index, k)
            freq, se = poisson_mc.ruin_mc(mu, us, size["ruin"], ruin_seed,
                                          threads=st.threads)
            pk = oracle.psi_many(us)
            gap = np.abs(pk - freq)
            beyond_stated += int(np.sum(gap > self.RUIN_STATED_SE * se))
            if not (abs(oracle.psi(0.0) - 1.0 / mu) <= 1e-10
                    and bool(np.all(gap <= self.RUIN_FAIL_SE * se))):
                failures.append(f"poisson-mc ruin_mc mu={mu} seed "
                                f"{ruin_seed}: frequency beyond "
                                f"{self.RUIN_FAIL_SE} SE of the oracle")
            ruin_out.append({"mu": mu, "freq": freq.tolist(),
                             "se": se.tolist(), "psi": pk.tolist()})
        out["ruin"] = ruin_out
        items = size["example1"] + size["example2"] + 3 * size["ruin"]
        return Outcome(items, 5, failures, out, findings=beyond_stated)


class Ladder:
    name = "ladder"
    findings = None
    why = ("sequential excursion-ladder walks with the default nested "
           "estimate (criterion 8); its layer does no work in any other "
           "workload")
    item = "path"
    request_doc = ("brownian_demo(eps=0.25, dt=1e-4) on a fresh seed with "
                   "the default nested estimate (64 x 500 inner walks)")
    sizes = {"full": {"paths": 1000, "trace_requests": 1},
             "tiny": {"paths": 2, "trace_requests": 1}}

    def setup(self, seed: int, size: str, threads: int) -> State:
        return State(seed, self.sizes[size], threads)

    def request(self, st: State, index: int) -> Outcome:
        from enlab import brownian_demo
        seed = 1 + 1000 * st.seed + index
        paths = st.size["paths"]
        r = brownian_demo.brownian_demo(EPS, DT, paths=paths, seed=seed)
        failures = [] if r.structural_ok else [
            f"ladder seed {seed}: structural check failed (replay: enlab "
            f"brownian --epsilon {EPS} --dt {DT} --paths {paths} "
            f"--seed {seed})"]
        out = {"seed": seed, "n_paths": r.n_paths,
               "n_censored": r.n_censored,
               "structural_ok": bool(r.structural_ok),
               "mean_last_return": r.mean_last_return,
               "inner_estimates": r.inner_estimates.tolist(),
               "frac_near_one": r.frac_near_one}
        return Outcome(paths, 1, failures, out)


WORKLOADS = {w.name: w for w in
             (Finite(), PoissonMC(), Ladder())}
