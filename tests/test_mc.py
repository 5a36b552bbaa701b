from __future__ import annotations

import argparse
import hashlib
import math
import warnings

import numpy as np
import pytest

from enlab import brownian_demo as bd
from enlab import poisson_mc as pm
from enlab.brownian_demo import brownian_demo, simulate_ladder_path
from enlab.cli import cmd_brownian, main
from enlab.errors import EnlabError, UsageError
from enlab.poisson_mc import (
    CHUNK,
    COLS,
    PoissonModel,
    example1_run,
    example2_run,
    example2_selftest,
    replay_path,
    ruin_mc,
)

from enlab.ruin import RuinOracle, shared_tail_level

from .oracles import (
    ref_example2_chunk,
    ref_selftest_chunk,
    ref_simulate_chunk,
    ref_simulate_path,
    ref_surplus_post,
)


@pytest.fixture(scope="module")
def model():
    return PoissonModel(mu=2.0, a=1.0)


def test_model_validation():
    with pytest.raises(EnlabError):
        PoissonModel(mu=0.9, a=1.0)
    with pytest.raises(EnlabError):
        PoissonModel(mu=2.0, a=-1.0)
    m = PoissonModel(mu=2.0, a=1.0)
    assert m.oracle.psi(m.u_star) < pm._EPS_TAIL


def test_simulate_path_deterministic(model):
    one = ref_simulate_path(model, seed=5)
    two = ref_simulate_path(model, seed=5)
    assert one == two
    other = ref_simulate_path(model, seed=6)
    assert other.jump_times != one.jump_times


def test_detected_time_geometry(model):
    # jump-free ascent through the level: the detected time is exactly
    # the crossing a/mu whenever the path never dips back to the level
    for seed in range(60):
        path = ref_simulate_path(model, seed=seed)
        if path.censored:
            continue
        assert path.tau_hat >= model.a / model.mu
        dips = [k for k in range(1, len(path.jump_times) + 1)
                if ref_surplus_post(path, k) <= model.a]
        if not dips:
            assert path.tau_hat == model.a / model.mu
        # after the detected time the surplus stays strictly above the level
        for k in range(1, len(path.jump_times) + 1):
            if path.jump_times[k - 1] > path.tau_hat:
                assert ref_surplus_post(path, k) > model.a


def _same_path(one, two) -> bool:
    return (one.jump_times == two.jump_times and one.end_time == two.end_time
            and one.tau_hat == two.tau_hat)


def test_simulate_path_is_the_chunk_reference(model):
    # the scalar loop and the chunked engine read the same row of the
    # same per-round streams, so uncensored paths agree exactly, also
    # past the first round of draws and past the first chunk
    for pid in (0, 1, CHUNK - 1, CHUNK, 2 * CHUNK + 5):
        ref = ref_simulate_path(model, 31, path_index=pid)
        assert not ref.censored
        assert _same_path(ref, replay_path(model, 31, pid))
    for seed in range(100):
        ref = ref_simulate_path(model, seed)
        if not ref.censored:
            assert _same_path(ref, replay_path(model, seed, 0))
    # under a short cap, both censor the same paths
    short = PoissonModel(mu=2.0, a=1.0, t_max=14.0)
    flags = [(ref_simulate_path(short, 31, path_index=pid).censored,
              replay_path(short, 31, pid).censored)
             for pid in range(40)]
    assert all(one == two for one, two in flags)
    assert {one for one, _ in flags} == {True, False}
    # and the censored paths agree too: they stop at the cap, without
    # the first jump past it
    for pid in range(40):
        ref = ref_simulate_path(short, 31, path_index=pid)
        assert _same_path(ref, replay_path(short, 31, pid))
        if ref.censored:
            assert ref.end_time == short.t_max
            assert all(t <= short.t_max for t in ref.jump_times)


def test_replay_matches_vectorized_run(model):
    report = example1_run(model, 3 * CHUNK + 17, seed=77)
    # recompute a handful of wealths from replayed paths, independently
    rng_ids = [0, 1, CHUNK, 2 * CHUNK + 5, 3 * CHUNK + 16]
    mu, a = model.mu, model.a
    for pid in rng_ids:
        path = replay_path(model, 77, pid)
        assert not path.censored
        landings = 0.0
        for k, t in enumerate(path.jump_times, start=1):
            y = ref_surplus_post(path, k)
            if t > path.tau_hat and a < y < a + 1:
                landings += (a + 1) - y
        expected = (1.0 + landings) / mu
        got = report.terminal[np.searchsorted(report.path_ids, pid)]
        assert math.isclose(got, expected, rel_tol=1e-12)


def test_example1_report(model):
    report = example1_run(model, 20_000, seed=7)
    assert report.monotone_ok
    assert report.n_censored == 0
    assert report.frac_strictly_positive == 1.0
    # every uncensored path banks at least the full band crossing
    assert report.terminal.min() >= 1.0 / model.mu - 1e-12
    assert report.positive_at_99
    assert report.lambda_table[10.0] == 10.0 * report.lambda_table[1.0]
    assert report.lambda_table[100.0] == 100.0 * report.lambda_table[1.0]


def test_example1_with_every_path_censored(capsys):
    # at a = 1000 no path reaches the band before the 400-unit cap: the
    # statistics are NaN, without numpy's "Mean of empty slice" warning,
    # and the run fails
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = example1_run(PoissonModel(mu=2.0, a=1000.0), 64, 1)
        assert main(["example1", "--mu", "2", "--a", "1000", "--paths", "64",
                     "--seed", "1"]) == 1
    assert "frac_positive=nan" in capsys.readouterr().out
    assert report.n_censored == 64 and report.terminal.size == 0
    assert math.isnan(report.mean_terminal)
    assert math.isnan(report.frac_strictly_positive)
    assert not report.positive_at_99


def test_thread_count_clamps(monkeypatch):
    from enlab.poisson_mc import thread_count

    monkeypatch.setattr("os.cpu_count", lambda: 8)
    assert thread_count() == 1
    assert thread_count(2) == 2
    # clamped to the core count
    assert thread_count(1000) == 8
    assert thread_count(0) == 1


def test_example1_deterministic_across_threads(model):
    one = example1_run(model, 10_000, seed=3, threads=1)
    two = example1_run(model, 10_000, seed=3, threads=4)
    assert np.array_equal(one.terminal, two.terminal)
    assert one.mean_terminal == two.mean_terminal


def test_example2_report(model):
    report = example2_run(model, 30_000, seed=7)
    assert report.positivity_ok and report.min_deflator > 0
    assert report.martingale_ok
    assert report.n_censored == 0
    cp1 = report.deflator[0]
    # the surplus cannot clear a+1 before time one at this drift, so the
    # deflator is exactly one there
    assert cp1.mean == 1.0 and cp1.se == 0.0


def test_example2_deterministic_across_threads(model):
    one = example2_run(model, 2 * CHUNK, seed=9, threads=1)
    two = example2_run(model, 2 * CHUNK, seed=9, threads=2)
    assert [(s.mean, s.se) for s in one.deflator] == \
        [(s.mean, s.se) for s in two.deflator]
    assert [(s.mean, s.se) for s in one.product] == \
        [(s.mean, s.se) for s in two.product]


def test_example2_selftest(model):
    report = example2_selftest(model, 20_000, seed=7)
    assert report.band_fails          # deterministic drift is detected
    assert report.independent_passes  # no-interaction control is clean


@pytest.mark.parametrize("checkpoints", [
    (0.0,), (1.0, -1.0), (math.nan,), (2.0, math.inf), (1e9,), (400.5,), (),
])
def test_example2_rejects_bad_checkpoints(model, checkpoints):
    for run in (example2_run, example2_selftest):
        with pytest.raises(UsageError) as err:
            run(model, 10, seed=1, checkpoints=checkpoints)
        assert err.value.field == "checkpoints"


def test_example2_at_the_cap_censors_every_path():
    # a checkpoint at t_max is accepted; no path can stop at or after
    # it, so there is nothing to check and neither verdict passes
    short = PoissonModel(mu=2.0, a=1.0, t_max=14.0)
    report = example2_run(short, 100, seed=1, checkpoints=(2.0, 14.0))
    assert report.n_censored == 100
    assert math.isnan(report.min_deflator)
    assert not report.positivity_ok and not report.martingale_ok
    control = example2_selftest(short, 100, seed=1, checkpoints=(14.0,))
    assert not control.independent_passes


def _chunk_outputs(monkeypatch, run, *args, **kwargs):
    """Run `run` and return its report with the per-chunk outputs its
    workers handed to the merge, in chunk order."""
    captured = []
    real = pm._map_chunks

    def spy(fn, n_paths, threads):
        out = real(fn, n_paths, threads)
        captured.extend(out)
        return out

    monkeypatch.setattr(pm, "_map_chunks", spy)
    return run(*args, **kwargs), captured


def _same_bytes(one, two) -> bool:
    return one.dtype == two.dtype and one.shape == two.shape \
        and one.tobytes() == two.tobytes()


@pytest.mark.parametrize("mu, a, checkpoints, threads", [
    (2.0, 1.0, (1.0, 2.0, 5.0), 1),
    (1.3, 1.0, (1.0, 2.0, 5.0), 1),       # chunks take several rounds
    (2.0, 1.0, (0.25, 1.0, 3.5), 1),      # 0.25: before most first jumps
    (6.0, 0.3, (5.0, 1.0, 2.0, 1.0), 1),  # unsorted, with a duplicate
    (2.0, 3.0, (1.0, 2.0, 5.0, 20.0), 2),
])
def test_example2_chunks_match_full_width_reference(mu, a, checkpoints,
                                                    threads, monkeypatch):
    # the per-path deflator and product of every chunk, bit for bit
    # against the evaluation over all columns of the rebuilt rounds
    model = PoissonModel(mu=mu, a=a)
    paths, seed = CHUNK + 700, 11
    _, chunks = _chunk_outputs(monkeypatch, example2_run, model, paths,
                               seed, checkpoints=checkpoints,
                               threads=threads)
    min_time = max(checkpoints)
    grids = pm._DeflatorGrids(mu, a, min_time)
    layout = pm._chunk_layout(paths)
    assert len(chunks) == len(layout) == 2
    widths = set()
    for (index, rows), got in zip(layout, chunks):
        c = ref_simulate_chunk(model, seed, index, rows, min_time)
        widths.add(c.T.shape[1])
        ref = ref_example2_chunk(model, grids, c, checkpoints)
        assert got["censored"] == int(c.censored.sum())
        for cp in checkpoints:
            assert _same_bytes(got[cp][0], ref[cp][0]), cp
            assert _same_bytes(got[cp][1], ref[cp][1]), cp
    if mu == 1.3:
        assert max(widths) > COLS


@pytest.mark.parametrize("mu, a, checkpoints, threads", [
    (2.0, 1.0, (1.0, 2.0, 5.0), 1),
    (1.3, 0.3, (5.0, 0.25, 2.0, 2.0), 2),
])
def test_selftest_chunks_match_full_width_reference(mu, a, checkpoints,
                                                    threads, monkeypatch):
    model = PoissonModel(mu=mu, a=a)
    paths, seed = CHUNK + 300, 5
    _, chunks = _chunk_outputs(monkeypatch, example2_selftest, model, paths,
                               seed, checkpoints=checkpoints,
                               threads=threads)
    layout = pm._chunk_layout(paths)
    assert len(chunks) == len(layout)
    for (index, rows), got in zip(layout, chunks):
        c = ref_simulate_chunk(model, seed, index, rows, max(checkpoints))
        ref = ref_selftest_chunk(model, seed, index, c, checkpoints)
        for cp in checkpoints:
            assert _same_bytes(got[cp][0], ref[cp][0]), cp
            assert _same_bytes(got[cp][1], ref[cp][1]), cp


@pytest.mark.parametrize("mu, min_time, t_max", [
    (2.0, 0.0, 400.0), (2.0, 5.0, 400.0), (1.3, 5.0, 400.0),
    (1.3, 0.0, 90.0),   # short cap: about half the rows censored
])
def test_simulate_chunk_matches_rebuilt_rounds(mu, min_time, t_max):
    model = PoissonModel(mu=mu, a=1.0, t_max=t_max)
    for index in (0, 3):
        got = pm._simulate_chunk(model, 19, index, 1000, min_time)
        ref = ref_simulate_chunk(model, 19, index, 1000, min_time)
        for name in ref.__dataclass_fields__:
            assert _same_bytes(getattr(got, name), getattr(ref, name)), name
        if t_max < 400:
            assert 0 < ref.censored.sum() < 1000


def test_shared_grids_and_levels_match_fresh_builds():
    # each configuration differs from the one before it in one key
    # field, and every one is asked for twice, so a cache keyed on too
    # little hands back another configuration's tables
    configs = [(2.0, 1.0, 5.0), (2.0, 0.5, 5.0), (1.5, 0.5, 5.0),
               (1.5, 0.5, 2.0), (2.0, 1.0, 5.0)]
    for mu, a, top in configs + configs:
        shared = pm._deflator_grids(mu, a, top)
        fresh = pm._DeflatorGrids(mu, a, top)
        for name in ("y", "log1p_strategy", "anti"):
            assert _same_bytes(getattr(shared, name), getattr(fresh, name))
        assert not shared.anti.flags.writeable
        # the model reads the same per-rate oracle and tail level
        model = PoissonModel(mu=mu, a=a)
        assert model.oracle is RuinOracle.shared(mu)
        assert model.u_star == RuinOracle(mu).tail_level(pm._EPS_TAIL)
    levels = [(2.0, 1e-9), (2.0, 1e-6), (4.0, 1e-6), (4.0, 1e-9)]
    for mu, eps in levels + levels:
        assert shared_tail_level(mu, eps) == RuinOracle(mu).tail_level(eps)
    assert RuinOracle.shared(2.0) is RuinOracle.shared(2.0)


@pytest.mark.parametrize("mu, a, top", [
    (2.0, 1.0, 0.500), (1.5, 0.5, 0.667), (4.0, 1.0, 0.250)])
def test_jump_weight_bound_over_the_grid(mu, a, top):
    # an after-time jump from above a+1 multiplies the deflator by one
    # plus the strategy weight (p1 - p0)/(1 - p1), which lies in [0, 1):
    # every tabulated log factor lies in [0, log 2)
    log_factor = pm._deflator_grids(mu, a, 5.0).log1p_strategy
    assert log_factor.min() >= 0.0
    assert log_factor.max() < math.log(2.0)
    assert log_factor.max() == pytest.approx(top, abs=1e-3)


def test_survival_formula_against_path_continuations(model):
    # nested check of the closed-form survival: conditional on the
    # post-jump surplus sitting in a bin above the level, the frequency
    # of a later return to the level matches the ruin probability at the
    # current clearance, within 3 binomial SE per bin
    from enlab.poisson_mc import _simulate_chunk

    c = _simulate_chunk(model, 41, 0, 4096, 0.0)
    a = model.a
    cols = c.T.shape[1]
    j = np.arange(cols)
    live = ~c.censored
    for lo, hi in ((0.2, 0.6), (0.6, 1.2), (1.2, 2.0)):
        returned = 0
        total = 0
        for row in np.flatnonzero(live):
            stop = c.k_stop[row]
            for k in range(stop + 1):
                y = c.post_y[row, k]
                if a + lo < y <= a + hi:
                    later = c.post_y[row, k + 1:stop + 1]
                    returned += bool((later <= a).any())
                    total += 1
                    break  # first qualifying state per path only
        assert total > 200
        freq = returned / total
        mid = model.oracle.psi(0.5 * (lo + hi))
        lo_psi = model.oracle.psi(hi)
        hi_psi = model.oracle.psi(lo)
        se = math.sqrt(freq * (1 - freq) / total)
        # the bin mixes clearances in [lo, hi]; demand the frequency sit
        # within the bin's psi range widened by 3 SE
        assert lo_psi - 3 * se <= freq <= hi_psi + 3 * se, (lo, hi, freq, mid)


# ---------------------------------------------------------------------------
# excursion-ladder diagnostic
# ---------------------------------------------------------------------------

def test_ladder_path_structure():
    path = simulate_ladder_path(0.25, 1e-4, seed=3, path_index=1,
                                time_cap=100.0)
    # each completed return is preceded by its own passage up
    assert len(path.up_times) in (len(path.return_times),
                                  len(path.return_times) + 1)
    # ladder times interleave strictly
    seq = []
    for u, v in zip(path.up_times, path.return_times):
        seq.extend([u, v])
    assert all(b > a for a, b in zip(seq, seq[1:]))
    if not path.censored:
        assert path.first_hit_one is not None
        assert all(v < path.first_hit_one for v in path.return_times)


def _brownian_run(paths, seed):
    return cmd_brownian(argparse.Namespace(
        epsilon=0.25, dt=1e-3, paths=paths, seed=seed, time_cap=5.0,
        out=None))


@pytest.mark.parametrize("run, field", [
    (lambda m: example1_run(m, 100, -1), "seed"),
    (lambda m: example2_run(m, 100, -1), "seed"),
    (lambda m: example2_selftest(m, 100, -1), "seed"),
    (lambda m: ruin_mc(2.0, [1.0], 100, -1), "seed"),
    (lambda m: example1_run(m, 0, 1), "paths"),
    (lambda m: example2_run(m, -5, 1), "paths"),
    (lambda m: example2_selftest(m, 0, 1), "paths"),
    (lambda m: ruin_mc(2.0, [1.0], 0, 1), "n_paths"),
    (lambda m: brownian_demo(0.25, 1e-3, paths=0, seed=1), "paths"),
    (lambda m: brownian_demo(0.25, 1e-3, paths=2, seed=1, nested_outer=0),
     "nested_outer"),
    (lambda m: brownian_demo(0.25, 1e-3, paths=2, seed=1, nested_inner=-1),
     "nested_inner"),
    (lambda m: _brownian_run(0, 1), "paths"),
    (lambda m: _brownian_run(2, -1), "seed"),
])
def test_monte_carlo_entry_points_name_a_bad_run_setting(model, run, field):
    # called from Python, past the command line's parse-time checks
    with pytest.raises(UsageError) as bad:
        run(model)
    assert bad.value.field == field
    assert field in str(bad.value)


def test_ladder_guards():
    with pytest.raises(EnlabError):
        simulate_ladder_path(1.5, 1e-4, 1, 0, 10.0)
    with pytest.raises(EnlabError):
        simulate_ladder_path(0.5, 1e-2, 1, 0, 10.0)
    with pytest.raises(EnlabError):
        simulate_ladder_path(0.5, 0.0, 1, 0, 10.0)
    with pytest.raises(EnlabError):   # eps rounds onto one: 32 of 32 steps
        simulate_ladder_path(0.999, 1e-3, 1, 0, 10.0)
    with pytest.raises(EnlabError):
        simulate_ladder_path(0.5, 1e-4, 1, 0, 0.0)
    with pytest.raises(EnlabError):
        brownian_demo(0.25, 1e-3, paths=0, seed=1)
    # below dt = 1e-6 the level one lies more than 1,000 steps up, and
    # the nested walks would run for ever
    with pytest.raises(UsageError) as small_dt:
        simulate_ladder_path(0.25, 1e-12, 1, 0, 1e-4)
    assert small_dt.value.field == "dt"
    # a step cap above 10^8 is refused before any step is drawn
    with pytest.raises(UsageError) as long_cap:
        simulate_ladder_path(0.25, 1e-6, 1, 0, 101.0)
    assert long_cap.value.field == "time_cap"
    assert bd._levels(0.25, 1e-6) == (250, 1000)
    assert simulate_ladder_path(0.25, 1e-6, 1, 0, 1e-4).censored


@pytest.mark.parametrize("time_cap", [math.inf, math.nan, -math.inf])
def test_ladder_rejects_a_time_cap_that_is_no_step_count(time_cap):
    for run in (lambda: simulate_ladder_path(0.25, 1e-3, 1, 0, time_cap),
                lambda: brownian_demo(0.25, 1e-3, paths=2, seed=1,
                                      time_cap=time_cap)):
        with pytest.raises(UsageError) as bad:
            run()
        assert bad.value.field == "time_cap"


def test_ladder_rejects_a_negative_seed_before_hashing_it():
    for run in (lambda: simulate_ladder_path(0.25, 1e-3, -1, 0, 5.0),
                lambda: simulate_ladder_path(0.25, 1e-3, -2**40, 0, 5.0),
                lambda: brownian_demo(0.25, 1e-3, paths=2, seed=-1)):
        with pytest.raises(UsageError) as bad:
            run()
        assert bad.value.field == "seed"
    # numpy's SeedSequence takes no negative spawn key word either
    with pytest.raises(ValueError):
        simulate_ladder_path(0.25, 1e-3, 1, -1, 5.0)


def _reference_ladder(steps, k_eps, k_one, cap):
    """Plain step-by-step scan of an explicit +-1 sequence: the 1-based
    steps of the up-passages, the returns and the first visit to one."""
    ups, returns = [], []
    pos, above = 0, False   # above: passed eps since the latest return
    for n, step in enumerate(steps[:cap], start=1):
        pos += step
        if not above and pos == k_eps:
            ups.append(n)
            above = True
        elif above and pos == 0:
            returns.append(n)
            above = False
        elif above and pos == k_one:
            return ups, returns, n
    return ups, returns, None


def _packed_blocks(steps, block_bytes):
    packed = np.packbits(np.asarray(steps) > 0)
    return (packed[i:i + block_bytes]
            for i in range(0, packed.size, block_bytes))


def _numpy_stream(seed, *key):
    """The stream keyed (seed, *key), built by numpy itself."""
    return np.random.Philox(np.random.SeedSequence(entropy=seed,
                                                   spawn_key=key))


def _unpacked_steps(bitgen, n_steps):
    bits = np.unpackbits(bitgen.random_raw(-(-n_steps // 64)).view(np.uint8))
    return (2 * bits[:n_steps].astype(int) - 1).tolist()


def test_ladder_extraction_edge_cases():
    # k_eps = 2, k_one = 4, one byte (8 steps) per block; the climb to
    # the up-passage at step 10 starts in the first block, after a
    # repeated visit to zero at step 8
    steps = [+1, +1, -1, +1, -1, -1, -1, +1,   # up at 2, return at 6
             +1, +1, -1, -1, -1, +1, +1, +1,   # up 10, return 12, up 16
             +1, +1, -1, -1, +1, +1, +1, +1]   # one at 18
    # the return at step 12 sits exactly on the cap
    assert bd._ladder_steps(_packed_blocks(steps, 1), 2, 4, 12) == \
        ([2, 10], [6, 12], None)
    assert bd._ladder_steps(_packed_blocks(steps, 1), 2, 4, 11) == \
        ([2, 10], [6], None)
    # the stop at one (step 18) ends the ladder; later visits are ignored
    assert bd._ladder_steps(_packed_blocks(steps, 1), 2, 4, 24) == \
        ([2, 10, 16], [6, 12], 18)
    assert bd._ladder_steps(_packed_blocks(steps, 1), 2, 4, 17) == \
        ([2, 10, 16], [6, 12], None)
    for steps_cap in (11, 12, 17, 18, 24):
        assert _reference_ladder(steps, 2, 4, steps_cap) == \
            bd._ladder_steps(_packed_blocks(steps, 3), 2, 4, steps_cap)


def test_ladder_extraction_matches_reference_scan():
    rng = np.random.default_rng(2024)
    for _ in range(400):
        n_bytes = int(rng.integers(1, 48))
        k_eps = int(rng.integers(1, 5))
        k_one = k_eps + int(rng.integers(1, 10))
        steps = (2 * rng.integers(0, 2, 8 * n_bytes) - 1).tolist()
        cap = int(rng.integers(1, 8 * n_bytes + 1))
        block_bytes = int(rng.integers(1, 6))
        assert bd._ladder_steps(_packed_blocks(steps, block_bytes),
                                k_eps, k_one, cap) == \
            _reference_ladder(steps, k_eps, k_one, cap)


def _drifting_steps(rng, n_segments):
    """Segments of 50..600 steps, each biased down, up or neither, so the
    walk wanders more than a word (64 steps) away from the levels and
    comes back."""
    steps = []
    for _ in range(n_segments):
        p_up = rng.choice([0.1, 0.5, 0.9])
        steps += (2 * (rng.random(int(rng.integers(50, 600))) < p_up)
                  - 1).tolist()
    return steps


def _far_block(steps, k_eps, k_one, block_bytes):
    """Whether some block of whole words starts each of its words more
    than 64 steps from every level."""
    word_starts = np.concatenate([[0], np.cumsum(steps)])[:len(steps):64]
    per_block = block_bytes // 8
    far = np.min(np.abs(word_starts[:, None] - [0, k_eps, k_one]), axis=1) > 64
    return any(far[i:i + per_block].all()
               for i in range(0, len(far) - per_block + 1, per_block))


def test_ladder_extraction_over_whole_words_matches_reference_scan():
    # blocks of whole 64-bit words take the word-count path, and blocks
    # all of whose words start far from every level are passed over; a
    # word started exactly 64 steps from a level can still reach it
    below = ([1, 1, -1, -1] + [-1] * 60            # up at 2, return at 4
             + [-1, -1] + [-1, 1] * 31             # at -62 after step 128
             + [1] * 64)                           # up again at 192
    down = [1] * 64 + [-1] * 64                    # up at 2, return at 128
    above = ([1] * 128 + [1] * 36 + [-1] * 28      # at 136 after step 192
             + [1] * 64)                           # one (200) at 256
    for steps, k_eps, k_one, expected in (
            (below, 2, 300, ([2, 192], [4], None)),
            (down, 2, 300, ([2], [128], None)),
            (above, 2, 200, ([2], [], 256))):
        for block_bytes in (8, 16):
            assert bd._ladder_steps(_packed_blocks(steps, block_bytes), k_eps,
                                    k_one, len(steps)) == expected
        assert _reference_ladder(steps, k_eps, k_one, len(steps)) == expected
    rng = np.random.default_rng(2025)
    far_cases = 0
    for _ in range(300):
        steps = _drifting_steps(rng, int(rng.integers(2, 12)))
        steps += [1] * (-len(steps) % 64)
        k_eps = int(rng.integers(1, 30))
        k_one = k_eps + int(rng.integers(1, 300))
        cap = int(rng.integers(1, len(steps) + 1))
        block_bytes = int(rng.choice([8, 16, 40, 64]))
        expected = _reference_ladder(steps, k_eps, k_one, cap)
        assert bd._ladder_steps(_packed_blocks(steps, block_bytes),
                                k_eps, k_one, cap) == expected
        # the blocks read: through the one that holds the cap or the hit
        read = -(-(expected[2] or cap) // (8 * block_bytes)) * 8 * block_bytes
        far_cases += _far_block(steps[:read], k_eps, k_one, block_bytes)
    assert far_cases >= 50


def _walk_to_one(rng, k_one, p_up):
    """Steps of a walk from zero up to its first visit to k_one."""
    steps, pos = [], 0
    while pos < k_one:
        steps.append(1 if rng.random() < p_up else -1)
        pos += steps[-1]
    return steps


def _first_word_at(word_starts, level, first, end):
    """The first of words first..end-1 starting at or above level, or end."""
    over = np.flatnonzero(word_starts[first:end] >= level)
    return first + int(over[0]) if over.size else end


def test_ladder_extraction_cuts_match_reference_scan():
    # a block not passed over is unpacked through the word before its
    # first word starting at or above k_one, and through the byte holding
    # the cap; the hit is placed at the block's first word, at the last
    # word the cut keeps and on a word boundary, and the cap mid-byte and
    # mid-word, before and after the hit
    rng = np.random.default_rng(2026)
    at_one = {"first word": 0, "last word": 0, "word boundary": 0}
    at_cap = {("mid-byte", False): 0, ("mid-byte", True): 0,
              ("mid-word", False): 0, ("mid-word", True): 0}
    for case in range(1200):
        block_bytes = int(rng.choice([16, 24, 40]))
        width = 8 * block_bytes
        k_eps = int(rng.integers(1, 12))
        # k_one even, so that a hit can end a word
        k_one = k_eps + 2 * int(rng.integers(1, 25))
        steps = _walk_to_one(rng, k_one, 0.7)
        # (-1, +1) pairs inserted before the hit move it by two steps each
        # and create no visit to one
        hit = int(rng.integers(len(steps), len(steps) + 3 * width))
        if case % 3 == 0:
            hit += -hit % width + int(rng.integers(1, 65))   # first word
        elif case % 3 == 1:
            hit += -hit % 64                                 # word boundary
        hit += (hit - len(steps)) % 2
        at = int(rng.integers(0, len(steps)))
        steps[at:at] = [-1, 1] * ((hit - len(steps)) // 2)
        steps += (2 * (rng.random(int(rng.integers(0, 2 * width)))
                       < rng.choice([0.5, 0.9])) - 1).tolist()
        steps += [1] * (-len(steps) % 64)
        events = _reference_ladder(steps, k_eps, k_one, len(steps))
        near = events[0] + events[1] + [hit]
        cap = [len(steps), 8 * int(rng.integers(1, len(steps) // 8 + 1)),
               int(rng.choice(near)) + int(rng.integers(-9, 10)),
               hit + int(rng.integers(0, 24)),
               hit + -hit % 8 + 8 * int(rng.integers(0, 3))][case % 5]
        cap = min(len(steps), max(1, cap))
        expected = _reference_ladder(steps, k_eps, k_one, cap)
        assert bd._ladder_steps(_packed_blocks(steps, block_bytes),
                                k_eps, k_one, cap) == expected
        # where the block that ends the read is cut
        word_starts = np.concatenate([[0], np.cumsum(steps)])[::64]
        block = (min(hit, cap) - 1) // width
        first, end = block * width // 64, (block + 1) * width // 64
        lo, hi = word_starts[first:end].min(), word_starts[first:end].max()
        if not any(lo - 64 <= level <= hi + 64 for level in (0, k_eps, k_one)):
            continue   # passed over
        one_cut = 64 * _first_word_at(word_starts, k_one, first, end)
        cap_cut = block * width + 8 * -(-(cap - block * width) // 8)
        if expected[2] is not None and one_cut < min(cap_cut, 64 * end):
            at_one["first word"] += (hit - 1) // 64 == first
            at_one["last word"] += (hit - 1) // 64 == one_cut // 64 - 1
            at_one["word boundary"] += hit == one_cut
        if cap_cut < min(one_cut, 64 * end):
            after = expected[2] is not None
            if cap % 8:
                at_cap["mid-byte", after] += 1
            elif cap % 64:
                at_cap["mid-word", after] += 1
    assert min(at_one.values()) >= 50, at_one
    assert min(at_cap.values()) >= 50, at_cap


def test_ladder_path_replays_from_its_stream():
    dt, time_cap = 1e-4, 10.0
    cap = int(time_cap / dt)
    outcomes = set()
    for index in range(12):
        path = simulate_ladder_path(0.25, dt, 7, index, time_cap)
        steps = _unpacked_steps(_numpy_stream(7, bd._STREAM_OUTER, index), cap)
        ups, returns, hit = _reference_ladder(steps, 25, 100, cap)
        assert path.up_times == tuple(n * dt for n in ups)
        assert path.return_times == tuple(n * dt for n in returns)
        assert path.censored == (hit is None)
        assert path.first_hit_one == (None if hit is None else hit * dt)
        outcomes.add(path.censored)
    assert outcomes == {True, False}


def test_ladder_path_independent_of_block_width(monkeypatch):
    full = [simulate_ladder_path(0.25, 1e-4, 3, i, 50.0) for i in range(6)]
    monkeypatch.setattr(bd, "_BLOCK", 512)
    assert [simulate_ladder_path(0.25, 1e-4, 3, i, 50.0)
            for i in range(6)] == full


def test_time_cap_binds_at_the_step():
    dt = 1e-4
    paths = [simulate_ladder_path(0.25, dt, 1, i, 100.0) for i in range(40)]
    assert all(p.censored or p.first_hit_one <= 100.0 for p in paths)
    index, path = next((i, p) for i, p in enumerate(paths)
                       if not p.censored and p.first_hit_one > 1.0)
    hit = round(path.first_hit_one / dt)
    before = simulate_ladder_path(0.25, dt, 1, index, (hit - 0.5) * dt)
    assert before.censored and before.first_hit_one is None
    assert max(before.up_times + before.return_times) <= (hit - 1) * dt
    assert before.return_times == tuple(
        v for v in path.return_times if v < hit * dt)
    at = simulate_ladder_path(0.25, dt, 1, index, (hit + 0.5) * dt)
    assert at == path


def _reference_lockstep(k_eps, k_one, seed, outer_index, inner_paths):
    """Step-by-step scan of the lockstep rounds: each round hands the
    walks still running one row of _LOCKSTEP steps each, in order, read
    on from the index's single stream.  Returns the estimate and the
    number of rounds."""
    width = bd._LOCKSTEP
    stream = _numpy_stream(seed, bd._STREAM_INNER, outer_index)
    pos = [k_eps] * inner_paths
    wins = 0
    for rnd in range(10_000):
        steps = _unpacked_steps(stream, len(pos) * width)
        running = []
        for row, start in enumerate(pos):
            for step in steps[row * width:(row + 1) * width]:
                start += step
                if start in (0, k_one):
                    wins += start == 0
                    break
            else:
                running.append(start)
        pos = running
        if not pos:
            return wins / inner_paths, rnd + 1


def test_lockstep_estimate_matches_reference_scan():
    assert bd._inner_survival_estimates(8, 32, 5, range(3), 40) == \
        [_reference_lockstep(8, 32, 5, i, 40)[0] for i in range(3)]


def test_grouped_estimates_match_each_index_alone():
    # a group of 8 whose members finish in different rounds
    indices = range(16, 24)
    alone = [_reference_lockstep(8, 32, 3, i, 30) for i in indices]
    assert len({rounds for _, rounds in alone}) > 1
    assert bd._inner_survival_estimates(8, 32, 3, indices, 30) == \
        [estimate for estimate, _ in alone]


def test_nested_estimate_within_4se_of_lattice_survival():
    # criterion-8 size: 64 outer indices x 500 inner walks
    report = brownian_demo(0.25, 1e-4, paths=64, seed=1)
    p = report.lattice_survival
    assert p == 0.75
    pooled = float(report.inner_estimates.mean())
    se = math.sqrt(p * (1 - p) / (64 * 500))
    assert abs(pooled - p) <= 4 * se


def test_brownian_demo_matches_recorded_values():
    # the outer-walk values were recorded before the byte-level walk and
    # the grouped nested estimate were rewritten, and must stay bit for
    # bit; the nested estimates' digest is that of one stream per index
    report = brownian_demo(0.25, 1e-4, paths=300, seed=1)
    assert report.structural_ok and report.first_failed_path is None
    assert report.n_censored == 23
    assert report.mean_last_return.hex() == "0x1.98e2ed61b606ep+2"
    assert hashlib.sha256(report.inner_estimates.tobytes()).hexdigest() == \
        "9114b6bd7e5b32706095f0db2079105931019c753584c4399cfba62c5bd1622e"


def test_brownian_demo_names_the_first_failed_path(monkeypatch):
    failing = {simulate_ladder_path(0.25, 1e-3, 9, i, 20.0) for i in (4, 7)}
    monkeypatch.setattr(bd, "_structural_check",
                        lambda path: path not in failing)
    report = brownian_demo(0.25, 1e-3, paths=10, seed=9, time_cap=20.0,
                           nested_outer=2, nested_inner=20)
    assert not report.structural_ok
    assert report.first_failed_path == 4


def test_brownian_demo_is_deterministic():
    one = brownian_demo(0.25, 1e-3, paths=60, seed=9, time_cap=20.0,
                        nested_outer=6, nested_inner=80)
    two = brownian_demo(0.25, 1e-3, paths=60, seed=9, time_cap=20.0,
                        nested_outer=6, nested_inner=80)
    for name in one.__dataclass_fields__:
        a, b = getattr(one, name), getattr(two, name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b)
        elif a != a:   # nan
            assert b != b
        else:
            assert a == b, name


def test_brownian_demo_builds_one_stream_per_path_and_nested_index(
        monkeypatch):
    built = {"SeedSequence": 0, "Philox": 0}

    def counted(name):
        real = getattr(np.random, name)

        def build(*args, **kwargs):
            built[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(np.random, name, build)
    counted("SeedSequence")
    counted("Philox")
    _numpy_stream(1, 2)   # the counters see numpy's own construction
    assert built == {"SeedSequence": 1, "Philox": 1}
    brownian_demo(0.25, 1e-3, paths=20, seed=4, time_cap=20.0,
                  nested_outer=9, nested_inner=40)
    # one stream per outer path and one per nested index, and no other
    assert built == {"SeedSequence": 1 + 20 + 9, "Philox": 1 + 20 + 9}


def test_brownian_demo_small():
    report = brownian_demo(0.25, 1e-3, paths=400, seed=5, time_cap=60.0,
                           nested_outer=24, nested_inner=300)
    assert report.structural_ok
    assert report.n_censored < report.n_paths
    # nested estimates concentrate near the lattice gambler's-ruin value
    assert abs(float(report.inner_estimates.mean())
               - report.lattice_survival) < 0.05
    assert report.frac_near_one == 0.0 and report.class_h_plausible


def test_brownian_mean_time_decreases_in_eps():
    means = []
    for eps in (0.25, 0.5, 0.75):
        report = brownian_demo(eps, 1e-3, paths=400, seed=11, time_cap=60.0,
                               nested_outer=4, nested_inner=50)
        means.append(report.mean_last_return)
    assert means[0] > means[1] > means[2]
