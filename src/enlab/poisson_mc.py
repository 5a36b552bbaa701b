"""Event-driven Monte Carlo for the Poisson surplus model.

The surplus Y rises at rate mu > 1 and drops by one at unit-rate Poisson
arrivals; the random time is the last visit of Y to the half-line below
the level a.  Paths are exact: exponential gaps, linear drift between
jumps, no time discretization.  A path is simulated until its post-jump
surplus clears the level by u_star, where the ruin oracle bounds the
probability of any later return (and hence of the detected last-visit
time being overturned) by _EPS_TAIL; a hard time cap marks the
stragglers censored.

All bulk runs are vectorized over fixed-size path chunks.  Randomness is
drawn from counter-based Philox streams keyed by (master seed, stream
id, chunk index, round), so results are bit-identical across runs,
chunk scheduling orders, and thread counts; per-path replay rebuilds any
row of a run from its indices alone.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import EnlabError, UsageError
from .ruin import RuinOracle, shared_tail_level

CHUNK = 4096
COLS = 64
_STREAM_PATHS = 1
_STREAM_INDEP = 2

_CI99 = 2.5758293035489004  # two-sided 99% normal quantile

# the probability bound behind a path's stopping clearance u_star
_EPS_TAIL = 1e-6
# ruin_mc's bound on a decided path reaching a later record
_DECISION_EPS = 1e-9
# the position multipliers of example 1's wealth table
_LAMBDAS = (1.0, 10.0, 100.0)
# the spacing of the example-2 deflator grids in the surplus
_GRID_STEP = 1e-3


def thread_count(explicit: int | None = None) -> int:
    """Worker threads: the explicit value, else ENLAB_THREADS, else 1,
    clamped to [1, os.cpu_count()]."""
    if explicit is None:
        env = os.environ.get("ENLAB_THREADS", "")
        try:
            explicit = int(env) if env else 1
        except ValueError:
            raise UsageError(
                f"ENLAB_THREADS must be an integer, got {env!r}") from None
    return max(1, min(explicit, os.cpu_count() or 1))


def _stream(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass
class PoissonModel:
    """The unit-intensity surplus model at premium rate mu and level a.
    u_star is the shared tail level of _EPS_TAIL at mu."""

    mu: float
    a: float
    t_max: float = 400.0
    u_star: float = field(init=False)
    oracle: RuinOracle = field(init=False, repr=False)

    def __post_init__(self):
        self.oracle = RuinOracle.shared(self.mu)
        if not self.a > 0:
            raise EnlabError(f"a = {self.a} must be positive")
        self.u_star = shared_tail_level(self.mu, _EPS_TAIL)
        if not self.oracle.psi(self.u_star) < _EPS_TAIL:
            raise EnlabError("u_star does not meet the tail criterion")


@dataclass(frozen=True)
class PoissonPath:
    """One exact trajectory: jump times, detected last-visit time,
    censoring flag, and the seed that reproduces it byte for byte."""

    jump_times: tuple[float, ...]
    end_time: float
    tau_hat: float
    censored: bool
    seed: int
    mu: float
    a: float


# ---------------------------------------------------------------------------
# Chunked simulation
# ---------------------------------------------------------------------------

@dataclass
class _ChunkPaths:
    T: np.ndarray          # (rows, C) jump times
    post_y: np.ndarray     # post-jump surplus
    pre_y: np.ndarray      # pre-jump surplus
    k_stop: np.ndarray     # stopping column (int)
    k_star: np.ndarray     # column of the last at-or-below-level jump, -1 = none
    tau_hat: np.ndarray
    censored: np.ndarray


def _simulate_chunk(model: PoissonModel, master_seed: int, chunk_index: int,
                    rows: int, min_time: float) -> _ChunkPaths:
    mu, a = model.mu, model.a
    rounds: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    has_stop = np.zeros(rows, dtype=bool)
    last = np.zeros(rows)
    max_rounds = int(model.t_max * 2 / COLS) + 8
    for rnd in range(max_rounds):
        gen = _stream(master_seed, _STREAM_PATHS, chunk_index, rnd)
        gaps = gen.standard_exponential((rows, COLS))
        # seeded with the last jump time, the cumsum adds the same floats
        # in the same order as one cumsum over every round drawn so far
        gaps[:, 0] += last
        T = np.cumsum(gaps, axis=1)
        post_y = mu * T - np.arange(rnd * COLS + 1, (rnd + 1) * COLS + 1)
        stop_ok = (post_y - a >= model.u_star) & (T >= min_time)
        rounds.append((T, post_y, stop_ok))
        has_stop |= stop_ok.any(axis=1)
        last = T[:, -1]
        if (has_stop | (last > model.t_max)).all():
            break
    else:
        raise EnlabError("chunk simulation exceeded the round cap")
    T, post_y, stop_ok = (parts[0] if len(parts) == 1
                          else np.concatenate(parts, axis=1)
                          for parts in zip(*rounds))
    cols = T.shape[1]
    k = np.arange(1, cols + 1)

    first_stop = np.argmax(stop_ok, axis=1)
    over_cap = T > model.t_max
    first_over = np.where(over_cap.any(axis=1), np.argmax(over_cap, axis=1),
                          cols - 1)
    row_idx = np.arange(rows)
    censored = ~has_stop | (T[row_idx, first_stop] > model.t_max)
    k_stop = np.where(has_stop & ~censored, first_stop, first_over)

    below = (post_y <= a) & (k - 1 <= k_stop[:, None])
    any_below = below.any(axis=1)
    last_below = cols - 1 - np.argmax(below[:, ::-1], axis=1)
    k_star = np.where(any_below, last_below, -1)
    base_t = np.where(any_below, T[row_idx, k_star], 0.0)
    base_y = np.where(any_below, post_y[row_idx, k_star], 0.0)
    tau_hat = base_t + (a - base_y) / mu

    return _ChunkPaths(T=T, post_y=post_y, pre_y=mu * T - (k - 1),
                       k_stop=k_stop, k_star=k_star, tau_hat=tau_hat,
                       censored=censored)


def replay_path(model: PoissonModel, master_seed: int, path_index: int,
                min_time: float = 0.0) -> PoissonPath:
    """Rebuild one row of a chunked run, for reproducing any reported
    path from (seed, index) alone.  A censored path ends at the cap: its
    stopping column is the first jump past t_max, which it leaves out."""
    chunk_index, row = divmod(path_index, CHUNK)
    # each round's stream fills rows in order and a row's stopping point
    # does not depend on other rows, so rows past `row` are not simulated
    chunk = _simulate_chunk(model, master_seed, chunk_index, row + 1,
                            min_time)
    stop = int(chunk.k_stop[row])
    censored = bool(chunk.censored[row])
    end = stop if censored else stop + 1
    jumps = tuple(float(v) for v in chunk.T[row, :end])
    return PoissonPath(jumps,
                       model.t_max if censored else float(chunk.T[row, stop]),
                       float(chunk.tau_hat[row]), censored,
                       master_seed, model.mu, model.a)


def _chunk_layout(n_paths: int) -> list[tuple[int, int]]:
    return [(index, min(CHUNK, n_paths - start))
            for index, start in enumerate(range(0, n_paths, CHUNK))]


def _map_chunks(fn, n_paths: int, threads: int | None):
    layout = _chunk_layout(n_paths)
    workers = thread_count(threads)
    if workers == 1 or len(layout) == 1:
        return [fn(idx, rows) for idx, rows in layout]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, idx, rows) for idx, rows in layout]
        return [f.result() for f in futures]  # merge preserves chunk order


def _mean_se(total: float, total_sq: float, n: int) -> tuple[float, float]:
    if n == 0:
        return float("nan"), float("nan")
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)

# ---------------------------------------------------------------------------
# Example run 1: explicit unbounded-profit strategy on the band asset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Example1Report:
    n_paths: int
    n_censored: int
    mean_terminal: float
    se_terminal: float
    positive_at_99: bool
    frac_strictly_positive: float
    lambda_table: dict[float, float]
    monotone_ok: bool
    terminal: np.ndarray  # uncensored terminal wealths, path order
    path_ids: np.ndarray

    def rows(self):
        for pid, w in zip(self.path_ids, self.terminal):
            yield int(pid), float(w), 0.0


def example1_run(model: PoissonModel, paths: int, seed: int,
                 threads: int | None = None) -> Example1Report:
    """Wealth of the short position on the band asset after the time.

    After the last visit, a down-jump from a pre-jump surplus at or below
    a+1 would re-enter the region below a, so none occurs: the asset
    drifts deterministically downward on the strategy's support and the
    short wealth is the occupation time of the band (a, a+1), scaled by
    1/mu.  Each uncensored path ends with a completed crossing of the
    band, so the terminal wealth is at least 1/mu > 0.
    """
    mu, a = model.mu, model.a

    def work(chunk_index: int, rows: int):
        c = _simulate_chunk(model, seed, chunk_index, rows, 0.0)
        cols = c.T.shape[1]
        j = np.arange(cols)
        window = (j > c.k_star[:, None]) & (j <= c.k_stop[:, None])
        live = window & ~c.censored[:, None]
        # structural monotonicity: no post-detection jump from the band
        bad = live & (c.pre_y <= a + 1.0)
        in_band = live & (c.post_y > a) & (c.post_y < a + 1.0)
        landings = np.where(in_band, (a + 1.0) - c.post_y, 0.0).sum(axis=1)
        wealth = (1.0 + landings) / mu
        return {
            "bad": int(bad.sum()),
            "wealth": wealth[~c.censored],
            "ids": chunk_index * CHUNK + np.flatnonzero(~c.censored),
            "censored": int(c.censored.sum()),
        }

    results = _map_chunks(work, paths, threads)
    bad = sum(r["bad"] for r in results)
    wealth = np.concatenate([r["wealth"] for r in results])
    ids = np.concatenate([r["ids"] for r in results])
    censored = sum(r["censored"] for r in results)
    mean, se = _mean_se(float(wealth.sum()), float((wealth ** 2).sum()),
                        wealth.size)
    return Example1Report(
        n_paths=paths, n_censored=censored, mean_terminal=mean,
        se_terminal=se, positive_at_99=mean - _CI99 * se > 0,
        frac_strictly_positive=(float((wealth > 0).mean()) if wealth.size
                                else float("nan")),
        lambda_table={lam: lam * mean for lam in _LAMBDAS},
        monotone_ok=bad == 0, terminal=wealth, path_ids=ids)


# ---------------------------------------------------------------------------
# Example run 2: deflator positivity and the two martingale checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckpointStat:
    checkpoint: float
    mean: float
    se: float
    ok: bool


@dataclass(frozen=True)
class Example2Report:
    n_paths: int
    n_censored: int
    deflator: tuple[CheckpointStat, ...]
    product: tuple[CheckpointStat, ...]
    min_deflator: float
    positivity_ok: bool

    @property
    def martingale_ok(self) -> bool:
        return all(s.ok for s in self.deflator) and \
            all(s.ok for s in self.product)


class _DeflatorGrids:
    """Tabulated ruin-probability functionals of the pre-jump surplus,
    plus the antiderivative of the between-jump growth rate, so chunk
    evaluation is pure array interpolation.  The tables are read-only:
    example2_run shares them between calls (_deflator_grids)."""

    def __init__(self, mu: float, a: float, max_checkpoint: float):
        top = max(mu * max_checkpoint + 1.0, a + 2.0)
        self.y = np.arange(a + 1.0, top + _GRID_STEP, _GRID_STEP)
        oracle = RuinOracle.shared(mu)
        p0 = oracle.psi_many(self.y - a)
        p1 = oracle.psi_many(self.y - a - 1.0)
        # strategy weight (p1 - p0)/(1 - p1): at a jump the deflator is
        # multiplied by (1 - p0)/(1 - p1), the reciprocal of the
        # after-time intensity; between jumps it decays at that
        # intensity's deficit against one
        self.log1p_strategy = np.log((1.0 - p0) / (1.0 - p1))
        growth = (p0 - p1) / (1.0 - p0)
        inc = 0.5 * (growth[1:] + growth[:-1]) * np.diff(self.y)
        self.anti = np.concatenate([[0.0], np.cumsum(inc)])
        for table in (self.y, self.log1p_strategy, self.anti):
            table.flags.writeable = False

    def anti_at(self, y: np.ndarray) -> np.ndarray:
        return np.interp(y, self.y, self.anti, left=0.0)

    def log_jump_factor(self, y_pre: np.ndarray) -> np.ndarray:
        return np.interp(y_pre, self.y, self.log1p_strategy)


class _Window:
    """A chunk's drift segments and jumps, cut to the leading columns
    that checkpoints up to `horizon` can reach.

    Segment j of a row is its drift from jump j (the origin for j = 0)
    to jump j + 1.  Jump times rise along each row, so the column minima
    of T rise too: a segment can meet (tau_hat, cp] only in the leading
    columns where some row starts it before cp, and a jump can fall in
    it only in the leading columns where some row jumps by cp.  Every
    later cell is an exact zero of the row sums the runs take.
    """

    def __init__(self, c: _ChunkPaths, mu: float, horizon: float):
        rows, cols = c.T.shape
        self.mu = mu
        self._first = c.T.min(axis=0)
        self.seg_width, self.jump_width = cols + 1, cols
        ns, nj = self._reach(horizon)
        zeros = np.zeros((rows, 1))
        self.seg_t = np.concatenate([zeros, c.T[:, :ns - 1]], axis=1)
        self.seg_y = np.concatenate([zeros, c.post_y[:, :ns - 1]], axis=1)
        self.seg_end = np.concatenate(
            [c.T[:, :ns], np.full((rows, 1), np.inf)], axis=1)[:, :ns]
        tau = c.tau_hat[:, None]
        self.s0 = np.maximum(self.seg_t, tau)
        self.T = c.T[:, :nj]
        self.pre_y = c.pre_y[:, :nj]
        self.after = self.T > tau
        self.live = ~c.censored

    def _reach(self, cp: float) -> tuple[int, int]:
        return (1 + int(np.searchsorted(self._first, cp, side="left")),
                int(np.searchsorted(self._first, cp, side="right")))

    def crossing(self, level: float) -> np.ndarray:
        """Per segment, the time its drift reaches `level` (its start
        time if it starts there or above)."""
        return self.seg_t + np.maximum(level - self.seg_y, 0.0) / self.mu

    def segments(self, cp: float):
        """The segment columns that can meet (tau_hat, cp], as a slice,
        with each segment's end clipped at cp and whether it meets the
        window at all."""
        cut = np.s_[:, :self._reach(cp)[0]]
        s1 = np.minimum(self.seg_end[cut], cp)
        return cut, s1, s1 > self.s0[cut]

    def jumps(self, cp: float, mask: np.ndarray):
        """The jump columns that can fall in (tau_hat, cp], as a slice,
        with `mask` (over the window's jump columns) cut to them and
        restricted to the jumps made by cp."""
        cut = np.s_[:, :self._reach(cp)[1]]
        return cut, mask[cut] & (self.T[cut] <= cp)


@lru_cache(maxsize=4)
def _deflator_grids(mu: float, a: float,
                    max_checkpoint: float) -> _DeflatorGrids:
    """The grids depend on nothing else, so a run of example2 calls at one
    configuration builds them once."""
    return _DeflatorGrids(mu, a, max_checkpoint)


def _row_sums(mask: np.ndarray, values: np.ndarray,
              width: int) -> np.ndarray:
    """Row sums of the (rows, width) array that holds `values` at the
    True cells of `mask`, which covers its leading columns, and zero in
    every other cell.  The sum runs over the full width: numpy's
    pairwise summation groups the terms by row length, so a shorter sum
    can change bits."""
    full = np.zeros((mask.shape[0], width))
    full[:, :mask.shape[1]][mask] = values
    return full.sum(axis=1)


def _checked_checkpoints(model: PoissonModel, checkpoints) -> tuple:
    checkpoints = tuple(checkpoints)
    if not checkpoints or not all(math.isfinite(cp) and 0 < cp <= model.t_max
                                  for cp in checkpoints):
        raise UsageError(
            f"checkpoints must be finite, positive and at most "
            f"t_max = {model.t_max}, got {','.join(map(str, checkpoints))}",
            field="checkpoints")
    return checkpoints


def example2_run(model: PoissonModel, paths: int, seed: int,
                 checkpoints: tuple[float, ...] = (1.0, 2.0, 5.0),
                 threads: int | None = None) -> Example2Report:
    """Sample the candidate deflator and its product with the after-part
    of the asset supported above a+1, at fixed checkpoints.

    The deflator is the stochastic exponential of the strategy-weighted
    transformed asset.  Between jumps it decays: the tabulated growth
    rate (p0 - p1)/(1 - p0) is at most zero.  At after-time jumps from
    above a+1 it is multiplied by one plus the strategy weight
    (p1 - p0)/(1 - p1), which is positive (the log factor runs from about
    6e-6 to 0.5 at mu = 2, a = 1), so the deflator stays positive.

    Each checkpoint is evaluated only on the segment and jump columns
    it can reach (see _Window); the terms that do not depend on the
    checkpoint are formed once per chunk.  Row sums still run over the
    chunk's full width, so every per-path value has the bits of the
    evaluation over all columns.  Checkpoints must lie in (0, t_max].
    """
    checkpoints = _checked_checkpoints(model, checkpoints)
    mu, a = model.mu, model.a
    min_time = max(checkpoints)
    grids = _deflator_grids(mu, a, min_time)

    def work(chunk_index: int, rows: int):
        c = _simulate_chunk(model, seed, chunk_index, rows, min_time)
        w = _Window(c, mu, min_time)
        y0 = w.seg_y + mu * (w.s0 - w.seg_t)
        above_from = np.maximum(w.s0, w.crossing(a + 1.0))
        high = w.after & (w.pre_y > a + 1.0)
        out = {}
        for cp in checkpoints:
            cut, s1, valid = w.segments(cp)
            y1 = w.seg_y[cut] + mu * (s1 - w.seg_t[cut])
            expo = _row_sums(valid, grids.anti_at(y1[valid])
                             - grids.anti_at(y0[cut][valid]),
                             w.seg_width) / mu
            # time spent above a+1 inside (tau, cp]
            leb = _row_sums(valid,
                            np.clip(s1 - above_from[cut], 0.0, None)[valid],
                            w.seg_width)
            jcut, in_window = w.jumps(cp, high)
            logs = _row_sums(in_window,
                             grids.log_jump_factor(w.pre_y[jcut][in_window]),
                             w.jump_width)
            deflator = np.exp(expo + logs)
            product = deflator * (in_window.sum(axis=1) - leb)
            out[cp] = (deflator[w.live], product[w.live])
        out["censored"] = int(c.censored.sum())
        return out

    results = _map_chunks(work, paths, threads)
    censored = sum(r["censored"] for r in results)
    deflator_stats = []
    product_stats = []
    # no uncensored path leaves positivity unchecked, not passed
    min_deflator = np.inf if censored < paths else math.nan
    for cp in checkpoints:
        defl = np.concatenate([r[cp][0] for r in results])
        prod = np.concatenate([r[cp][1] for r in results])
        if defl.size:
            min_deflator = min(min_deflator, float(defl.min()))
        mean_d, se_d = _mean_se(float(defl.sum()),
                                float((defl ** 2).sum()), defl.size)
        mean_p, se_p = _mean_se(float(prod.sum()),
                                float((prod ** 2).sum()), prod.size)
        deflator_stats.append(CheckpointStat(cp, mean_d, se_d,
                                             abs(mean_d - 1.0) <= 4 * se_d))
        product_stats.append(CheckpointStat(cp, mean_p, se_p,
                                            abs(mean_p) <= 4 * se_p))
    return Example2Report(
        n_paths=paths, n_censored=censored,
        deflator=tuple(deflator_stats), product=tuple(product_stats),
        min_deflator=min_deflator, positivity_ok=min_deflator > 0)


@dataclass(frozen=True)
class SelfTestReport:
    band_product: tuple[CheckpointStat, ...]
    independent_product: tuple[CheckpointStat, ...]

    @property
    def band_fails(self) -> bool:
        return any(not s.ok for s in self.band_product)

    @property
    def independent_passes(self) -> bool:
        return all(s.ok for s in self.independent_product)


def example2_selftest(model: PoissonModel, paths: int, seed: int,
                      checkpoints: tuple[float, ...] = (1.0, 2.0, 5.0),
                      threads: int | None = None) -> SelfTestReport:
    """Zero-strategy control run: with the deflator forced to one, the
    product test reduces to a plain mean-zero test of the after-part.
    The band asset has a deterministic drift after the time and must
    fail; an independent compensated Poisson asset must pass.
    Checkpoints must lie in (0, t_max].
    """
    checkpoints = _checked_checkpoints(model, checkpoints)
    a = model.a
    min_time = max(checkpoints)

    def work(chunk_index: int, rows: int):
        c = _simulate_chunk(model, seed, chunk_index, rows, min_time)
        w = _Window(c, model.mu, min_time)
        gen = _stream(seed, _STREAM_INDEP, chunk_index, 0)
        cols_w = COLS
        WT = np.cumsum(gen.standard_exponential((rows, cols_w)), axis=1)
        while (WT[:, -1] < min_time).any():
            cols_w += COLS
            more = _stream(seed, _STREAM_INDEP, chunk_index,
                           cols_w // COLS).standard_exponential((rows, COLS))
            WT = np.concatenate([WT, WT[:, -1:] + np.cumsum(more, axis=1)],
                                axis=1)
        # occupation of [a, a+1) inside the window
        band_from = np.maximum(w.s0, w.crossing(a))
        band_to = w.crossing(a + 1.0)
        in_band = w.after & (w.pre_y >= a) & (w.pre_y < a + 1.0)
        out = {}
        for cp in checkpoints:
            cut, s1, valid = w.segments(cp)
            band_leb = _row_sums(
                valid, np.clip(np.minimum(s1, band_to[cut]) - band_from[cut],
                               0.0, None)[valid], w.seg_width)
            _, band_jumps = w.jumps(cp, in_band)
            band = band_jumps.sum(axis=1) - band_leb

            w_jumps = ((WT > c.tau_hat[:, None]) & (WT <= cp)).sum(axis=1)
            indep = w_jumps - np.clip(cp - c.tau_hat, 0.0, None)
            out[cp] = (band[w.live], indep[w.live])
        return out

    results = _map_chunks(work, paths, threads)
    band_stats = []
    indep_stats = []
    for cp in checkpoints:
        for target, stats in ((0, band_stats), (1, indep_stats)):
            vals = np.concatenate([r[cp][target] for r in results])
            mean, se = _mean_se(float(vals.sum()), float((vals ** 2).sum()),
                                vals.size)
            stats.append(CheckpointStat(cp, mean, se, abs(mean) <= 4 * se))
    return SelfTestReport(tuple(band_stats), tuple(indep_stats))


# ---------------------------------------------------------------------------
# Direct ruin-frequency estimator
# ---------------------------------------------------------------------------

def ruin_mc(mu: float, us, n_paths: int, seed: int,
            threads: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo ruin frequencies at several initial reserves from one
    set of claim arrival paths.

    A path is decided once the dual ladder process has drifted below
    minus the decision level, where the oracle bounds any later record
    by _DECISION_EPS; per-path decision error is negligible against the
    binomial standard errors returned.
    """
    us = np.asarray(us, dtype=float)
    u_dec = shared_tail_level(mu, _DECISION_EPS)

    def work(chunk_index: int, rows: int):
        runmax = np.full(rows, -np.inf)
        offset_k = 0
        offset_t = np.zeros(rows)
        for rnd in range(400):
            gen = _stream(seed, _STREAM_PATHS, chunk_index, rnd)
            gaps = gen.standard_exponential((rows, COLS))
            T = offset_t[:, None] + np.cumsum(gaps, axis=1)
            k = offset_k + np.arange(1, COLS + 1)
            ladder = k - mu * T
            runmax = np.maximum(runmax, ladder.max(axis=1))
            offset_k += COLS
            offset_t = T[:, -1]
            if (ladder[:, -1] <= -u_dec).all():
                break
        else:
            raise EnlabError("ruin chunk exceeded the round cap")
        return (runmax[:, None] >= us[None, :]).sum(axis=0)

    counts = sum(_map_chunks(work, n_paths, threads))
    freq = counts / n_paths
    se = np.sqrt(np.clip(freq * (1 - freq), 0.0, None) / n_paths)
    return freq, se
