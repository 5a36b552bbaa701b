from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from enlab import poisson_mc
from enlab.errors import InvalidDrift
from enlab.poisson_mc import CHUNK, COLS, ruin_mc
from enlab.ruin import (
    RuinOracle,
    _alternating_cdf,
    _log_factorials,
    _sf_block,
    shared_tail_level,
)

from .oracles import (
    ref_irwin_hall_cdf,
    ref_irwin_hall_sf,
    ref_psi_many,
    ref_ruin_runmax,
    ref_tail_level,
)


def _sf(k, u):
    """P(IH_k > u) for one order k, from the block psi_many sums."""
    return _sf_block(np.array([k]), np.asarray(u, dtype=float),
                     _log_factorials(k))[0]


def _cdf(k, x):
    """P(IH_k <= x) for one order k and x < k, from the alternating sum
    that psi_many evaluates (it never asks for x >= k)."""
    return _alternating_cdf(np.array([k]), np.asarray(x, dtype=float)[None],
                            _log_factorials(k))[0]


def test_irwin_hall_small_orders():
    # one uniform: cdf is the identity on (0, 1)
    xs = np.array([0.0, 0.25, 0.5, 0.99, 1.0, 2.0])
    assert np.allclose(1.0 - _sf(1, xs), [0, 0.25, 0.5, 0.99, 1, 1])
    # two uniforms: triangular law
    assert abs(_cdf(2, [1.0])[0] - 0.5) < 1e-14
    assert abs(_cdf(2, [0.5])[0] - 0.125) < 1e-14
    # symmetry of the survival function
    assert abs(_sf(3, [1.2])[0] - _cdf(3, [1.8])[0]) < 1e-13


def test_irwin_hall_extremes_are_stable():
    # far tails of high orders must come out tiny and nonnegative
    v = _sf(80, [75.0])[0]
    assert 0 <= v < 1e-30
    v = _sf(80, [5.0])[0]
    assert 1 - v < 1e-20


@pytest.mark.parametrize("mu", [1.5, 2.0, 4.0])
def test_psi_at_zero_is_reciprocal_drift(mu):
    oracle = RuinOracle(mu)
    assert abs(oracle.psi(0.0) - 1.0 / mu) < 1e-10


def test_psi_monotone_and_vanishing():
    oracle = RuinOracle(2.0)
    us = np.linspace(0, 12, 60)
    vals = oracle.psi_many(us)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all(vals >= 0) and np.all(vals <= 1)
    assert vals[-1] < 1e-5
    assert oracle.psi(40.0) < 1e-12


def test_psi_decreases_in_drift():
    # for fixed u, a faster premium stream makes ruin rarer
    vals = [RuinOracle(mu).psi(1.0) for mu in (1.2, 1.5, 2.0, 4.0, 16.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-2


def test_invalid_drift():
    with pytest.raises(InvalidDrift):
        RuinOracle(1.0)
    with pytest.raises(InvalidDrift):
        RuinOracle(0.5)
    # the series would need more than 10,000 terms to reach its tolerance
    with pytest.raises(InvalidDrift, match="too close to 1"):
        RuinOracle(1.0001)


def test_tail_level():
    oracle = RuinOracle(2.0)
    level = oracle.tail_level(1e-6)
    assert oracle.psi(level) <= 1e-6
    assert oracle.psi(level * 0.9) > 1e-6


def _psi_exact(rho: Fraction, u: Fraction, terms: int) -> Fraction:
    """(1 - rho) * sum_{k <= terms} rho^k * P(IH_k > u) in exact rationals,
    from the Irwin-Hall cdf sum_{j <= u} (-1)^j C(k, j) (u - j)^k / k!."""
    def sf(k: int) -> Fraction:
        if u >= k:
            return Fraction(0)
        cdf = sum((-1) ** j * math.comb(k, j) * (u - j) ** k
                  for j in range(math.floor(u) + 1))
        return 1 - cdf / math.factorial(k)
    return (1 - rho) * sum(rho ** k * sf(k) for k in range(1, terms + 1))


@pytest.mark.parametrize("mu", [Fraction(2), Fraction(4)])
@pytest.mark.parametrize("u", [Fraction(1, 2), Fraction(2)])
def test_psi_against_exact_irwin_hall(mu, u):
    oracle = RuinOracle(float(mu))
    rho = 1 / mu
    value = Fraction(oracle.psi(float(u)))
    rounding = 64 * Fraction(math.ulp(float(value)))
    # the float series is the exact truncated series up to rounding
    assert abs(value - _psi_exact(rho, u, oracle.terms)) <= rounding
    # psi + remainder bounds the whole series: 60 more exact terms and
    # their own geometric remainder
    more = oracle.terms + 60
    whole = _psi_exact(rho, u, more) + rho ** (more + 1)
    assert value + Fraction(oracle.remainder) >= whole - rounding
    assert value < whole - rounding   # the truncation alone is no bound


@pytest.mark.parametrize("mu", [1.5, 2.0, 4.0])
def test_tail_level_bounds_the_exact_series(mu):
    # the ruin_mc decision level: the untruncated psi is at most eps
    oracle = RuinOracle(mu)
    level = Fraction(oracle.tail_level(1e-9))
    more = oracle.terms + 60
    rho = 1 / Fraction(mu)
    assert _psi_exact(rho, level, more) + rho ** (more + 1) \
        <= Fraction(1e-9)


@pytest.mark.parametrize("mu", [1.5, 2.0])
def test_ruin_mc_matches_series(mu):
    us = np.array([0.0, 0.5, 1.0, 2.0])
    freq, se = ruin_mc(mu, us, 120_000, seed=20)
    pk = RuinOracle(mu).psi_many(us)
    assert np.all(np.abs(freq - pk) <= 3 * se)


def test_ruin_mc_deterministic_and_thread_safe():
    us = np.array([0.0, 1.0])
    one = ruin_mc(2.0, us, 30_000, seed=4, threads=1)
    two = ruin_mc(2.0, us, 30_000, seed=4, threads=3)
    assert np.array_equal(one[0], two[0])
    assert np.array_equal(one[1], two[1])


@pytest.mark.parametrize("mu", [1.5, 2.0, 4.0])
def test_ruin_mc_counts_match_row_reference(mu):
    # two chunks, the second partial: every row stepped alone until its
    # own decision gives the same counts, bit for bit, at 1 and 2 threads
    us = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    n_paths, seed = CHUNK + 700, 61
    runmax = ref_ruin_runmax(mu, n_paths, seed)
    counts = (runmax[:, None] >= us[None, :]).sum(axis=0)
    assert n_paths > counts[0] and counts[-1] > 0
    for threads in (1, 2):
        freq, _ = ruin_mc(mu, us, n_paths, seed, threads=threads)
        assert np.array_equal(freq, counts / n_paths)


class _PlantedStream:
    """Stands in for a Philox generator: its exponential draws are the
    rows of a fixed block."""

    def __init__(self, gaps):
        self.gaps = gaps

    def standard_exponential(self, size=None, out=None):
        rows = out.shape[0] if out is not None else size[0]
        if out is None:
            return self.gaps[:rows].copy()
        out[...] = self.gaps[:rows]
        return out


def test_ruin_mc_decisions_are_final(monkeypatch):
    # row 0 ends round 0 at -(u_dec + 1), never above 0 before: decided.
    # Its round-1 draws would lift it far above u = 2, but a decided row
    # is not stepped again.  The other rows climb in round 0 (ruined,
    # undecided) and fall in round 1, so the chunk ends after two rounds
    mu, rows = 2.0, 4
    u_dec = shared_tail_level(mu, poisson_mc._DECISION_EPS)
    rounds = []

    def planted(seed, stream, chunk_index, rnd):
        rounds.append(rnd)
        gaps = np.full((rows, COLS), 10.0)
        if rnd == 0:
            gaps[0] = (COLS + u_dec + 1) / (mu * COLS)
            gaps[1:] = 1e-3
        elif rnd == 1:
            gaps[0] = 1e-3
        return _PlantedStream(gaps)

    monkeypatch.setattr(poisson_mc, "_stream", planted)
    freq, _ = ruin_mc(mu, [0.0, 2.0], rows, seed=0)
    assert freq.tolist() == [0.75, 0.75]
    assert rounds == [0, 1]


# the reserve grid of the bit-for-bit checks: zero, integers, half
# integers (k/2, where the symmetric form switches), points either side
# of them, and levels deep in the tail
REFERENCE_GRID = np.array(
    [0.0, 1e-12, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0,
     4.5, 5.0, 6.0, 6.5 - 1e-12, 6.5, 6.5 + 1e-12, 9.75, 13.0, 17.78,
     19.5, 26.84, 34.0, 40.0, 59.4, 75.5, 151.0, 200.0])


@pytest.mark.parametrize("k", [1, 2, 3, 7, 40, 80])
def test_irwin_hall_matches_per_term_reference(k):
    xs = np.concatenate([REFERENCE_GRID, -REFERENCE_GRID[1:3],
                         np.linspace(0, k, 97)])
    # a whole grid, and inputs with no point strictly inside (0, k); the
    # cdf at x >= k is never evaluated, the sf reads 0 there
    for pts in (xs, np.array([-1.0, 0.0, k, k + 0.5]), np.array([])):
        below = pts[pts < k]
        assert np.array_equal(_cdf(k, below), ref_irwin_hall_cdf(k, below))
        assert np.array_equal(_sf(k, pts), ref_irwin_hall_sf(k, pts))


@pytest.mark.parametrize("mu", [1.2, 1.5, 2.0, 4.0, 16.0])
def test_psi_many_matches_per_order_reference(mu):
    oracle = RuinOracle(mu)
    assert np.array_equal(oracle.psi_many(REFERENCE_GRID),
                          ref_psi_many(oracle, REFERENCE_GRID))
    for edge in (np.array([]), np.array(3.0), np.array([np.nan, 1.0])):
        assert np.array_equal(oracle.psi_many(edge),
                              ref_psi_many(oracle, edge), equal_nan=True)
    # the example-2 deflator grid: thousands of points, most of them at
    # or past some order k
    grid = np.arange(0.0, 10.0, 1e-3)
    assert np.array_equal(oracle.psi_many(grid), ref_psi_many(oracle, grid))
    assert np.array_equal(oracle.psi_many(grid.reshape(100, 100)),
                          ref_psi_many(oracle, grid).reshape(100, 100))


# at eps 0.5 and mu 4 or 16, psi(0) = 1/mu is already below eps: every
# step halves hi, so only the 60-step cap ends the search
@pytest.mark.parametrize("mu", [1.5, 2.0, 4.0, 16.0])
@pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-3, 0.5])
def test_tail_level_matches_sequential_bisection(mu, eps):
    oracle = RuinOracle(mu)
    assert oracle.tail_level(eps) == ref_tail_level(oracle, eps)
