"""Ruin probability for the unit-claim, unit-intensity surplus process.

The surplus grows at premium rate mu > 1 and pays deterministic unit
claims at Poisson(1) arrivals.  The probability that claims ever exceed
the initial reserve by more than u is evaluated with the
Pollaczeck-Khinchine series: load rho = 1/mu, integrated-tail law
uniform on (0, 1), k-fold convolutions given by the Irwin-Hall
distribution,

    psi(u) = (1 - rho) * sum_{k>=1} rho^k * P(IrwinHall_k > u),

truncated after the first K terms with rho^{K+1} below the series
tolerance 1e-12.  The dropped mass is at most rho^{K+1} (``remainder``),
so psi + remainder bounds the untruncated series from above; tail_level
bisects on that bound.  psi(0) = rho exactly (up to truncation).  A
premium rate so close to 1 that K would exceed 10,000 terms is rejected
as an invalid drift.

Irwin-Hall terms are computed in log space; above the midpoint the
symmetric form P(IH_k > u) = F_k(k - u) keeps the alternating sum short
and mild, so double precision holds far more accuracy than the Monte
Carlo cross-checks can see.  psi_many evaluates every (order, reserve)
cell of the series as one block, looping only over the alternating
index j; each cell is formed by the same expression and summed in the
same order (j, then k) as one order at a time would, so the values do
not depend on how the reserves are grouped into calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidDrift

# Most (order, reserve) cells in one psi_many block: the reserves are
# evaluated in slices of at most this many cells divided by the orders.
_BLOCK_CELLS = 1 << 16

# Bisection steps that tail_level resolves per psi_many call: one call
# evaluates all 2^d - 1 midpoints the next d steps can visit.
_BISECTION_DEPTH = 6

_SERIES_TOLERANCE = 1e-12
_MAX_TERMS = 10_000


def _log_factorials(n: int) -> np.ndarray:
    """lgamma(m + 1) for m = 0..n."""
    return np.array([math.lgamma(m + 1) for m in range(n + 1)])


def _alternating_cdf(orders: np.ndarray, x: np.ndarray,
                     log_fact: np.ndarray) -> np.ndarray:
    """P(IH_k <= x) for each cell of the block ``x`` with 0 < x < k, where
    row r has order k = orders[r] (ascending): the alternating sum
    sum_{0 <= j < x} (-1)^j C(k, j) (x - j)^k / k!, each term formed as
    exp(log C(k, j) + k log(x - j) - log k!) and added in order of j,
    then clipped to [0, 1].  Cells with x <= 0 read 0.

    Each j is evaluated over the smallest rectangle of rows and columns
    that still holds a cell with x > j.  Its other cells have their
    base x - j clamped to 0, so their term is exp(-inf) = 0 exactly and
    adding it changes no sum."""
    k = orders[:, None]
    log_kfac = log_fact[k]
    row_top, col_top = x.max(axis=1, initial=0), x.max(axis=0, initial=0)
    acc = np.zeros(x.shape)
    term = np.empty(x.shape)
    for j in range(math.ceil(x.max(initial=0))):
        rows = np.flatnonzero(row_top > j)
        cols = np.flatnonzero(col_top > j)
        r, c = slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)
        kr = k[r]
        log_c = (log_fact[kr] - log_fact[j]) - log_fact[kr - j]
        t = term[r, c]
        np.subtract(x[r, c], j, out=t)
        np.maximum(t, 0.0, out=t)
        with np.errstate(divide="ignore"):
            np.log(t, out=t)
        t *= kr
        t += log_c
        t -= log_kfac[r]
        np.exp(t, out=t)
        if j % 2 == 0:
            acc[r, c] += t
        else:
            acc[r, c] -= t
    return np.clip(acc, 0.0, 1.0)


def _sf_block(orders: np.ndarray, us: np.ndarray,
              log_fact: np.ndarray) -> np.ndarray:
    """P(IH_k > u) for each order k in ``orders`` (ascending rows) and
    reserve u in ``us`` (columns): 1 for u <= 0, 0 for u >= k, the
    symmetric form F_k(k - u) above k/2 and 1 - F_k(u) up to it."""
    k, u = orders[:, None], us[None, :]
    mid = (u > 0) & (u < k)
    high = u > k / 2
    cdf = _alternating_cdf(orders, np.where(mid, np.where(high, k - u, u),
                                            0.0), log_fact)
    return np.where(mid, np.where(high, cdf, 1.0 - cdf),
                    np.where(u <= 0, 1.0, 0.0))


def _midpoints(lo: float, hi: float, depth: int) -> list[float]:
    """Every midpoint the next ``depth`` bisection steps from (lo, hi) can
    visit, in heap order: the children of point i, 2i + 1 and 2i + 2, are
    the midpoints of its lower and upper half."""
    intervals, points = [(lo, hi)], []
    for i in range(2 ** depth - 1):
        a, b = intervals[i]
        m = (a + b) / 2
        points.append(m)
        intervals += [(a, m), (m, b)]
    return points


@dataclass
class RuinOracle:
    mu: float
    remainder: float = field(init=False, repr=False)
    terms: int = field(init=False, repr=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)
    _log_fact: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.mu > 1:
            raise InvalidDrift(f"premium rate {self.mu} must exceed 1")
        # K terms with rho^{K+1} < tolerance; the terms k > K carry mass
        # (1-rho) * sum_{j>K} rho^j * P(IH_j > u) <= rho^{K+1}
        rho = self.load
        weight, weights = 1.0, []
        for k in range(1, _MAX_TERMS + 1):
            weight *= rho
            weights.append(weight)
            if weight * rho < _SERIES_TOLERANCE:
                break
        else:
            raise InvalidDrift(
                f"premium rate {self.mu} is too close to 1: the series "
                f"needs more than {_MAX_TERMS} terms to reach "
                f"{_SERIES_TOLERANCE:g}")
        self.terms = k
        self.remainder = weight * rho
        self._weights = np.array(weights)
        self._log_fact = _log_factorials(k)

    @property
    def load(self) -> float:
        return 1.0 / self.mu

    def psi_many(self, us) -> np.ndarray:
        us = np.asarray(us, dtype=float)
        if (us < 0).any():
            raise ValueError("ruin probability needs u >= 0")
        flat = us.ravel()
        acc = np.empty(flat.shape)
        orders = np.arange(1, self.terms + 1)
        step = max(1, _BLOCK_CELLS // self.terms)
        for lo in range(0, flat.size, step):
            sf = _sf_block(orders, flat[lo:lo + step], self._log_fact)
            # a running sum over k adds in order; np.sum would pair terms
            acc[lo:lo + step] = np.cumsum(self._weights[:, None] * sf,
                                          axis=0)[-1]
        return ((1.0 - self.load) * acc).reshape(us.shape)

    def psi(self, u: float) -> float:
        return float(self.psi_many(np.array([u]))[0])

    @staticmethod
    @lru_cache(maxsize=8)
    def shared(mu: float) -> "RuinOracle":
        """The oracle of premium rate mu, built once per rate for callers
        that only read it."""
        return RuinOracle(mu)

    def tail_level(self, eps: float) -> float:
        """Smallest grid-hunted u with psi(u) + remainder <= eps (monotone
        bisection), so the untruncated ruin probability at u is at most
        eps up to the float rounding of psi.

        Doubling from 1 finds the first power of two that meets the bound,
        then 60 bisection steps narrow (lo, hi].  One psi_many call serves
        all doubling candidates, and one each bisection round of
        ``_BISECTION_DEPTH`` steps: it evaluates every midpoint the round
        can visit, formed by the same (lo + hi) / 2 recursion, so the
        returned level is bit for bit that of one psi evaluation per step.
        The search stops early once (lo + hi) / 2 rounds to lo or hi: hi
        meets the bound and lo misses it (lo = 0, never evaluated, cannot
        be reached by halving hi >= 1 sixty times), so no later step can
        move either end."""
        if not self.remainder < eps < 1:
            raise ValueError(f"eps must lie in ({self.remainder:.3g}, 1)")
        # hi = 1, 2, ..., 2^19; the next candidate, 2^20, exceeds 1e6
        candidates = 2.0 ** np.arange(20)
        over = self.psi_many(candidates) + self.remainder > eps
        if over.all():
            raise ValueError("tail level out of reach")
        first = int(np.argmin(over))
        lo = float(candidates[first - 1]) if first else 0.0
        hi = float(candidates[first])
        steps = 60
        while steps and lo < (lo + hi) / 2 < hi:
            depth = min(_BISECTION_DEPTH, steps)
            over = (self.psi_many(_midpoints(lo, hi, depth))
                    + self.remainder > eps)
            node = 0
            for _ in range(depth):
                mid = (lo + hi) / 2
                if over[node]:
                    lo, node = mid, 2 * node + 2
                else:
                    hi, node = mid, 2 * node + 1
            steps -= depth
        return hi


@lru_cache(maxsize=8)
def shared_tail_level(mu: float, eps: float) -> float:
    """tail_level(eps) of the shared oracle of premium rate mu, found once
    per (mu, eps)."""
    return RuinOracle.shared(mu).tail_level(eps)
