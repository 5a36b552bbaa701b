"""Ruin probability for the unit-claim, unit-intensity surplus process.

The surplus grows at premium rate mu > 1 and pays deterministic unit
claims at Poisson(1) arrivals.  The probability that claims ever exceed
the initial reserve by more than u is evaluated with the
Pollaczeck-Khinchine series: load rho = 1/mu, integrated-tail law
uniform on (0, 1), k-fold convolutions given by the Irwin-Hall
distribution,

    psi(u) = (1 - rho) * sum_{k>=1} rho^k * P(IrwinHall_k > u),

truncated after the first K terms with rho^{K+1} below the series
tolerance.  The dropped mass is at most rho^{K+1} (``remainder``), so
psi + remainder bounds the untruncated series from above; tail_level
bisects on that bound.  psi(0) = rho exactly (up to truncation).

Irwin-Hall terms are computed in log space; above the midpoint the
symmetric form P(IH_k > u) = F_k(k - u) keeps the alternating sum short
and mild, so double precision holds far more accuracy than the Monte
Carlo cross-checks can see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDrift


def irwin_hall_cdf(k: int, x: np.ndarray) -> np.ndarray:
    """P(sum of k iid uniform(0,1) <= x), vectorized over x."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    out[x >= k] = 1.0
    mid = (x > 0) & (x < k)
    if not mid.any():
        return out
    xm = x[mid]
    acc = np.zeros(xm.shape)
    log_kfac = math.lgamma(k + 1)
    for j in range(int(np.floor(xm.max())) + 1):
        base = xm - j
        live = base > 0
        if not live.any():
            break
        log_c = (math.lgamma(k + 1) - math.lgamma(j + 1)
                 - math.lgamma(k - j + 1))
        term = np.zeros(xm.shape)
        term[live] = np.exp(log_c + k * np.log(base[live]) - log_kfac)
        acc += term if j % 2 == 0 else -term
    out[mid] = np.clip(acc, 0.0, 1.0)
    return out


def irwin_hall_sf(k: int, u: np.ndarray) -> np.ndarray:
    """P(sum of k iid uniform(0,1) > u); symmetric form above k/2."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    out[u <= 0] = 1.0
    mid = (u > 0) & (u < k)
    if not mid.any():
        return out
    um = u[mid]
    res = np.empty(um.shape)
    high = um > k / 2
    res[high] = irwin_hall_cdf(k, k - um[high])
    res[~high] = 1.0 - irwin_hall_cdf(k, um[~high])
    out[mid] = res
    return out


@dataclass
class RuinOracle:
    mu: float
    series_tolerance: float = 1e-12
    max_terms: int = 10_000
    remainder: float = field(init=False, repr=False)
    terms: int = field(init=False, repr=False)

    def __post_init__(self):
        if not self.mu > 1:
            raise InvalidDrift(f"premium rate {self.mu} must exceed 1")
        # K terms with rho^{K+1} < tolerance; the terms k > K carry mass
        # (1-rho) * sum_{j>K} rho^j * P(IH_j > u) <= rho^{K+1}
        rho = self.load
        weight = 1.0
        for k in range(1, self.max_terms + 1):
            weight *= rho
            if weight * rho < self.series_tolerance:
                break
        self.terms = k
        self.remainder = weight * rho

    @property
    def load(self) -> float:
        return 1.0 / self.mu

    def psi_many(self, us) -> np.ndarray:
        us = np.asarray(us, dtype=float)
        if (us < 0).any():
            raise ValueError("ruin probability needs u >= 0")
        rho = self.load
        acc = np.zeros(us.shape)
        weight = 1.0
        for k in range(1, self.terms + 1):
            weight *= rho
            acc += weight * irwin_hall_sf(k, us)
        return (1.0 - rho) * acc

    def psi(self, u: float) -> float:
        return float(self.psi_many(np.array([u]))[0])

    def tail_level(self, eps: float) -> float:
        """Smallest grid-hunted u with psi(u) + remainder <= eps (monotone
        bisection), so the untruncated ruin probability at u is at most
        eps up to the float rounding of psi."""
        if not self.remainder < eps < 1:
            raise ValueError(f"eps must lie in ({self.remainder:.3g}, 1)")
        lo, hi = 0.0, 1.0
        while self.psi(hi) + self.remainder > eps:
            lo, hi = hi, hi * 2
            if hi > 1e6:
                raise ValueError("tail level out of reach")
        for _ in range(60):
            mid = (lo + hi) / 2
            if self.psi(mid) + self.remainder > eps:
                lo = mid
            else:
                hi = mid
        return hi
