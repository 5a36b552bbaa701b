"""Independent brute-force oracles for the exact engine, and plain-loop
references for the ruin oracle.

These deliberately re-derive quantities from first principles, bypassing
the package's grouped-atom machinery and its batched numerics, so that
engine values are confirmed by two unrelated code paths.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

Q = Fraction


def enum_survival(description, tau, t, inclusive=False):
    """P(tau > t | atom) (or >=) by brute enumeration per atom."""
    prob = {o: Q(p) for o, p in description["prob"].items()}
    out = {}
    for block in description["partitions"][t]:
        mass = sum(prob[o] for o in block)
        if inclusive:
            hit = sum(prob[o] for o in block if tau[o] >= t)
        else:
            hit = sum(prob[o] for o in block if tau[o] > t)
        for o in block:
            out[o] = hit / mass
    return out


def enum_honest(description, tau):
    """Closed-event honesty by exhaustive atom scan."""
    for t, partition in enumerate(description["partitions"]):
        for block in partition:
            values = {tau[o] for o in block if tau[o] <= t}
            if len(values) > 1:
                return False
    return True


def grid_feasible(vectors, max_weight):
    """Grid oracle for 0 in the relative interior of conv(vectors).

    Enumerates integer weight vectors in {1..max_weight}^n; any strictly
    positive rational solution rescales to an integer one, so with the
    instance entries bounded by 3, n <= 3 and d <= 2 a bound of 40
    covers every solvable case (the solution lattice of the nonzero
    columns is generated by 2x2 minors, each at most 18 in absolute
    value; rank-one systems reduce to two-term integer balances with
    coefficients at most 9).
    """
    nonzero = [tuple(int(c) for c in v) for v in vectors
               if any(c != 0 for c in v)]
    if not nonzero:
        return True
    d = len(nonzero[0])
    n = len(nonzero)
    for weights in product(range(1, max_weight + 1), repeat=n):
        if all(sum(w * v[k] for w, v in zip(weights, nonzero)) == 0
               for k in range(d)):
            return True
    return False


# ---------------------------------------------------------------------------
# Per-outcome references for the calculus on the atom tree: plain loops
# over outcome rows (outcome -> list over t) and partitions (list over t
# of blocks), with no node layout.
# ---------------------------------------------------------------------------

def ref_cond_exp(x, t, prob, partitions):
    """E[x | partition at t], outcome by outcome."""
    out = {}
    for block in partitions[t]:
        mass = sum(prob[o] for o in block)
        avg = sum(prob[o] * x[o] for o in block) / mass
        for o in block:
            out[o] = avg
    return out


def ref_drift(rows, t, prob, partitions):
    """One-step drift E[X_t - X_{t-1} | partition at t - 1], per outcome."""
    return ref_cond_exp({o: Q(row[t]) - Q(row[t - 1]) for o, row in rows.items()},
                        t - 1, prob, partitions)


def ref_compensator(rows, prob, partitions):
    """A_0 = X_0 and A_t = A_{t-1} + the one-step drift at t."""
    out = {o: [Q(row[0])] for o, row in rows.items()}
    for t in range(1, len(partitions)):
        drift = ref_drift(rows, t, prob, partitions)
        for o in out:
            out[o].append(out[o][-1] + drift[o])
    return out


def ref_first_drift(rows, prob, partitions):
    """(t, block, drift) of the first atom with nonzero drift, scanning
    t upward and blocks in the given order; None for a martingale."""
    for t in range(1, len(partitions)):
        drift = ref_drift(rows, t, prob, partitions)
        for block in partitions[t - 1]:
            if drift[block[0]] != 0:
                return t, tuple(block), drift[block[0]]
    return None


def ref_bracket(xs, ys):
    """[X, Y]_t = sum over s <= t of dX_s dY_s, outcome by outcome."""
    out = {}
    for o, x in xs.items():
        y, acc = ys[o], [Q(0)]
        for t in range(1, len(x)):
            acc.append(acc[-1] + (Q(x[t]) - x[t - 1]) * (Q(y[t]) - y[t - 1]))
        out[o] = acc
    return out


def ref_exponential(xs):
    """E(X)_t = product over s <= t of (1 + dX_s), outcome by outcome."""
    out = {}
    for o, x in xs.items():
        acc = [Q(1)]
        for t in range(1, len(x)):
            acc.append(acc[-1] * (1 + Q(x[t]) - x[t - 1]))
        out[o] = acc
    return out


# ---------------------------------------------------------------------------
# Ruin-oracle references: the Pollaczeck-Khinchine series summed one
# Irwin-Hall order at a time, and the tail level found by one psi
# evaluation per bisection step.  The engine's block sum and batched
# bisection must reproduce these bit for bit.
# ---------------------------------------------------------------------------

def ref_irwin_hall_cdf(k, x):
    """P(sum of k iid uniform(0,1) <= x), one alternating term per j."""
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


def ref_irwin_hall_sf(k, u):
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
    res[high] = ref_irwin_hall_cdf(k, k - um[high])
    res[~high] = 1.0 - ref_irwin_hall_cdf(k, um[~high])
    out[mid] = res
    return out


def ref_psi_many(oracle, us):
    """(1 - rho) * sum_k rho^k P(IH_k > u), accumulated order by order."""
    us = np.asarray(us, dtype=float)
    rho = oracle.load
    acc = np.zeros(us.shape)
    weight = 1.0
    for k in range(1, oracle.terms + 1):
        weight *= rho
        acc += weight * ref_irwin_hall_sf(k, us)
    return (1.0 - rho) * acc


def ref_tail_level(oracle, eps):
    """Doubling then 60 bisection steps, one psi evaluation per step."""
    def psi(u):
        return float(ref_psi_many(oracle, np.array([u]))[0])
    lo, hi = 0.0, 1.0
    while psi(hi) + oracle.remainder > eps:
        lo, hi = hi, hi * 2
        if hi > 1e6:
            raise ValueError("tail level out of reach")
    for _ in range(60):
        mid = (lo + hi) / 2
        if psi(mid) + oracle.remainder > eps:
            lo = mid
        else:
            hi = mid
    return hi
