"""Independent brute-force oracles for the exact engine, plain-loop
references for the ruin oracle, and one-jump-at-a-time and full-width
references for the Monte Carlo paths and example-2 chunks.

These deliberately re-derive quantities from first principles, bypassing
the package's grouped-atom machinery and its batched numerics, so that
engine values are confirmed by two unrelated code paths.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

from enlab.finite_prob import AdaptedProcess

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


def enum_stopping_time(description, tau):
    """{tau <= t} is a union of time-t atoms, for every t."""
    return all(len({tau[o] <= t for o in block}) == 1
               for t, partition in enumerate(description["partitions"])
               for block in partition)


def enum_enlarged(description, tau):
    """Per time t, the atoms of the progressive enlargement as sets: each
    time-t atom intersected with {tau = 0}, ..., {tau = t}, {tau > t}."""
    out = []
    for t, partition in enumerate(description["partitions"]):
        events = [lambda o, s=s: tau[o] == s for s in range(t + 1)]
        events.append(lambda o: tau[o] > t)
        out.append({frozenset(o for o in block if event(o))
                    for block in partition for event in events} - {frozenset()})
    return out


def enum_after_atoms(description, tau):
    """(atoms, None): the after-atoms as a set of (t, base, members), with
    members = base & {tau <= t - 1} for every time-(t - 1) atom `base`
    where that is not empty.  (None, (s, bases)) instead when some such
    members carry two values of tau: s is the first time t - 1 where
    they do, and bases the set of its atoms where they do."""
    partitions = description["partitions"]
    atoms = set()
    for t in range(1, len(partitions)):
        unpinned = set()
        for base in partitions[t - 1]:
            members = frozenset(o for o in base if tau[o] <= t - 1)
            if len({tau[o] for o in members}) > 1:
                unpinned.add(frozenset(base))
            elif members:
                atoms.add((t, frozenset(base), members))
        if unpinned:
            return None, (t - 1, unpinned)
    return atoms, None


def ref_weights(f):
    """Reference probability per atom of a filtration as Fractions, the
    form of its integer masses that the integer-mass kernel replaced."""
    return [[Q(m, f.scale) for m in row] for row in f.masses]


def ref_values(x):
    """Outcome rows of a process, outcome -> list over t: the value of
    its atom at each time, in the outcome order of its filtration."""
    f = x.filtration
    return {o: [row[look[o]] for row, look in zip(x.nodes, f.block_of)]
            for o in f.outcomes}


def ref_constant(c, f):
    """The process equal to c on every atom of the filtration f."""
    return AdaptedProcess.from_nodes(
        f, [[Q(c)] * len(part) for part in f.partitions])


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


def ref_average(weights, values):
    """sum w v / sum w over parallel lists of Fraction weights and
    values: the Fraction-only conditional average over atoms that the
    integer-mass kernel replaced (one atom: its value; all values zero:
    0), kept as the reference it must match."""
    if len(weights) == 1:
        return values[0]
    total = None
    for w, v in zip(weights, values):
        if v:
            total = w * v if total is None else total + w * v
    return Q(0) if total is None else total / sum(weights[1:], weights[0])


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


# ---------------------------------------------------------------------------
# Monte Carlo references: the chunk simulation that rebuilds every
# earlier round, the path loop that takes one jump at a time, and the
# example-2 per-checkpoint evaluation over every segment and jump column
# of the chunk.  The engine's appended rounds, its replayed rows and its
# column-windowed evaluation must reproduce these bit for bit.
# ---------------------------------------------------------------------------

def ref_simulate_chunk(model, master_seed, chunk_index, rows, min_time):
    """The chunk's paths, re-concatenating and re-cumsumming all rounds
    drawn so far after each new round."""
    from enlab.poisson_mc import COLS, _STREAM_PATHS, _ChunkPaths, _stream

    mu, a = model.mu, model.a
    parts = []
    max_rounds = int(model.t_max * 2 / COLS) + 8
    for rnd in range(max_rounds):
        gen = _stream(master_seed, _STREAM_PATHS, chunk_index, rnd)
        parts.append(gen.standard_exponential((rows, COLS)))
        T = np.cumsum(np.concatenate(parts, axis=1), axis=1)
        cols = T.shape[1]
        k = np.arange(1, cols + 1)
        post_y = mu * T - k
        stop_ok = (post_y - a >= model.u_star) & (T >= min_time)
        resolved = stop_ok.any(axis=1) | (T[:, -1] > model.t_max)
        if resolved.all():
            break
    else:
        raise AssertionError("chunk simulation exceeded the round cap")

    has_stop = stop_ok.any(axis=1)
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


def ref_simulate_path(model, seed, min_time=0.0, path_index=0):
    """Single-path reference of the chunked engine: path `path_index` of
    a run with master seed `seed`, one jump at a time, read from the same
    row of the same per-round streams.  A censored path ends at t_max
    and leaves out the first jump past it."""
    from enlab.poisson_mc import (
        CHUNK,
        COLS,
        _STREAM_PATHS,
        PoissonPath,
        _stream,
    )

    chunk_index, row = divmod(path_index, CHUNK)
    mu, a = model.mu, model.a
    t = 0.0
    y = 0.0
    last_up = a / mu  # crossing of the initial ascent, updated as found
    jumps = []
    censored = False
    gaps = iter(())
    rnd = 0
    while True:
        gap = next(gaps, None)
        if gap is None:
            gen = _stream(seed, _STREAM_PATHS, chunk_index, rnd)
            draws = gen.standard_exponential((row + 1, COLS))
            gaps = iter(draws[row].tolist())
            rnd += 1
            gap = next(gaps)
        t_next = t + gap
        if t_next > model.t_max:
            censored = True
            t = model.t_max
            break
        if y <= a < mu * t_next - len(jumps):  # the pre-jump surplus
            last_up = t + (a - y) / mu
        t = t_next
        jumps.append(t)
        y = mu * t - len(jumps)
        if y - a >= model.u_star and t >= min_time:
            break
    path = PoissonPath(tuple(jumps), t, last_up, censored, seed, mu, a)
    for k, tk in enumerate(path.jump_times, start=1):
        assert censored or not (tk > path.tau_hat and mu * tk - k <= a), \
            "post-detection surplus at or below the level"
    return path


def ref_surplus_post(path, k):
    """Post-jump surplus of `path` after its k-th jump (1-based)."""
    return path.mu * path.jump_times[k - 1] - k


def _ref_segments(c):
    rows = c.T.shape[0]
    zeros = np.zeros((rows, 1))
    seg_t = np.concatenate([zeros, c.T], axis=1)
    seg_y = np.concatenate([zeros, c.post_y], axis=1)
    seg_end = np.concatenate([c.T, np.full((rows, 1), np.inf)], axis=1)
    return seg_t, seg_y, seg_end


def ref_example2_chunk(model, grids, c, checkpoints):
    """Per-path deflator and product of the uncensored rows at each
    checkpoint, every quantity evaluated on all columns of the chunk."""
    mu, a = model.mu, model.a
    seg_t, seg_y, seg_end = _ref_segments(c)
    out = {}
    for cp in checkpoints:
        s0 = np.maximum(seg_t, c.tau_hat[:, None])
        s1 = np.minimum(seg_end, cp)
        valid = s1 > s0
        y0 = seg_y + mu * (s0 - seg_t)
        y1 = seg_y + mu * (s1 - seg_t)
        expo = np.where(valid,
                        grids.anti_at(np.where(valid, y1, a + 1.0))
                        - grids.anti_at(np.where(valid, y0, a + 1.0)),
                        0.0).sum(axis=1) / mu
        s_above = seg_t + np.maximum(a + 1.0 - seg_y, 0.0) / mu
        leb = np.clip(s1 - np.maximum(s0, s_above), 0.0, None)
        leb = np.where(valid, leb, 0.0).sum(axis=1)
        in_window = (c.T > c.tau_hat[:, None]) & (c.T <= cp) \
            & (c.pre_y > a + 1.0)
        logs = np.where(in_window,
                        grids.log_jump_factor(
                            np.where(in_window, c.pre_y, a + 2.0)),
                        0.0).sum(axis=1)
        count = in_window.sum(axis=1)
        deflator = np.exp(expo + logs)
        product = deflator * (count - leb)
        out[cp] = (deflator[~c.censored], product[~c.censored])
    return out


def ref_selftest_chunk(model, seed, chunk_index, c, checkpoints):
    """Per-path band and independent after-parts of the uncensored rows
    at each checkpoint, every quantity evaluated on all columns."""
    from enlab.poisson_mc import COLS, _STREAM_INDEP, _stream

    mu, a = model.mu, model.a
    rows = c.T.shape[0]
    min_time = max(checkpoints)
    seg_t, seg_y, seg_end = _ref_segments(c)
    gen = _stream(seed, _STREAM_INDEP, chunk_index, 0)
    cols_w = COLS
    WT = np.cumsum(gen.standard_exponential((rows, cols_w)), axis=1)
    while (WT[:, -1] < min_time).any():
        cols_w += COLS
        more = _stream(seed, _STREAM_INDEP, chunk_index,
                       cols_w // COLS).standard_exponential((rows, COLS))
        WT = np.concatenate([WT, WT[:, -1:] + np.cumsum(more, axis=1)],
                            axis=1)
    out = {}
    for cp in checkpoints:
        s0 = np.maximum(seg_t, c.tau_hat[:, None])
        s1 = np.minimum(seg_end, cp)
        valid = s1 > s0
        t_enter = seg_t + np.maximum(a - seg_y, 0.0) / mu
        t_exit = seg_t + np.maximum(a + 1.0 - seg_y, 0.0) / mu
        lo = np.maximum(s0, t_enter)
        hi = np.minimum(s1, t_exit)
        band_leb = np.where(valid, np.clip(hi - lo, 0.0, None),
                            0.0).sum(axis=1)
        band_jumps = ((c.T > c.tau_hat[:, None]) & (c.T <= cp)
                      & (c.pre_y >= a) & (c.pre_y < a + 1.0)).sum(axis=1)
        band = band_jumps - band_leb
        w_jumps = ((WT > c.tau_hat[:, None]) & (WT <= cp)).sum(axis=1)
        indep = w_jumps - np.clip(cp - c.tau_hat, 0.0, None)
        out[cp] = (band[~c.censored], indep[~c.censored])
    return out
