"""Excursion-ladder demonstration on a scaled random walk.

A symmetric walk with step size sqrt(dt) stands in for Brownian motion.
Ladder times alternate between first passage up to the level eps and
first return to zero; the studied random time is the last completed
return before the walk first reaches one.  Both levels are rounded to
the lattice, k_eps = round(eps / sqrt(dt)) and k_one = round(1 / sqrt(dt))
steps, so the walk hits them exactly and the ladder bookkeeping is
lattice-exact.  The rounded levels need not equal the nominal ones: at
dt = 1e-3 one becomes 32 steps (1.012) and eps = 0.25 becomes 8 steps
(0.253).  Everything else here is a diagnostic at random-walk
resolution, not an assertion.

Hitting times of a driftless walk are heavy-tailed, so a path that has
not reached one within int(time_cap / dt) steps is reported censored
rather than waited out; no ladder time beyond that step is recorded.

Steps come from counter-based Philox streams, one step per bit of each
64-bit word, and stay packed eight to a byte: a 256-entry table gives
each byte's moves, so only bytes whose range touches a level are
unpacked.  Outer path i reads the single stream keyed
(seed, _STREAM_OUTER, i), so any path replays from (seed, path index)
alone.  The nested estimate at outer index i steps all its inner walks
together; round r of that lockstep simulation reads the stream keyed
(seed, _STREAM_INNER, i, r).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EnlabError, UsageError

_BLOCK = 1 << 16     # outer-walk steps per block
_LOCKSTEP = 256      # steps per round of the nested lockstep walks
_STREAM_OUTER = 11
_STREAM_INNER = 13


def _byte_tables():
    """Moves of the 8 steps packed in each byte value, first step in the
    most significant bit (the order of np.unpackbits): the positions
    after each step, and their last, lowest and highest values."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    prefix = np.cumsum(2 * bits.astype(np.int64) - 1, axis=1)
    return prefix, prefix[:, -1], prefix.min(axis=1), prefix.max(axis=1)


_PREFIX, _MOVE, _LOW, _HIGH = _byte_tables()


def _philox(seed: int, *key: int) -> np.random.Philox:
    return np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=key))


def _levels(eps: float, dt: float) -> tuple[int, int]:
    """Lattice levels (k_eps, k_one) of eps and one."""
    if not 0 < eps < 1:
        raise UsageError(f"eps must lie in (0, 1), got {eps}", field="eps")
    if not 0 < dt <= 1e-3:
        raise UsageError(f"dt must lie in (0, 1e-3], got {dt}", field="dt")
    k_eps = max(1, round(eps / math.sqrt(dt)))
    k_one = round(1.0 / math.sqrt(dt))
    if k_eps >= k_one:
        raise UsageError(f"eps={eps} rounds onto the level one at dt={dt}",
                         field="eps")
    return k_eps, k_one


def _ladder_steps(blocks, k_eps: int, k_one: int, cap: int
                  ) -> tuple[list[int], list[int], int | None]:
    """Ladder events of a walk started at zero, as 1-based step numbers.

    ``blocks`` yields uint8 arrays of packed steps (see _byte_tables).
    Events after step ``cap`` are ignored.  Returns the up-passage
    steps, the return steps and the step of the first visit to k_one
    (None when it does not come within the cap).

    Among the visits to {0, k_eps, k_one} with consecutive repeats
    dropped, every visit is a ladder event: the walk moves by single
    steps, so after a return it must pass k_eps before anything else,
    and after an up-passage the next new level is zero or one.
    """
    ups: list[int] = []
    returns: list[int] = []
    pos = 0    # lattice position after the steps read so far
    done = 0   # steps read so far
    last = 0   # level of the latest ladder event (the start counts as 0)
    for packed in blocks:
        move = np.take(_MOVE, packed)
        start = np.cumsum(move) - move + pos   # position before each byte
        low = np.take(_LOW, packed) + start
        high = np.take(_HIGH, packed) + start
        # a byte's positions form the integer range [low, high]
        near = np.flatnonzero(((low <= 0) & (high >= 0))
                              | ((low <= k_eps) & (high >= k_eps))
                              | ((low <= k_one) & (high >= k_one)))
        path = start[near, None] + np.take(_PREFIX, packed[near], axis=0)
        row, col = np.nonzero((path == 0) | (path == k_eps) | (path == k_one))
        for step, level in zip((done + 1 + 8 * near[row] + col).tolist(),
                               path[row, col].tolist()):
            if step > cap:
                break
            if level == last:
                continue   # a repeated visit is no ladder event
            if level == k_one:
                return ups, returns, step
            (ups if level == k_eps else returns).append(step)
            last = level
        pos = int(start[-1] + move[-1])
        done += 8 * packed.size
        if done >= cap:
            break
    return ups, returns, None


@dataclass(frozen=True)
class LadderPath:
    up_times: tuple[float, ...]      # completed passages to the eps level
    return_times: tuple[float, ...]  # completed returns to zero
    first_hit_one: float | None      # None when censored at the cap
    last_return: float               # the studied time (0 when no return)
    censored: bool


@dataclass(frozen=True)
class BrownianDemoReport:
    eps: float
    dt: float
    n_paths: int
    n_censored: int
    structural_ok: bool
    mean_last_return: float
    inner_estimates: np.ndarray      # nested survival-at-the-time estimates
    inner_se: float
    frac_near_one: float             # diagnostic for the class membership
    lattice_survival: float          # exact gambler's-ruin value

    @property
    def class_h_plausible(self) -> bool:
        return self.frac_near_one == 0.0


def simulate_ladder_path(eps: float, dt: float, seed: int, path_index: int,
                         time_cap: float) -> LadderPath:
    k_eps, k_one = _levels(eps, dt)
    cap = int(time_cap / dt)
    if cap < 1:
        raise UsageError(f"time_cap={time_cap} must cover at least one step "
                         f"of dt={dt}", field="time_cap")
    bitgen = _philox(seed, _STREAM_OUTER, path_index)
    blocks = (bitgen.random_raw(_BLOCK // 64).view(np.uint8)
              for _ in itertools.repeat(None))
    ups, returns, hit = _ladder_steps(blocks, k_eps, k_one, cap)
    return_times = tuple(s * dt for s in returns)
    return LadderPath(
        up_times=tuple(s * dt for s in ups), return_times=return_times,
        first_hit_one=None if hit is None else hit * dt,
        last_return=return_times[-1] if return_times else 0.0,
        censored=hit is None)


def _structural_check(path: LadderPath) -> bool:
    """The studied time is recomputable from any prefix ending after the
    first passage to one: it is the last completed return seen so far,
    and the ladder alternates strictly."""
    seq = []
    for u, v in zip(path.up_times, path.return_times):
        seq.extend([u, v])
    if len(path.up_times) > len(path.return_times):
        seq.append(path.up_times[-1])
    if any(b <= a for a, b in zip(seq, seq[1:])):
        return False
    if path.censored:
        return True
    last = 0.0
    for v in path.return_times:
        if v <= path.first_hit_one:
            last = v
    return last == path.last_return and \
        all(v <= path.first_hit_one for v in path.return_times)


def _inner_survival_estimate(k_eps: int, k_one: int, seed: int,
                             outer_index: int, inner_paths: int) -> float:
    """Nested estimate of the probability that another excursion
    completes before the walk reaches one, started at a return time.

    From zero the walk must pass the eps level before one, so only the
    decision leg from eps is simulated: absorb at zero (another return
    happens) or at the one level (the time stays put).  All inner walks
    step together, _LOCKSTEP steps per round; absorbed walks drop out.
    A walk strictly inside (0, k_one) is absorbed in the first byte
    whose range reaches a boundary, and a byte spans fewer than k_one
    levels, so that byte decides which boundary.
    """
    pos = np.full(inner_paths, k_eps, dtype=np.int64)
    wins = 0
    for rnd in itertools.count():
        words = _philox(seed, _STREAM_INNER, outer_index, rnd).random_raw(
            pos.size * _LOCKSTEP // 64)
        packed = words.view(np.uint8).reshape(pos.size, _LOCKSTEP // 8)
        move = np.take(_MOVE, packed)
        after = np.cumsum(move, axis=1) + pos[:, None]
        start = after - move
        down = np.take(_LOW, packed) + start <= 0
        hit = down | (np.take(_HIGH, packed) + start >= k_one)
        absorbed = hit.any(axis=1)
        rows = np.flatnonzero(absorbed)
        wins += int(down[rows, hit[rows].argmax(axis=1)].sum())
        pos = after[~absorbed, -1]
        if pos.size == 0:
            return wins / inner_paths


def brownian_demo(eps: float, dt: float, paths: int, seed: int,
                  time_cap: float = 100.0, nested_outer: int = 64,
                  nested_inner: int = 500) -> BrownianDemoReport:
    if min(paths, nested_outer, nested_inner) < 1:
        raise EnlabError("paths, nested_outer and nested_inner must be at "
                         "least 1")
    k_eps, k_one = _levels(eps, dt)
    structural_ok = True
    censored = 0
    last_sum = 0.0
    resolved = 0
    for i in range(paths):
        path = simulate_ladder_path(eps, dt, seed, i, time_cap)
        if not _structural_check(path):
            structural_ok = False
        if path.censored:
            censored += 1
        else:
            resolved += 1
            last_sum += path.last_return

    estimates = np.array([
        _inner_survival_estimate(k_eps, k_one, seed, i, nested_inner)
        for i in range(min(nested_outer, paths))])
    inner_se = math.sqrt(max((1 - eps) * eps, 1e-12) / nested_inner)
    lattice = (k_one - k_eps) / k_one
    frac_near_one = float((estimates > 1.0 - 3.0 * inner_se).mean())
    return BrownianDemoReport(
        eps=eps, dt=dt, n_paths=paths, n_censored=censored,
        structural_ok=structural_ok,
        mean_last_return=last_sum / resolved if resolved else float("nan"),
        inner_estimates=estimates, inner_se=inner_se,
        frac_near_one=frac_near_one, lattice_survival=lattice)
