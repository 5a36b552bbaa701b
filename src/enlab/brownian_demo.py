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
64-bit word, and stay packed eight to a byte: 256-entry tables give
each byte's moves, so only bytes starting within 8 steps of a level are
unpacked.  Outer path i reads the single stream keyed
(seed, _STREAM_OUTER, i), so any path replays from (seed, path index)
alone.  The nested estimate at outer index i steps its inner walks in
lockstep with those of its group; round r of index i reads the stream
keyed (seed, _STREAM_INNER, i, r).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EnlabError, UsageError

_BLOCK = 1 << 16     # outer-walk steps per block
_LOCKSTEP = 256      # steps per round of the nested lockstep walks
_NESTED_GROUP = 8    # outer indices whose nested walks step together
_MAX_CAP = 10 ** 8   # outer-walk steps at most (the time cap over dt)
_STREAM_OUTER = 11
_STREAM_INNER = 13


def _byte_tables():
    """Moves of the 8 steps packed in each byte value, first step in the
    most significant bit (the order of np.unpackbits): the positions
    after each step, their last value, and how far the lowest lies
    below and the highest above the last."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    prefix = np.cumsum(2 * bits.astype(np.int8) - 1, axis=1, dtype=np.int8)
    last = prefix[:, -1].copy()
    return prefix, last, last - prefix.min(axis=1), prefix.max(axis=1) - last


_PREFIX, _MOVE, _DROP, _RISE = _byte_tables()


def _philox(seed: int, *key: int) -> np.random.Philox:
    return np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=key))


def _levels(eps: float, dt: float) -> tuple[int, int]:
    """Lattice levels (k_eps, k_one) of eps and one."""
    if not 0 < eps < 1:
        raise UsageError(f"eps must lie in (0, 1), got {eps}", field="eps")
    if not 1e-6 <= dt <= 1e-3:
        raise UsageError(f"dt must lie in [1e-6, 1e-3], got {dt}",
                         field="dt")
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
    A block of whole 64-bit words none of which starts within 64 steps
    of a level is passed over.  Positions fit int32 under _MAX_CAP.
    """
    levels = (0, k_eps, k_one)
    # reach[s + 9]: a byte started at s can touch a level; False at both
    # ends, where starts below -8 and above k_one + 8 clip to
    reach = np.zeros(k_one + 19, dtype=bool)
    for level in levels:
        reach[level + 1:level + 18] = True
    ups: list[int] = []
    returns: list[int] = []
    pos = 0    # lattice position after the steps read so far
    done = 0   # steps read so far
    last = 0   # level of the latest visit (the start counts as 0)
    for packed in blocks:
        if packed.size % 8 == 0:
            ones = np.bitwise_count(packed.view(np.uint64)).astype(np.int32)
            word_move = 2 * ones - 64
            word_start = np.cumsum(word_move) - word_move
            lo = int(word_start.min()) + pos - 64
            hi = int(word_start.max()) + pos + 64
            if not any(lo <= level <= hi for level in levels):
                pos += int(word_start[-1] + word_move[-1])
                done += 8 * packed.size
                if done >= cap:
                    break
                continue
        move = np.take(_MOVE, packed)
        start = np.cumsum(move, dtype=np.int32)
        start -= move
        start += pos                           # position before each byte
        near = np.flatnonzero(np.take(reach, start + 9, mode="clip"))
        path = start[near, None] + np.take(_PREFIX, packed[near], axis=0)
        row, col = np.nonzero((path == 0) | (path == k_eps) | (path == k_one))
        if row.size:
            visits = path[row, col]
            # a repeated visit is no ladder event
            keep = np.empty(visits.size, dtype=bool)
            keep[0] = visits[0] != last
            np.not_equal(visits[1:], visits[:-1], out=keep[1:])
            step = done + 1 + 8 * near[row] + col
            keep &= step <= cap
            step, level = step[keep], visits[keep]
            top = np.flatnonzero(level == k_one)
            end = top[0] if top.size else level.size
            ups += step[:end][level[:end] == k_eps].tolist()
            returns += step[:end][level[:end] == 0].tolist()
            if top.size:
                return ups, returns, int(step[end])
            last = int(visits[-1])
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
    first_failed_path: int | None    # first index failing the check
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
    if cap > _MAX_CAP:
        raise UsageError(f"time_cap={time_cap} covers {cap} steps of "
                         f"dt={dt}, more than {_MAX_CAP}", field="time_cap")
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


def _inner_survival_estimates(k_eps: int, k_one: int, seed: int,
                              outer_indices: range, inner_paths: int
                              ) -> list[float]:
    """Nested estimates, one per outer index, of the probability that
    another excursion completes before the walk reaches one, started at
    a return time.

    From zero the walk must pass the eps level before one, so only the
    decision leg from eps is simulated: absorb at zero (another return
    happens) or at the one level (the time stays put).  The inner walks
    of all the given outer indices step together, _LOCKSTEP steps per
    round; absorbed walks drop out.  Round r of outer index i hands its
    running walks one row of steps each, in order, from the stream
    keyed (seed, _STREAM_INNER, i, r), so each estimate is the one the
    index would get alone.
    A walk strictly inside (0, k_one) is absorbed in the first byte
    whose range reaches a boundary, and a byte spans fewer than k_one
    levels, so that byte decides which boundary.  Positions fit int16
    under _levels' bound on k_one.
    """
    n_outer = len(outer_indices)
    group = np.repeat(np.arange(n_outer), inner_paths)
    pos = np.full(group.size, k_eps, dtype=np.int16)
    wins = np.zeros(n_outer, dtype=np.int64)
    for rnd in itertools.count():
        alive = np.bincount(group, minlength=n_outer).tolist()
        words = np.concatenate([
            _philox(seed, _STREAM_INNER, i, rnd).random_raw(
                n * _LOCKSTEP // 64)
            for i, n in zip(outer_indices, alive) if n])
        packed = words.view(np.uint8).reshape(pos.size, _LOCKSTEP // 8)
        end = np.cumsum(np.take(_MOVE, packed), axis=1, dtype=np.int16)
        end += pos[:, None]   # position after each byte
        # a byte ending at e ranges over [e - _DROP, e + _RISE]
        down = end <= np.take(_DROP, packed)
        hit = end + np.take(_RISE, packed) >= k_one
        hit |= down
        absorbed = hit.any(axis=1)
        ended = np.flatnonzero(absorbed)
        won = ended[down[ended, hit[ended].argmax(axis=1)]]
        wins += np.bincount(group[won], minlength=n_outer)
        running = ~absorbed
        pos = end[running, -1]
        group = group[running]
        if pos.size == 0:
            return (wins / inner_paths).tolist()


def brownian_demo(eps: float, dt: float, paths: int, seed: int,
                  time_cap: float = 100.0, nested_outer: int = 64,
                  nested_inner: int = 500) -> BrownianDemoReport:
    if min(paths, nested_outer, nested_inner) < 1:
        raise EnlabError("paths, nested_outer and nested_inner must be at "
                         "least 1")
    k_eps, k_one = _levels(eps, dt)
    first_failed = None
    censored = 0
    last_sum = 0.0
    resolved = 0
    for i in range(paths):
        path = simulate_ladder_path(eps, dt, seed, i, time_cap)
        if not _structural_check(path) and first_failed is None:
            first_failed = i
        if path.censored:
            censored += 1
        else:
            resolved += 1
            last_sum += path.last_return

    n_outer = min(nested_outer, paths)
    estimates = np.array([
        estimate
        for first in range(0, n_outer, _NESTED_GROUP)
        for estimate in _inner_survival_estimates(
            k_eps, k_one, seed,
            range(first, min(first + _NESTED_GROUP, n_outer)), nested_inner)])
    inner_se = math.sqrt(max((1 - eps) * eps, 1e-12) / nested_inner)
    lattice = (k_one - k_eps) / k_one
    frac_near_one = float((estimates > 1.0 - 3.0 * inner_se).mean())
    return BrownianDemoReport(
        eps=eps, dt=dt, n_paths=paths, n_censored=censored,
        structural_ok=first_failed is None, first_failed_path=first_failed,
        mean_last_return=last_sum / resolved if resolved else float("nan"),
        inner_estimates=estimates, inner_se=inner_se,
        frac_near_one=frac_near_one, lattice_survival=lattice)
