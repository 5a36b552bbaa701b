"""Random times on finite filtered spaces.

analyze() derives the two Azema supermartingales, the fundamental
martingale, the dual optional projection of the occurrence indicator, the
set where the inclusive supermartingale is pinned at one while its left
limit is below one (the "jump set", decided once, node by node; every
reader reads ``jump_set``), and the honesty / class-H / stopping-time
flags.

One pass splits each atom at each time t by the time: into its outcomes
with tau <= t grouped by the value of tau ("pinned" groups) and those
with tau > t (the "later" group).  Honesty, the stopping-time flag, the
progressive enlargement and the after-atoms of :mod:`enlab.enlargement`
are all read from that one split.

Honesty is tested on the closed events {tau <= t}: per time t, the time
must take at most one value on each atom of the time-t partition
intersected with {tau <= t}.  On the grid this is the faithful reading of
the classical definition (between grid points the filtration is frozen,
so the strict-inequality window closes onto the grid event), it is
equivalent to the time being the end of an adapted set, and it is exactly
the strength needed for the transfer formulas in
:mod:`enlab.enlargement` to hold with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .errors import GenerationExhausted, InvariantError, SchemaError
from .finite_prob import (
    ONE,
    ZERO,
    AdaptedProcess,
    Block,
    Filtration,
    FiniteFilteredSpace,
    build_space,
    compensator,
    is_martingale,
)
from .rng import SplitMix64

AtomSplit = tuple[tuple[Block, ...], Block]  # (pinned groups, later group)


@dataclass(frozen=True)
class RandomTimeMap:
    """A total time on the grid: tau(outcome) in {0, ..., T}."""

    tau: dict[str, int]

    @staticmethod
    def build(tau: Mapping[str, int], space: FiniteFilteredSpace) -> "RandomTimeMap":
        out = {}
        for outcome in space.outcomes:
            if outcome not in tau:
                raise SchemaError(f"tau undefined for {outcome!r}", field="tau")
            value = int(tau[outcome])
            if not 0 <= value <= space.horizon:
                raise SchemaError(
                    f"tau({outcome}) = {value} outside the grid", field="tau")
            out[outcome] = value
        return RandomTimeMap(out)

    def __getitem__(self, outcome: str) -> int:
        return self.tau[outcome]


@dataclass(frozen=True)
class RandomTimeAnalysis:
    """Everything the enlargement calculus needs about one random time:
    the one context per model that every check shares."""

    space: FiniteFilteredSpace
    tau: RandomTimeMap
    survival: AdaptedProcess          # P(tau > t | time-t atom)
    survival_incl: AdaptedProcess     # P(tau >= t | time-t atom)
    occurrence_proj: AdaptedProcess   # dual optional projection of 1[t >= tau]
    fundamental_martingale: AdaptedProcess  # survival + occurrence_proj
    jump_set: tuple[tuple[int, Block], ...]
    split: tuple[tuple[AtomSplit, ...], ...]  # [t][i]: the i-th atom at t
    honest: bool
    class_h: bool
    is_stopping_time: bool

    def strictly_after(self, outcome: str, t: int) -> bool:
        """True when the increment at t lies strictly after tau (t-1 >= tau)."""
        return t - 1 >= self.tau[outcome]

    @cached_property
    def enlarged(self) -> Filtration:
        """The base filtration progressively enlarged by the time, built
        on first use."""
        return enlarge(self.space, self)

    def after_integral(self, increments) -> AdaptedProcess:
        """Pathwise sum of increments(o, t) over the strictly-after region,
        tagged with the enlarged filtration; increments is evaluated only
        there."""
        return AdaptedProcess.from_increments(
            self.enlarged,
            step=lambda o, t: (increments(o, t) if self.strictly_after(o, t)
                               else ZERO))

    def after_part(self, x: AdaptedProcess) -> AdaptedProcess:
        """The after-part x - x^tau of a base process."""
        return self.after_integral(x.on(self.space.filtration).delta)

    def jump_part(self, x: AdaptedProcess) -> AdaptedProcess:
        """Pathwise sum of the increments of a base process on the jump
        set, tagged with the base filtration."""
        f = self.space.filtration
        steps = x.on(f).steps
        jumps = [[ZERO] * len(part) for part in f.partitions]
        for t, block in self.jump_set:
            i = f.block_of[t][block[0]]
            jumps[t][i] = steps[t][i]
        return AdaptedProcess.from_steps(f, jumps)


def _split_by_tau(f: Filtration, tau: RandomTimeMap
                  ) -> tuple[tuple[AtomSplit, ...], ...]:
    """Each atom of f at each time t split into its pinned groups, one
    per value of tau <= t, and its later group (tau > t, maybe empty),
    each in the atom's order."""
    tau = tau.tau
    split = []
    for t, part in enumerate(f.partitions):
        row = []
        for block in part:
            groups: dict[int, list[str]] = {}
            for o in block:
                groups.setdefault(tau[o] if tau[o] <= t else -1, []).append(o)
            later = tuple(groups.pop(-1, ()))
            row.append((tuple(map(tuple, groups.values())), later))
        split.append(tuple(row))
    return tuple(split)


def analyze(space: FiniteFilteredSpace, tau: RandomTimeMap) -> RandomTimeAnalysis:
    """Derive all associated objects; flags report, never throw.

    One pass over the outcomes puts each outcome's mass on its atom at
    its time: hit[t][i] = P(tau = t, atom i at t).  The masses of
    {tau > t} and {tau >= t} on an atom then sum over its children.  All
    three are integers over the filtration's scale, like the atom
    masses, so each conditional is one Fraction of two integers.
    """
    f = space.filtration
    T = space.horizon
    hit = [[0] * len(part) for part in f.partitions]
    for o in space.outcomes:
        p = space.prob[o]
        hit[tau[o]][f.block_of[tau[o]][o]] += (
            p.numerator * (f.scale // p.denominator))
    alive = [[0] * len(f.partitions[T])]       # P(tau > t, atom)
    alive_incl = [hit[T]]                      # P(tau >= t, atom)
    for t in range(T - 1, -1, -1):
        alive.insert(0, [sum(alive_incl[0][c] for c in kids)
                         for kids in f.kids[t]])
        alive_incl.insert(0, [a + h for a, h in zip(alive[0], hit[t])])

    def conditional(masses):
        return [[Fraction(m, w) for m, w in zip(row, weights)]
                for row, weights in zip(masses, f.masses)]

    surv, incl = conditional(alive), conditional(alive_incl)
    survival = AdaptedProcess.from_nodes(f, surv)
    survival_incl = AdaptedProcess.from_nodes(f, incl)
    # the dual optional projection of 1[t >= tau] has the increment
    # E[1(tau = t) | atom at t] at t, and that value at 0
    occurrence_proj = AdaptedProcess.from_steps(f, conditional(hit))
    fundamental = survival + occurrence_proj
    # only the drift of M is tested: Z_T = 0 (alive starts at zero at T),
    # Z and the inclusive Z lie in [0, 1] (masses of sub-events of the
    # atom) and inclusive Z_t = Z_{t-1} + dM_t (alive_incl = alive + hit)
    # hold by construction
    if not is_martingale(fundamental, space).ok:
        raise InvariantError("fundamental martingale has drift")

    jump_set_t = tuple(
        (t, block) for t in range(1, T + 1)
        for block, i, p in zip(f.partitions[t], incl[t], f.up[t])
        if i == 1 and surv[t - 1][p] < 1)

    split = _split_by_tau(f, tau)
    # honest: no atom has two pinned groups; a stopping time: no atom
    # mixes pinned and later outcomes
    honest = all(len(pinned) <= 1 for row in split for pinned, _ in row)
    class_h = honest and all(
        survival.at(o, tau[o]) < 1 for o in space.outcomes)
    stopping = not any(pinned and later
                       for row in split for pinned, later in row)

    return RandomTimeAnalysis(
        space=space, tau=tau, survival=survival, survival_incl=survival_incl,
        occurrence_proj=occurrence_proj, fundamental_martingale=fundamental,
        jump_set=jump_set_t, split=split, honest=honest,
        class_h=class_h, is_stopping_time=stopping)


# ---------------------------------------------------------------------------
# Progressive enlargement
# ---------------------------------------------------------------------------

def enlarge(space: FiniteFilteredSpace, analysis: RandomTimeAnalysis) -> Filtration:
    """Smallest filtration containing the base one and making the time a
    stopping time: each atom at t is refined by the events
    {tau = 0}, ..., {tau = t}, {tau > t}, i.e. into the groups of the
    analysis' split."""
    return Filtration("G", [[g for pinned, later in row
                             for g in (*pinned, later) if g]
                            for row in analysis.split], space.prob)


# ---------------------------------------------------------------------------
# Model generator
# ---------------------------------------------------------------------------

_BRANCH_WEIGHTS = (1, 2, 2, 3, 3, 3)  # children counts drawn from {1,2,3}-ish
DEPTHS, BRANCHINGS = range(1, 9), range(1, 5)  # the generator's scope
_INCREMENTS = tuple(map(Fraction, (-2, -1, -1, 0, 1, 1, 2)))


def _grow_tree(rng: SplitMix64, depth: int, branching: int):
    """Returns (outcomes, prob, partitions) of a random refining tree."""
    edges: dict[str, list[tuple[str, Fraction]]] = {"": []}
    frontier = [""]
    for t in range(depth):
        nxt = []
        for node in frontier:
            k = min(rng.choice(_BRANCH_WEIGHTS), branching)
            if t == 0 and k == 1:
                k = min(2, branching)  # avoid a fully deterministic first step
            raw = [rng.randint(1, 4) for _ in range(k)]
            total = sum(raw)
            for i in range(k):
                child = f"{node}{i}" if node else str(i)
                edges[node].append((child, Fraction(raw[i], total)))
                edges[child] = []
                nxt.append(child)
        frontier = nxt
    leaves = frontier
    prob: dict[str, Fraction] = {}

    def walk(node: str, mass: Fraction):
        kids = edges[node]
        if not kids:
            prob[node] = mass
            return
        for child, p in kids:
            walk(child, mass * p)

    walk("", ONE)
    partitions = []
    for t in range(depth + 1):
        groups: dict[str, list[str]] = {}
        for leaf in leaves:
            groups.setdefault(leaf[:t], []).append(leaf)
        partitions.append(tuple(tuple(g) for g in groups.values()))
    return leaves, prob, partitions


def generate_honest_model(seed: int, depth: int, branching: int, d: int = 1,
                          max_retries: int = 32):
    """Random model (space, tau, asset, analysis) with an honest class-H
    time; the analysis is the one the class-H check ran on.

    The time is the last visit of an adapted walk to a level set, with
    sup of the empty set taken as 0, which is honest by construction.
    Models failing the class-H check are resampled; the check cannot
    actually fail on a full-support space, but the guard stays in place
    as a cheap sanity net.
    """
    if depth not in DEPTHS:
        raise GenerationExhausted(f"depth {depth} outside 1..8")
    if branching not in BRANCHINGS:
        raise GenerationExhausted(f"branching {branching} outside 1..4")
    if not 1 <= d <= 4:
        raise GenerationExhausted(f"d {d} outside 1..4")

    for attempt in range(max_retries):
        rng = SplitMix64((seed << 8) ^ attempt ^ 0xE17AB)
        outcomes, prob, partitions = _grow_tree(rng, depth, branching)
        space = build_space({"outcomes": outcomes, "prob": prob,
                             "partitions": partitions})

        # driver walk for the last-visit time
        driver = _random_walk(rng, space)
        visited = sorted({driver.at(block[0], t) for t, part in
                          enumerate(space.filtration.partitions)
                          for block in part})
        level = visited[rng.randint(0, max(len(visited) - 2, 0))]
        tau_map = {}
        for o in space.outcomes:
            hits = [t for t in range(depth + 1) if driver.at(o, t) <= level]
            tau_map[o] = max(hits) if hits else 0
        tau = RandomTimeMap.build(tau_map, space)

        components = []
        for i in range(d):
            walk = _random_walk(rng.fork(101 + i), space)
            if (seed + i) % 3 == 0:
                # compensate to a martingale for variety across seeds;
                # both start at 0, so no initial-value correction needed
                walk = walk - compensator(walk, space)
            components.append(walk)
        asset = components[0] if d == 1 else components

        analysis = analyze(space, tau)
        if analysis.honest and analysis.class_h:
            return space, tau, asset, analysis
    raise GenerationExhausted(f"no class-H model after {max_retries} retries")


def _random_walk(rng: SplitMix64, space: FiniteFilteredSpace) -> AdaptedProcess:
    """Adapted walk with per-atom increments from a small integer set,
    drawn in partition order at each time."""
    f = space.filtration
    draws = [[rng.choice(_INCREMENTS) for _ in part]
             for part in f.partitions[1:]]
    return AdaptedProcess.from_increments(
        f, step=lambda o, t: draws[t - 1][f.block_of[t][o]])
