"""Random times on finite filtered spaces.

analyze() derives, from integer masses, the two Azema supermartingales
Z and Z~, the fundamental martingale, the set where Z~ is pinned at one
while its left limit is below one (the "jump set", decided once, node by
node; every reader reads ``jump_set``), and the honesty / class-H /
stopping-time flags.  The analysis owns the survival gaps 1 - Z and
1 - Z~ (``gap``, ``gap_incl``): every reader reads them.  The generator
draws each tree as parent arrays and sums its walks on integers.

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
    _cumulate,
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

    @cached_property
    def occurrence_proj(self) -> AdaptedProcess:
        """The dual optional projection of 1[t >= tau]."""
        return self.fundamental_martingale - self.survival

    # 1 - survival and 1 - survival_incl node by node, formed only here
    gap = cached_property(lambda self: _complement(self.survival))
    gap_incl = cached_property(lambda self: _complement(self.survival_incl))

    def after_integral(self, increments) -> AdaptedProcess:
        """Pathwise sum of increments(o, t) over the strictly-after region,
        tagged with the enlarged filtration; increments is evaluated only
        there."""
        times = self.tau.tau
        return AdaptedProcess.from_increments(
            self.enlarged,
            step=lambda o, t: increments(o, t) if t > times[o] else ZERO)

    def after_part(self, x):
        """The after-part x - x^tau of a base process; of a list of
        components, the list of theirs."""
        if not isinstance(x, AdaptedProcess):
            return [self.after_part(c) for c in x]
        return self.after_integral(x.on(self.space.filtration).delta)

    def jump_part(self, x):
        """Pathwise sum of the increments of a base process on the jump
        set, tagged with the base filtration; of a list of components,
        the list of theirs."""
        if not isinstance(x, AdaptedProcess):
            return [self.jump_part(c) for c in x]
        f = self.space.filtration
        steps = x.on(f).steps
        jumps = [[ZERO] * len(part) for part in f.partitions]
        for t, block in self.jump_set:
            i = f.block_of[t][block[0]]
            jumps[t][i] = steps[t][i]
        return AdaptedProcess.from_steps(f, jumps)


def _complement(x: AdaptedProcess) -> AdaptedProcess:
    """1 - x node by node, as (d - n)/d for x = n/d in [0, 1]."""
    return AdaptedProcess.from_nodes(x.filtration, [
        [ONE if not v else ZERO if v == 1
         else Fraction(v.denominator - v.numerator, v.denominator)
         for v in row] for row in x.nodes])


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
    times = tau.tau
    hit = [[0] * len(part) for part in f.partitions]
    for o, w in f.weight.items():
        t = times[o]
        hit[t][f.block_of[t][o]] += w
    alive = [[0] * len(f.partitions[T])]       # P(tau > t, atom)
    alive_incl = [hit[T]]                      # P(tau >= t, atom)
    for t in range(T - 1, -1, -1):
        alive.insert(0, [sum(alive_incl[0][c] for c in kids)
                         for kids in f.kids[t]])
        alive_incl.insert(0, [a + h for a, h in zip(alive[0], hit[t])])

    def conditional(masses):
        return [[ZERO if not m else ONE if m == w else Fraction(m, w)
                 for m, w in zip(row, weights)]
                for row, weights in zip(masses, f.masses)]

    incl = conditional(alive_incl)
    survival = AdaptedProcess.from_nodes(f, conditional(alive))
    survival_incl = AdaptedProcess.from_nodes(f, incl)
    # M = Z + occurrence_proj starts at Z~_0 and steps by Z~_t - Z_{t-1}
    # = (a w - b m) / (m w): a, m the alive_incl and mass of the atom at t,
    # b, w the alive and mass of its parent
    steps = [incl[0]]
    for t in range(1, T + 1):
        above, weights = alive[t - 1], f.masses[t - 1]
        steps.append([Fraction(n, m * weights[p])
                      if (n := a * weights[p] - above[p] * m) else ZERO
                      for a, m, p in zip(alive_incl[t], f.masses[t], f.up[t])])
    fundamental = AdaptedProcess.from_steps(f, steps)
    # only the drift of M is tested: Z_T = 0 (alive starts at zero at T),
    # Z and the inclusive Z lie in [0, 1] (masses of sub-events of the
    # atom) and inclusive Z_t = Z_{t-1} + dM_t (alive_incl = alive + hit)
    # hold by construction
    if not is_martingale(fundamental, space).ok:
        raise InvariantError("fundamental martingale has drift")

    jump_set_t = tuple(
        (t, block) for t in range(1, T + 1)
        for block, a, m, p in zip(f.partitions[t], alive_incl[t],
                                  f.masses[t], f.up[t])
        if a == m and alive[t - 1][p] < f.masses[t - 1][p])

    split = _split_by_tau(f, tau)
    # honest: no atom has two pinned groups; a stopping time: no atom
    # mixes pinned and later outcomes
    honest = all(len(pinned) <= 1 for row in split for pinned, _ in row)
    class_h = honest and all(
        alive[t][i] < f.masses[t][i]
        for t, i in ((t, f.block_of[t][o]) for o, t in times.items()))
    stopping = not any(pinned and later
                       for row in split for pinned, later in row)

    return RandomTimeAnalysis(
        space=space, tau=tau, survival=survival, survival_incl=survival_incl,
        fundamental_martingale=fundamental,
        jump_set=jump_set_t, split=split, honest=honest,
        class_h=class_h, is_stopping_time=stopping)


def last_visit(space: FiniteFilteredSpace, driver: AdaptedProcess,
               hit) -> RandomTimeMap:
    """The last t with hit(driver at t), else 0, node by node down the
    tree: t on a hit node at t, else its parent's; hit runs per node."""
    f = space.filtration
    nodes = driver.on(f).nodes
    last = [0] * len(f.partitions[0])
    for t in range(1, len(f.partitions)):
        last = [t if hit(v) else last[p] for v, p in zip(nodes[t], f.up[t])]
    return RandomTimeMap({o: last[f.block_of[-1][o]] for o in space.outcomes})


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
_INCREMENTS = (-2, -1, -1, 0, 1, 1, 2)
# every value a walk takes within the generator's depths, as a Fraction
_VALUES = {v: Fraction(v) for v in range(-2 * DEPTHS[-1], 2 * DEPTHS[-1] + 1)}


def _grow_tree(rng: SplitMix64, depth: int, branching: int):
    """Returns (leaves, partitions, prob) of a random refining tree drawn
    as parent arrays: generation order is canonical order."""
    level = [("", 1, 1)]  # per node: name, probability numerator, denominator
    ups = []  # ups[t - 1][i]: the parent at t - 1 of the i-th node at t
    for t in range(depth):
        up, kids = [], []
        for j, (name, num, den) in enumerate(level):
            k = min(rng.choice(_BRANCH_WEIGHTS), branching)
            if t == 0 and k == 1:
                k = min(2, branching)  # avoid a fully deterministic first step
            raw = [rng.randint(1, 4) for _ in range(k)]
            den *= sum(raw)
            kids += [(f"{name}{i}", num * r, den) for i, r in enumerate(raw)]
            up += [j] * k
        ups.append(up)
        level = kids
    names = [name for name, _, _ in level]
    prob = {name: Fraction(num, den) for name, num, den in level}
    blocks = [(leaf,) for leaf in names]
    partitions = [blocks]
    for up in reversed(ups):
        merged = [()] * (up[-1] + 1)
        for block, p in zip(blocks, up):
            merged[p] += block
        partitions.append(blocks := merged)
    return names, partitions[::-1], prob


def generate_honest_model(seed: int, depth: int, branching: int, d: int = 1):
    """Random model (space, tau, asset, analysis) with an honest class-H
    time, built once from one SplitMix64 stream of the seed: the tree as
    parent arrays, then walks summed on integers over its nodes.

    The time is the last visit of an adapted walk X to a level set, with
    sup of the empty set taken as 0: the end of the adapted set
    {X <= level} (plus time 0).  It is honest because on {tau <= t} it
    is the last such visit up to t, which the time-t atom decides.  It
    is class H because every outcome has positive mass: the time-t atom
    of an outcome o with tau(o) = t contains o, which has tau <= t, so
    P(tau > t | atom) < 1 there.
    """
    if depth not in DEPTHS:
        raise GenerationExhausted(f"depth {depth} outside 1..8")
    if branching not in BRANCHINGS:
        raise GenerationExhausted(f"branching {branching} outside 1..4")
    if not 1 <= d <= 4:
        raise GenerationExhausted(f"d {d} outside 1..4")

    rng = SplitMix64((seed << 8) ^ 0xE17AB)
    outcomes, partitions, prob = _grow_tree(rng, depth, branching)
    space = build_space({"outcomes": outcomes, "prob": prob,
                         "partitions": partitions})

    # driver walk for the last-visit time
    driver = _random_walk(rng, space)
    # the walk's values are whole, so the level set reads numerators
    visited = sorted({v.numerator for row in driver.nodes for v in row})
    level = visited[rng.randint(0, max(len(visited) - 2, 0))]
    tau = last_visit(space, driver, lambda v: v.numerator <= level)

    components = []
    for i in range(d):
        walk = _random_walk(rng.fork(101 + i), space)
        if (seed + i) % 3 == 0:
            # compensate to a martingale for variety across seeds;
            # both start at 0, so no initial-value correction needed
            walk = walk - compensator(walk, space)
        components.append(walk)
    asset = components[0] if d == 1 else components
    return space, tau, asset, analyze(space, tau)


def _random_walk(rng: SplitMix64, space: FiniteFilteredSpace) -> AdaptedProcess:
    """Adapted walk from 0 with per-atom increments from a small integer
    set, drawn in partition order at each time, summed as ints; its
    values come from a shared table."""
    f = space.filtration
    steps = [[0]] + [[rng.choice(_INCREMENTS) for _ in up] for up in f.up[1:]]
    nodes, steps = ([[_VALUES[v] for v in row] for row in rows]
                    for rows in (_cumulate(f, steps), steps))
    return AdaptedProcess.from_nodes(f, nodes, steps)
