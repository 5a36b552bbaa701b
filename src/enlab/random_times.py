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
from typing import Iterable, Mapping

from .errors import GenerationExhausted, SchemaError
from .finite_prob import (
    AdaptedProcess,
    Block,
    Filtration,
    FiniteFilteredSpace,
    Row,
    build_space,
    compensator,
    integral,
    normal,
    quotients,
    stack,
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

    @cached_property
    def enlarged(self) -> Filtration:
        """The base filtration progressively enlarged by the time, built
        on first use."""
        return enlarge(self.space, self)

    @cached_property
    def node_map(self) -> tuple[list[list[int]], list[list[int]]]:
        """The G -> F node map of the enlarged filtration, as (base,
        after): per t, base[t][j] is the index of the base atom at t
        holding the j-th enlarged atom, and after[t][j] is that index
        where step t lies strictly after the time (t - 1 >= tau), else
        -1, so that a gather of a base row with a zero appended reads
        zero before the time.  It is read off whichever filtration the
        analysis holds as enlarged, one lookup per enlarged atom."""
        look, tau = self.space.filtration.block_of, self.tau.tau
        base, after = [], []
        for t, part in enumerate(self.enlarged.partitions):
            base.append(row := [look[t][block[0]] for block in part])
            after.append([i if tau[block[0]] < t else -1
                          for i, block in zip(row, part)])
        return base, after

    @cached_property
    def after_nodes(self) -> list[list[int]]:
        """Per t, the base atoms at t holding an enlarged atom strictly
        after the time, in index order: where an after-row is read."""
        return [sorted(set(row) - {-1}) for row in self.node_map[1]]

    @cached_property
    def occurrence_proj(self) -> AdaptedProcess:
        """The dual optional projection of 1[t >= tau]."""
        return self.fundamental_martingale - self.survival

    # 1 - survival and 1 - survival_incl node by node, formed only here
    gap = cached_property(lambda self: _complement(self.survival))
    gap_incl = cached_property(lambda self: _complement(self.survival_incl))

    def after_integral(self, rows: Iterable[Row]) -> AdaptedProcess:
        """Pathwise sum over the strictly-after region of the base
        increment rows, rows[t - 1] at t >= 1, tagged with the enlarged
        filtration: per t, a gather of the row through the node map,
        which reads it only at ``after_nodes[t]``."""
        gathered = []
        for (row, d), after in zip(rows, self.node_map[1][1:]):
            row = [*row, 0]
            gathered.append(normal([row[c] for c in after], d))
        return integral(self.enlarged, gathered)

    def after_part(self, x):
        """The after-part x - x^tau of a base process; of a list of
        components, the list of theirs."""
        if not isinstance(x, AdaptedProcess):
            return [self.after_part(c) for c in x]
        dnum, dden = x.on(self.space.filtration).step_rows
        return self.after_integral(zip(dnum[1:], dden[1:]))

    def jump_part(self, x):
        """Pathwise sum of the increments of a base process on the jump
        set, tagged with the base filtration; of a list of components,
        the list of theirs."""
        if not isinstance(x, AdaptedProcess):
            return [self.jump_part(c) for c in x]
        f = self.space.filtration
        dnum, dden = x.on(f).step_rows
        jumps = [[0] * len(part) for part in f.partitions]
        for t, block in self.jump_set:
            i = f.block_of[t][block[0]]
            jumps[t][i] = dnum[t][i]
        return AdaptedProcess.from_step_rows(f, *stack(
            map(normal, jumps, dden)))


def _complement(x: AdaptedProcess) -> AdaptedProcess:
    """1 - x node by node: the rows (d - n) / d, normal as n / d is."""
    num, den = x.node_rows
    return AdaptedProcess.from_rows(
        x.filtration, [[d - n for n in row] for row, d in zip(num, den)], den)


def _split_by_tau(f: Filtration, tau: RandomTimeMap, alive, alive_incl
                  ) -> tuple[tuple[AtomSplit, ...], ...]:
    """Each atom of f at each time t split into its pinned groups, one
    per value of tau <= t, and its later group (tau > t, maybe empty),
    each in the atom's order.

    The masses of {tau > t} and {tau >= t} on the atom decide the split
    where it is whole: with no mass on {tau <= t} the atom is its later
    group, and with none on {tau > t} it is one pinned group when its
    outcomes with tau <= t - 1 lie in its parent's one pinned group and
    those with tau = t are not beside them.  The outcomes of the other
    atoms are visited, to name their groups."""
    times = tau.tau
    split, single = [], [True]  # per atom at t - 1: one pinned value at most
    for t, part in enumerate(f.partitions):
        row, ones = [], []
        up = f.up[t] if t else [0] * len(part)
        for block, mass, later, incl, p in zip(part, f.masses[t], alive[t],
                                               alive_incl[t], up):
            if later == mass:
                row.append(((), block))
            elif not later and (incl == mass or (single[p] and incl == 0)):
                row.append(((block,), ()))
            else:
                groups: dict[int, list[str]] = {}
                for o in block:
                    groups.setdefault(times[o] if times[o] <= t else -1,
                                      []).append(o)
                later_group = tuple(groups.pop(-1, ()))
                row.append((tuple(map(tuple, groups.values())), later_group))
            ones.append(len(row[-1][0]) <= 1)
        split.append(tuple(row))
        single = ones
    return tuple(split)


def analyze(space: FiniteFilteredSpace, tau: RandomTimeMap) -> RandomTimeAnalysis:
    """Derive all associated objects; flags report, never throw.

    One pass over the outcomes puts each outcome's mass on its atom at
    its time: hit[t][i] = P(tau = t, atom i at t).  The masses of
    {tau > t} and {tau >= t} on an atom then sum over its children.  All
    three are integers over the filtration's scale, like the atom
    masses, so each conditional row is a quotient of integer rows.
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

    survival = AdaptedProcess.from_rows(
        f, *stack(map(quotients, alive, f.masses)))
    incl, incl_den = stack(map(quotients, alive_incl, f.masses))
    survival_incl = AdaptedProcess.from_rows(f, incl, incl_den)
    # M = Z + occurrence_proj starts at Z~_0 and steps by Z~_t - Z_{t-1}
    # = (a w - b m) / (m w): a, m the alive_incl and mass of the atom at t,
    # b, w the alive and mass of its parent.  The children's m sum to w
    # and their a to b, so the mass-weighted steps sum to b - b: M has no
    # drift by construction
    dnum, dden = [incl[0]], [incl_den[0]]
    for t in range(1, T + 1):
        above, weights = alive[t - 1], f.masses[t - 1]
        row, d = quotients(
            [a * weights[p] - above[p] * m
             for a, m, p in zip(alive_incl[t], f.masses[t], f.up[t])],
            [m * weights[p] for m, p in zip(f.masses[t], f.up[t])])
        dnum.append(row)
        dden.append(d)
    fundamental = AdaptedProcess.from_step_rows(f, dnum, dden)

    jump_set_t = tuple(
        (t, block) for t in range(1, T + 1)
        for block, a, m, p in zip(f.partitions[t], alive_incl[t],
                                  f.masses[t], f.up[t])
        if a == m and alive[t - 1][p] < f.masses[t - 1][p])

    split = _split_by_tau(f, tau, alive, alive_incl)
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
    tree: t on a hit node at t, else its parent's; hit runs per node, on
    the value as an int where it is whole and as a Fraction elsewhere."""
    f = space.filtration
    num, den = driver.on(f).node_rows
    last = [0] * len(f.partitions[0])
    for t in range(1, len(f.partitions)):
        d = den[t]
        last = [t if hit(n if d == 1 else Fraction(n, d)) else last[p]
                for n, p in zip(num[t], f.up[t])]
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
    # the walk's values are whole: its rows are over the denominator 1
    visited = sorted({v for row in driver.node_rows[0] for v in row})
    level = visited[rng.randint(0, max(len(visited) - 2, 0))]
    tau = last_visit(space, driver, lambda v: v <= level)

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
    set, drawn in partition order at each time: rows over the
    denominator 1."""
    f = space.filtration
    steps = [[0]] + [[rng.choice(_INCREMENTS) for _ in up] for up in f.up[1:]]
    return AdaptedProcess.from_step_rows(f, steps, [1] * len(steps))
