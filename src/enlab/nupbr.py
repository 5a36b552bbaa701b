"""Exact no-arbitrage certification on finite trees.

On a finite tree, the no-unbounded-profit condition for a process is
equivalent to one-step no-arbitrage at every node: zero must lie in the
relative interior of the convex hull of the conditional support of the
increment.  When that holds at every node, the node-wise strictly
positive weights assemble into a strictly positive martingale deflator;
when it fails at some node, a direction whose one-step wealth is
nonnegative and somewhere positive scales into unbounded profit at
bounded risk.  Verdicts therefore always carry a witness, and every
witness is re-verifiable by elementary means.

Each node is decided once, by `_node_verdict`; `node_verdicts` walks
the nodes lazily in (t, atom) order and `nupbr_check` stops at the
first failing one.  Scalar increments reduce to a sign test.  Otherwise
the conditional probabilities are the weights when they already give
zero mean increment; if not, each child j gets an exact feasibility
subproblem, its weight LP: q >= 0 with q_j = 1 and zero weighted
increment.  All children pass exactly when a strictly positive solution
exists (sum the per-child solutions, each with q_j = 1).  By Farkas'
lemma child j's weight LP is infeasible exactly when its direction LP
is feasible: h with h.v_i >= 0 for every child i and h.v_j >= 1.  So
the first child whose weight LP fails is the first whose direction LP
succeeds, and that one LP gives the separating direction.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionTooLarge, InvalidWitness
from .finite_prob import (
    ONE,
    ZERO,
    AdaptedProcess,
    Block,
    Filtration,
    FiniteFilteredSpace,
    integral,
    is_martingale,
    is_positive,
    normal,
    quotients,
    stochastic_exponential,
)
from .random_times import RandomTimeAnalysis
from .enlargement import _require_class_h, jump_functionals, left_row
from .simplex import solve_nonneg_equalities

NodeKey = tuple[int, Block]


def _components(x) -> list[AdaptedProcess]:
    return [x] if isinstance(x, AdaptedProcess) else list(x)


@dataclass(frozen=True)
class DeflatorWitness:
    """Strictly positive one-step weights per node, summing to one."""

    node_weights: dict[NodeKey, tuple[Fraction, ...]]


@dataclass(frozen=True)
class ArbitrageWitness:
    """A node with one-step arbitrage (in a failed verdict, the first in
    (t, atom) order), and the direction whose wealth is nonnegative on
    all children and positive on at least one."""

    t: int
    atom: Block
    direction: tuple[Fraction, ...]


@dataclass(frozen=True)
class NupbrVerdict:
    satisfied: bool
    witness: DeflatorWitness | ArbitrageWitness
    filtration_label: str

    def to_json(self) -> dict:
        if self.satisfied:
            nodes = [{"t": t, "atom": list(atom),
                      "weights": [str(w) for w in weights]}
                     for (t, atom), weights in
                     sorted(self.witness.node_weights.items())]
            witness = {"kind": "deflator", "nodes": nodes}
        else:
            witness = {"kind": "arbitrage", "t": self.witness.t,
                       "atom": list(self.witness.atom),
                       "direction": [str(h) for h in self.witness.direction]}
        return {"satisfied": self.satisfied, "witness": witness,
                "filtration": self.filtration_label}


def _child_increments(components: list[AdaptedProcess],
                      children: tuple[Block, ...],
                      t: int) -> list[tuple[Fraction, ...]]:
    return [tuple(c.delta(child[0], t) for c in components)
            for child in children]


def _node_verdict(nums, dens, masses) -> tuple[bool, tuple[Fraction, ...]]:
    """One node's verdict from its children's increments, nums[i][k] /
    dens[k] for child i and component k, and their integer masses:
    (True, strictly positive weights summing to one with zero weighted
    increment), or (False, a separating direction)."""
    d = len(dens)
    n = len(nums)
    mass = sum(masses)
    if d == 1:
        # feasible iff the increments are all zero or carry both signs;
        # the weights split unit mass over each sign class: a raw weight
        # 1 / (k v) on each of the k children of a class, 1 on the rest
        pos = [i for i, (v,) in enumerate(nums) if v > 0]
        neg = [i for i, (v,) in enumerate(nums) if v < 0]
        if not pos and not neg:
            return True, tuple(Fraction(m, mass) for m in masses)
        if not neg:
            return False, (ONE,)
        if not pos:
            return False, (-ONE,)
        raw = [(1, 1)] * n  # (numerator, positive denominator)
        for group in (pos, neg):
            for i in group:
                raw[i] = (dens[0], len(group) * abs(nums[i][0]))
        common = lcm(*(b for _, b in raw))
        raw = [a * (common // b) for a, b in raw]
        total = sum(raw)
        return True, tuple(Fraction(w, total) for w in raw)
    # canonical candidate first: the conditional probabilities themselves
    if not any(sum(m * v[k] for m, v in zip(masses, nums))
               for k in range(d)):
        return True, tuple(Fraction(m, mass) for m in masses)
    vectors = [tuple(map(Fraction, v, dens)) for v in nums]
    combined = [ZERO] * n
    for j in range(n):
        rows = [[vectors[i][k] for i in range(n)] for k in range(d)]
        rows.append([ONE if i == j else ZERO for i in range(n)])
        sol = solve_nonneg_equalities(rows, [ZERO] * d + [ONE])
        if sol is None:
            return False, _direction(vectors, j)
        combined = [a + b for a, b in zip(combined, sol)]
    total = sum(combined)
    return True, tuple(w / total for w in combined)


def _direction(vectors, j) -> tuple[Fraction, ...]:
    """Child j's direction LP, feasible because its weight LP is not:
    h = h+ - h- and slacks s >= 0 with h.v_i - s_i = [i == j], so h.v_i
    >= 0 for every child i and h.v_j >= 1.  h in coprime integers."""
    d = len(vectors[0])
    n = len(vectors)
    rows = [[vectors[i][k] for k in range(d)]
            + [-vectors[i][k] for k in range(d)]
            + [(-ONE if i == c else ZERO) for c in range(n)]
            for i in range(n)]
    sol = solve_nonneg_equalities(rows, [ONE if i == j else ZERO
                                         for i in range(n)])
    h = [sol[k] - sol[d + k] for k in range(d)]
    denom = lcm(*(v.denominator for v in h))
    ints = [int(v * denom) for v in h]
    g = gcd(*ints)
    return tuple(Fraction(v // g) for v in ints)


def node_verdicts(x, space: FiniteFilteredSpace,
                  filtration: Filtration | None = None
                  ) -> Iterator[tuple[NodeKey,
                                      tuple[Fraction, ...] | ArbitrageWitness]]:
    """Each node's verdict, lazily and in (t, atom) order, for a scalar
    process or a sequence of component processes (dimension at most 4):
    the node's one-step weights, or an ArbitrageWitness naming it."""
    components = _components(x)
    if len(components) > 4:
        raise DimensionTooLarge(f"dimension {len(components)} exceeds 4")
    f = filtration or space.filtration
    rows = [c.on(f).step_rows for c in components]
    for t in range(1, space.horizon + 1):
        masses, dens = f.masses[t], [den[t] for _, den in rows]
        for atom, kids in zip(f.partitions[t - 1], f.kids[t - 1]):
            feasible, values = _node_verdict(
                [tuple(num[t][c] for num, _ in rows) for c in kids], dens,
                [masses[c] for c in kids])
            yield (t, atom), (values if feasible
                              else ArbitrageWitness(t, atom, values))


def nupbr_check(x, space: FiniteFilteredSpace,
                filtration: Filtration | None = None) -> NupbrVerdict:
    """The verdict of node_verdicts' walk: the witness of its first
    failing node, or the weights of every node."""
    f = filtration or space.filtration
    node_weights: dict[NodeKey, tuple[Fraction, ...]] = {}
    for key, verdict in node_verdicts(x, space, f):
        if isinstance(verdict, ArbitrageWitness):
            return NupbrVerdict(False, verdict, f.label)
        node_weights[key] = verdict
    return NupbrVerdict(True, DeflatorWitness(node_weights), f.label)


# ---------------------------------------------------------------------------
# Witness re-verification
# ---------------------------------------------------------------------------

def assemble_deflator_process(witness: DeflatorWitness,
                              space: FiniteFilteredSpace,
                              filtration: Filtration) -> AdaptedProcess:
    """Multiply the node weights into the strictly positive martingale
    carrying the verdict: the stochastic exponential of the node density
    (weight over conditional probability) minus one."""
    f = filtration
    # density - 1 = w M / m - 1 = (a M - b m) / (b m) for the weight
    # w = a / b of a child of mass m in an atom of mass M
    rows = []
    for t in range(1, space.horizon + 1):
        masses = f.masses[t]
        nums, dens = [0] * len(masses), [1] * len(masses)
        for atom, kids, mass in zip(f.partitions[t - 1], f.kids[t - 1],
                                    f.masses[t - 1]):
            for c, w in zip(kids, witness.node_weights[(t, atom)]):
                nums[c] = w.numerator * mass - w.denominator * masses[c]
                dens[c] = w.denominator * masses[c]
        rows.append(quotients(nums, dens))
    return stochastic_exponential(integral(f, rows))


def verify_witness(verdict: NupbrVerdict, x, space: FiniteFilteredSpace,
                   filtration: Filtration | None = None) -> bool:
    """Soundness check used by the harness on every emitted verdict.

    Deflator side: the assembled process is strictly positive, is a
    martingale, and multiplies every component into a martingale.
    Arbitrage side: the one-step wealth of the direction is nonnegative
    with positive expectation on the named atom.
    """
    f = filtration or space.filtration
    components = [c.on(f) for c in _components(x)]
    if verdict.satisfied:
        witness = verdict.witness
        if not isinstance(witness, DeflatorWitness):
            raise InvalidWitness("satisfied verdict without deflator witness")
        deflator = assemble_deflator_process(witness, space, f)
        if not is_positive(deflator):
            return False
        if not is_martingale(deflator, space, f).ok:
            return False
        return all(is_martingale(deflator * c, space, f).ok
                   for c in components)

    witness = verdict.witness
    if not isinstance(witness, ArbitrageWitness):
        raise InvalidWitness("failed verdict without arbitrage witness")
    children = f.children(witness.t - 1, witness.atom)
    vectors = _child_increments(components, children, witness.t)
    gains = [sum(a * b for a, b in zip(witness.direction, v))
             for v in vectors]
    return all(g >= 0 for g in gains) and any(g > 0 for g in gains)


def witness_node(verdict: NupbrVerdict, x, space: FiniteFilteredSpace,
                 filtration: Filtration | None = None) -> NodeKey | None:
    """The node a failed re-verification names: an arbitrage witness's
    node, or the first node in (t, atom) order whose deflator weights
    are not all positive, do not sum to one, or leave a component with
    a nonzero weighted increment; None when no node fails on its own."""
    if not verdict.satisfied:
        return verdict.witness.t, verdict.witness.atom
    f = filtration or space.filtration
    components = [c.on(f) for c in _components(x)]
    for (t, atom), weights in sorted(verdict.witness.node_weights.items()):
        vectors = _child_increments(components, f.children(t - 1, atom), t)
        if (min(weights) <= 0 or sum(weights) != 1
                or any(sum(w * v[k] for w, v in zip(weights, vectors))
                       for k in range(len(components)))):
            return t, atom
    return None


# ---------------------------------------------------------------------------
# Transforms of the asset induced by the random time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformBundle:
    """The transforms of a scalar asset, or per field the list of those
    of each component of a vector one."""

    purged: AdaptedProcess           # asset minus its jump-set jumps
    scaled: AdaptedProcess           # (1 - survival_left) . purged
    indicator_scaled: AdaptedProcess  # 1{survival_left < 1} . purged


def transform(asset, analysis: RandomTimeAnalysis) -> TransformBundle:
    _require_class_h(analysis)
    f = analysis.space.filtration
    times = range(1, f.horizon + 1)
    left = [left_row(analysis.gap, f, t) for t in times]

    def one(x: AdaptedProcess) -> tuple[AdaptedProcess, ...]:
        x = x.on(f)
        purged = x - analysis.jump_part(x)
        pn, pd = purged.step_rows
        scaled = integral(f, [
            normal([g * n for g, n in zip(gaps, pn[t])], gd * pd[t])
            for t, (gaps, gd) in zip(times, left)])
        indicator_scaled = integral(f, [
            normal([n if g else 0 for g, n in zip(gaps, pn[t])], pd[t])
            for t, (gaps, _) in zip(times, left)])
        return purged, scaled, indicator_scaled

    if isinstance(asset, AdaptedProcess):
        return TransformBundle(*one(asset))
    return TransformBundle(*map(list, zip(*map(one, asset))))


# ---------------------------------------------------------------------------
# Theorem-level cross-checks (reported, never asserted)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrosscheckReport:
    """The three verdicts, each with the process it judged (for a vector
    asset, the list of its components' processes)."""

    after_g: NupbrVerdict        # after-part under the enlarged filtration
    scaled_f: NupbrVerdict       # gap-scaled purged asset under the base one
    indicator_f: NupbrVerdict    # indicator-gated purged asset, base one
    jump_set_size: int
    after: AdaptedProcess
    scaled: AdaptedProcess
    indicator_scaled: AdaptedProcess

    @property
    def a(self) -> bool:
        return self.after_g.satisfied

    @property
    def b(self) -> bool:
        return self.scaled_f.satisfied

    @property
    def c(self) -> bool:
        return self.indicator_f.satisfied

    @property
    def agree(self) -> bool:
        return self.a == self.b == self.c


def theorem2_crosscheck(asset, analysis: RandomTimeAnalysis
                        ) -> CrosscheckReport:
    """Three verdicts whose equivalence is the continuous-time theorem,
    for a scalar asset or a list of components; the discrete engine only
    reports whether they agree."""
    space = analysis.space
    bundle = transform(asset, analysis)
    after = analysis.after_part(asset)
    return CrosscheckReport(
        after_g=nupbr_check(after, space, analysis.enlarged),
        scaled_f=nupbr_check(bundle.scaled, space),
        indicator_f=nupbr_check(bundle.indicator_scaled, space),
        jump_set_size=len(analysis.jump_set),
        after=after, scaled=bundle.scaled,
        indicator_scaled=bundle.indicator_scaled)


@dataclass(frozen=True)
class CorollaryReport:
    asset_nupbr_f: bool
    jumps_disjoint_from_jump_set: bool
    jump_set_empty: bool
    after_nupbr_g: bool

    @property
    def hypothesis_holds(self) -> bool:
        return self.asset_nupbr_f and self.jumps_disjoint_from_jump_set

    @property
    def implication_observed(self) -> bool:
        return (not self.hypothesis_holds) or self.after_nupbr_g


def corollary_check(asset: AdaptedProcess, analysis: RandomTimeAnalysis
                    ) -> CorollaryReport:
    space = analysis.space
    asset = asset.on(space.filtration)
    return CorollaryReport(
        asset_nupbr_f=nupbr_check(asset, space).satisfied,
        jumps_disjoint_from_jump_set=not any(
            map(any, analysis.jump_part(asset).step_rows[0])),
        jump_set_empty=not analysis.jump_set,
        after_nupbr_g=nupbr_check(analysis.after_part(asset), space,
                                  analysis.enlarged).satisfied)


@dataclass(frozen=True)
class LevyConditionReport:
    equivalent: bool
    witnesses: tuple
    asset_nupbr_f: bool

    @property
    def theorem_hypothesis_holds(self) -> bool:
        return self.equivalent and self.asset_nupbr_f


def levy_condition_check(asset: AdaptedProcess, analysis: RandomTimeAnalysis
                         ) -> LevyConditionReport:
    """Support equivalence of the enlarged jump compensator with the
    after-restriction of the base one.  The witnesses are the jump fibres
    (t, B, x) of base atoms B with an after-atom where the enlarged
    density 1 - mart_mean/(1 - left) vanishes: mart_mean = 1 - left."""
    witnesses = tuple(
        (t, base, x) for (t, base, x), mean in
        jump_functionals(asset, analysis).mart_mean.items()
        if mean == analysis.gap.at(base[0], t - 1))
    return LevyConditionReport(
        equivalent=not witnesses, witnesses=witnesses,
        asset_nupbr_f=nupbr_check(asset, analysis.space).satisfied)
