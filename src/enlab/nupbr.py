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

The relative-interior test runs one exact feasibility subproblem per
child: weights q >= 0 with the probed child's weight pinned at one and
zero total increment.  All children pass exactly when a strictly
positive solution exists (sum the per-child solutions).  Scalar
increments short-circuit to a sign test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionTooLarge, InternalCheckFailed, InvalidWitness
from .finite_prob import (
    ONE,
    ZERO,
    AdaptedProcess,
    Block,
    Filtration,
    FiniteFilteredSpace,
    is_martingale,
    is_positive,
    stochastic_exponential,
)
from .random_times import RandomTimeAnalysis
from .enlargement import _require_class_h, after_atoms, jump_functionals
from .simplex import solve_nonneg_equalities

NodeKey = tuple[int, Block]


def _components(x) -> list[AdaptedProcess]:
    return [x] if isinstance(x, AdaptedProcess) else list(x)


@dataclass(frozen=True)
class DeflatorWitness:
    """Strictly positive one-step weights per node, summing to one."""

    node_weights: dict[NodeKey, tuple[Fraction, ...]]
    kind: str = "deflator"


@dataclass(frozen=True)
class ArbitrageWitness:
    """First node (lexicographic) with one-step arbitrage, and the
    direction whose wealth is nonnegative on all children and positive
    on at least one."""

    t: int
    atom: Block
    direction: tuple[Fraction, ...]
    kind: str = "arbitrage"


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


def _scalar_node_weights(vectors, probs) -> tuple[Fraction, ...] | None:
    """d = 1 short-circuit: feasible iff increments are all zero or carry
    both signs; canonical weights split unit mass over each sign class."""
    pos = [i for i, v in enumerate(vectors) if v[0] > 0]
    neg = [i for i, v in enumerate(vectors) if v[0] < 0]
    if not pos and not neg:
        return tuple(probs)
    if not pos or not neg:
        return None
    raw = [ZERO] * len(vectors)
    for i in pos:
        raw[i] = ONE / (len(pos) * vectors[i][0])
    for i in neg:
        raw[i] = -ONE / (len(neg) * vectors[i][0])
    for i, v in enumerate(vectors):
        if v[0] == 0:
            raw[i] = ONE
    total = sum(raw)
    return tuple(w / total for w in raw)


def _lp_node_weights(vectors, probs) -> tuple[Fraction, ...] | None:
    """Exact relative-interior test: per child j, find q >= 0 with
    q_j = 1 and zero weighted increment; sum the solutions."""
    d = len(vectors[0])
    n = len(vectors)
    # canonical candidate first: the conditional probabilities themselves
    if all(sum(p * v[k] for p, v in zip(probs, vectors)) == 0
           for k in range(d)):
        return tuple(probs)
    combined = [ZERO] * n
    for j in range(n):
        rows = [[vectors[i][k] for i in range(n)] for k in range(d)]
        rows.append([ONE if i == j else ZERO for i in range(n)])
        rhs = [ZERO] * d + [ONE]
        sol = solve_nonneg_equalities(rows, rhs)
        if sol is None:
            return None
        combined = [a + b for a, b in zip(combined, sol)]
    total = sum(combined)
    weights = tuple(w / total for w in combined)
    if any(w <= 0 for w in weights):
        raise InternalCheckFailed("summed node weights not strictly positive")
    return weights


def _arbitrage_direction(vectors) -> tuple[Fraction, ...]:
    """Separating direction at an infeasible node: h with h.v_i >= 0 for
    all children and h.v_j >= 1 for the first violating child."""
    d = len(vectors[0])
    n = len(vectors)
    for j in range(n):
        # variables: h+ (d), h- (d), slacks (n)
        rows = []
        rhs = []
        for i in range(n):
            row = ([vectors[i][k] for k in range(d)]
                   + [-vectors[i][k] for k in range(d)]
                   + [(-ONE if i == c else ZERO) for c in range(n)])
            rows.append(row)
            rhs.append(ONE if i == j else ZERO)
        sol = solve_nonneg_equalities(rows, rhs)
        if sol is None:
            continue
        h = tuple(sol[k] - sol[d + k] for k in range(d))
        if _direction_valid(h, vectors):
            return _canonical_direction(h)
    raise InternalCheckFailed("infeasible node without separating direction")


def _direction_valid(h, vectors) -> bool:
    gains = [sum(a * b for a, b in zip(h, v)) for v in vectors]
    return all(g >= 0 for g in gains) and any(g > 0 for g in gains)


def _canonical_direction(h) -> tuple[Fraction, ...]:
    """h scaled to coprime integers."""
    denom = lcm(*(v.denominator for v in h))
    ints = [int(v * denom) for v in h]
    g = gcd(*ints) or 1
    return tuple(Fraction(v // g) for v in ints)


def nupbr_check(x, space: FiniteFilteredSpace,
                filtration: Filtration | None = None) -> NupbrVerdict:
    """Node-by-node exact verdict for a scalar process or a sequence of
    component processes (dimension at most 4), deterministic in node
    order and witness construction."""
    components = _components(x)
    if len(components) > 4:
        raise DimensionTooLarge(f"dimension {len(components)} exceeds 4")
    f = filtration or space.filtration
    components = [c.on(f) for c in components]
    scalar = len(components) == 1

    node_weights: dict[NodeKey, tuple[Fraction, ...]] = {}
    for t in range(1, space.horizon + 1):
        for atom in f.partitions[t - 1]:
            children = f.children(t - 1, atom)
            vectors = _child_increments(components, children, t)
            probs = [f.share(t, child) for child in children]
            weights = (_scalar_node_weights(vectors, probs) if scalar
                       else _lp_node_weights(vectors, probs))
            if weights is None:
                direction = (_scalar_arbitrage(vectors) if scalar
                             else _arbitrage_direction(vectors))
                return NupbrVerdict(False,
                                    ArbitrageWitness(t, atom, direction),
                                    f.label)
            node_weights[(t, atom)] = weights
    return NupbrVerdict(True, DeflatorWitness(node_weights), f.label)


def _scalar_arbitrage(vectors) -> tuple[Fraction]:
    if any(v[0] > 0 for v in vectors):
        return (ONE,)
    return (-ONE,)


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
    density = []  # density[t - 1][i]: on the i-th atom at t
    for t in range(1, space.horizon + 1):
        row = [ZERO] * len(f.partitions[t])
        for atom in f.partitions[t - 1]:
            for child, w in zip(f.children(t - 1, atom),
                                witness.node_weights[(t, atom)]):
                row[f.block_of[t][child[0]]] = w / f.share(t, child)
        density.append(row)
    return stochastic_exponential(AdaptedProcess.from_increments(
        f, step=lambda o, t: density[t - 1][f.block_of[t][o]] - 1))


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


# ---------------------------------------------------------------------------
# Transforms of the asset induced by the random time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformBundle:
    purged: AdaptedProcess           # asset minus its jump-set jumps
    scaled: AdaptedProcess           # (1 - survival_left) . purged
    indicator_scaled: AdaptedProcess  # 1{survival_left < 1} . purged


def transform(asset: AdaptedProcess, analysis: RandomTimeAnalysis
              ) -> TransformBundle:
    _require_class_h(analysis)
    f = analysis.space.filtration
    asset = asset.on(f)
    jump_functionals(asset, analysis)  # hard-asserts the jump-set identities

    purged = asset - analysis.jump_part(asset)
    scaled = AdaptedProcess.from_increments(
        f, step=lambda o, t: ((1 - analysis.survival.at(o, t - 1))
                              * purged.delta(o, t)))
    indicator_scaled = AdaptedProcess.from_increments(
        f, step=lambda o, t: (purged.delta(o, t)
                              if analysis.survival.at(o, t - 1) < 1 else ZERO))
    return TransformBundle(purged=purged, scaled=scaled,
                           indicator_scaled=indicator_scaled)


# ---------------------------------------------------------------------------
# Theorem-level cross-checks (reported, never asserted)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrosscheckReport:
    """The three verdicts, each with the process it judged."""

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


def theorem2_crosscheck(asset: AdaptedProcess, analysis: RandomTimeAnalysis
                        ) -> CrosscheckReport:
    """Three verdicts whose equivalence is the continuous-time theorem;
    the discrete engine only reports whether they agree."""
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
            map(any, analysis.jump_part(asset).steps)),
        jump_set_empty=not analysis.jump_set,
        after_nupbr_g=nupbr_check(analysis.after_part(asset), space,
                                  analysis.enlarged).satisfied)


@dataclass(frozen=True)
class LevyConditionReport:
    equivalent: bool
    dead_support_empty: bool     # the reduction route: no dead fibre below barrier
    witnesses: tuple
    asset_nupbr_f: bool

    @property
    def theorem_hypothesis_holds(self) -> bool:
        return self.equivalent and self.asset_nupbr_f


def levy_condition_check(asset: AdaptedProcess, analysis: RandomTimeAnalysis
                         ) -> LevyConditionReport:
    """Support equivalence of the enlarged jump compensator with the
    after-restriction of the base one, computed directly and through the
    dead-fibre reduction; the two routes are compared exactly."""
    space = analysis.space
    jf = jump_functionals(asset, analysis)
    after_reachable = {(a.t, a.base) for a in after_atoms(analysis)}
    witnesses = []
    for key in jf.support:
        t, base, x = key
        if (t, base) not in after_reachable:
            continue
        left = analysis.survival.at(base[0], t - 1)
        if left + jf.mart_mean[key] == 1:  # enlarged density vanishes
            witnesses.append(key)
    equivalent = not witnesses

    dead_below_barrier = [
        key for key in jf.support
        if analysis.survival.at(key[1][0], key[0] - 1) < 1
        and jf.alive_prob[key] == 0]
    dead_support_empty = not dead_below_barrier

    if equivalent != dead_support_empty:
        raise InternalCheckFailed("support-equivalence routes disagree")
    return LevyConditionReport(
        equivalent=equivalent,
        dead_support_empty=dead_support_empty,
        witnesses=tuple(witnesses),
        asset_nupbr_f=nupbr_check(asset, space).satisfied)
