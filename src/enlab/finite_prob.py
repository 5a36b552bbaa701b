"""Exact discrete-time stochastic calculus on finite filtered spaces.

Everything here is computed with ``fractions.Fraction``: projections,
compensators, brackets and integrals are exact, so downstream identity
checks can demand bit-identical equality instead of tolerances.

Conventions, stated once and enforced everywhere:

* the time grid is {0, ..., T};
* "predictable at t" means measurable at t - 1 (at 0 for t = 0);
* the left limit of a process at t is its value at t - 1;
* integrals, brackets and compensator increments sum over s = 1..t, and
  the value at time 0 is the initial value (0 for integrals/brackets).

Filtrations are stored as partitions of the outcome set (their atoms),
one partition per grid time, each refining the previous one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    DimensionMismatch,
    InternalCheckFailed,
    NonRefiningFiltration,
    NotAdapted,
    NotPredictable,
    ProbabilityNotOne,
    SchemaError,
    ZeroProbabilityOutcome,
)

Block = tuple[str, ...]
Partition = tuple[Block, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def _canonical_partition(blocks: Iterable[Iterable[str]]) -> Partition:
    out = tuple(tuple(sorted(b)) for b in blocks)
    return tuple(sorted(out, key=lambda b: b[0]))


def _refines(fine: Partition, coarse: Partition) -> bool:
    parent = {}
    for i, block in enumerate(coarse):
        for outcome in block:
            parent[outcome] = i
    for block in fine:
        if len({parent.get(o, -1) for o in block}) != 1:
            return False
    return True


class Filtration:
    """A partition per time, with cached atom lookups, atom weights and
    the tree of child atoms.

    ``label`` is "F" for the base filtration and "G" for a progressively
    enlarged one; the label travels with processes so that adaptedness is
    checked against the intended filtration.
    """

    __slots__ = ("label", "partitions", "block_of", "weights", "_children")

    def __init__(self, label: str, partitions: Sequence[Partition],
                 prob: Mapping[str, Fraction]):
        self.label = label
        self.partitions = tuple(_canonical_partition(p) for p in partitions)
        for t in range(1, len(self.partitions)):
            if not _refines(self.partitions[t], self.partitions[t - 1]):
                raise NonRefiningFiltration(
                    f"partition at t={t} does not refine t={t - 1} "
                    f"({self.label})")
        self.block_of: list[dict[str, int]] = []
        self.weights: list[list[Fraction]] = []
        for part in self.partitions:
            lookup = {}
            weights = []
            for i, block in enumerate(part):
                w = ZERO
                for outcome in block:
                    lookup[outcome] = i
                    w += prob[outcome]
                weights.append(w)
            self.block_of.append(lookup)
            self.weights.append(weights)
        self._children: list[tuple[tuple[Block, ...], ...]] = []
        for t in range(1, len(self.partitions)):
            kids: list[list[Block]] = [[] for _ in self.partitions[t - 1]]
            for block in self.partitions[t]:
                kids[self.block_of[t - 1][block[0]]].append(block)
            self._children.append(tuple(map(tuple, kids)))

    @property
    def horizon(self) -> int:
        return len(self.partitions) - 1

    def block(self, t: int, outcome: str) -> Block:
        return self.partitions[t][self.block_of[t][outcome]]

    def children(self, t: int, atom: Block) -> tuple[Block, ...]:
        """The atoms at t + 1 inside the time-t atom, in partition order."""
        return self._children[t][self.block_of[t][atom[0]]]

    def mass(self, t: int, atom: Block) -> Fraction:
        """Reference probability of the time-t atom."""
        return self.weights[t][self.block_of[t][atom[0]]]


@dataclass(frozen=True)
class FiniteFilteredSpace:
    """Finite outcome set, strictly positive rational reference measure,
    and a refining partition sequence over the horizon."""

    outcomes: tuple[str, ...]
    prob: dict[str, Fraction]
    horizon: int
    filtration: Filtration

    def p(self, outcome: str) -> Fraction:
        return self.prob[outcome]


def build_space(description: Mapping) -> FiniteFilteredSpace:
    """Validate a parsed model description into a FiniteFilteredSpace.

    ``description`` needs keys ``outcomes``, ``prob`` (outcome -> Fraction
    or "p/q" string) and ``partitions`` (list over t of lists of blocks).
    The time-0 partition may be omitted, in which case the single-block
    partition is used.
    """
    try:
        outcomes = tuple(description["outcomes"])
        raw_prob = description["prob"]
        raw_parts = description["partitions"]
    except KeyError as exc:
        raise SchemaError(f"missing key {exc}") from exc
    if len(set(outcomes)) != len(outcomes):
        raise SchemaError("duplicate outcomes", field="outcomes")

    prob: dict[str, Fraction] = {}
    for outcome in outcomes:
        if outcome not in raw_prob:
            raise SchemaError(f"no probability for {outcome!r}", field="prob")
        value = Fraction(raw_prob[outcome])
        if value <= 0:
            raise ZeroProbabilityOutcome(f"p({outcome}) = {value}")
        prob[outcome] = value
    if sum(prob.values()) != 1:
        raise ProbabilityNotOne(f"probabilities sum to {sum(prob.values())}")

    partitions = [_canonical_partition(p) for p in raw_parts]
    full = _canonical_partition([outcomes])
    if not partitions:
        raise SchemaError("no partitions given", field="partitions")
    horizon = description.get("horizon")
    if horizon is not None and len(partitions) == horizon:
        partitions = [full] + partitions  # time-0 partition left implicit
    for t, part in enumerate(partitions):
        seen = [o for block in part for o in block]
        if sorted(seen) != sorted(outcomes):
            raise SchemaError(f"partition at t={t} is not a partition of "
                              "the outcome set", field="partitions")
    filtration = Filtration("F", partitions, prob)
    space = FiniteFilteredSpace(outcomes=outcomes, prob=prob,
                                horizon=filtration.horizon,
                                filtration=filtration)
    if space.horizon < 1:
        raise SchemaError("horizon must be >= 1", field="partitions")
    return space


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

Values = dict[str, list[Fraction]]


def _as_values(obj, outcomes: Sequence[str], horizon: int) -> Values:
    values = obj.values if hasattr(obj, "values") and not isinstance(obj, dict) else obj
    out: Values = {}
    for outcome in outcomes:
        row = [Fraction(v) for v in values[outcome]]
        if len(row) != horizon + 1:
            raise SchemaError(f"process row for {outcome!r} has length "
                              f"{len(row)}, expected {horizon + 1}")
        out[outcome] = row
    return out


def _running_sum(start: Fraction, steps: Iterable[Fraction]) -> list[Fraction]:
    acc = [start]
    for step in steps:
        acc.append(acc[-1] + step)
    return acc


@dataclass(frozen=True)
class AdaptedProcess:
    """outcome x time grid of rationals, constant on the atoms of the
    tagged filtration at every time."""

    values: Values
    filtration_label: str = "F"

    @classmethod
    def from_increments(cls, outcomes: Iterable[str], horizon: int, step,
                        label: str):
        """X_0 = 0 and X_t = X_{t-1} + step(o, t) on every outcome: the one
        constructor of processes from their increments."""
        return cls({o: _running_sum(ZERO, (step(o, t)
                                           for t in range(1, horizon + 1)))
                    for o in outcomes}, label)

    def at(self, outcome: str, t: int) -> Fraction:
        return self.values[outcome][t]

    def delta(self, outcome: str, t: int) -> Fraction:
        return self.values[outcome][t] - self.values[outcome][t - 1]

    @property
    def horizon(self) -> int:
        return len(next(iter(self.values.values()))) - 1

    def stopped(self, stop: Mapping[str, int]) -> "AdaptedProcess":
        """Pathwise stopping: value frozen from stop[outcome] onward."""
        out = {}
        for outcome, row in self.values.items():
            s = stop[outcome]
            out[outcome] = [row[min(t, s)] for t in range(len(row))]
        return AdaptedProcess(out, self.filtration_label)

    def __add__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        return AdaptedProcess(
            {o: [a + b for a, b in zip(row, other.values[o])]
             for o, row in self.values.items()},
            self.filtration_label)

    def __sub__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        return AdaptedProcess(
            {o: [a - b for a, b in zip(row, other.values[o])]
             for o, row in self.values.items()},
            self.filtration_label)

    def __mul__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        return AdaptedProcess(
            {o: [a * b for a, b in zip(row, other.values[o])]
             for o, row in self.values.items()},
            self.filtration_label)


class PredictableProcess(AdaptedProcess):
    """Value at t is known at t - 1 (at 0 for t = 0)."""


def _check_block_constant(values: Values, partition: Partition, t: int,
                          what: str, exc) -> None:
    for block in partition:
        v0 = values[block[0]][t]
        for outcome in block[1:]:
            if values[outcome][t] != v0:
                raise exc(f"{what} not constant on block {block} at t={t}")


def adapted(values, space: FiniteFilteredSpace,
            filtration: Filtration | None = None) -> AdaptedProcess:
    """Build an AdaptedProcess, checking measurability."""
    f = filtration or space.filtration
    vals = _as_values(values, space.outcomes, space.horizon)
    for t in range(space.horizon + 1):
        _check_block_constant(vals, f.partitions[t], t, "process", NotAdapted)
    return AdaptedProcess(vals, f.label)


def predictable(values, space: FiniteFilteredSpace,
                filtration: Filtration | None = None) -> PredictableProcess:
    f = filtration or space.filtration
    vals = _as_values(values, space.outcomes, space.horizon)
    _check_block_constant(vals, f.partitions[0], 0, "predictable process",
                          NotPredictable)
    for t in range(1, space.horizon + 1):
        _check_block_constant(vals, f.partitions[t - 1], t,
                              "predictable process", NotPredictable)
    return PredictableProcess(vals, f.label)


def constant_process(c, space: FiniteFilteredSpace,
                     filtration: Filtration | None = None) -> AdaptedProcess:
    row = [Fraction(c)] * (space.horizon + 1)
    return AdaptedProcess({o: list(row) for o in space.outcomes},
                          (filtration or space.filtration).label)


# ---------------------------------------------------------------------------
# Projections and compensators
# ---------------------------------------------------------------------------

def cond_exp(x: Mapping[str, Fraction], t: int, space: FiniteFilteredSpace,
             filtration: Filtration | None = None) -> dict[str, Fraction]:
    """Conditional expectation of an outcome-indexed vector given the
    partition at time t.  Exact: block average weighted by the reference
    measure."""
    f = filtration or space.filtration
    out: dict[str, Fraction] = {}
    for block, weight in zip(f.partitions[t], f.weights[t]):
        total = ZERO
        for outcome in block:
            total += space.prob[outcome] * x[outcome]
        value = total / weight
        for outcome in block:
            out[outcome] = value
    return out


def cond_average(space: FiniteFilteredSpace, members: Iterable[str],
                 values) -> Fraction:
    """Conditional average of values(outcome) on the event `members`
    under the reference measure."""
    total = ZERO
    weight = ZERO
    for o in members:
        p = space.prob[o]
        weight += p
        total += p * values(o)
    return total / weight


def _cond_rows(column, space: FiniteFilteredSpace, f: Filtration,
               lag: int = 0, start: int = 0) -> Values:
    """Row o lists E[column(., t) | partition at max(t - lag, 0)] at o for
    t = start..T: the one loop of conditional expectations behind every
    projection and compensator."""
    out: Values = {o: [] for o in space.outcomes}
    for t in range(start, space.horizon + 1):
        col = cond_exp({o: column(o, t) for o in space.outcomes},
                       max(t - lag, 0), space, f)
        for o in space.outcomes:
            out[o].append(col[o])
    return out


def optional_projection(v, space: FiniteFilteredSpace,
                        filtration: Filtration | None = None) -> AdaptedProcess:
    """(^o V)_t = E[V_t | partition at t], for every t."""
    f = filtration or space.filtration
    vals = _as_values(v, space.outcomes, space.horizon)
    return AdaptedProcess(_cond_rows(lambda o, t: vals[o][t], space, f),
                          f.label)


def predictable_projection(v, space: FiniteFilteredSpace,
                           filtration: Filtration | None = None
                           ) -> PredictableProcess:
    """(^p V)_t = E[V_t | partition at t-1] for t >= 1, at 0 for t = 0."""
    f = filtration or space.filtration
    vals = _as_values(v, space.outcomes, space.horizon)
    return PredictableProcess(
        _cond_rows(lambda o, t: vals[o][t], space, f, lag=1), f.label)


def compensator(v: AdaptedProcess, space: FiniteFilteredSpace,
                filtration: Filtration | None = None) -> PredictableProcess:
    """Dual predictable projection: increment at t is E[dV_t | t-1], and
    the value at 0 is V_0.  V minus the result is a martingale of the
    tagged filtration."""
    f = filtration or space.filtration
    steps = _cond_rows(v.delta, space, f, lag=1, start=1)
    return PredictableProcess(
        {o: _running_sum(v.values[o][0], steps[o]) for o in space.outcomes},
        f.label)


def dual_optional_projection(v, space: FiniteFilteredSpace,
                             filtration: Filtration | None = None
                             ) -> AdaptedProcess:
    """Dual optional projection: increment at t is E[dV_t | t], and the
    value at 0 is E[V_0 | time-0 partition].  Identity on adapted input."""
    f = filtration or space.filtration
    vals = _as_values(v, space.outcomes, space.horizon)
    steps = _cond_rows(
        lambda o, t: (vals[o][t] - vals[o][t - 1]) if t else vals[o][0],
        space, f)
    return AdaptedProcess(
        {o: _running_sum(row[0], row[1:]) for o, row in steps.items()},
        f.label)


# ---------------------------------------------------------------------------
# Brackets, integrals, exponential
# ---------------------------------------------------------------------------

def bracket(x: AdaptedProcess, y: AdaptedProcess) -> AdaptedProcess:
    """Covariation [X, Y]_t = sum_{s<=t} dX_s dY_s, starting at 0."""
    return AdaptedProcess.from_increments(
        x.values, x.horizon, lambda o, t: x.delta(o, t) * y.delta(o, t),
        x.filtration_label)


def angle_bracket(x: AdaptedProcess, y: AdaptedProcess,
                  space: FiniteFilteredSpace,
                  filtration: Filtration | None = None) -> PredictableProcess:
    """Sharp bracket: the compensator of the covariation."""
    return compensator(bracket(x, y), space, filtration)


def _component_list(p) -> list[AdaptedProcess]:
    if isinstance(p, AdaptedProcess):
        return [p]
    return list(p)


def stochastic_integral(h, x) -> AdaptedProcess:
    """(H . X)_t = sum_{s<=t} H_s dX_s, starting at 0.

    Scalars integrate against scalars; a sequence of integrands against an
    equal-length sequence of integrators yields the scalar wealth process.
    """
    hs = _component_list(h)
    xs = _component_list(x)
    if len(hs) != len(xs):
        raise DimensionMismatch(f"{len(hs)} integrands vs {len(xs)} integrators")
    return AdaptedProcess.from_increments(
        xs[0].values, xs[0].horizon,
        lambda o, t: sum((hc.at(o, t) * xc.delta(o, t)
                          for hc, xc in zip(hs, xs)), ZERO),
        xs[0].filtration_label)


def stochastic_exponential(x: AdaptedProcess) -> AdaptedProcess:
    """Multiplicative exponential: E(X)_0 = 1, E(X)_t = prod (1 + dX_s).

    Strict positivity holds exactly when every 1 + dX_s > 0; that is
    reported by is_positive(), not enforced here.
    """
    out: Values = {}
    for o, row in x.values.items():
        acc = [ONE]
        for t in range(1, len(row)):
            acc.append(acc[-1] * (ONE + row[t] - row[t - 1]))
        out[o] = acc
    return AdaptedProcess(out, x.filtration_label)


def is_positive(x: AdaptedProcess) -> bool:
    return all(v > 0 for row in x.values.values() for v in row)


# ---------------------------------------------------------------------------
# Martingale test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MartingaleReport:
    ok: bool
    t: int | None = None
    block: Block | None = None
    drift: Fraction | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_martingale(x: AdaptedProcess, space: FiniteFilteredSpace,
                  filtration: Filtration | None = None) -> MartingaleReport:
    """Exact one-step drift test: E[dX_t | t-1] = 0 for every t and atom.

    On failure the witness (t, atom, drift) is returned; the drift is the
    conditional expectation on that atom, not the unnormalized sum.
    """
    f = filtration or space.filtration
    for t in range(1, space.horizon + 1):
        for block, weight in zip(f.partitions[t - 1], f.weights[t - 1]):
            total = ZERO
            for o in block:
                row = x.values[o]
                total += space.prob[o] * (row[t] - row[t - 1])
            if total != 0:
                return MartingaleReport(False, t, block, total / weight)
    return MartingaleReport(True)


def require_martingale(x: AdaptedProcess, space: FiniteFilteredSpace,
                       filtration: Filtration | None = None,
                       what: str = "process") -> None:
    report = is_martingale(x, space, filtration)
    if not report.ok:
        raise InternalCheckFailed(
            f"{what} has drift {report.drift} at t={report.t} on {report.block}")
