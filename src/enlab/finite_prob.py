"""Exact discrete-time stochastic calculus on finite filtered spaces.

Everything here is exact: process values are ``fractions.Fraction``
and atom masses are integers over one common denominator, so
conditional averages, compensators, brackets and stochastic exponentials
carry no rounding, and downstream identity checks can demand
bit-identical equality instead of tolerances.

Conventions, stated once and enforced everywhere:

* the time grid is {0, ..., T};
* "predictable at t" means measurable at t - 1 (at 0 for t = 0);
* the left limit of a process at t is its value at t - 1;
* brackets and compensator increments sum over s = 1..t, and the value
  at time 0 is the initial value (0 for brackets).

Filtrations are stored as partitions of the outcome set (their atoms),
one partition per grid time, each refining the previous one, together
with the tree they form: each atom's parent at t - 1, its children at
t + 1 and its mass.  Masses are integers over the filtration's
``scale``, the lcm of the outcome-probability denominators, shared by
all times: every atom's mass is a sum of outcome probabilities, so it
is an integer over that scale.

Processes are stored on that tree.  A process holds, per time t, one
value per atom of the ``Filtration`` it is adapted to and the
increment from the parent atom, each derived from the other when first
read; ``at(o, t)`` reads the node of the atom holding o.  Every
operation works node by node: a conditional expectation given time
t - 1 is the mass-weighted average over an atom's children, summed on
plain integers and normalised once per returned value, and a process
built from increments evaluates its step once per atom, on the atom's
first outcome.

Adaptedness is structural.  Outcome rows become a process in one way,
``adapted``, which checks that they are constant on the atoms of the
filtration, raising NotAdapted if not: rows are never read at a
representative outcome unchecked.  A process is read only on the
filtration it was built on: ``on``, arithmetic, ``equals`` and
``bracket`` raise NotAdapted for any other, even one with the same
atoms, and never lift a process onto a finer one or a coarser one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import (
    InternalCheckFailed,
    NonRefiningFiltration,
    NotAdapted,
    ProbabilityNotOne,
    SchemaError,
    ZeroProbabilityOutcome,
)

Block = tuple[str, ...]
Partition = tuple[Block, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class Filtration:
    """A partition per time with the tree of its atoms: ``block_of[t]``
    maps an outcome to its atom's index at t, ``up[t][i]`` is the index
    of the parent at t - 1 of atom i at t, ``kids[t][i]`` the indices of
    its children at t + 1 (in partition order), and ``masses[t][i]`` its
    reference probability times ``scale``, an integer, as ``weight[o]``
    is for an outcome.

    ``label`` is "F" for the base filtration and "G" for a progressively
    enlarged one.
    """

    __slots__ = ("label", "outcomes", "partitions", "block_of", "up", "kids",
                 "scale", "weight", "masses")

    def __init__(self, label: str, partitions: Sequence[Partition],
                 prob: Mapping[str, Fraction]):
        self.label = label
        self.outcomes = tuple(prob)
        # canonical: each block sorted, blocks by their first outcome
        self.partitions = tuple(
            tuple(sorted((tuple(sorted(b)) for b in p), key=lambda b: b[0]))
            for p in partitions)
        self.block_of: list[dict[str, int]] = [
            {o: i for i, block in enumerate(part) for o in block}
            for part in self.partitions]
        # each atom's parent is that of its first outcome, and the
        # partition refines the previous one when every outcome agrees
        self.up: list[tuple[int, ...]] = [()]
        self.kids: list[tuple[tuple[int, ...], ...]] = []
        for t, part in enumerate(self.partitions[1:], 1):
            coarse = self.block_of[t - 1]
            up = tuple(coarse[block[0]] for block in part)
            if any(coarse[o] != p for p, block in zip(up, part)
                   for o in block[1:]):
                raise NonRefiningFiltration(
                    f"partition at t={t} does not refine t={t - 1} "
                    f"({self.label})")
            kids = [[] for _ in self.partitions[t - 1]]
            for i, p in enumerate(up):
                kids[p].append(i)
            self.up.append(up)
            self.kids.append(tuple(map(tuple, kids)))
        # leaf masses from the outcomes, every other atom from its children
        scale = self.scale = lcm(*(p.denominator for p in prob.values()))
        weight = self.weight = {o: p.numerator * (scale // p.denominator)
                                for o, p in prob.items()}
        masses = [[sum(map(weight.__getitem__, block))
                   for block in self.partitions[-1]]]
        for row in reversed(self.kids):
            masses.append([sum(masses[-1][c] for c in kids) for kids in row])
        self.masses: list[list[int]] = masses[::-1]

    @property
    def horizon(self) -> int:
        return len(self.partitions) - 1

    def children(self, t: int, atom: Block) -> tuple[Block, ...]:
        """The atoms at t + 1 inside the time-t atom, in partition order."""
        part = self.partitions[t + 1]
        return tuple(part[c] for c in self.kids[t][self.block_of[t][atom[0]]])

    def share(self, t: int, atom: Block) -> Fraction:
        """Probability of the time-t atom given its parent at t - 1."""
        i = self.block_of[t][atom[0]]
        return Fraction(self.masses[t][i], self.masses[t - 1][self.up[t][i]])


@dataclass(frozen=True)
class FiniteFilteredSpace:
    """Finite outcome set, strictly positive rational reference measure,
    and a refining partition sequence over the horizon."""

    outcomes: tuple[str, ...]
    prob: dict[str, Fraction]
    horizon: int
    filtration: Filtration


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
    names = set(outcomes)
    if len(names) != len(outcomes):
        raise SchemaError("duplicate outcomes", field="outcomes")

    prob: dict[str, Fraction] = {}
    for outcome in outcomes:
        if outcome not in raw_prob:
            raise SchemaError(f"no probability for {outcome!r}", field="prob")
        value = raw_prob[outcome]
        if not isinstance(value, Fraction):
            value = Fraction(value)
        if value.numerator <= 0:
            raise ZeroProbabilityOutcome(f"p({outcome}) = {value}")
        prob[outcome] = value
    if len(raw_prob) != len(prob):
        ghost = next(o for o in raw_prob if o not in names)
        raise SchemaError(f"probability for unknown outcome {ghost!r}",
                          field=f"prob.{ghost}")

    partitions = list(raw_parts)
    if not partitions:
        raise SchemaError("no partitions given", field="partitions")
    horizon = description.get("horizon")
    if horizon is not None and len(partitions) == horizon:
        partitions = [[outcomes]] + partitions  # time-0 partition left implicit
    for t, part in enumerate(partitions):
        seen = [o for block in part for o in block]
        if len(seen) != len(names) or set(seen) != names or not all(part):
            raise SchemaError(f"partition at t={t} is not a partition of "
                              "the outcome set", field="partitions")
    filtration = Filtration("F", partitions, prob)
    total = sum(filtration.masses[0])  # over the lcm of the denominators
    if total != filtration.scale:
        raise ProbabilityNotOne(
            f"probabilities sum to {Fraction(total, filtration.scale)}")
    space = FiniteFilteredSpace(outcomes=outcomes, prob=prob,
                                horizon=filtration.horizon,
                                filtration=filtration)
    if space.horizon < 1:
        raise SchemaError("horizon must be >= 1", field="partitions")
    return space


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

Nodes = list[list[Fraction]]


def _differences(f: Filtration, nodes: Nodes) -> Nodes:
    """Increments from the parent atom (steps[0] is the time-0 value)."""
    return [nodes[0]] + [
        [v - nodes[t - 1][p] for v, p in zip(nodes[t], f.up[t])]
        for t in range(1, len(nodes))]


def _cumulate(f: Filtration, steps: Nodes) -> Nodes:
    """Values from the time-0 value and the increments."""
    nodes = [steps[0]]
    for t in range(1, len(steps)):
        prev = nodes[-1]
        nodes.append([prev[p] + s if s else prev[p]
                      for p, s in zip(f.up[t], steps[t])])
    return nodes


class AdaptedProcess:
    """Per time, one value per atom of the filtration it is adapted to:
    ``nodes[t][i]`` on the i-th atom at t and ``steps[t][i]`` its
    increment from the parent atom (``steps[0]`` is the time-0 value).
    A process is made from either; the other is derived on first read.
    Outcome rows become a process through ``adapted``.
    """

    __slots__ = ("filtration", "_nodes", "_steps")

    @classmethod
    def from_nodes(cls, f: Filtration, nodes: Nodes | None,
                   steps: Nodes | None = None):
        """The process with value nodes[t][i] on the i-th atom of f at t;
        its increments are derived on first read unless given."""
        x = cls.__new__(cls)
        x.filtration, x._nodes, x._steps = f, nodes, steps
        return x

    @classmethod
    def from_steps(cls, f: Filtration, steps: Nodes):
        """The process with time-0 value steps[0] and increment
        steps[t][i] on the i-th atom of f at t >= 1."""
        return cls.from_nodes(f, None, steps)

    @property
    def nodes(self) -> Nodes:
        if self._nodes is None:
            self._nodes = _cumulate(self.filtration, self._steps)
        return self._nodes

    @property
    def steps(self) -> Nodes:
        if self._steps is None:
            self._steps = _differences(self.filtration, self._nodes)
        return self._steps

    @classmethod
    def from_increments(cls, f: Filtration, step) -> "AdaptedProcess":
        """X_0 = 0 and X_t = X_{t-1} + step(o, t) on the atoms of f: the
        one constructor of processes from their increments.  step is
        evaluated once per atom at t, on the atom's first outcome."""
        return _integral(f, [[step(block[0], t) for block in part]
                             for t, part in enumerate(f.partitions) if t])

    def at(self, outcome: str, t: int) -> Fraction:
        return self.nodes[t][self.filtration.block_of[t][outcome]]

    def delta(self, outcome: str, t: int) -> Fraction:
        return self.steps[t][self.filtration.block_of[t][outcome]]

    def on(self, f: Filtration) -> "AdaptedProcess":
        """This process, read on f, which must be the filtration it was
        built on: any other, even with the same atoms, raises NotAdapted."""
        if f is not self.filtration:
            raise NotAdapted(f"process of {self.filtration.label} read on "
                             f"another filtration ({f.label})")
        return self

    def equals(self, other: "AdaptedProcess") -> bool:
        """The same value at every outcome and time: the same time-0
        values and increments."""
        other = other.on(self.filtration)
        if self._steps is not None and other._steps is not None:
            return self._steps == other._steps
        return self.nodes == other.nodes

    def _combine(self, other, op, linear: bool) -> "AdaptedProcess":
        """op node by node; a linear op acts on the increments alone."""
        a, b = self, other.on(self.filtration)
        rows = zip(a.steps, b.steps) if linear else zip(a.nodes, b.nodes)
        out = [[op(x, y) for x, y in zip(ra, rb)] for ra, rb in rows]
        if linear:
            return AdaptedProcess.from_steps(a.filtration, out)
        return AdaptedProcess.from_nodes(a.filtration, out)

    def __add__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        return self._combine(other, add, True)

    def __sub__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        return self._combine(other, lambda x, y: x - y, True)

    def __mul__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        return self._combine(other, lambda x, y: x * y, False)


def _require_constant(f: Filtration, value) -> None:
    """NotAdapted unless value(outcome, t) is constant on every atom of f
    at t."""
    for t, part in enumerate(f.partitions):
        for block in part:
            v0 = value(block[0], t)
            if any(value(o, t) != v0 for o in block[1:]):
                raise NotAdapted(f"process not constant on block {block} "
                                 f"at t={t}")


def adapted(values: Mapping[str, Sequence], space: FiniteFilteredSpace,
            filtration: Filtration | None = None) -> AdaptedProcess:
    """The process with outcome rows values[outcome][t] on a filtration
    (the base one by default): the one constructor from rows.  A row of
    the wrong length raises SchemaError, rows that are not constant on
    the atoms NotAdapted."""
    f = filtration or space.filtration
    rows = {}
    for o in space.outcomes:
        rows[o] = row = [Fraction(v) for v in values[o]]
        if len(row) != space.horizon + 1:
            raise SchemaError(f"process row for {o!r} has length {len(row)}, "
                              f"expected {space.horizon + 1}")
    _require_constant(f, lambda o, t: rows[o][t])
    return AdaptedProcess.from_nodes(f, [[rows[block[0]][t] for block in part]
                                         for t, part in enumerate(f.partitions)])


# ---------------------------------------------------------------------------
# Conditional averages and compensators
# ---------------------------------------------------------------------------

def mass_average(masses: Sequence[int], idxs: Sequence[int], value,
                 mass: int | None = None) -> Fraction:
    """sum m[i] value(i) / mass over the atoms idxs, with value evaluated
    once per atom; `mass` defaults to sum m[i].  The one conditional
    average over atoms: cond_average, the compensator, the drift test
    and the transfer identities all reduce to it.

    The masses are integers, and the sum is kept as an integer numerator
    over the lcm of the values' denominators, so that the only
    normalisation is that of the returned Fraction."""
    if len(idxs) == 1 and (mass is None or mass == masses[idxs[0]]):
        return value(idxs[0])
    num, den = 0, 1
    for i in idxs:
        v = value(i)
        n = v.numerator
        if n:
            d = v.denominator
            if d != den:
                g = gcd(den, d)
                num *= d // g
                n *= den // g
                den *= d // g
            num += masses[i] * n
    if not num:
        return ZERO
    return Fraction(num, den * (sum(masses[i] for i in idxs) if mass is None
                                else mass))


def cond_average(f: Filtration, t: int, atoms: Iterable[Block],
                 values) -> Fraction:
    """Conditional average of values(outcome) over the union of the given
    time-t atoms of f, under the reference measure; values is evaluated
    once per atom, on its first outcome."""
    look = f.block_of[t]
    return mass_average(f.masses[t], [look[atom[0]] for atom in atoms],
                        lambda i: values(f.partitions[t][i][0]))


def compensator(v: AdaptedProcess, space: FiniteFilteredSpace,
                filtration: Filtration | None = None) -> AdaptedProcess:
    """Dual predictable projection: increment at t is E[dV_t | t-1], and
    the value at 0 is V_0.  V must be on the given filtration (the base
    one by default); V minus the result is a martingale of it."""
    f = filtration or space.filtration
    v = v.on(f)
    steps = [v.steps[0]]
    for t in range(1, len(f.partitions)):
        row = v.steps[t].__getitem__
        drift = [mass_average(f.masses[t], kids, row, mass)
                 for kids, mass in zip(f.kids[t - 1], f.masses[t - 1])]
        steps.append([drift[p] for p in f.up[t]])
    return AdaptedProcess.from_steps(f, steps)


# ---------------------------------------------------------------------------
# Brackets and exponential
# ---------------------------------------------------------------------------

def _integral(f: Filtration, increments: Nodes) -> AdaptedProcess:
    """X_0 = 0 with increments[t - 1][i] on the i-th atom at t >= 1."""
    return AdaptedProcess.from_steps(f, [[ZERO] * len(f.partitions[0]),
                                         *increments])


def bracket(x: AdaptedProcess, y: AdaptedProcess) -> AdaptedProcess:
    """Covariation [X, Y]_t = sum_{s<=t} dX_s dY_s, starting at 0."""
    y = y.on(x.filtration)
    return _integral(x.filtration, [[a * b if a and b else ZERO
                                     for a, b in zip(ra, rb)]
                                    for ra, rb in zip(x.steps[1:],
                                                      y.steps[1:])])


def angle_bracket(x: AdaptedProcess, y: AdaptedProcess,
                  space: FiniteFilteredSpace,
                  filtration: Filtration | None = None) -> AdaptedProcess:
    """Sharp bracket: the compensator of the covariation."""
    return compensator(bracket(x, y), space, filtration)


def stochastic_exponential(x: AdaptedProcess) -> AdaptedProcess:
    """Multiplicative exponential: E(X)_0 = 1, E(X)_t = prod (1 + dX_s).

    Strict positivity holds exactly when every 1 + dX_s > 0; that is
    reported by is_positive(), not enforced here.
    """
    f = x.filtration
    nodes = [[ONE] * len(f.partitions[0])]
    steps = [nodes[0]]
    for t in range(1, len(f.partitions)):
        prev = nodes[-1]
        # E_t = E_{t-1} (1 + dX_t), kept as E_{t-1} + E_{t-1} dX_t
        step = [prev[p] * d if d else ZERO
                for p, d in zip(f.up[t], x.steps[t])]
        steps.append(step)
        nodes.append([prev[p] + s if s else prev[p]
                      for p, s in zip(f.up[t], step)])
    return AdaptedProcess.from_nodes(f, nodes, steps)


def is_positive(x: AdaptedProcess) -> bool:
    return all(v > 0 for row in x.nodes for v in row)


# ---------------------------------------------------------------------------
# Martingale test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MartingaleReport:
    ok: bool
    t: int | None = None
    block: Block | None = None
    drift: Fraction | None = None


def is_martingale(x: AdaptedProcess, space: FiniteFilteredSpace,
                  filtration: Filtration | None = None) -> MartingaleReport:
    """Exact one-step drift test: E[dX_t | t-1] = 0 for every t and atom.

    On failure the witness (t, atom, drift) is returned; the drift is the
    conditional expectation on that atom, not the unnormalized sum.
    """
    f = filtration or space.filtration
    x = x.on(f)
    for t in range(1, len(f.partitions)):
        row = x.steps[t].__getitem__
        for block, kids, mass in zip(f.partitions[t - 1], f.kids[t - 1],
                                     f.masses[t - 1]):
            drift = mass_average(f.masses[t], kids, row, mass)
            if drift:
                return MartingaleReport(False, t, block, drift)
    return MartingaleReport(True)


def require_martingale(x: AdaptedProcess, space: FiniteFilteredSpace,
                       filtration: Filtration | None = None,
                       what: str = "process") -> None:
    report = is_martingale(x, space, filtration)
    if not report.ok:
        raise InternalCheckFailed(
            f"{what} has drift {report.drift} at t={report.t} on {report.block}")
