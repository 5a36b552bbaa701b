"""Exact discrete-time stochastic calculus on finite filtered spaces.

Everything here is exact: atom masses are integers over one common
denominator, and a process holds, per time, one row of integer
numerators over one integer denominator, so conditional averages,
compensators, brackets and stochastic exponentials carry no rounding,
and downstream identity checks can demand bit-identical equality
instead of tolerances.

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

Processes are stored on that tree.  A process holds, per time t, the
values on the atoms of the ``Filtration`` it is adapted to and the
increments from the parent atom, each as a row of int numerators over
one int denominator, the other form derived when first read.  Every row
is normalised once, when it is made: its denominator is the lcm of its
values' reduced denominators, so two processes are equal exactly when
their rows are.  Arithmetic, conditional averages (mass-weighted sums
of numerators, with a parent's mass in the denominator), compensators,
brackets, exponentials and the drift test run on these ints, node by
node.  A ``Fraction`` is made only where a value leaves the engine:
``at``, ``delta``, ``nodes`` and ``steps`` return normalised Fractions
for reports, witnesses and the simplex.

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
from operator import itemgetter
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
            tuple(sorted(map(tuple, map(sorted, p)), key=itemgetter(0)))
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
            prev = masses[-1].__getitem__
            masses.append([sum(map(prev, kids)) for kids in row])
        self.masses: list[list[int]] = masses[::-1]

    @property
    def horizon(self) -> int:
        return len(self.partitions) - 1

    def children(self, t: int, atom: Block) -> tuple[Block, ...]:
        """The atoms at t + 1 inside the time-t atom, in partition order."""
        part = self.partitions[t + 1]
        return tuple(part[c] for c in self.kids[t][self.block_of[t][atom[0]]])


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
# Rows
# ---------------------------------------------------------------------------

Nodes = list[list[Fraction]]
Row = tuple[list[int], int]               # numerators, denominator
Rows = tuple[list[list[int]], list[int]]  # per t: numerators; denominators


def normal(nums: list[int], den: int) -> Row:
    """The row nums / den over the lcm of its values' reduced
    denominators: den and every numerator divided by their gcd."""
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [n // g for n in nums], den // g


def quotients(nums: Sequence[int], dens: Sequence[int]) -> Row:
    """The normal row of the values nums[i] / dens[i], each dens[i] > 0."""
    den = 1
    for n, d in zip(nums, dens):
        if n:
            den = lcm(den, d // gcd(n, d))
    return [n * den // d for n, d in zip(nums, dens)], den


def row_of(values: Iterable) -> Row:
    """Fractions (or ints) as the normal row over the lcm of their
    denominators."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def stack(rows: Iterable[Row]) -> Rows:
    """Per-t rows (numerators, denominator) as (numerator rows,
    denominators)."""
    rows = list(rows)
    return [n for n, _ in rows], [d for _, d in rows]


def add_rows(x: Row, y: Row, sign: int = 1) -> Row:
    """The normal row x + sign * y."""
    (xn, xd), (yn, yd) = x, y
    if xd == yd:
        return normal([a + sign * b for a, b in zip(xn, yn)], xd)
    den = lcm(xd, yd)
    ka, kb = den // xd, sign * (den // yd)
    return normal([a * ka + b * kb for a, b in zip(xn, yn)], den)


def _cumulate(f: Filtration, dnum: list[list[int]], dden: list[int]) -> Rows:
    """Value rows from the time-0 value and the increment rows."""
    rows = [(dnum[0], dden[0])]
    for t in range(1, len(dnum)):
        prev, d = rows[-1]
        rows.append(add_rows(([prev[p] for p in f.up[t]], d),
                             (dnum[t], dden[t])))
    return stack(rows)


def _differences(f: Filtration, num: list[list[int]], den: list[int]) -> Rows:
    """Increment rows from the parent atom (row 0 is the time-0 value)."""
    return stack([(num[0], den[0])] + [
        add_rows((num[t], den[t]),
                 ([num[t - 1][p] for p in f.up[t]], den[t - 1]), -1)
        for t in range(1, len(num))])


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

class AdaptedProcess:
    """Per time t, the value ``_num[t][i] / _den[t]`` on the i-th atom at
    t of the filtration it is adapted to, and its increment
    ``_dnum[t][i] / _dden[t]`` from the parent atom (the increment row
    at 0 is the time-0 value), every row normal.  A process is made from
    either form; the other is derived on first read.  Outcome rows
    become a process through ``adapted``.
    """

    __slots__ = ("filtration", "_num", "_den", "_dnum", "_dden")

    @classmethod
    def from_rows(cls, f: Filtration, num, den, dnum=None, dden=None):
        """The process with the normal value rows num[t] / den[t] on the
        atoms of f at t; its increment rows are derived on first read
        unless given."""
        x = cls.__new__(cls)
        x.filtration, x._num, x._den, x._dnum, x._dden = f, num, den, dnum, dden
        return x

    @classmethod
    def from_step_rows(cls, f: Filtration, dnum, dden):
        """The process with the normal increment rows dnum[t] / dden[t]
        (row 0: the time-0 value)."""
        return cls.from_rows(f, None, None, dnum, dden)

    @classmethod
    def from_nodes(cls, f: Filtration, nodes: Nodes):
        """The process with value nodes[t][i] (a Fraction or int) on the
        i-th atom of f at t."""
        return cls.from_rows(f, *stack(map(row_of, nodes)))

    @classmethod
    def from_steps(cls, f: Filtration, steps: Nodes):
        """The process with time-0 value steps[0] and increment
        steps[t][i] on the i-th atom of f at t >= 1."""
        return cls.from_step_rows(f, *stack(map(row_of, steps)))

    @classmethod
    def from_increments(cls, f: Filtration, step) -> "AdaptedProcess":
        """X_0 = 0 and X_t = X_{t-1} + step(o, t) on the atoms of f: the
        entry for increments given per outcome, as Fractions; step is
        evaluated once per atom at t, on the atom's first outcome."""
        return cls.from_steps(f, [[0] * len(f.partitions[0])] + [
            [step(block[0], t) for block in part]
            for t, part in enumerate(f.partitions) if t])

    @property
    def node_rows(self) -> Rows:
        """(value numerator rows, their denominators), per t."""
        if self._num is None:
            self._num, self._den = _cumulate(self.filtration, self._dnum,
                                             self._dden)
        return self._num, self._den

    @property
    def step_rows(self) -> Rows:
        """(increment numerator rows, their denominators), per t."""
        if self._dnum is None:
            self._dnum, self._dden = _differences(self.filtration, self._num,
                                                  self._den)
        return self._dnum, self._dden

    @property
    def nodes(self) -> Nodes:
        """The values as Fractions, per t and atom."""
        return _fractions(*self.node_rows)

    @property
    def steps(self) -> Nodes:
        """The increments as Fractions, per t and atom."""
        return _fractions(*self.step_rows)

    def at(self, outcome: str, t: int) -> Fraction:
        num, den = self.node_rows
        return Fraction(num[t][self.filtration.block_of[t][outcome]], den[t])

    def delta(self, outcome: str, t: int) -> Fraction:
        num, den = self.step_rows
        return Fraction(num[t][self.filtration.block_of[t][outcome]], den[t])

    def on(self, f: Filtration) -> "AdaptedProcess":
        """This process, read on f, which must be the filtration it was
        built on: any other, even with the same atoms, raises NotAdapted."""
        if f is not self.filtration:
            raise NotAdapted(f"process of {self.filtration.label} read on "
                             f"another filtration ({f.label})")
        return self

    def equals(self, other: "AdaptedProcess") -> bool:
        """The same value at every outcome and time: the same normal
        rows of time-0 values and increments."""
        other = other.on(self.filtration)
        if self._dnum is not None and other._dnum is not None:
            return self._dnum == other._dnum and self._dden == other._dden
        return self.node_rows == other.node_rows

    def _combine(self, other: "AdaptedProcess", sign: int) -> "AdaptedProcess":
        """self + sign * other, on the increments alone."""
        (an, ad), (bn, bd) = self.step_rows, other.on(self.filtration).step_rows
        return AdaptedProcess.from_step_rows(self.filtration, *stack(
            add_rows(x, y, sign) for x, y in zip(zip(an, ad), zip(bn, bd))))

    def __add__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        return self._combine(other, 1)

    def __sub__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        return self._combine(other, -1)

    def __mul__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        (an, ad), (bn, bd) = self.node_rows, other.on(self.filtration).node_rows
        return AdaptedProcess.from_rows(self.filtration, *stack(
            normal([x * y for x, y in zip(ra, rb)], da * db)
            for ra, da, rb, db in zip(an, ad, bn, bd)))


def _fractions(num: list[list[int]], den: list[int]) -> Nodes:
    return [[Fraction(n, d) for n in row] for row, d in zip(num, den)]


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

def mass_average(masses: Sequence[int], idxs: Iterable[int],
                 nums: Sequence[int], den: int,
                 mass: int | None = None) -> tuple[int, int]:
    """The average of the row nums / den over the atoms idxs, weighted by
    their integer masses, as an unreduced pair: sum m[i] nums[i] over
    den times `mass`, which defaults to sum m[i].  The conditional
    average over a set of atoms: the transfer identities, the jump
    functionals and the hat basis reduce to it, and ``parent_sums`` is
    its form over every atom at t - 1 at once."""
    if mass is None:
        idxs = list(idxs)
        mass = sum([masses[i] for i in idxs])
    return sum([masses[i] * nums[i] for i in idxs]), den * mass


def parent_sums(f: Filtration, t: int, nums: Sequence[int]) -> list[int]:
    """Per atom p at t - 1, mass_average's numerator over its children:
    sum m[c] nums[c], so that E[X_t | t - 1] on p is that over den times
    the mass of p for the row nums / den at t.  One pass over the atoms
    at t, for the compensator and the drift test."""
    sums = [0] * len(f.partitions[t - 1])
    for p, m, n in zip(f.up[t], f.masses[t], nums):
        if n:
            sums[p] += m * n
    return sums


def compensator(v: AdaptedProcess, space: FiniteFilteredSpace,
                filtration: Filtration | None = None) -> AdaptedProcess:
    """Dual predictable projection: increment at t is E[dV_t | t-1], and
    the value at 0 is V_0.  V must be on the given filtration (the base
    one by default); V minus the result is a martingale of it."""
    f = filtration or space.filtration
    dnum, dden = v.on(f).step_rows
    out_n, out_d = [dnum[0]], [dden[0]]
    for t in range(1, len(f.partitions)):
        d = dden[t]
        drift, den = quotients(parent_sums(f, t, dnum[t]),
                               [d * mass for mass in f.masses[t - 1]])
        out_n.append([drift[p] for p in f.up[t]])
        out_d.append(den)
    return AdaptedProcess.from_step_rows(f, out_n, out_d)


# ---------------------------------------------------------------------------
# Brackets and exponential
# ---------------------------------------------------------------------------

def integral(f: Filtration, rows: Iterable[Row]) -> AdaptedProcess:
    """X_0 = 0 with the normal increment row rows[t - 1] at t >= 1."""
    return AdaptedProcess.from_step_rows(
        f, *stack([([0] * len(f.partitions[0]), 1), *rows]))


def bracket(x: AdaptedProcess, y: AdaptedProcess) -> AdaptedProcess:
    """Covariation [X, Y]_t = sum_{s<=t} dX_s dY_s, starting at 0."""
    (xn, xd), (yn, yd) = x.step_rows, y.on(x.filtration).step_rows
    return integral(x.filtration, [
        normal([a * b for a, b in zip(ra, rb)], da * db)
        for ra, da, rb, db in zip(xn[1:], xd[1:], yn[1:], yd[1:])])


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
    dnum, dden = x.step_rows
    num, den = [[1] * len(f.partitions[0])], [1]
    for t in range(1, len(f.partitions)):
        # E_t = E_{t-1} (1 + dX_t) = E_{t-1} (d + n) / d for dX_t = n / d
        prev, d = num[-1], dden[t]
        row, rd = normal([prev[p] * (d + n) for p, n in zip(f.up[t], dnum[t])],
                         den[-1] * d)
        num.append(row)
        den.append(rd)
    return AdaptedProcess.from_rows(f, num, den)


def is_positive(x: AdaptedProcess) -> bool:
    return all(n > 0 for row in x.node_rows[0] for n in row)


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
    dnum, dden = x.on(f).step_rows
    for t in range(1, len(f.partitions)):
        sums = parent_sums(f, t, dnum[t])
        if any(sums):
            p = next(p for p, s in enumerate(sums) if s)
            return MartingaleReport(False, t, f.partitions[t - 1][p],
                                    Fraction(sums[p],
                                             dden[t] * f.masses[t - 1][p]))
    return MartingaleReport(True)


def require_martingale(x: AdaptedProcess, space: FiniteFilteredSpace,
                       filtration: Filtration | None = None,
                       what: str = "process") -> None:
    report = is_martingale(x, space, filtration)
    if not report.ok:
        raise InternalCheckFailed(
            f"{what} has drift {report.drift} at t={report.t} on {report.block}")
