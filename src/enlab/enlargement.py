"""Transfer formulas between the base filtration and its progressive
enlargement by an honest time, and the explicit deflator construction.

Every operation here computes its target two independent ways, from
first principles on the enlarged atoms and through the closed-form
transfer expression, and the two are compared with zero tolerance.  A
check returns the places where they differ as violations, one dict each
naming the identity, the step t, the atom and the two sides (lhs, rhs);
the constructors (hat_transform, build_deflator) raise instead.  The
"strictly after" region is the set of increments at t with t - 1 >= tau:
on it, the enlarged time-(t-1) atom inside a base atom B is the single
set B & {tau <= t-1} (honesty pins the past value), which is what makes
the formulas exact theorems of the finite model rather than
discretizations.

Both ways run on integers: the rows of the processes they read (int
numerators over one denominator per time), the integer atom masses of
both filtrations, and the analysis' node map, which takes each enlarged
atom to the base atom holding it.  A side that is a single value is kept
as an unreduced (numerator, denominator) pair and the two sides are
compared by cross-multiplication; a ``Fraction`` is made only for a
violation's report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionGuard, InternalCheckFailed, NotClassH, NotHonest
from .finite_prob import (
    AdaptedProcess,
    Block,
    Filtration,
    MartingaleReport,
    Row,
    add_rows,
    angle_bracket,
    compensator,
    integral,
    is_martingale,
    mass_average,
    normal,
    quotients,
    require_martingale,
    stochastic_exponential,
)
from .random_times import RandomTimeAnalysis


def _require_class_h(analysis: RandomTimeAnalysis) -> None:
    if not analysis.honest:
        raise NotHonest("the random time is not honest")
    if not analysis.class_h:
        raise NotClassH("survival at the time is not strictly below one")


@dataclass(frozen=True)
class AfterAtom:
    """The enlarged predictable atom strictly after the time: at step t,
    the members of base atom `base` with tau <= t - 1."""

    t: int
    base: Block
    members: Block


def after_atoms(analysis: RandomTimeAnalysis) -> list[AfterAtom]:
    """The after-atoms in (t, base atom) order: the pinned group of each
    base atom at t - 1 in the analysis' split, where there is one."""
    f = analysis.space.filtration
    out = []
    for t in range(1, f.horizon + 1):
        for base, (pinned, _) in zip(f.partitions[t - 1],
                                     analysis.split[t - 1]):
            if len(pinned) > 1:
                raise NotHonest(
                    f"past value not pinned on {base} at t={t - 1}")
            out.extend(AfterAtom(t, base, members) for members in pinned)
    return out


# ---------------------------------------------------------------------------
# Rows on the strictly-after region
# ---------------------------------------------------------------------------

def left_row(x: AdaptedProcess, f: Filtration, t: int) -> Row:
    """The values of x at t - 1 read on the atoms of f at t: each
    atom's parent value."""
    num, den = x.node_rows
    prev = num[t - 1]
    return [prev[p] for p in f.up[t]], den[t - 1]


def after_quotients(analysis: RandomTimeAnalysis, t: int, x: Row, y: Row,
                    what: str) -> Row:
    """The base row at t of x[c] / y[c] on the atoms holding an enlarged
    atom strictly after the time (``after_nodes[t]``), and 0 elsewhere,
    where the row is not read; a zero y[c] there raises DivisionGuard,
    naming `what` and the atom's first outcome."""
    (xn, xd), (yn, yd) = x, y
    nums, dens = [0] * len(xn), [1] * len(xn)
    for c in analysis.after_nodes[t]:
        if not yn[c]:
            block = analysis.space.filtration.partitions[t][c]
            raise DivisionGuard(f"{what} at ({block[0]}, {t})")
        nums[c] = xn[c] * yd
        dens[c] = xd * yn[c]
    return quotients(nums, dens)


# ---------------------------------------------------------------------------
# Martingale transform into the enlarged filtration
# ---------------------------------------------------------------------------

def hat_transform(mart: AdaptedProcess, analysis: RandomTimeAnalysis
                  ) -> AdaptedProcess:
    """Strictly-after part of a base martingale plus the drift repair
    against the fundamental martingale; the result is checked to be a
    martingale of the enlarged filtration and that check is a hard
    assertion, not a report.
    """
    return _hat(mart, analysis)[1]


def _hat(mart: AdaptedProcess, analysis: RandomTimeAnalysis
         ) -> tuple[list[Row], AdaptedProcess]:
    """(the base rows of the hat increments dM + d<M, m> / gap_left,
    read after the time, and the checked hat transform)."""
    _require_class_h(analysis)
    space = analysis.space
    f = space.filtration
    num, den = mart.on(f).step_rows
    require_martingale(mart, space, what="hat_transform input")
    snum, sden = angle_bracket(mart, analysis.fundamental_martingale,
                               space).step_rows
    rows = [add_rows((num[t], den[t]), after_quotients(
        analysis, t, (snum[t], sden[t]), left_row(analysis.gap, f, t),
        "unit survival_left strictly after tau"))
        for t in range(1, f.horizon + 1)]
    hat = analysis.after_integral(rows)
    require_martingale(hat, space, analysis.enlarged,
                       what="hat_transform output")
    return rows, hat


# ---------------------------------------------------------------------------
# Compensators across filtrations
# ---------------------------------------------------------------------------

def g_compensator_after(v: AdaptedProcess, analysis: RandomTimeAnalysis
                        ) -> list[dict]:
    """Enlarged compensator of the strictly-after part of a base
    finite-variation process, against its closed-form expression through
    base-compensators; also runs the weighted mode, where the integrand
    carries 1/(1 - inclusive survival).  Returns the nodes where the two
    sides differ, as violations ([] when both modes hold).

    On the strictly-after region the inclusive supermartingale sits below
    one on a full-support space, so the weight is well defined; a unit
    value trips the division guard, which the theory says is unreachable.
    """
    _require_class_h(analysis)
    space = analysis.space
    f = space.filtration
    enlarged = analysis.enlarged
    v = v.on(f)
    T = f.horizon

    direct = compensator(analysis.after_part(v), space, enlarged)

    vn, vd = v.step_rows
    gin, gid = analysis.gap_incl.node_rows
    # base-compensator of (1 - inclusive survival) . V, rescaled after tau
    inner = compensator(integral(f, [
        normal([a * b for a, b in zip(gin[t], vn[t])], gid[t] * vd[t])
        for t in range(1, T + 1)]), space)
    # ... and of V where the inclusive survival is below one
    gated = compensator(integral(f, [
        normal([n if g else 0 for n, g in zip(vn[t], gin[t])], vd[t])
        for t in range(1, T + 1)]), space)

    def over_left_gap(x: AdaptedProcess) -> AdaptedProcess:
        num, den = x.step_rows
        return analysis.after_integral([
            after_quotients(analysis, t, (num[t], den[t]),
                            left_row(analysis.gap, f, t),
                            "unit survival_left strictly after tau")
            for t in range(1, T + 1)])

    via_formula = over_left_gap(inner)
    u_process = analysis.after_integral([
        after_quotients(analysis, t, (vn[t], vd[t]), (gin[t], gid[t]),
                        "inclusive survival is one strictly after tau")
        for t in range(1, T + 1)])
    u_direct = compensator(u_process, space, enlarged)
    u_via_formula = over_left_gap(gated)

    violations = []
    for name, lhs, rhs in (("compensator", direct, via_formula),
                           ("weighted_compensator", u_direct, u_via_formula)):
        if not lhs.equals(rhs):
            # each node, (t, atom at t), where the increments differ
            violations += [
                {"identity": name, "t": t,
                 "atom": list(enlarged.partitions[t][i]),
                 "lhs": str(Fraction(a, da)), "rhs": str(Fraction(b, db))}
                for t, (ra, da, rb, db) in enumerate(zip(*lhs.step_rows,
                                                         *rhs.step_rows))
                for i, (a, b) in enumerate(zip(ra, rb)) if a * db != b * da]
    return violations


# ---------------------------------------------------------------------------
# Transfer identities on the after region
# ---------------------------------------------------------------------------

def transfer_rows(analysis: RandomTimeAnalysis, atom: AfterAtom, integrands,
                  names: tuple[str, str, str]
                  ) -> list[tuple[str, tuple[int, int], tuple[int, int]]]:
    """The transfer identities on one after-atom A inside its base atom B,
    as (identity, lhs, rhs) triples, each side an unreduced (numerator,
    denominator) pair.  With gap = 1 - survival_left on B and incl the
    inclusive survival at the step, each integrand g gives

        names[0]:  avg_A(g)              = avg_B((1 - incl) g) / gap
        names[1]:  avg_A(g / (1 - incl)) = avg_B(g 1{incl < 1}) / gap

    and names[2] is the g = 1 case of the second, once per atom.  Each
    integrand is a time-t row (numerators, denominator) on the children
    of B, in their order; the enlarged side reads it, through the node
    map, at the child holding each enlarged child of A.  A unit
    inclusive survival on A trips the division guard.  Both sides are
    mass_average sums with integer weights: the mass of A's enlarged
    child in each child c of B, over the mass of A; the mass of c, or
    (1 - incl) times it, over gap times the mass of B.
    """
    base_f, enlarged = analysis.space.filtration, analysis.enlarged
    t, base, members = atom.t, atom.base, atom.members
    b = base_f.block_of[t - 1][base[0]]
    kids = base_f.kids[t - 1][b]
    masses = [base_f.masses[t][c] for c in kids]
    gn, gd = analysis.gap.node_rows
    gap_mass = gn[t - 1][b] * base_f.masses[t - 1][b] // gd[t - 1]
    gin, gid = analysis.gap_incl.node_rows
    # (1 - incl) m_c >= 0 on each child c of B, positive exactly where
    # incl < 1
    before = [gin[t][c] * m // gid[t] for c, m in zip(kids, masses)]
    alive = [k for k, m in enumerate(before) if m]
    # the mass of A's enlarged child in each child of B; 1/(1 - incl) at
    # those children, over the product of their before masses
    a = enlarged.block_of[t - 1][members[0]]
    a_mass = enlarged.masses[t - 1][a]
    where = {c: k for k, c in enumerate(kids)}
    in_a, common = [0] * len(kids), 1
    for j in enlarged.kids[t - 1][a]:
        k = where[analysis.node_map[0][t][j]]
        if not before[k]:
            raise DivisionGuard(f"inclusive survival one at "
                                f"({enlarged.partitions[t][j][0]}, {t})")
        in_a[k] = enlarged.masses[t][j]
        common *= before[k]
    over_incl = [m and m * masses[k] * (common // before[k])
                 for k, m in enumerate(in_a)]
    every = range(len(kids))
    weighted, over_gap, one_over_gap = names

    rows = []
    for nums, den in integrands:
        rows.append((weighted, mass_average(in_a, every, nums, den, a_mass),
                     mass_average(before, every, nums, den, gap_mass)))
        rows.append((over_gap,
                     mass_average(over_incl, every, nums, den,
                                  a_mass * common),
                     mass_average(masses, alive, nums, den, gap_mass)))
    ones = [1] * len(kids)
    rows.append((one_over_gap,
                 mass_average(over_incl, every, ones, 1, a_mass * common),
                 mass_average(masses, alive, ones, 1, gap_mass)))
    return rows


def transfer_check(analysis: RandomTimeAnalysis, integrands,
                   names: tuple[str, str, str]) -> list[dict]:
    """The transfer identities of `transfer_rows` on every after-atom,
    with integrands(atom, kids) the integrands there, as rows on kids,
    the children of its base atom; returns the rows whose two sides
    differ, as violations naming the step and the after-atom."""
    f = analysis.space.filtration
    violations = []
    for atom in after_atoms(analysis):
        kids = f.kids[atom.t - 1][f.block_of[atom.t - 1][atom.base[0]]]
        for name, lhs, rhs in transfer_rows(analysis, atom,
                                            integrands(atom, kids), names):
            if lhs[0] * rhs[1] != rhs[0] * lhs[1]:
                violations.append({"identity": name, "t": atom.t,
                                   "atom": list(atom.members),
                                   "lhs": str(Fraction(*lhs)),
                                   "rhs": str(Fraction(*rhs))})
    return violations


def proj_identity_check(mart: AdaptedProcess, analysis: RandomTimeAnalysis
                        ) -> list[dict]:
    """The transfer identities for the increment of a base martingale on
    every after-tau predictable atom: the enlarged projections of dM, of
    dM/(1 - inclusive) and of 1/(1 - inclusive), each against its base
    form divided by the left survival gap.  Returns the violated ones.
    """
    _require_class_h(analysis)
    num, den = mart.on(analysis.space.filtration).step_rows
    return transfer_check(
        analysis,
        lambda atom, kids: [([num[atom.t][c] for c in kids], den[atom.t])],
        ("weighted_jump", "jump_over_gap", "one_over_gap"))


# ---------------------------------------------------------------------------
# Jump functionals and predictable characteristics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpFunctionals:
    """Per (t, base atom B at t-1 with an after-atom): the mass of B and,
    per nonzero jump size x of the asset in increasing order, the triple
    (numerator of x, mass of its fibre, the fibre's mass-weighted sum of
    the fundamental-martingale increment numerators), where the fibre of
    x is the children of B where the asset jumps by x (``fibres``); the
    denominators are the step denominators at t of the asset
    (``asset_den``) and of the martingale (``mart_den``).  ``law`` and
    ``mart_mean`` read them as Fractions: the base jump law P(dS = x |
    B), empty where the asset does not jump, and the conditional mean of
    the martingale increment on each fibre.  The enlarged density reads
    both on after-atoms only."""

    fibres: dict[tuple[int, Block], tuple[int, list[tuple[int, int, int]]]]
    asset_den: list[int]
    mart_den: list[int]

    @property
    def law(self) -> dict[tuple[int, Block], dict[Fraction, Fraction]]:
        return {(t, base): {Fraction(x, self.asset_den[t]): Fraction(m, mass)
                            for x, m, _ in sizes}
                for (t, base), (mass, sizes) in self.fibres.items()}

    @property
    def mart_mean(self) -> dict[tuple[int, Block, Fraction], Fraction]:
        return {(t, base, Fraction(x, self.asset_den[t])):
                Fraction(s, self.mart_den[t] * m)
                for (t, base), (_, sizes) in self.fibres.items()
                for x, m, s in sizes}


def jump_functionals(asset: AdaptedProcess, analysis: RandomTimeAnalysis
                     ) -> JumpFunctionals:
    f = analysis.space.filtration
    an, ad = asset.on(f).step_rows
    fn, fd = analysis.fundamental_martingale.step_rows
    fibres = {}
    for t in range(1, f.horizon + 1):
        masses = f.masses[t]
        for base, kids, mass, (pinned, _) in zip(
                f.partitions[t - 1], f.kids[t - 1], f.masses[t - 1],
                analysis.split[t - 1]):
            if not pinned:
                continue
            # the fibre of a jump size: the children of the base atom
            # where the asset makes that jump
            by_size: dict[int, list[int]] = {}
            for c in kids:
                if an[t][c]:
                    by_size.setdefault(an[t][c], []).append(c)
            fibres[(t, base)] = (mass, [
                (x, sum([masses[c] for c in cs]),
                 mass_average(masses, cs, fn[t], 1, 1)[0])
                for x, cs in sorted(by_size.items())])
    return JumpFunctionals(fibres, ad, fd)


def g_characteristics(asset: AdaptedProcess, analysis: RandomTimeAnalysis
                      ) -> list[dict]:
    """Enlarged jump compensator of the strictly-after jump measure, per
    after-atom and jump size x: from first principles (lhs) and through
    the density 1 - mart_mean/(left gap) against the base jump law (rhs).
    Returns the pairs where the two differ, as violations.  Where they
    agree the kernel is a conditional law of disjoint jump events
    (density >= 0, mass <= 1), because the first-principles side is one.
    """
    _require_class_h(analysis)
    f = analysis.space.filtration
    asset = asset.on(f)
    enlarged = analysis.enlarged
    jf = jump_functionals(asset, analysis)
    an = asset.step_rows[0]
    gn, gd = analysis.gap.node_rows
    base_of = analysis.node_map[0]

    violations = []
    for atom in after_atoms(analysis):
        t, base, members = atom.t, atom.base, atom.members
        left = gn[t - 1][f.block_of[t - 1][base[0]]]
        a = enlarged.block_of[t - 1][members[0]]
        a_mass = enlarged.masses[t - 1][a]
        # (mass, asset jump numerator) of each enlarged child of A
        children = [(enlarged.masses[t][j], an[t][base_of[t][j]])
                    for j in enlarged.kids[t - 1][a]]
        mass, sizes = jf.fibres[(t, base)]
        md = jf.mart_den[t]
        for x, m, s in sizes:
            # P(dS = x | A), against (1 - s/(md m) / left_gap) m/mass
            direct = sum([c for c, y in children if y == x]), a_mass
            via_formula = (md * m * left - s * gd[t - 1],
                           md * left * mass)
            if direct[0] * via_formula[1] != via_formula[0] * direct[1]:
                violations.append({"identity": "jump_kernel", "t": t,
                                   "atom": list(members),
                                   "x": str(Fraction(x, jf.asset_den[t])),
                                   "lhs": str(Fraction(*direct)),
                                   "rhs": str(Fraction(*via_formula))})
    return violations


# ---------------------------------------------------------------------------
# Deflator construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeflatorBundle:
    weight: AdaptedProcess             # nondecreasing squared-increment load
    weight_comp: AdaptedProcess        # its enlarged compensator
    driver: AdaptedProcess             # enlarged local-martingale driver
    deflator: AdaptedProcess           # stochastic exponential of the driver


def build_deflator(analysis: RandomTimeAnalysis) -> DeflatorBundle:
    """Assemble the deflator: strictly-after transform of the fundamental
    martingale, the squared-increment weight normalized by both survival
    gaps, minus its enlarged compensator.  Certifies 1 + increment > 0
    everywhere, zero before the time, and the closed-form jump identity
    1 + d(driver) = gap_left/gap_incl + base projection of the pinned
    indicator, all exactly.
    """
    _require_class_h(analysis)
    space = analysis.space
    f, enlarged = space.filtration, analysis.enlarged
    T = space.horizon
    fund = analysis.fundamental_martingale
    gn, gd = analysis.gap.node_rows
    gin, gid = analysis.gap_incl.node_rows
    fn, fd = fund.step_rows
    times = range(1, T + 1)
    left = [left_row(analysis.gap, f, t) for t in times]

    hat_rows, _ = _hat(fund, analysis)
    weight_rows = [after_quotients(
        analysis, t, ([n * n for n in fn[t]], fd[t] * fd[t]),
        ([a * b for a, b in zip(gaps, gin[t])], d * gid[t]),
        "survival gap vanished after tau")
        for t, (gaps, d) in zip(times, left)]
    weight = analysis.after_integral(weight_rows)
    weight_comp = compensator(weight, space, enlarged)
    # hat / gap_left + weight after the time, less the compensator
    driver = analysis.after_integral([
        add_rows(after_quotients(analysis, t, hat, gaps,
                                 "unit survival_left strictly after tau"), w)
        for t, hat, gaps, w in zip(times, hat_rows, left, weight_rows)]
    ) - weight_comp

    after = analysis.node_map[1]
    dn, dd = driver.step_rows
    for t in times:
        masses = f.masses[t]
        # base predictable projection of the pinned indicator, as the
        # mass of the children where the inclusive survival is one, per
        # base atom at t - 1 that holds an after-atom (the jump identity
        # reads it strictly after the time only)
        pinned = {p: sum([masses[k] for k in f.kids[t - 1][p]
                          if not gin[t][k]])
                  for p in {f.up[t][c] for c in analysis.after_nodes[t]}}
        for block, n, c in zip(enlarged.partitions[t], dn[t], after[t]):
            o = block[0]
            if n <= -dd[t]:
                raise InternalCheckFailed(
                    f"driver increment at or below -1 at ({o}, {t})")
            if c >= 0:
                # 1 + n/dd = gap_left/gap_incl + pinned/mass, cross-multiplied
                p = f.up[t][c]
                mass, left, incl = f.masses[t - 1][p], gn[t - 1][p], gin[t][c]
                if ((dd[t] + n) * gd[t - 1] * incl * mass
                        != dd[t] * (left * gid[t] * mass
                                    + pinned[p] * gd[t - 1] * incl)):
                    raise InternalCheckFailed(
                        f"driver jump identity fails at ({o}, {t})")
            elif n:
                raise InternalCheckFailed(
                    f"driver moves before the time at ({o}, {t})")

    return DeflatorBundle(weight, weight_comp, driver,
                          stochastic_exponential(driver))


@dataclass(frozen=True)
class DeflatorVerifyReport:
    hypothesis_holds: bool
    conclusion_holds: bool
    conclusion_witness: MartingaleReport


def deflator_verify(mart: AdaptedProcess, bundle: DeflatorBundle,
                    analysis: RandomTimeAnalysis) -> DeflatorVerifyReport:
    """Empirical harvest of the deflator theorem on one base martingale:
    hypothesis = the jump-set part of the martingale is itself a base
    martingale; conclusion = deflator times the strictly-after part is an
    enlarged martingale.  No implication between the two is asserted:
    the pair is reported as data.

    In discrete time the pinned term is the whole obstruction.  For a
    base atom B at t - 1 with after-atom A, gap_B = 1 - Z_{t-1} on B,
    pi_B = P(J_t | B) the probability of the jump set at t given B,
    E[.; E] the p-weighted sum over E and X = M - M^tau, exactly

        E[d(D X)_t ; A] = D_{t-1}(A) (pi_B E[dM_t ; A]
                                      - gap_B E[dM_t ; B & J_t]),

    so under the hypothesis the conclusion holds exactly when
    pi_B E[dM_t ; A] = 0 at every such B; quasi-left-continuity removes
    the pinned term only in the continuous-time limit.
    """
    space = analysis.space
    mart = mart.on(space.filtration)
    require_martingale(mart, space, what="deflator_verify input")

    hypothesis = is_martingale(analysis.jump_part(mart), space)

    conclusion = is_martingale(bundle.deflator * analysis.after_part(mart),
                               space, analysis.enlarged)

    return DeflatorVerifyReport(hypothesis.ok, conclusion.ok, conclusion)
