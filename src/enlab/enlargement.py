"""Transfer formulas between the base filtration and its progressive
enlargement by an honest time, and the explicit deflator construction.

Every operation here computes its target two independent ways, from
first principles on the enlarged atoms and through the closed-form
transfer expression, and the two are compared with zero tolerance.  The
"strictly after" region is the set of increments at t with t - 1 >= tau:
on it, the enlarged time-(t-1) atom inside a base atom B is the single
set B & {tau <= t-1} (honesty pins the past value), which is what makes
the formulas exact theorems of the finite model rather than
discretizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionGuard, InternalCheckFailed, NotClassH, NotHonest
from .finite_prob import (
    ONE,
    ZERO,
    AdaptedProcess,
    Block,
    MartingaleReport,
    angle_bracket,
    compensator,
    cond_average,
    is_martingale,
    mass_average,
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
# Martingale transform into the enlarged filtration
# ---------------------------------------------------------------------------

def hat_transform(mart: AdaptedProcess, analysis: RandomTimeAnalysis
                  ) -> AdaptedProcess:
    """Strictly-after part of a base martingale plus the drift repair
    against the fundamental martingale; the result is checked to be a
    martingale of the enlarged filtration and that check is a hard
    assertion, not a report.
    """
    _require_class_h(analysis)
    space = analysis.space
    mart = mart.on(space.filtration)
    require_martingale(mart, space, what="hat_transform input")
    sharp = angle_bracket(mart, analysis.fundamental_martingale, space)

    def increments(o: str, t: int) -> Fraction:
        gap = 1 - analysis.survival.at(o, t - 1)
        if gap == 0:
            raise DivisionGuard(f"unit survival_left strictly after tau "
                                f"at ({o}, {t})")
        return mart.delta(o, t) + sharp.delta(o, t) / gap

    hat = analysis.after_integral(increments)
    require_martingale(hat, space, analysis.enlarged,
                       what="hat_transform output")
    return hat


# ---------------------------------------------------------------------------
# Compensators across filtrations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompensatorComparison:
    direct: AdaptedProcess
    via_formula: AdaptedProcess
    u_direct: AdaptedProcess
    u_via_formula: AdaptedProcess


def g_compensator_after(v: AdaptedProcess, analysis: RandomTimeAnalysis
                        ) -> CompensatorComparison:
    """Enlarged compensator of the strictly-after part of a base
    finite-variation process, against its closed-form expression through
    base-compensators; also runs the weighted mode, where the integrand
    carries 1/(1 - inclusive survival).

    On the strictly-after region the inclusive supermartingale sits below
    one on a full-support space, so the weight is well defined; a unit
    value trips the division guard, which the theory says is unreachable.
    """
    _require_class_h(analysis)
    space = analysis.space
    enlarged = analysis.enlarged
    v = v.on(space.filtration)

    direct = compensator(analysis.after_part(v), space, enlarged)

    # base-compensator of (1 - inclusive survival) . V, rescaled after tau
    weighted = AdaptedProcess.from_increments(
        space.filtration,
        step=lambda o, t: (1 - analysis.survival_incl.at(o, t)) * v.delta(o, t))
    inner = compensator(weighted, space)
    via_formula = analysis.after_integral(
        lambda o, t: inner.delta(o, t) / (1 - analysis.survival.at(o, t - 1)))

    def incl_gap(o: str, t: int) -> Fraction:
        gap = 1 - analysis.survival_incl.at(o, t)
        if gap == 0:
            raise DivisionGuard(f"inclusive survival is one strictly after "
                                f"tau at ({o}, {t})")
        return gap

    u_process = analysis.after_integral(
        lambda o, t: v.delta(o, t) / incl_gap(o, t))
    u_direct = compensator(u_process, space, enlarged)

    gated = AdaptedProcess.from_increments(
        space.filtration,
        step=lambda o, t: (v.delta(o, t) if analysis.survival_incl.at(o, t) < 1
                           else ZERO))
    gated_comp = compensator(gated, space)
    u_via_formula = analysis.after_integral(
        lambda o, t: gated_comp.delta(o, t) / (1 - analysis.survival.at(o, t - 1)))

    if not (direct.equals(via_formula) and u_direct.equals(u_via_formula)):
        raise InternalCheckFailed("compensator transfer mismatch")
    return CompensatorComparison(direct, via_formula, u_direct, u_via_formula)


# ---------------------------------------------------------------------------
# Transfer identities on the after region
# ---------------------------------------------------------------------------

def _scaled(mass: int, p: Fraction) -> int:
    """mass * p for the conditional probability p of an event given an
    atom of integer mass `mass`: an integer, because the denominator of
    p divides the atom's mass."""
    return p.numerator * (mass // p.denominator)


def transfer_rows(analysis: RandomTimeAnalysis, atom: AfterAtom, integrands,
                  names: tuple[str, str, str]
                  ) -> list[tuple[str, Fraction, Fraction]]:
    """The transfer identities on one after-atom A inside its base atom B,
    as (identity, lhs, rhs) triples.  With gap = 1 - survival_left on B
    and incl the inclusive survival at the step, each integrand g gives

        names[0]:  avg_A(g)              = avg_B((1 - incl) g) / gap
        names[1]:  avg_A(g / (1 - incl)) = avg_B(g 1{incl < 1}) / gap

    and names[2] is the g = 1 case of the second, once per atom.  Each
    integrand is a time-t quantity, evaluated once per child atom of A
    (in the enlarged filtration) and of B (in the base one).  A unit
    inclusive survival on A trips the division guard.

    The base side runs on integer masses: gap times the mass of B, and
    (1 - incl) times the mass of a child c of B (its "before" mass), are
    integers, so avg_B((1 - incl) g) / gap is the before-mass-weighted
    sum of g over gap times the mass of B.
    """
    base_f, enlarged = analysis.space.filtration, analysis.enlarged
    t, base, members = atom.t, atom.base, atom.members
    up = base_f.block_of[t - 1][base[0]]
    gap_mass = base_f.masses[t - 1][up] - _scaled(
        base_f.masses[t - 1][up], analysis.survival.at(base[0], t - 1))
    look = base_f.block_of[t]
    part = base_f.partitions[t]
    kids = base_f.kids[t - 1][up]
    masses = base_f.masses[t]
    after_children = enlarged.children(t - 1, members)
    # (1 - incl) m_c >= 0 on each child c of B, positive exactly where
    # incl < 1
    before = {c: masses[c] - _scaled(
        masses[c], analysis.survival_incl.at(part[c][0], t)) for c in kids}
    alive_kids = [c for c in kids if before[c]]
    weighted, over_gap, one_over_gap = names

    def over_incl_gap(o: str) -> Fraction:
        c = look[o]
        if not before[c]:
            raise DivisionGuard(f"inclusive survival one at ({o}, {t})")
        return Fraction(masses[c], before[c])

    def avg_a(g) -> Fraction:
        return cond_average(enlarged, t, after_children, g)

    def avg_b_over_gap(weights, idxs, g) -> Fraction:
        return mass_average(weights, idxs, lambda c: g(part[c][0]),
                            gap_mass)

    rows = []
    for g in integrands:
        rows.append((weighted, avg_a(g), avg_b_over_gap(before, kids, g)))
        rows.append((
            over_gap, avg_a(lambda o: g(o) * over_incl_gap(o)),
            avg_b_over_gap(masses, alive_kids, g)))
    rows.append((
        one_over_gap, avg_a(over_incl_gap),
        avg_b_over_gap(masses, alive_kids, lambda o: ONE)))
    return rows


@dataclass(frozen=True)
class ProjIdentityRow:
    t: int
    atom: Block
    lhs: Fraction
    rhs: Fraction
    identity: str


@dataclass(frozen=True)
class ProjIdentityReport:
    rows: tuple[ProjIdentityRow, ...]


def proj_identity_check(mart: AdaptedProcess, analysis: RandomTimeAnalysis
                        ) -> ProjIdentityReport:
    """The transfer identities for the increment of a base martingale on
    every after-tau predictable atom: the enlarged projections of dM, of
    dM/(1 - inclusive) and of 1/(1 - inclusive), each against its base
    form divided by the left survival gap.
    """
    _require_class_h(analysis)
    mart = mart.on(analysis.space.filtration)
    rows = []
    for atom in after_atoms(analysis):
        for name, lhs, rhs in transfer_rows(
                analysis, atom, (lambda o, t=atom.t: mart.delta(o, t),),
                ("weighted_jump", "jump_over_gap", "one_over_gap")):
            rows.append(ProjIdentityRow(atom.t, atom.members, lhs, rhs, name))
    if any(r.lhs != r.rhs for r in rows):
        raise InternalCheckFailed("projection identity mismatch")
    return ProjIdentityReport(tuple(rows))


# ---------------------------------------------------------------------------
# Jump functionals and predictable characteristics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpFunctionals:
    """Per (t, base atom at t-1, jump size): conditional mean of the
    fundamental-martingale increment on the jump fibre (mart_mean) and
    the conditional probability that the inclusive supermartingale is
    below one there (alive_prob).  Per (t, base atom): the base jump law
    P(dS = x | B) over the nonzero sizes x, in increasing order (law;
    empty where the asset does not jump)."""

    mart_mean: dict[tuple[int, Block, Fraction], Fraction]
    alive_prob: dict[tuple[int, Block, Fraction], Fraction]
    support: tuple[tuple[int, Block, Fraction], ...]
    law: dict[tuple[int, Block], dict[Fraction, Fraction]]


def jump_functionals(asset: AdaptedProcess, analysis: RandomTimeAnalysis
                     ) -> JumpFunctionals:
    f = analysis.space.filtration
    asset = asset.on(f)
    incl = analysis.survival_incl
    fund = analysis.fundamental_martingale
    mart_mean = {}
    alive_prob = {}
    support = []
    law = {}
    for t in range(1, f.horizon + 1):
        for base in f.partitions[t - 1]:
            # the fibre of a jump size: the children of the base atom
            # where the asset makes that jump
            fibres: dict[Fraction, list[Block]] = {}
            for child in f.children(t - 1, base):
                x = asset.delta(child[0], t)
                if x != 0:
                    fibres.setdefault(x, []).append(child)
            left = analysis.survival.at(base[0], t - 1)
            base_mass = f.masses[t - 1][f.block_of[t - 1][base[0]]]
            base_law = law[(t, base)] = {}
            for x, members in sorted(fibres.items()):
                key = (t, base, x)
                support.append(key)
                mass = sum(f.masses[t][f.block_of[t][child[0]]]
                           for child in members)
                base_law[x] = Fraction(mass, base_mass)
                mean = cond_average(f, t, members, lambda o: fund.delta(o, t))
                alive = cond_average(
                    f, t, members,
                    lambda o: ONE if incl.at(o, t) < 1 else ZERO)
                mart_mean[key] = mean
                alive_prob[key] = alive
                # exact set identity on the support:
                # {alive = 0} = {left + mean = 1}, contained in the set
                # where the inclusive supermartingale is pinned at one
                rest = 1 - left - mean
                if (alive == 0) != (rest == 0):
                    raise InternalCheckFailed(f"jump-set identity fails at {key}")
                if not 0 <= rest <= alive:
                    raise InternalCheckFailed(f"jump-mean bound fails at {key}")
                if alive == 0 and any(incl.at(child[0], t) != 1
                                      for child in members):
                    raise InternalCheckFailed(
                        f"dead fibre not pinned at one at {key}")
    return JumpFunctionals(mart_mean, alive_prob, tuple(support), law)


@dataclass(frozen=True)
class CharTuple:
    """Predictable characteristics on the un-truncated convention
    (identity truncation): drift per unit time step equals the first
    moment of the jump kernel and there is no continuous part.  The
    clock is the step counter, restricted after the time for the
    enlarged tuple, whose keys are after-atoms."""

    drift: dict[tuple[int, Block], Fraction]
    kernel: dict[tuple[int, Block], dict[Fraction, Fraction]]


@dataclass(frozen=True)
class GCharReport:
    direct: dict[tuple[int, Block, Fraction], Fraction]
    via_formula: dict[tuple[int, Block, Fraction], Fraction]
    char_base: CharTuple
    char_enlarged: CharTuple


def g_characteristics(asset: AdaptedProcess, analysis: RandomTimeAnalysis
                      ) -> GCharReport:
    """Enlarged jump compensator of the strictly-after jump measure, from
    first principles on after atoms and through the density
    1 - mart_mean/(left gap) against the base kernel; exact equality is
    asserted.  Also returns both predictable characteristic tuples.
    """
    _require_class_h(analysis)
    asset = asset.on(analysis.space.filtration)
    enlarged = analysis.enlarged
    jf = jump_functionals(asset, analysis)

    char_base = CharTuple({key: sum(x * p for x, p in law.items())
                           for key, law in jf.law.items()}, jf.law)

    direct = {}
    via_formula = {}
    g_drift = {}
    g_kernel = {}
    for atom in after_atoms(analysis):
        t, base, members = atom.t, atom.base, atom.members
        left_gap = 1 - analysis.survival.at(base[0], t - 1)
        children = enlarged.children(t - 1, members)
        law = {}
        for x, p in jf.law[(t, base)].items():
            density = 1 - jf.mart_mean[(t, base, x)] / left_gap
            law[x] = density * p
            via_formula[(t, members, x)] = law[x]
            direct[(t, members, x)] = cond_average(
                enlarged, t, children,
                lambda o: ONE if asset.delta(o, t) == x else ZERO)
        g_kernel[(t, members)] = law
        g_drift[(t, members)] = sum(x * p for x, p in law.items())
    char_enlarged = CharTuple(g_drift, g_kernel)

    # the kernels are conditional laws of disjoint jump events (density
    # >= 0, mass <= 1) because the first-principles side equals them
    if direct != via_formula:
        raise InternalCheckFailed("enlarged jump compensator mismatch")
    return GCharReport(direct, via_formula, char_base, char_enlarged)


# ---------------------------------------------------------------------------
# Deflator construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeflatorBundle:
    hat_martingale: AdaptedProcess     # enlarged transform of the fundamental one
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
    fund = analysis.fundamental_martingale
    incl = analysis.survival_incl

    hat = hat_transform(fund, analysis)

    def weight_increment(o: str, t: int) -> Fraction:
        d = fund.delta(o, t)
        gap_left = 1 - analysis.survival.at(o, t - 1)
        gap_incl = 1 - incl.at(o, t)
        if gap_left == 0 or gap_incl == 0:
            raise DivisionGuard(f"survival gap vanished after tau at ({o}, {t})")
        return d * d / (gap_left * gap_incl)

    weight = analysis.after_integral(weight_increment)
    weight_comp = compensator(weight, space, analysis.enlarged)

    driver = analysis.after_integral(
        lambda o, t: (hat.delta(o, t) / (1 - analysis.survival.at(o, t - 1))
                      + weight.delta(o, t) - weight_comp.delta(o, t)))

    base_f = space.filtration
    for t in range(1, space.horizon + 1):
        # base predictable projection of the pinned indicator, per base
        # atom at t - 1
        pinned_proj = [cond_average(base_f, t, base_f.children(t - 1, base),
                                    lambda o: ONE if incl.at(o, t) == 1
                                    else ZERO)
                       for base in base_f.partitions[t - 1]]
        for block in analysis.enlarged.partitions[t]:
            o = block[0]
            step = driver.delta(o, t)
            if step <= -1:
                raise InternalCheckFailed(
                    f"driver increment at or below -1 at ({o}, {t})")
            if analysis.strictly_after(o, t):
                gap_left = 1 - analysis.survival.at(o, t - 1)
                gap_incl = 1 - incl.at(o, t)
                expected = (gap_left / gap_incl
                            + pinned_proj[base_f.block_of[t - 1][o]])
                if 1 + step != expected:
                    raise InternalCheckFailed(
                        f"driver jump identity fails at ({o}, {t})")
            elif step != 0:
                raise InternalCheckFailed(
                    f"driver moves before the time at ({o}, {t})")

    return DeflatorBundle(hat, weight, weight_comp, driver,
                          stochastic_exponential(driver))


@dataclass(frozen=True)
class DeflatorVerifyReport:
    hypothesis_holds: bool
    conclusion_holds: bool
    hypothesis_witness: MartingaleReport
    conclusion_witness: MartingaleReport


def deflator_verify(mart: AdaptedProcess, bundle: DeflatorBundle,
                    analysis: RandomTimeAnalysis) -> DeflatorVerifyReport:
    """Empirical harvest of the deflator theorem on one base martingale:
    hypothesis = the jump-set part of the martingale is itself a base
    martingale; conclusion = deflator times the strictly-after part is an
    enlarged martingale.  No implication between the two is asserted; the
    quasi-left-continuity hypothesis of the continuous-time statement has
    no discrete counterpart, so the pair is reported as data.
    """
    space = analysis.space
    mart = mart.on(space.filtration)
    require_martingale(mart, space, what="deflator_verify input")

    hypothesis = is_martingale(analysis.jump_part(mart), space)

    conclusion = is_martingale(bundle.deflator * analysis.after_part(mart),
                               space, analysis.enlarged)

    return DeflatorVerifyReport(hypothesis.ok, conclusion.ok,
                                hypothesis, conclusion)
