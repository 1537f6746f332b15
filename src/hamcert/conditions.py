"""Index conditions, multiplicity scenarios, and non-existence checks.

The two index conditions compare normalized sup/inf bounds of the
nonlinearities over radius boxes against the kernel constants:

    (I1)  sup f_i / rho_i over the full box  <  min(m_i, m_i*),  i = 1, 2
    (I0)  inf f_i / rho_i over each pinned box  >  M_i and M_i*,  i = 1, 2

A grid estimate is a lower bound of a sup and an upper bound of an inf, so
a grid value can only refute an inequality, never certify it.  HOLDS
therefore always requires a user-supplied closed-form bound (a "hint"),
cross-checked against the grid; grid-only favorable outcomes are
INCONCLUSIVE.  Scenario certificates chain (I1)/(I0) along a radius ladder
whose gap inequalities are validated exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import NamedTuple

import numpy as np

from . import exprlang
from .constants import ConstantResult, ConstantsTable
from .model import NONLIN_VARS, Component, ConeVariant, SystemProblem, nonlinearity
from .quadopt import box_axes, box_extremum_with_witness, grid_extremum

GRID_ESTIMATE = "grid-estimate"
USER_HINT = "user-hint"

_HINT_RTOL = 1e-9

# each component's own value and own derivative axis in a sup_box
_OWN = ((0, 1), (2, 3))

# the names of a radius ladder's rungs, in order
RUNGS = ("rho", "r", "s", "sigma")


class Verdict(Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    INCONCLUSIVE = "INCONCLUSIVE"


class HintPolicy(Enum):
    REQUIRE = "require"
    ALLOW = "allow"
    IGNORE = "ignore"


class Scenario(Enum):
    S1 = "s1"
    S2 = "s2"
    S3 = "s3"
    S4 = "s4"
    S5 = "s5"
    S6 = "s6"
    S1_HAT = "s1hat"
    S2_HAT = "s2hat"
    NONEXISTENCE = "nonexistence"


# condition sequence and ladder-gap pattern per scenario; gaps are pairs
# (rung index j, divide-by-c flag) meaning ladder[j]/c < ladder[j+1]
_SCENARIOS: dict[Scenario, tuple[tuple[str, ...], tuple[bool, ...]]] = {
    Scenario.S1: (("I0", "I1"), (True,)),
    Scenario.S2: (("I1", "I0"), (False,)),
    Scenario.S3: (("I0", "I1", "I0"), (True, False)),
    Scenario.S4: (("I1", "I0", "I1"), (False, True)),
    Scenario.S5: (("I0", "I1", "I0", "I1"), (True, False, True)),
    Scenario.S6: (("I1", "I0", "I1", "I0"), (False, True, False)),
    Scenario.S1_HAT: (("I0", "I1"), (True,)),
    Scenario.S2_HAT: (("I1", "I0"), (False,)),
}


class HintInconsistent(ValueError):
    """A user bound hint contradicts the grid estimate."""


class HintMissing(ValueError):
    """Hint policy 'require' and no hint supplied for a needed bound."""


class LadderViolation(ValueError):
    """A scenario gap inequality fails; the message names it."""


def sup_box(rho1: float, rho2: float, variant: ConeVariant) -> tuple[tuple[float, float], ...]:
    """The full radius box over (u1, u2, v1, v2): [-rho, rho] if sign-changing, else [0, rho]."""
    signed = variant is ConeVariant.SIGN_CHANGING
    u, v = ((-rho if signed else 0.0, rho) for rho in (rho1, rho2))
    return (u, u, v, v)


class BoundEstimate(NamedTuple):
    value: float
    bound_source: str
    grid_value: float
    witness: tuple[float, ...]


@dataclass(frozen=True, slots=True)
class InequalityEntry:
    name: str
    lhs: float
    rhs: float
    margin: float
    bound_source: str
    verdict: Verdict
    epsilon: float
    grid_value: float
    witness: tuple[float, ...]


@dataclass(frozen=True, slots=True)
class ConditionOutcome:
    condition: str
    rho: tuple[float, float]
    inequalities: tuple[InequalityEntry, ...]
    verdict: Verdict


@dataclass(frozen=True, slots=True)
class AlternativeRecord:
    name: str
    holds: bool
    worst_margin: float
    witness: tuple[float, ...] | None
    samples: int


@dataclass(frozen=True, slots=True)
class Certificate:
    scenario: Scenario
    ladder: tuple[tuple[float, float], ...]
    solution_count: int
    verdict: Verdict
    outcomes: tuple[ConditionOutcome, ...]
    annuli: tuple[tuple[tuple[float, float], tuple[float, float]], ...]
    alternatives: tuple[AlternativeRecord, ...] = ()
    rigorous: bool = False
    note: str = ""


# per mode: the sign that turns an inf comparison into the mirrored sup one,
# and the wording of a hint the grid contradicts
_MODES = {
    "sup": (1.0, "below", "an upper bound cannot be smaller"),
    "inf": (-1.0, "above", "a lower bound cannot be larger"),
}


def _bound(
    comp: Component,
    hint: str,
    box: tuple[tuple[float, float], ...],
    rho: float,
    rhos: tuple[float, float],
    policy: HintPolicy,
    n: int,
) -> BoundEstimate:
    """Bound f / rho over ``box`` = (t window, *intervals): the grid estimate or the hint.

    ``hint`` names the BoundHints field, and its prefix the mode (sup or inf).
    The hint is evaluated at ``rhos`` = (rho1, rho2) and checked against the
    grid, which can only refute it.
    """
    mode = hint.partition("_")[0]
    f = nonlinearity(comp)
    grid_raw, witness = box_extremum_with_witness(f, box, mode=mode, n_per_axis=n, enclose=f)
    grid = grid_raw / rho
    hint_expr = getattr(comp.hints, hint)
    label = hint.replace("_", "-")
    if policy is HintPolicy.IGNORE or hint_expr is None:
        if policy is HintPolicy.REQUIRE:
            raise HintMissing(f"hint policy 'require' but no {label} hint supplied")
        return BoundEstimate(grid, GRID_ESTIMATE, grid, witness)
    value = float(exprlang.evaluate(hint_expr, {"rho1": rhos[0], "rho2": rhos[1]}))
    tol = _HINT_RTOL * max(1.0, abs(value), abs(grid))
    sign, side, reason = _MODES[mode]
    if sign * value < sign * grid - tol:
        raise HintInconsistent(
            f"{label} hint {value!r} is {side} the grid {mode} estimate {grid!r} "
            f"(grid witness {witness}); {reason}"
        )
    return BoundEstimate(value, USER_HINT, grid, witness)


def _constant_error(result: ConstantResult) -> float:
    # first-order error of 1/x under |dx| <= quad_error
    return result.constant**2 * result.quad_error


def _epsilon(error: float, *scales: float) -> float:
    """Verdict tolerance: ten times the error plus 1e-12 relative to the largest scale."""
    return 10.0 * error + 1e-12 * max(1.0, *scales)


def _entry(
    name: str, est: BoundEstimate, rhs: float, rhs_error: float, mode: str
) -> InequalityEntry:
    """sup: FAILS if grid >= rhs + eps, HOLDS if a hint < rhs - eps; inf mirrored.

    Negation is exact, so each inf comparison is the sup one bit for bit.
    """
    sign = _MODES[mode][0]
    eps = _epsilon(rhs_error, abs(est.value), abs(rhs))
    if sign * est.grid_value >= sign * rhs + eps:
        verdict = Verdict.FAILS
    elif est.bound_source == USER_HINT and sign * est.value < sign * rhs - eps:
        verdict = Verdict.HOLDS
    else:
        verdict = Verdict.INCONCLUSIVE
    # not sign * (rhs - value): that is -0.0 at equality in inf mode
    margin = sign * rhs - sign * est.value
    return InequalityEntry(
        name, est.value, rhs, margin, est.bound_source, verdict, eps, est.grid_value, est.witness
    )


def _combine(items) -> Verdict:
    """FAILS if any item fails, HOLDS if all hold, else INCONCLUSIVE."""
    verdicts = {it.verdict for it in items}
    if Verdict.FAILS in verdicts:
        return Verdict.FAILS
    if verdicts == {Verdict.HOLDS}:
        return Verdict.HOLDS
    return Verdict.INCONCLUSIVE


def _condition(
    kind: str,
    problem: SystemProblem,
    rho1: float,
    rho2: float,
    table: ConstantsTable,
    policy: HintPolicy = HintPolicy.ALLOW,
    n: int = 17,
) -> ConditionOutcome:
    """(I1) or (I0) at one radius pair, for both components.

    (I1): sup f_i / rho_i over [0,1] x the full box < min(m_i, m_i*).
    (I0): inf f_i / rho_i > M_i over [a,b] x the box with the own value in
    [c rho_i, rho_i], and > M_i* over [gamma,delta] x the box with the own
    derivative in [d rho_i, rho_i].
    """
    if rho1 <= 0 or rho2 <= 0:
        raise ValueError("radii must be positive")
    rhos = (rho1, rho2)
    full = sup_box(rho1, rho2, problem.variant)
    entries = []
    for j, comp, consts, rho, (value, slope) in zip(
        (1, 2), problem.components, table.components, rhos, _OWN
    ):
        env = comp.envelope
        if kind == "I1":
            tight = min(consts.m, consts.m_star, key=lambda r: r.constant)
            rows = [(f"sup f{j}/rho{j} < min(m{j}, m{j}*)", "sup", (0.0, 1.0), full, tight)]
        else:
            rows = [
                (f"inf f{j}/rho{j} > M{j}", "inf_plain", (env.a, env.b),
                 (*full[:value], (env.c * rho, rho), *full[value + 1:]), consts.M),
                (f"inf* f{j}/rho{j} > M{j}*", "inf_star", (env.gamma, env.delta),
                 (*full[:slope], (env.d * rho, rho), *full[slope + 1:]), consts.M_star),
            ]
        for name, hint, t_window, box, cres in rows:
            est = _bound(comp, hint, (t_window, *box), rho, rhos, policy, n)
            mode = hint.partition("_")[0]
            entries.append(_entry(name, est, cres.constant, _constant_error(cres), mode))
    entries = tuple(entries)
    return ConditionOutcome(kind, rhos, entries, _combine(entries))


check_I1 = partial(_condition, "I1")
check_I0 = partial(_condition, "I0")


def _check_ladder(
    scenario: Scenario,
    ladder: tuple[tuple[float, float], ...],
    problem: SystemProblem,
) -> None:
    sequence, gap_divides = _SCENARIOS[scenario]
    if len(ladder) != len(sequence):
        raise LadderViolation(
            f"{scenario.value} needs {len(sequence)} radius pairs, got {len(ladder)}"
        )
    for pair in ladder:
        if len(pair) != 2 or pair[0] <= 0 or pair[1] <= 0:
            raise LadderViolation(f"radius pair {pair!r} must be two positive reals")
    for j, divide in enumerate(gap_divides):
        for i, comp in enumerate(problem.components):
            lo = ladder[j][i]
            hi = ladder[j + 1][i]
            c = comp.envelope.c
            lhs = lo / c if divide else lo
            if not lhs < hi:
                gap = (
                    f"{RUNGS[j]}_{i + 1}/c_{i + 1} < {RUNGS[j + 1]}_{i + 1}"
                    if divide
                    else f"{RUNGS[j]}_{i + 1} < {RUNGS[j + 1]}_{i + 1}"
                )
                raise LadderViolation(f"gap inequality {gap} violated: {lhs!r} >= {hi!r}")


def ladder_annuli(ladder) -> tuple[tuple[tuple[float, float], tuple[float, float]], ...]:
    """The (inner, outer) radius corners bracketing each consecutive rung pair."""
    return tuple(
        (
            (min(a[0], b[0]), min(a[1], b[1])),
            (max(a[0], b[0]), max(a[1], b[1])),
        )
        for a, b in zip(ladder, ladder[1:])
    )


def certify(
    problem: SystemProblem,
    scenario: Scenario,
    ladder,
    table: ConstantsTable,
    policy: HintPolicy = HintPolicy.ALLOW,
    n: int = 17,
) -> Certificate:
    """Run a multiplicity scenario along a radius ladder.

    The ladder is a sequence of (rho1, rho2) pairs, one per condition in the
    scenario's alternating (I1)/(I0) sequence; each consecutive pair brackets
    one promised solution.
    """
    if scenario not in _SCENARIOS:
        raise ValueError(f"certify does not handle scenario {scenario!r}")
    ladder = tuple((float(p[0]), float(p[1])) for p in ladder)
    _check_ladder(scenario, ladder, problem)
    sequence, _ = _SCENARIOS[scenario]
    outcomes = tuple(
        _condition(kind, problem, rho1, rho2, table, policy, n)
        for kind, (rho1, rho2) in zip(sequence, ladder)
    )
    verdict = _combine(outcomes)
    hint_backed = all(
        e.bound_source == USER_HINT for o in outcomes for e in o.inequalities
    )
    note = (
        "margins net of quadrature error; bounds user-certified"
        if hint_backed
        else "contains grid-estimate bounds; not certification-grade"
    )
    return Certificate(
        scenario=scenario,
        ladder=ladder,
        solution_count=len(ladder) - 1,
        verdict=verdict,
        outcomes=outcomes,
        annuli=ladder_annuli(ladder),
        rigorous=hint_backed and verdict is Verdict.HOLDS,
        note=note,
    )


def _alternative(
    name: str,
    f_fn,
    slope: float,
    pin_axis: int,
    t_window: tuple[float, float],
    box: tuple[tuple[float, float], ...],
    n: int,
    positive_only: bool,
    eps: float,
) -> AlternativeRecord:
    """Sample a strict one-sided bound f <> slope * pinned over a box.

    positive_only samples only pinned > 0 and checks f > slope * pinned;
    otherwise pinned != 0 and f < slope * |pinned|.  Excluded points are
    dropped from the pinned axis, so f is never evaluated there.
    """
    axes = box_axes((t_window, *box), n)
    k = 1 + pin_axis  # axis 0 is t
    axes[k] = axes[k][axes[k] > 0.0] if positive_only else axes[k][axes[k] != 0.0]
    if axes[k].size == 0:
        return AlternativeRecord(name, False, -np.inf, None, 0)

    def margin(*args):
        vals = f_fn(*args)
        return vals - slope * args[k] if positive_only else slope * np.abs(args[k]) - vals

    worst, witness = grid_extremum(margin, axes, "inf", enclose=margin)
    samples = math.prod(len(a) for a in axes)
    return AlternativeRecord(name, worst > eps, worst, witness, samples)


def check_nonexistence(
    problem: SystemProblem,
    table: ConstantsTable,
    sample_box: tuple[tuple[float, float], ...],
    n: int = 41,
) -> Certificate:
    """Sample the non-existence alternatives on a truncated argument box.

    For each component the first alternative needs f < m|w| off w = 0 on
    t in [0,1]; the second needs f > (M/c) w for w > 0 on the envelope
    window, where w is the component's own value coordinate.  Supported
    means one alternative per component holds at every sample; this is a
    sampling statement on the truncation box, not a proof.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    records = []
    supported = True
    for i, (comp, consts, (axis, _)) in enumerate(zip(problem.components, table.components, _OWN)):
        f_fn = nonlinearity(comp)
        sub = NONLIN_VARS[1 + axis]
        env = comp.envelope
        m = consts.m.constant
        big = consts.M.constant / env.c
        eps_a = _epsilon(_constant_error(consts.m), m)
        eps_b = _epsilon(_constant_error(consts.M) / env.c, big)
        alt_a = _alternative(
            f"N{i + 1}a: f{i + 1} < m{i + 1}|{sub}|",
            f_fn, m, axis, (0.0, 1.0), sample_box, n, False, eps_a,
        )
        alt_b = _alternative(
            f"N{i + 1}b: f{i + 1} > (M{i + 1}/c{i + 1}){sub}",
            f_fn, big, axis, (env.a, env.b), sample_box, n, True, eps_b,
        )
        records.extend([alt_a, alt_b])
        supported = supported and (alt_a.holds or alt_b.holds)
    return Certificate(
        scenario=Scenario.NONEXISTENCE,
        ladder=(),
        solution_count=0,
        verdict=Verdict.HOLDS if supported else Verdict.FAILS,
        outcomes=(),
        annuli=(),
        alternatives=tuple(records),
        rigorous=False,
        note=(
            f"sampled at {n} points per axis on a truncated argument box; "
            "supports non-existence at this resolution, does not prove it"
        ),
    )
