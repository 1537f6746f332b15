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
from .model import Component, ConeVariant, SystemProblem, nonlinearity
from .quadopt import box_axes, box_extremum_with_witness, grid_extremum

GRID_ESTIMATE = "grid-estimate"
USER_HINT = "user-hint"

_HINT_RTOL = 1e-9


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


@dataclass(frozen=True, slots=True)
class Box4:
    """Closed intervals for the nonlinearity arguments (u1, u2, v1, v2)."""

    u1: tuple[float, float]
    u2: tuple[float, float]
    v1: tuple[float, float]
    v2: tuple[float, float]

    def __post_init__(self):
        for name in ("u1", "u2", "v1", "v2"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"empty interval for {name}: [{lo}, {hi}]")

    def intervals(self) -> tuple[tuple[float, float], ...]:
        return (self.u1, self.u2, self.v1, self.v2)

    @staticmethod
    def _full(rho: float, variant: ConeVariant) -> tuple[float, float]:
        if variant is ConeVariant.SIGN_CHANGING:
            return (-rho, rho)
        return (0.0, rho)

    @classmethod
    def sup_box(cls, rho1: float, rho2: float, variant: ConeVariant) -> "Box4":
        u = cls._full(rho1, variant)
        v = cls._full(rho2, variant)
        return cls(u, u, v, v)

    @classmethod
    def inf_box(
        cls,
        which: str,
        role: str,
        rho1: float,
        rho2: float,
        c: float,
        d: float,
        variant: ConeVariant,
    ) -> "Box4":
        """Box with one coordinate pinned away from zero.

        plain pins the function value (u1 or v1) to [c*rho, rho]; star pins
        the derivative value (u2 or v2) to [d*rho, rho].  ``role`` selects
        which component's coordinates are pinned.
        """
        if which not in ("plain", "star"):
            raise ValueError(f"which must be 'plain' or 'star', got {which!r}")
        if role not in ("first", "second"):
            raise ValueError(f"role must be 'first' or 'second', got {role!r}")
        u = [cls._full(rho1, variant), cls._full(rho1, variant)]
        v = [cls._full(rho2, variant), cls._full(rho2, variant)]
        own, rho = (u, rho1) if role == "first" else (v, rho2)
        if which == "plain":
            own[0] = (c * rho, rho)
        else:
            own[1] = (d * rho, rho)
        return cls(u[0], u[1], v[0], v[1])


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
    hint_name: str,
    role: str,
    rho1: float,
    rho2: float,
    variant: ConeVariant,
    policy: HintPolicy,
    n: int,
    cone_constants: tuple[float, float] | None = None,
) -> BoundEstimate:
    """Bound f / rho_i over the box that ``hint_name`` names: the grid estimate or the hint.

    "sup" is the sup over [0,1] x the full box; "inf-plain" and "inf-star" are
    the infs over the pinned boxes of Box4.inf_box.  A hint is checked
    against the grid, which can only refute it.
    """
    if rho1 <= 0 or rho2 <= 0:
        raise ValueError("radii must be positive")
    mode, _, which = hint_name.partition("-")
    if mode == "sup":
        t_window, box = (0.0, 1.0), Box4.sup_box(rho1, rho2, variant)
    else:
        env = comp.envelope
        c, d = cone_constants if cone_constants is not None else (env.c, env.d)
        t_window = (env.a, env.b) if which == "plain" else (env.gamma, env.delta)
        box = Box4.inf_box(which, role, rho1, rho2, c, d, variant)
    grid_raw, witness = box_extremum_with_witness(
        nonlinearity(comp), (t_window, *box.intervals()), mode=mode, n_per_axis=n
    )
    grid = grid_raw / (rho1 if role == "first" else rho2)
    hint_expr = getattr(comp.hints, hint_name.replace("-", "_"))
    if policy is HintPolicy.IGNORE or hint_expr is None:
        if policy is HintPolicy.REQUIRE:
            raise HintMissing(f"hint policy 'require' but no {hint_name} hint supplied")
        return BoundEstimate(grid, GRID_ESTIMATE, grid, witness)
    hint = float(exprlang.evaluate(hint_expr, {"rho1": rho1, "rho2": rho2}))
    tol = _HINT_RTOL * max(1.0, abs(hint), abs(grid))
    sign, side, reason = _MODES[mode]
    if sign * hint < sign * grid - tol:
        raise HintInconsistent(
            f"{hint_name} hint {hint!r} is {side} the grid {mode} estimate {grid!r} "
            f"(grid witness {witness}); {reason}"
        )
    return BoundEstimate(hint, USER_HINT, grid, witness)


def sup_f_rho(
    comp: Component,
    rho1: float,
    rho2: float,
    variant: ConeVariant,
    role: str = "first",
    policy: HintPolicy = HintPolicy.ALLOW,
    n: int = 17,
) -> BoundEstimate:
    """Upper bound for sup f/rho_i over [0,1] x the full radius box."""
    return _bound(comp, "sup", role, rho1, rho2, variant, policy, n)


def inf_f_rho(
    comp: Component,
    which: str,
    role: str,
    rho1: float,
    rho2: float,
    cone_constants: tuple[float, float] | None = None,
    variant: ConeVariant = ConeVariant.SIGN_CHANGING,
    policy: HintPolicy = HintPolicy.ALLOW,
    n: int = 17,
) -> BoundEstimate:
    """Lower bound for inf f/rho_i over the pinned box.

    plain restricts t to [a,b] and pins the value coordinate to [c rho, rho];
    star restricts t to [gamma,delta] and pins the derivative coordinate to
    [d rho, rho].
    """
    return _bound(comp, f"inf-{which}", role, rho1, rho2, variant, policy, n, cone_constants)


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

    (I1): sup f_i / rho_i < min(m_i, m_i*).  (I0): inf f_i / rho_i over the
    pinned boxes > M_i and M_i*.
    """
    entries = []
    for i, (comp, consts) in enumerate(zip(problem.components, table.components)):
        role, j = ("first" if i == 0 else "second"), i + 1
        if kind == "I1":
            tight = min(consts.m, consts.m_star, key=lambda r: r.constant)
            est = sup_f_rho(comp, rho1, rho2, problem.variant, role, policy, n)
            rows = [(f"sup f{j}/rho{j} < min(m{j}, m{j}*)", est, tight, "sup")]
        else:
            rows = [
                (
                    f"inf{star} f{j}/rho{j} > M{j}{star}",
                    inf_f_rho(comp, which, role, rho1, rho2, None, problem.variant, policy, n),
                    cres,
                    "inf",
                )
                for which, star, cres in (("plain", "", consts.M), ("star", "*", consts.M_star))
            ]
        entries += [
            _entry(name, est, cres.constant, _constant_error(cres), mode)
            for name, est, cres, mode in rows
        ]
    entries = tuple(entries)
    return ConditionOutcome(kind, (rho1, rho2), entries, _combine(entries))


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
    names = ("rho", "r", "s", "sigma")
    for j, divide in enumerate(gap_divides):
        for i, comp in enumerate(problem.components):
            lo = ladder[j][i]
            hi = ladder[j + 1][i]
            c = comp.envelope.c
            lhs = lo / c if divide else lo
            if not lhs < hi:
                gap = (
                    f"{names[j]}_{i + 1}/c_{i + 1} < {names[j + 1]}_{i + 1}"
                    if divide
                    else f"{names[j]}_{i + 1} < {names[j + 1]}_{i + 1}"
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
    box: Box4,
    n: int,
    positive_only: bool,
    eps: float,
) -> AlternativeRecord:
    """Sample a strict one-sided bound f <> slope * pinned over a box.

    positive_only samples only pinned > 0 and checks f > slope * pinned;
    otherwise pinned != 0 and f < slope * |pinned|.  Excluded points are
    dropped from the pinned axis, so f is never evaluated there.
    """
    axes = box_axes((t_window, *box.intervals()), n)
    k = 1 + pin_axis  # axis 0 is t
    axes[k] = axes[k][axes[k] > 0.0] if positive_only else axes[k][axes[k] != 0.0]
    if axes[k].size == 0:
        return AlternativeRecord(name, False, -np.inf, None, 0)

    def margin(*args):
        vals = f_fn(*args)
        return vals - slope * args[k] if positive_only else slope * np.abs(args[k]) - vals

    worst, witness = grid_extremum(margin, axes, "inf")
    samples = math.prod(len(a) for a in axes)
    return AlternativeRecord(name, worst > eps, worst, witness, samples)


def check_nonexistence(
    problem: SystemProblem,
    table: ConstantsTable,
    sample_box: Box4,
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
    for i, (comp, consts) in enumerate(zip(problem.components, table.components)):
        f_fn = nonlinearity(comp)
        pin_axis = 0 if i == 0 else 2
        env = comp.envelope
        m = consts.m.constant
        big = consts.M.constant / env.c
        eps_a = _epsilon(_constant_error(consts.m), m)
        eps_b = _epsilon(_constant_error(consts.M) / env.c, big)
        sub = "u1" if i == 0 else "v1"
        alt_a = _alternative(
            f"N{i + 1}a: f{i + 1} < m{i + 1}|{sub}|",
            f_fn, m, pin_axis, (0.0, 1.0), sample_box, n, False, eps_a,
        )
        alt_b = _alternative(
            f"N{i + 1}b: f{i + 1} > (M{i + 1}/c{i + 1}){sub}",
            f_fn, big, pin_axis, (env.a, env.b), sample_box, n, True, eps_b,
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
