"""Problem data model: kernels, envelopes, components and assumption checks.

A two-component system couples u and v through nonlinearities that read both
functions and their first derivatives.  Each component carries a kernel pair
(k, dk/dt), a nonnegative weight, an envelope certificate (phi, psi, windows
[a,b] and [gamma,delta], cone constants c and d) and optional user bound
hints for certification.  The verify_* functions sample the envelope
inequalities on grids; they support assumptions at a stated resolution, they
do not prove them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import exprlang
from .exprlang import Expr
from .quadopt import QuadResult, box_extremum_with_witness, integrate

if TYPE_CHECKING:
    from .greens3 import GreenParams

KERNEL_VARS = ("t", "s")
WEIGHT_VARS = ("s",)
ENVELOPE_VARS = ("s",)
NONLIN_VARS = ("t", "u1", "u2", "v1", "v2")
HINT_VARS = ("rho1", "rho2")

VIOLATION_TOL = 1e-9

# Highest degree in t of a closed-form kernel with pieces.  On [0, 1] the monomial
# coefficients of a degree-3 polynomial can reach those of T_3(2t - 1) = 32t^3 - 48t^2
# + 18t - 1, whose magnitudes sum to 99 (577 at degree 4), so the solver's apply loses
# at most about 100 ulps of sup_t |k(t, s)|.
_T_DEGREE = 3


class ConeVariant(Enum):
    SIGN_CHANGING = "sign_changing"
    NON_NEGATIVE = "nonnegative"
    NON_NEGATIVE_NON_DECREASING = "nonnegative_nondecreasing"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel k(t,s) with its t-derivative, the Green family's parameters and its pieces.

    ``green`` is None for a closed-form kernel, whose sign changes in s must be located when
    |k| is integrated, and whose pieces come from k and dk/dt run with t an exprlang.Polynomial;
    a Green kernel's k and dk/dt evaluate its pieces' tables.  ``pieces()``, built on first use
    and kept, gives (basis, ends, k, dk): k(t, s) = sum_{p,r} t^p k[b, p, r] basis_r(s) for s in
    [ends(t)[b], ends(t)[b + 1]], ends(t) of shape (pieces + 1,) + shape(t), dk/dt the same with
    dk; or None for a kernel without pieces.  A basis function gets read-only nodes and must
    return a new array.
    """

    k: Callable
    dk_dt: Callable
    green: GreenParams | None
    pieces: Callable[[], tuple | None]

    def breakpoints(self, t) -> np.ndarray:
        """Where k(t, .)'s pieces meet (repeats possible), along a new last axis."""
        pieces = self.pieces()
        ends = np.empty((2,) + np.shape(t)) if pieces is None else pieces[1](t)  # None: no seams
        return ends[1:-1].transpose(*range(1, ends.ndim), 0)  # np.moveaxis costs 3 us more

    @staticmethod
    def from_expressions(k_expr: Expr, dk_expr: Expr) -> "KernelSpec":
        def k(t, s):
            return exprlang.evaluate(k_expr, {"t": t, "s": s})

        def dk(t, s):
            return exprlang.evaluate(dk_expr, {"t": t, "s": s})

        def in_t(kern, s) -> dict:  # c_p(s) of kern(t, s) = sum_p t^p c_p(s), or NotPolynomial
            value = kern(exprlang.Polynomial({1: 1.0}, _T_DEGREE), s)
            return getattr(value, "terms", {0: value})  # a kernel free of t: a number or array

        @cache
        def pieces():
            try:  # the term counts, at no s: no value is computed
                nk, ndk = (1 + max(in_t(kern, np.empty(0))) for kern in (k, dk))
            except exprlang.NotPolynomial:
                return None
            basis = (lambda s, kern=kern, p=p: in_t(kern, s).get(p, 0.0) * np.ones_like(s)
                     for kern, n in ((k, nk), (dk, ndk)) for p in range(n))
            return (tuple(basis), lambda t: np.array([np.zeros(np.shape(t)), np.ones(np.shape(t))]),
                    np.eye(nk, nk + ndk)[None], np.eye(ndk, nk + ndk, nk)[None])

        return KernelSpec(k, dk, None, pieces)


@dataclass(frozen=True)
class CheckItem:
    name: str
    worst_violation: float
    location: tuple[float, ...]
    passed: bool


@dataclass(frozen=True)
class AssumptionReport:
    name: str
    items: tuple[CheckItem, ...]
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class Envelope:
    """Envelope certificate data for one component.

    phi bounds |k| from above on the square and c*phi bounds k from below on
    the strip [a,b] x [0,1]; psi and d play the same roles for dk/dt on
    [gamma,delta] x [0,1].
    """

    phi: Expr
    psi: Expr
    a: float
    b: float
    c: float
    gamma: float
    delta: float
    d: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b <= 1.0):
            raise ValueError(f"need 0 <= a < b <= 1, got a={self.a}, b={self.b}")
        if not (0.0 <= self.gamma < self.delta <= 1.0):
            raise ValueError(
                f"need 0 <= gamma < delta <= 1, got gamma={self.gamma}, delta={self.delta}"
            )
        if not (0.0 < self.c <= 1.0):
            raise ValueError(f"need c in (0, 1], got {self.c}")
        if not (0.0 < self.d <= 1.0):
            raise ValueError(f"need d in (0, 1], got {self.d}")


@dataclass(frozen=True)
class BoundHints:
    """User-supplied certified bounds over radius boxes.

    Each expression is over (rho1, rho2) and must bound the normalized
    nonlinearity: sup is an upper bound for sup f / rho_i over the sup box,
    inf_plain and inf_star are lower bounds for the two inf boxes.  They are
    cross-checked against grid estimates before use.
    """

    sup: Expr | None = None
    inf_plain: Expr | None = None
    inf_star: Expr | None = None


@dataclass(frozen=True)
class Component:
    kernel: KernelSpec
    envelope: Envelope
    weight: Expr
    f: Expr
    hints: BoundHints = field(default_factory=BoundHints)


@dataclass(frozen=True)
class SystemProblem:
    comp1: Component
    comp2: Component
    variant: ConeVariant = ConeVariant.SIGN_CHANGING

    @property
    def components(self) -> tuple[Component, Component]:
        return (self.comp1, self.comp2)


def nonlinearity(comp: Component) -> Callable:
    """comp.f as a function of one broadcastable array per NONLIN_VARS entry."""

    def fn(*args):
        return exprlang.evaluate(comp.f, dict(zip(NONLIN_VARS, args)))

    return fn


def function_of_s(expr: Expr) -> Callable:
    """An expression over s (weight, envelope, load) as a function of s.

    The result is a float array of the shape of s, also for a constant.
    """

    def at(s):
        s = np.asarray(s, dtype=float)
        return exprlang.evaluate(expr, {"s": s}) * np.ones_like(s)

    return at


def _grid_eval(fn: Callable, ts: np.ndarray, ss: np.ndarray) -> np.ndarray:
    return np.asarray(fn(ts[:, None], ss[None, :]), dtype=float) * np.ones((len(ts), len(ss)))


def _worst(violation: np.ndarray, ts: np.ndarray, ss: np.ndarray, name: str) -> CheckItem:
    flat = int(np.argmax(violation))
    i, j = np.unravel_index(flat, violation.shape)
    worst = float(violation[i, j])
    return CheckItem(name, worst, (float(ts[i]), float(ss[j])), worst <= VIOLATION_TOL)


def verify_A3(comp: Component, n_t: int = 200, n_s: int = 200) -> AssumptionReport:
    """Sample the four envelope inequalities for one component.

    Checks |k| <= phi and |dk/dt| <= psi on the unit square, k >= c*phi on
    the strip [a,b] x [0,1] and dk/dt >= d*psi on the strip [gamma,delta] x [0,1].
    PASS means the worst sampled violation is at most 1e-9.
    """
    env = comp.envelope
    ts = np.linspace(0.0, 1.0, n_t)
    ss = np.linspace(0.0, 1.0, n_s)
    phi = function_of_s(env.phi)(ss)
    psi = function_of_s(env.psi)(ss)

    k_sq = _grid_eval(comp.kernel.k, ts, ss)
    dk_sq = _grid_eval(comp.kernel.dk_dt, ts, ss)
    items = [
        _worst(np.abs(k_sq) - phi[None, :], ts, ss, "abs(k) <= phi on [0,1]^2"),
        _worst(np.abs(dk_sq) - psi[None, :], ts, ss, "abs(dk/dt) <= psi on [0,1]^2"),
    ]

    ts_ab = np.linspace(env.a, env.b, n_t)
    k_strip = _grid_eval(comp.kernel.k, ts_ab, ss)
    items.append(_worst(env.c * phi[None, :] - k_strip, ts_ab, ss, "k >= c*phi on the strip"))

    ts_gd = np.linspace(env.gamma, env.delta, n_t)
    dk_strip = _grid_eval(comp.kernel.dk_dt, ts_gd, ss)
    items.append(_worst(env.d * psi[None, :] - dk_strip, ts_gd, ss, "dk/dt >= d*psi on the strip"))

    return AssumptionReport(
        "envelope inequalities",
        tuple(items),
        all(it.passed for it in items),
        note=f"sampled on {n_t}x{n_s} grids; supports, does not prove",
    )


def verify_A4(comp: Component) -> AssumptionReport:
    """Check that the two envelope window integrals are strictly positive."""
    env = comp.envelope
    r1, r2 = window_integrals(env, comp.weight)
    items = (
        CheckItem("int_a^b phi*g > 0", -r1.value, (env.a, env.b), r1.value > r1.error_bound),
        CheckItem(
            "int_gamma^delta psi*g > 0", -r2.value, (env.gamma, env.delta), r2.value > r2.error_bound
        ),
    )
    return AssumptionReport(
        "window integrals",
        items,
        all(it.passed for it in items),
        note=f"values {r1.value!r} and {r2.value!r} with quadrature errors "
        f"{r1.error_bound:.2e}, {r2.error_bound:.2e}",
    )


def window_integrals(env: Envelope, weight: Expr) -> tuple[QuadResult, QuadResult]:
    """The pair (int_a^b phi*g, int_gamma^delta psi*g) with error bounds."""
    phi, psi, g = (function_of_s(expr) for expr in (env.phi, env.psi, weight))
    return (
        integrate(lambda s: phi(s) * g(s), env.a, env.b),
        integrate(lambda s: psi(s) * g(s), env.gamma, env.delta),
    )


def verify_nonneg_f(
    comp: Component, box: Sequence[tuple[float, float]], n: int = 33
) -> AssumptionReport:
    """Sample f >= 0 on [0,1] x box (box has one interval per argument slot)."""
    if len(box) != 4:
        raise ValueError("box must provide four intervals (u1, u2, v1, v2)")
    f = nonlinearity(comp)
    low, point = box_extremum_with_witness(f, ((0.0, 1.0), *box), "inf", n, enclose=f)
    item = CheckItem("f >= 0 on [0,1] x box", -low, point, -low <= 0.0)
    return AssumptionReport(
        "nonnegative nonlinearity",
        (item,),
        item.passed,
        note=f"sampled at {n} points per axis",
    )


def check_kernel_derivative(spec: KernelSpec) -> AssumptionReport:
    """Central-difference consistency of dk/dt against k on a 40 x 40 grid, away from kinks."""
    step = 1e-5
    ts = np.linspace(step, 1.0 - step, 40)
    ss = np.linspace(0.0, 1.0, 40)
    bps = spec.breakpoints(ts)[:, None, :]
    checked = (np.abs(ss[None, :, None] - bps) > 10 * step).all(axis=2)
    fd = (_grid_eval(spec.k, ts + step, ss) - _grid_eval(spec.k, ts - step, ss)) / (2 * step)
    exact = _grid_eval(spec.dk_dt, ts, ss)
    tol = np.maximum(1e-6, 1e-4 * np.abs(exact))
    viol = np.where(checked, np.abs(fd - exact) - tol, -np.inf)
    worst, where, n_checked = -np.inf, (0.0, 0.0), np.count_nonzero(checked)
    if n_checked:  # not checked.sum(): its int64 cast buffer raised the next check's peak RSS
        i, j = np.unravel_index(int(np.argmax(viol)), viol.shape)
        worst, where = float(viol[i, j]), (float(ts[i]), float(ss[j]))
    item = CheckItem("central difference matches dk/dt", worst, where, worst <= 0.0)
    return AssumptionReport(
        "kernel derivative consistency",
        (item,),
        item.passed,
        note=f"{n_checked} samples, step {step:g}",
    )
