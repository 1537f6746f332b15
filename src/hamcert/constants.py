"""Verifiable constants for the certification inequalities.

For each component the four constants are reciprocals of kernel-weight
integrals extremized over t:

    1/m      = max_{t in [0,1]}          int_0^1 |k(t,s)| g(s) ds
    1/m*     = max_{t in [0,1]}          int_0^1 |dk/dt(t,s)| g(s) ds
    1/M      = min_{t in [a,b]}          int_a^b  k(t,s) g(s) ds
    1/M*     = min_{t in [gamma,delta]}  int_gamma^delta dk/dt(t,s) g(s) ds

Each result carries the extremizing t, the quadrature error bound at that t,
and enough context to audit the search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Component, SystemProblem, function_of_s
from .quadopt import extremize, integrate, sign_change_roots


class DegenerateConstant(ArithmeticError):
    """The extremal integral is too close to zero (or negative) to invert."""


@dataclass(frozen=True, slots=True)
class ConstantResult:
    name: str
    constant: float
    extremal_integral: float
    t_star: float
    quad_error: float
    window: tuple[float, float]


@dataclass(frozen=True, slots=True)
class ComponentConstants:
    m: ConstantResult
    m_star: ConstantResult
    M: ConstantResult
    M_star: ConstantResult


@dataclass(frozen=True, slots=True)
class ConstantsTable:
    comp1: ComponentConstants
    comp2: ComponentConstants

    @property
    def components(self) -> tuple[ComponentConstants, ComponentConstants]:
        return (self.comp1, self.comp2)


def _integral_of_abs(comp: Component, use_derivative: bool):
    """t -> int_0^1 |kernel| g ds, with abs-kinks added as panel breakpoints."""
    spec = comp.kernel
    kern = spec.dk_dt if use_derivative else spec.k
    g_at = function_of_s(comp.weight)

    def at(t: float) -> tuple[float, float]:
        bps = set(spec.breakpoints(t))
        if spec.is_expression:
            # an expression kernel may cross zero in s; panelize at the roots
            probe = lambda s: kern(np.array(t), np.asarray(s, dtype=float))
            bps.update(sign_change_roots(probe, 0.0, 1.0))
        res = integrate(
            lambda s: np.abs(kern(np.array(t), s)) * g_at(s),
            0.0,
            1.0,
            breakpoints=tuple(sorted(bps)),
        )
        return res.value, res.error_bound

    return at


def _integral_signed(comp: Component, use_derivative: bool, lo: float, hi: float):
    spec = comp.kernel
    kern = spec.dk_dt if use_derivative else spec.k
    g_at = function_of_s(comp.weight)

    def at(t: float) -> tuple[float, float]:
        res = integrate(
            lambda s: kern(np.array(t), s) * g_at(s),
            lo,
            hi,
            breakpoints=spec.breakpoints(t),
        )
        return res.value, res.error_bound

    return at


def _extremal(
    name: str,
    integral_at,
    lo: float,
    hi: float,
    mode: str,
) -> ConstantResult:
    value_at = lambda t: integral_at(float(t))[0]
    found = extremize(value_at, lo, hi, mode=mode)
    t_star = found.location
    extremal, err = integral_at(t_star)
    if extremal <= 10.0 * max(err, 1e-300):
        raise DegenerateConstant(
            f"{name}: extremal integral {extremal!r} at t={t_star!r} is not safely positive "
            f"(quadrature error bound {err!r})"
        )
    return ConstantResult(
        name=name,
        constant=1.0 / extremal,
        extremal_integral=extremal,
        t_star=t_star,
        quad_error=err,
        window=(lo, hi),
    )


def compute_m(comp: Component, label: str = "m") -> ConstantResult:
    return _extremal(label, _integral_of_abs(comp, use_derivative=False), 0.0, 1.0, "max")


def compute_m_star(comp: Component, label: str = "m*") -> ConstantResult:
    return _extremal(label, _integral_of_abs(comp, use_derivative=True), 0.0, 1.0, "max")


def compute_M(comp: Component, label: str = "M") -> ConstantResult:
    env = comp.envelope
    return _extremal(
        label, _integral_signed(comp, False, env.a, env.b), env.a, env.b, "min"
    )


def compute_M_star(comp: Component, label: str = "M*") -> ConstantResult:
    env = comp.envelope
    return _extremal(
        label, _integral_signed(comp, True, env.gamma, env.delta), env.gamma, env.delta, "min"
    )


def compute_component(comp: Component, index: int) -> ComponentConstants:
    tag = str(index)
    result = ComponentConstants(
        m=compute_m(comp, f"m{tag}"),
        m_star=compute_m_star(comp, f"m{tag}*"),
        M=compute_M(comp, f"M{tag}"),
        M_star=compute_M_star(comp, f"M{tag}*"),
    )
    env = comp.envelope
    if env.a == 0.0 and env.b == 1.0:
        # full-window minimum of a nonneg kernel can never beat the abs-maximum
        if not result.M.extremal_integral <= result.m.extremal_integral * (1 + 1e-12) + 1e-15:
            raise AssertionError(
                f"window integral exceeds the global abs bound for component {index}: "
                f"{result.M.extremal_integral!r} > {result.m.extremal_integral!r}"
            )
    return result


def compute_table(problem: SystemProblem) -> ConstantsTable:
    return ConstantsTable(
        comp1=compute_component(problem.comp1, 1),
        comp2=compute_component(problem.comp2, 2),
    )
