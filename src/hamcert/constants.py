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


def _row_integral(comp: Component, derivative: bool, lo: float, hi: float, absolute: bool):
    """ts -> (values, errors) of int_lo^hi K(t,s) g(s) ds at each t, K = k or dk/dt, optionally |K|.

    With ``absolute``, an expression kernel's sign changes in s (one scan for
    all ts) are added as panel breakpoints, since |K| has a kink at each.
    """
    spec = comp.kernel
    kern = spec.dk_dt if derivative else spec.k
    g_at = function_of_s(comp.weight)
    fold = np.abs if absolute else (lambda x: x)

    def at(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        bps = spec.breakpoints(ts).tolist()
        if absolute and spec.green is None:
            bps = [[*b, *roots] for b, roots in zip(bps, sign_change_roots(kern, ts, lo, hi))]
        # one integrate call per t: perfbench's traced-count test reads quadopt.integrate.calls
        rows = [
            integrate(lambda s: fold(kern(np.array(t), s)) * g_at(s), lo, hi, breakpoints=b)
            for t, b in zip(ts.tolist(), bps)
        ]
        return np.array([r.value for r in rows]), np.array([r.error_bound for r in rows])

    return at


def _extremal(
    name: str,
    integral_at,
    lo: float,
    hi: float,
    mode: str,
) -> ConstantResult:
    found = extremize(lambda ts: integral_at(ts)[0], lo, hi, mode=mode)
    t_star = found.location
    extremal, err = (float(x[0]) for x in integral_at(np.array([t_star])))
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


def compute_component(comp: Component, index: int) -> ComponentConstants:
    env = comp.envelope
    # (field, name, kernel is dk/dt, window, extremum); m and m* integrate |K|
    rows = (
        ("m", "m{}", False, (0.0, 1.0), "max"),
        ("m_star", "m{}*", True, (0.0, 1.0), "max"),
        ("M", "M{}", False, (env.a, env.b), "min"),
        ("M_star", "M{}*", True, (env.gamma, env.delta), "min"),
    )
    result = ComponentConstants(**{
        field: _extremal(
            name.format(index),
            _row_integral(comp, derivative, lo, hi, absolute=mode == "max"),
            lo,
            hi,
            mode,
        )
        for field, name, derivative, (lo, hi), mode in rows
    })
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
