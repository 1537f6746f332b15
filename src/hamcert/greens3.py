"""Green's function family for the third-order three-point boundary problem

    -w'''(t) = h(t),   w(0) = w'(0) = 0,   w'(1) = alpha * w'(eta)

with 0 < eta < 1 and 1 < alpha < 1/eta.  The kernel is four polynomial
branches glued along s = t and s = eta, its t-derivative likewise, and both are
defined only by branch_coefficients' t^p s^q tables, which table_value evaluates
and the solver applies.  Both are nonnegative on the unit square, k is dominated
by phi(s) and bounded below by c*phi(s) on the strip [eta/alpha, eta], and
dk/dt is squeezed between d*psi and psi there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from . import exprlang
from .exprlang import Expr
from .model import (
    ENVELOPE_VARS, AssumptionReport, CheckItem, Component, Envelope, KernelSpec, _worst,
    function_of_s, verify_A3,
)
from .quadopt import BLOCK_VALUES, MAX_AXIS_POINTS, integrate, integrate_rows


BVP_GRID = 2001  # verify_bvp's default number of grid nodes, green-check's default --grid
ODE_TOL = 1e-10  # verify_bvp's bound on |w - w_exact|: 100x quadopt.QUAD_TOL
BC_TOL = 1e-8  # verify_bvp's bound on each boundary residual


class ParamError(ValueError):
    """Invalid (alpha, eta) for the boundary condition family."""


class ResidualTooLarge(Exception):
    def __init__(self, message: str, worst_node: float):
        super().__init__(message)
        self.worst_node = worst_node


@dataclass(frozen=True)
class GreenParams:
    alpha: float
    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise ParamError(f"need 0 < eta < 1, got eta={self.eta}")
        if not 1.0 < self.alpha < 1.0 / self.eta:
            raise ParamError(
                f"need 1 < alpha < 1/eta = {1.0 / self.eta}, got alpha={self.alpha}"
            )


@dataclass(frozen=True)
class ResidualReport:
    ode_residual: float  # max |w - w_exact| over the grid nodes
    ode_worst_node: float  # the node where it is taken
    bc_at_zero: float
    bc_slope_at_zero: float
    bc_three_point: float
    n_grid: int


def branch_coefficients(alpha: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """c[b, p, q], the coefficient of t^p s^q in branch b of k (the kernel's only definition),
    and dk/dt's table by the shift c'[b, p] = (p + 1) c[b, p + 1]."""
    b = 0.5 / (1.0 - alpha * eta)
    a, e = (alpha - 1.0) * b, alpha * eta * b
    c = np.array([[[0.0, 0.0, -0.5], [0.0, 1.0, 0.0], [0.0, a, 0.0]],  # s <= min(t, eta)
                  [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, a, 0.0]],  # t <= s <= eta
                  [[0.0, 0.0, -0.5], [0.0, 1.0, 0.0], [e, -b, 0.0]],  # eta <= s <= t
                  [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [b, -b, 0.0]]])  # s >= max(t, eta)
    return c, np.arange(1.0, 3.0)[:, None] * c[:, 1:]


def branch_ends(eta: float, t) -> np.ndarray:
    """The ends 0, min(t, eta), eta, max(t, eta), 1 of the branches' s-intervals, on a new first
    axis: branch b spans [ends[b], ends[b + 1]], empty off its rows."""
    t = np.asarray(t, dtype=float)
    return np.array([np.zeros_like(t), np.minimum(t, eta), np.full_like(t, eta),
                     np.maximum(t, eta), np.ones_like(t)])


def table_value(table: np.ndarray, eta: float, t, s, b=None):
    """sum_{p,q} table[b, p, q] t^p s^q, by Horner in s and then in t, on branch b (one, or an
    array of them that broadcasts with t and s) or by default on the branch that holds s, a seam
    going to the lower branch."""
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
    if b is None:
        b = np.add(s > np.minimum(t, eta), s > eta, dtype=np.intp) + (s > np.maximum(t, eta))

    def horner(terms, x):  # terms from the highest power down, each made when it is needed
        out = next(terms)
        for c in terms:
            out = out * x + c
        return out

    return horner((horner((table[:, p, q][b] for q in reversed(range(table.shape[2]))), s)
                   for p in reversed(range(table.shape[1]))), t)


def build_kernel(params: GreenParams) -> KernelSpec:
    """Kernel spec for the family: k and dk/dt evaluate branch_coefficients' two tables, which
    pieces() hands the solver; the pieces meet at s = t, eta."""
    eta = params.eta
    tables = branch_coefficients(params.alpha, eta)

    @cache
    def pieces():
        return (tuple(lambda s, q=q: s ** q for q in (0.0, 1.0, 2.0)),
                partial(branch_ends, eta), *tables)

    return KernelSpec(*(partial(table_value, table, eta) for table in tables), params, pieces)


def envelope_constant_c(params: GreenParams) -> float:
    """Lower-bound constant c = eta^2/(2 alpha^2 (1+alpha)) * min(alpha-1, 1)."""
    alpha, eta = params.alpha, params.eta
    return eta**2 / (2.0 * alpha**2 * (1.0 + alpha)) * min(alpha - 1.0, 1.0)


def default_envelope(params: GreenParams) -> Envelope:
    """Envelope certificate attached to the family by construction.

    phi(s) = (1+alpha)/(1-alpha*eta) * s(1-s), psi(s) = (1-s)/(1-alpha*eta),
    both windows equal [eta/alpha, eta], d = min(alpha*eta, eta) = eta.
    """
    alpha, eta = params.alpha, params.eta
    one = 1.0 - alpha * eta
    phi = exprlang.parse(f"{(1.0 + alpha) / one!r}*s*(1-s)", ENVELOPE_VARS)
    psi = exprlang.parse(f"{1.0 / one!r}*(1-s)", ENVELOPE_VARS)
    return Envelope(
        phi=phi,
        psi=psi,
        a=eta / alpha,
        b=eta,
        c=envelope_constant_c(params),
        gamma=eta / alpha,
        delta=eta,
        d=min(alpha * eta, eta),
    )


def check_kernel_properties(comp: Component, n: int = 200) -> AssumptionReport:
    """Sampled branch gluing (adjacent branches of both coefficient tables at their seams), signs
    and three-point identity of a Green component's kernel, with verify_A3's items for its
    declared envelope."""
    params, env, kern = comp.kernel.green, comp.envelope, comp.kernel
    alpha, eta = params.alpha, params.eta
    ts = ss = np.linspace(0.0, 1.0, n)

    # Adjacent branches of each table agree identically along both seams; evaluate
    # the pairs at the seam points themselves, so any gap is pure roundoff.
    t_lo, t_hi = np.linspace(0.0, eta, n), np.linspace(eta, 1.0, n)
    seams = ((0, 1, t_lo, t_lo),  # s = t with t <= eta
             (1, 3, t_lo, eta),  # s = eta with t <= eta
             (0, 2, t_hi, eta),  # s = eta with t >= eta
             (2, 3, t_hi, t_hi))  # s = t with t >= eta
    gaps = (table_value(c, eta, t, s, right) - table_value(c, eta, t, s, left)
            for c in branch_coefficients(alpha, eta) for left, right, t, s in seams)
    jump = max(float(np.max(np.abs(gap))) for gap in gaps)

    k_sq = kern.k(ts[:, None], ss[None, :])
    dk_sq = kern.dk_dt(ts[:, None], ss[None, :])
    # slope condition transferred to the derivative kernel at the endpoints
    bc_gap = float(np.max(np.abs(kern.dk_dt(1.0, ss) - alpha * kern.dk_dt(eta, ss))))
    items = [
        CheckItem("branch gluing is continuous", jump - 1e-10, (0.0, 0.0), jump <= 1e-10),
        _worst(-k_sq, ts, ss, "k >= 0 on [0,1]^2"),
        _worst(-dk_sq, ts, ss, "dk/dt >= 0 on [0,1]^2"),
        *verify_A3(comp, n, n).items,
        CheckItem("dk/dt(1,s) = alpha*dk/dt(eta,s)", bc_gap - 1e-10, (1.0, 0.0), bc_gap <= 1e-10),
    ]

    phi = function_of_s(env.phi)(ss)
    k_strip = kern.k(np.linspace(env.a, env.b, n)[:, None], ss[None, :])
    ratio = np.min(np.where(phi[None, :] > 0, k_strip / np.maximum(phi[None, :], 1e-300), np.inf))
    # the valid derivative fraction is of Harnack type: dk(t,.) against the
    # pointwise-in-s maximum of dk over all rows, not against psi itself
    col_max = np.max(dk_sq, axis=0)
    dk_strip = kern.dk_dt(np.linspace(env.gamma, env.delta, n)[:, None], ss[None, :])
    harnack = np.min(
        np.where(col_max > 0, dk_strip / np.maximum(col_max[None, :], 1e-300), np.inf)
    )
    note = (
        f"sampled on {n}x{n} grids; observed min k/phi on [a,b] is {float(ratio)!r} "
        f"vs declared c = {env.c!r}; observed min of dk over its row-max on [gamma,delta] "
        f"is {float(harnack)!r} (eta/alpha = {eta / alpha!r}) vs declared d = {env.d!r}"
    )
    return AssumptionReport(
        "green kernel properties", tuple(items), all(it.passed for it in items), note=note
    )


def check_bvp_grid(n_grid: int) -> None:
    """Reject a verify_bvp grid below 101 or above MAX_AXIS_POINTS nodes."""
    if not 101 <= n_grid <= MAX_AXIS_POINTS:
        raise ValueError(f"n_grid must be between 101 and {MAX_AXIS_POINTS}")


def verify_bvp(params: GreenParams, h: Expr, n_grid: int = BVP_GRID,
               ode_tol: float = ODE_TOL) -> ResidualReport:
    """Check that w(t) = int k(t,s) h(s) ds solves the boundary problem.

    The ODE residual is the largest |w - w_exact| over a uniform grid, w_exact
    being the variation-of-constants solution C t^2 - 1/2 int_0^t (t-s)^2 h(s) ds
    with C = (int_0^1 (1-s) h - alpha int_0^eta (eta-s) h) / (2(1 - alpha*eta));
    the three boundary conditions are evaluated directly on w.  Raises
    ResidualTooLarge when a residual exceeds its tolerance.
    """
    check_bvp_grid(n_grid)
    alpha, eta = params.alpha, params.eta
    ts = np.linspace(0.0, 1.0, n_grid)

    h_at = function_of_s(h)
    kern = build_kernel(params)

    def w_rows(kernel, rows: np.ndarray) -> np.ndarray:  # int kernel(t,s) h(s) ds at each t
        integrand = lambda t, s: kernel(t, s) * h_at(s)
        step = BLOCK_VALUES // 16  # rows of a few 15-node panels each: memory stays near a block
        return np.concatenate([
            integrate_rows(integrand, part, 0.0, 1.0, kern.breakpoints(part))[0]
            for part in np.split(rows, range(step, len(rows), step))
        ])

    w = w_rows(kern.k, ts)
    top = integrate(lambda s: (1.0 - s) * h_at(s), 0.0, 1.0).value
    at_eta = integrate(lambda s: (eta - s) * h_at(s), 0.0, eta).value
    c = (top - alpha * at_eta) / (2.0 * (1.0 - alpha * eta))
    tail = w_rows(lambda t, s: np.where(s <= t, (t - s) ** 2, 0.0), ts)  # s = t is a breakpoint

    resid = np.abs(w - (c * ts**2 - 0.5 * tail))
    worst_i = int(np.argmax(resid))
    ode_residual = float(resid[worst_i])
    worst_node = float(ts[worst_i])

    # w(0) is w[0]; w'(0), w'(1) and w'(eta) are one batch
    slope_0, slope_1, slope_eta = w_rows(kern.dk_dt, np.array([0.0, 1.0, eta])).tolist()
    bc0, bc0p, bc3 = abs(float(w[0])), abs(slope_0), abs(slope_1 - alpha * slope_eta)

    report = ResidualReport(ode_residual, worst_node, bc0, bc0p, bc3, n_grid)
    if ode_residual > ode_tol:
        raise ResidualTooLarge(
            f"ODE residual {ode_residual:.3e} exceeds {ode_tol:.1e} at t={worst_node!r}",
            worst_node,
        )
    if max(bc0, bc0p, bc3) > BC_TOL:
        raise ResidualTooLarge(
            f"boundary residuals ({bc0:.3e}, {bc0p:.3e}, {bc3:.3e}) exceed {BC_TOL:.1e}",
            0.0,
        )
    return report
