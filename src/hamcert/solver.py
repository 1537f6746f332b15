"""Product integration of the Hammerstein operator and Picard iteration.

State is a GridPair: nodal values of (u, u', v, v') on the uniform grid
linspace(0, 1, n).  The nonlinearity is evaluated at the n nodes only, and its
linear interpolant is integrated exactly against k*g by composite Gauss-7 sums
over panels split at the grid nodes and the kernel breakpoints (Atkinson, The
Numerical Solution of Integral Equations of the Second Kind, 1997, ch. 4).  When
every kernel's pieces() gives pieces sum_p t^p c_p(s) on s-intervals whose ends are
functions of t, the operator is applied in O(n) by prefix sums of the hat moments
of c_p*g along the panels; else by n x n weights.  The last problem's weights are
kept for reuse.  u' is iterated through the derivative kernel, not by differencing u.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import quadopt
from .model import ConeVariant, SystemProblem, function_of_s, nonlinearity

# Most grid nodes a solve accepts.  It binds only the dense path, whose four n x n
# float64 matrices (_discretize) then take about 0.5 GB; the piecewise apply is O(n).
MAX_NODES = 4001

BLOWUP = 1e12  # picard raises Divergence once an iterate's norm exceeds it
CONE_TOL = 1e-9  # cone_membership passes a check whose slack is at least -CONE_TOL

_FIELDS = ("u", "du", "v", "dv")  # the nodal arrays of a GridPair


class Divergence(RuntimeError):
    """An iterate exceeded the blow-up bound."""


@dataclass(frozen=True)
class GridPair:
    grid: np.ndarray
    u: np.ndarray
    du: np.ndarray
    v: np.ndarray
    dv: np.ndarray

    def __post_init__(self):
        n = len(self.grid)
        if not np.array_equal(self.grid, _uniform_grid(n)):
            raise ValueError(f"grid must be the uniform grid linspace(0, 1, {n})")
        for name in _FIELDS:
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"{name} has shape {arr.shape}, expected ({n},)")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")

    @staticmethod
    def zeros(n: int = 401) -> "GridPair":
        z = np.zeros(n)
        return GridPair(_uniform_grid(n), z, z.copy(), z.copy(), z.copy())

    def norms(self) -> dict[str, float]:
        u_c, du_c, v_c, dv_c = (float(np.max(np.abs(getattr(self, k)))) for k in _FIELDS)
        return {
            "u_C": u_c,
            "du_C": du_c,
            "v_C": v_c,
            "dv_C": dv_c,
            "u_C1": max(u_c, du_c),
            "v_C1": max(v_c, dv_c),
        }


def _uniform_grid(n: int) -> np.ndarray:
    if n < 101:
        raise ValueError(f"grid needs at least 101 nodes, got {n}")
    if n > MAX_NODES:
        raise ValueError(f"grid needs at most {MAX_NODES} nodes, got {n}")
    return np.linspace(0.0, 1.0, n)


@dataclass(frozen=True)
class SolutionResult:
    pair: GridPair
    residual: float
    iterations: int
    converged: bool
    norms: dict[str, float]


@dataclass(frozen=True)
class ConeCheck:
    name: str
    slack: float
    passed: bool


@dataclass(frozen=True)
class ConeReport:
    checks: tuple[ConeCheck, ...]
    passed: bool
    tolerance: float


class _Weights(NamedTuple):
    grid: np.ndarray
    s: np.ndarray  # column nodes of the matrices: the grid nodes themselves
    matrices: tuple[tuple[np.ndarray, np.ndarray], ...]  # (K_i, dK_i/dt) per component


class _Piecewise(NamedTuple):
    """Weights of a kernel's pieces(): v[i, p] = t_i^p; left/right[j, r] the moments of basis_r*g
    on panel j against the hats of nodes cell[j], cell[j] + 1; ends[b:b + 2, i] piece b's edges."""
    v: np.ndarray
    coef: np.ndarray
    cell: np.ndarray
    left: np.ndarray
    right: np.ndarray
    ends: np.ndarray

    def __matmul__(self, f: np.ndarray) -> np.ndarray:
        prefix = np.zeros((len(self.cell) + 1, self.left.shape[1]))  # integrals up to each edge
        np.cumsum(self.left * f[self.cell, None] + self.right * f[self.cell + 1, None], axis=0,
                  out=prefix[1:])
        span = np.diff(np.take(prefix, self.ends, axis=0), axis=0)  # over each row's pieces
        return np.einsum("ip,ip->i", self.v, np.tensordot(span, self.coef, ([0, 2], [0, 2])))


def _panels(problem: SystemProblem, n: int):
    """The n-node grid, the panel edges (the grid nodes and the kernel breakpoints, ascending,
    near-duplicates merged), the grid cell of every panel, the Gauss-7 nodes s of the panels
    (panels x 7, flattened), the position frac of each node in its cell (0 to 1, panels x 7)
    and a function that gives a component's g times the Gauss weights at s, panels x 7."""
    grid = _uniform_grid(n)
    grid.flags.writeable = False
    bps = [comp.kernel.breakpoints(grid).ravel() for comp in problem.components]
    edges = np.unique(np.concatenate([grid, *bps]))
    edges = edges[(edges >= 0.0) & (edges <= 1.0)]
    edges = edges[np.r_[True, np.diff(edges) > 1e-12]]  # merge near-duplicates
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    gl_x, gl_w = np.polynomial.legendre.leggauss(7)  # Gauss-Legendre 7 on [-1, 1]
    s = 0.5 * (lo + hi)[:, None] + half[:, None] * gl_x[None, :]
    cell = np.clip(np.searchsorted(grid, s[:, 0], side="right") - 1, 0, n - 2)
    frac = (s - grid[cell, None]) / (grid[cell + 1] - grid[cell])[:, None]
    s = s.ravel()
    s.flags.writeable = False  # shared by every component's basis functions and weight

    def gw(comp) -> np.ndarray:
        return function_of_s(comp.weight)(s).reshape(frac.shape) * (half[:, None] * gl_w[None, :])

    return grid, edges, cell, s, frac, gw


def _hat_sums(vals: np.ndarray, hats, starts: np.ndarray) -> np.ndarray:
    """The Gauss-7 sums of each row of vals (at the nodes s) against the hat of every node."""
    left, right = (np.einsum("rpq,pq->rp", vals.reshape(len(vals), *hat.shape), hat)
                   for hat in hats)
    if left.shape[1] > len(starts):  # some cell holds several panels
        left, right = (np.add.reduceat(x, starts, axis=1) for x in (left, right))
    out = np.zeros((len(vals), len(starts) + 1))
    out[:, :-1] = left
    out[:, 1:] += right
    return out


@functools.lru_cache(maxsize=1)
def _discretize(problem: SystemProblem, n: int) -> _Weights:
    """Product-integration weights of k_i*g_i and dk_i/dt*g_i on the n-node grid.

    Entry (i, j) is the integral of k(t_i, s) g(s) against the hat function
    of node j, so K @ f integrates the linear interpolant of nodal f exactly
    against k*g.  The integrals are composite Gauss-7 sums over panels split
    at the grid nodes and the kernel breakpoints.  A row block is one kern(t, s) call over all
    of s, contracted with the hat weights of every panel; it holds at most BLOCK_VALUES / 4
    values (or one row), the rule of quadopt's panel evaluation, where a full block costs RSS.
    """
    grid, _, cell, s, frac, gw = _panels(problem, n)
    starts = np.searchsorted(cell, np.arange(n - 1))  # every cell holds a panel
    rows = max(1, quadopt.BLOCK_VALUES // (4 * len(s)))
    matrices = []
    for comp in problem.components:
        g = gw(comp)
        hat = (g * (1.0 - frac), g * frac)
        pair = []
        for kern in (comp.kernel.k, comp.kernel.dk_dt):
            out = np.empty((n, n))
            for r in range(0, n, rows):
                t = grid[r:r + rows, None]
                vals = np.broadcast_to(kern(t, s), (len(t), len(s)))  # k may ignore t
                out[r:r + rows] = _hat_sums(vals, hat, starts)
            out.flags.writeable = False
            pair.append(out)
        matrices.append(tuple(pair))
    return _Weights(grid, grid, tuple(matrices))


@functools.lru_cache(maxsize=1)
def _piecewise(problem: SystemProblem, n: int):
    """The (k, dk/dt) _Piecewise weights of every component on _discretize's panels, when every
    kernel has pieces(); else None."""
    pieces = [comp.kernel.pieces() for comp in problem.components]
    if None in pieces:
        return None
    grid, edges, cell, s, frac, gw = _panels(problem, n)
    # t_i and eta are edges, or within 1e-12 of the edge _panels kept: round to the nearest
    mid = 0.5 * (edges[:-1] + edges[1:])
    v = np.vander(grid, max(c.shape[1] for piece in pieces for c in piece[2:]), increasing=True)

    def moments(fn, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vals = fn(s).reshape(frac.shape)  # one basis function at a time bounds the memory
        vals *= g  # in place: a basis function returns a new array
        right = np.einsum("pq,pq->p", vals, frac)
        return vals.sum(axis=1) - right, right

    def weights(comp, basis, ends, k, dk) -> tuple[_Piecewise, _Piecewise]:
        at = np.searchsorted(mid, ends(grid)).astype(np.int32)  # half size
        g = gw(comp)
        left, right = (np.stack(m, axis=1) for m in zip(*(moments(fn, g) for fn in basis)))
        return tuple(_Piecewise(v[:, :c.shape[1]], c, cell, left, right, at) for c in (k, dk))

    return tuple(weights(comp, *piece) for comp, piece in zip(problem.components, pieces))


def apply_T(problem: SystemProblem, p: GridPair) -> GridPair:
    """One application of the integral operator to a GridPair."""
    f1, f2 = (
        np.broadcast_to(nonlinearity(comp)(p.grid, p.u, p.du, p.v, p.dv), p.grid.shape)
        for comp in problem.components
    )
    return linear_image(problem, f1, f2, len(p.grid))


def _sup_distance(a: GridPair, b: GridPair) -> float:
    return max(float(np.max(np.abs(getattr(a, k) - getattr(b, k)))) for k in _FIELDS)


def _blend(x: GridPair, tx: GridPair, theta: float) -> GridPair:
    if theta == 1.0:
        return tx
    mixed = ((1 - theta) * getattr(x, k) + theta * getattr(tx, k) for k in _FIELDS)
    return GridPair(x.grid, *mixed)


def picard(
    problem: SystemProblem,
    init: GridPair,
    theta: float = 1.0,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> SolutionResult:
    """Damped Picard iteration x <- (1-theta) x + theta T(x).

    Stops when both the fixed-point residual ||T(x)-x|| and the step size
    fall to tol.  theta halves (at most 6 times) whenever the residual
    increases.  Fixed points promised by certificates need not be
    attracting; convergence to the zero solution is a common and honest
    outcome.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    x = init
    prev_residual = np.inf
    halvings = 0
    for iteration in range(1, max_iter + 1):
        tx = apply_T(problem, x)
        residual = _sup_distance(tx, x)
        if max(v for v in tx.norms().values()) > BLOWUP:
            raise Divergence(f"iterate norm exceeded {BLOWUP:.1e} at iteration {iteration}")
        if residual > prev_residual and halvings < 6:
            theta *= 0.5
            halvings += 1
        step = theta * residual
        x = _blend(x, tx, theta)
        if residual <= tol and step <= tol:
            return SolutionResult(x, residual, iteration, True, x.norms())
        prev_residual = residual
    tx = apply_T(problem, x)
    residual = _sup_distance(tx, x)
    return SolutionResult(x, residual, max_iter, False, x.norms())


def derivative_consistency(p: GridPair) -> float:
    """Worst gap between central differences of u (v) and du (dv).

    Meaningful at a converged fixed point only; during iteration the four
    arrays evolve independently.
    """
    h = p.grid[1] - p.grid[0]
    worst = 0.0
    for w, dw in ((p.u, p.du), (p.v, p.dv)):
        central = (w[2:] - w[:-2]) / (2 * h)
        worst = max(worst, float(np.max(np.abs(central - dw[1:-1]))))
    return worst


def _window_min(grid: np.ndarray, w: np.ndarray, lo: float, hi: float) -> float:
    """Least nodal w in [lo, hi]; with no node there, its linear interpolant's exact minimum."""
    inside = (grid >= lo - 1e-15) & (grid <= hi + 1e-15)
    return float(np.min(w[inside] if np.any(inside) else np.interp([lo, hi], grid, w)))


def cone_membership(p: GridPair, problem: SystemProblem) -> ConeReport:
    """Check the cone inequalities of both components at the grid nodes, or at a window's
    ends when no node lies in it."""
    checks: list[ConeCheck] = []
    variant = problem.variant
    for label, comp, w, dw in (
        ("u", problem.comp1, p.u, p.du),
        ("v", problem.comp2, p.v, p.dv),
    ):
        env = comp.envelope
        norms = (float(np.max(np.abs(w))), float(np.max(np.abs(dw))))
        min_ab = _window_min(p.grid, w, env.a, env.b)
        min_gd = _window_min(p.grid, dw, env.gamma, env.delta)
        checks.append(
            ConeCheck(f"min {label} on [a,b] >= c*||{label}||", min_ab - env.c * norms[0],
                      min_ab - env.c * norms[0] >= -CONE_TOL)
        )
        checks.append(
            ConeCheck(f"min {label}' on [gamma,delta] >= d*||{label}'||",
                      min_gd - env.d * norms[1], min_gd - env.d * norms[1] >= -CONE_TOL)
        )
        if variant in (ConeVariant.NON_NEGATIVE, ConeVariant.NON_NEGATIVE_NON_DECREASING):
            low = float(np.min(w))
            checks.append(ConeCheck(f"{label} >= 0", low, low >= -CONE_TOL))
        if variant is ConeVariant.NON_NEGATIVE_NON_DECREASING:
            low = float(np.min(dw))
            checks.append(ConeCheck(f"{label}' >= 0", low, low >= -CONE_TOL))
    return ConeReport(tuple(checks), all(c.passed for c in checks), CONE_TOL)


def localization_check(
    result: SolutionResult,
    inner: tuple[float, float],
    outer: tuple[float, float],
) -> bool:
    """True iff the solution sits in the closed outer box but not the open inner one."""
    u = result.norms["u_C1"]
    v = result.norms["v_C1"]
    return u <= outer[0] and v <= outer[1] and not (u < inner[0] and v < inner[1])


def bump_init(problem: SystemProblem, n: int = 401, scale: float = 1.0) -> GridPair:
    """Cone-shaped start profile: the operator image of the unit pair, rescaled.

    The image of any nonnegative pair lies in the cone, so this profile is a
    valid cone point at every positive scale.
    """
    ones = np.ones(n)
    grid = _uniform_grid(n)
    base = apply_T(problem, GridPair(grid, ones, ones, ones, ones))
    top = max(v for v in base.norms().values())
    if top == 0.0:
        return GridPair.zeros(n)
    lam = scale / top
    return GridPair(grid, lam * base.u, lam * base.du, lam * base.v, lam * base.dv)


def linear_image(
    problem: SystemProblem,
    q1: np.ndarray,
    q2: np.ndarray,
    n: int = 401,
) -> GridPair:
    """Image of densities (q1, q2) under the plain kernel integrals.

    Computes w_i(t) = int k_i(t,s) g_i(s) q_i(s) ds and the derivative
    analog on the n-node grid; q_i are nodal values interpolated linearly.
    For nonnegative q the result lies in the cone by the envelope bounds.
    """
    (k1, d1), (k2, d2) = _piecewise(problem, n) or _discretize(problem, n).matrices
    return GridPair(_uniform_grid(n), k1 @ q1, d1 @ q1, k2 @ q2, d2 @ q2)


def export_table(p: GridPair) -> str:
    """Tab-separated table (t, u, u', v, v') for external plotting."""
    lines = ["t\tu\tdu\tv\tdv"]
    for j in range(len(p.grid)):
        lines.append(
            f"{p.grid[j]:.12g}\t{p.u[j]:.12g}\t{p.du[j]:.12g}"
            f"\t{p.v[j]:.12g}\t{p.dv[j]:.12g}"
        )
    return "\n".join(lines) + "\n"
