"""Adaptive quadrature, line extremum search and box sup/inf sampling.

The integrator is a Gauss-Kronrod (7,15) pair with bisection refinement and
caller-declared breakpoints, so piecewise-smooth integrands are split along
their kinks before the first pass.  The extremum search seeds a uniform grid
and polishes the best bracket with golden-section iteration; it never returns
a value worse than the best seed.  Box extrema are plain tensor-grid scans
(corners included), run block by block in bounded memory; they are
estimates, not certified bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Gauss-Kronrod (7,15) nodes and weights on [-1, 1].  Kronrod nodes contain
# the 7 Gauss nodes as every second entry.
_XK = np.array([
    -0.991455371120813,
    -0.949107912342759,
    -0.864864423359769,
    -0.741531185599394,
    -0.586087235467691,
    -0.405845151377397,
    -0.207784955007898,
    0.0,
    0.207784955007898,
    0.405845151377397,
    0.586087235467691,
    0.741531185599394,
    0.864864423359769,
    0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
    0.204432940075298,
    0.190350578064785,
    0.169004726639267,
    0.140653259715525,
    0.104790010322250,
    0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
    0.381830050505119,
    0.279705391489277,
    0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0

# Most values one vectorized evaluation holds (a box scan's block, a solver row
# block): temporaries stay cache-sized, where multi-MB ones are mapped and
# page-faulted anew for each block.
BLOCK_VALUES = 1 << 16

# Most points one scan axis (or one boundary-problem grid) may have.
MAX_AXIS_POINTS = 1 << 22


class QuadratureFailure(Exception):
    """Subdivision cap reached or a panel not finite; carries the best value."""

    def __init__(self, message: str, value: float, error_bound: float, subdivisions: int):
        super().__init__(message)
        self.value = value
        self.error_bound = error_bound
        self.subdivisions = subdivisions


@dataclass(frozen=True, slots=True)
class QuadResult:
    value: float
    error_bound: float
    subdivisions: int


@dataclass(frozen=True, slots=True)
class ExtremumResult:
    location: float
    value: float
    mode: str
    samples: int


def _vectorized(fn: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """Adapt ``fn`` to a vector-in, vector-out callable; a scalar result is broadcast."""

    def call(x: np.ndarray) -> np.ndarray:
        out = np.asarray(fn(x), dtype=float)
        return out if out.shape == x.shape else np.broadcast_to(out, x.shape)

    return call


def _panels_eval(fn_vec, lo_arr: np.ndarray, hi_arr: np.ndarray):
    """Evaluate the GK(7,15) pair on every panel at once."""
    mid = 0.5 * (lo_arr + hi_arr)
    half = 0.5 * (hi_arr - lo_arr)
    nodes = mid[:, None] + half[:, None] * _XK[None, :]
    vals = fn_vec(nodes.ravel()).reshape(nodes.shape)
    k15 = half * (vals * _WK[None, :]).sum(axis=1)
    g7 = half * (vals[:, _GAUSS_IDX] * _WG[None, :]).sum(axis=1)
    resabs = np.abs(half) * (np.abs(vals) * _WK[None, :]).sum(axis=1)
    err = np.maximum(np.abs(k15 - g7), 50.0 * np.finfo(float).eps * resabs)
    return k15, err


def integrate(
    fn: Callable,
    lo: float,
    hi: float,
    breakpoints: Sequence[float] = (),
    tol: float = 1e-12,
    max_panels: int = 10_000,
) -> QuadResult:
    """Integrate ``fn`` over [lo, hi] to absolute tolerance ``tol``.

    ``breakpoints`` are interior abscissas where the integrand may lose
    smoothness; panels never straddle them.  Raises QuadratureFailure (still
    carrying the best value and achieved error) once ``max_panels`` panels
    would be exceeded, or as soon as a panel's value or error is not finite.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
        raise ValueError(f"bad integration interval [{lo}, {hi}]")
    if lo == hi:
        return QuadResult(0.0, 0.0, 1)

    fn_vec = _vectorized(fn)
    interior = sorted({float(b) for b in breakpoints if lo < b < hi})
    edges = [lo]
    for b in interior:
        if b - edges[-1] > 1e-15 * max(1.0, abs(b)):
            edges.append(b)
    edges.append(hi)

    lo_arr = np.array(edges[:-1])
    hi_arr = np.array(edges[1:])
    vals, errs = _panels_eval(fn_vec, lo_arr, hi_arr)
    span = hi - lo

    while True:
        total_err = float(errs.sum())
        if not math.isfinite(total_err):  # so is any panel whose value is not finite
            raise QuadratureFailure("non-finite panel value or error estimate",
                                    float(vals.sum()), total_err, len(lo_arr))
        if total_err <= tol:
            return QuadResult(float(vals.sum()), total_err, len(lo_arr))
        widths = hi_arr - lo_arr
        select = errs > 0.45 * tol * widths / span
        if not select.any():
            select = errs == errs.max()
        n_new = len(lo_arr) + int(select.sum())
        if n_new > max_panels:
            raise QuadratureFailure(
                f"subdivision cap {max_panels} reached (error {total_err:.3e} > tol {tol:.3e})",
                float(vals.sum()),
                total_err,
                len(lo_arr),
            )
        mid = 0.5 * (lo_arr[select] + hi_arr[select])
        sub_lo = np.concatenate([lo_arr[select], mid])
        sub_hi = np.concatenate([mid, hi_arr[select]])
        sub_vals, sub_errs = _panels_eval(fn_vec, sub_lo, sub_hi)
        lo_arr = np.concatenate([lo_arr[~select], sub_lo])
        hi_arr = np.concatenate([hi_arr[~select], sub_hi])
        vals = np.concatenate([vals[~select], sub_vals])
        errs = np.concatenate([errs[~select], sub_errs])


def extremize(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    mode: str = "max",
    n_seed: int = 129,
    tol: float = 1e-10,
) -> ExtremumResult:
    """Locate an extremum of ``fn`` on [lo, hi].

    Seeds ``n_seed`` uniform points (endpoints included), then refines the
    best bracketing triple by golden-section search down to interval width
    ``tol``.  Ties prefer the smallest abscissa; the result is never worse
    than the best seed.
    """
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    if not lo < hi:
        raise ValueError(f"bad search interval [{lo}, {hi}]")
    if n_seed < 3:
        raise ValueError("n_seed must be at least 3")

    sign = 1.0 if mode == "max" else -1.0
    xs = np.linspace(lo, hi, n_seed)
    samples = 0

    def g(x: float) -> float:
        nonlocal samples
        samples += 1
        return sign * float(fn(float(x)))

    ys = np.array([g(x) for x in xs])
    best_i = int(np.argmax(ys))
    best_x, best_y = float(xs[best_i]), float(ys[best_i])

    a = float(xs[max(best_i - 1, 0)])
    b = float(xs[min(best_i + 1, n_seed - 1)])
    c = a + (1.0 - _INV_PHI) * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = g(c), g(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = a + (1.0 - _INV_PHI) * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = g(d)
        x_cand, y_cand = (c, fc) if fc >= fd else (d, fd)
        if y_cand > best_y or (y_cand == best_y and x_cand < best_x):
            best_x, best_y = float(x_cand), float(y_cand)

    return ExtremumResult(best_x, sign * best_y, mode, samples)


def box_axes(box: Sequence[tuple[float, float]], n: int) -> list[np.ndarray]:
    """Sample points per box interval: ``n`` uniform points, or one if pinned."""
    if n > MAX_AXIS_POINTS:
        raise ValueError(f"at most {MAX_AXIS_POINTS} points per axis, got {n}")
    axes = []
    for lo, hi in box:
        if lo > hi:
            raise ValueError(f"bad box interval [{lo}, {hi}]")
        axes.append(np.array([lo]) if lo == hi else np.linspace(lo, hi, n))
    return axes


def grid_extremum(
    fn: Callable, axes: Sequence[np.ndarray], mode: str = "sup"
) -> tuple[float, tuple[float, ...]]:
    """sup or inf of ``fn`` over the tensor grid of ``axes``, with its grid point.

    ``fn`` takes one broadcastable array per axis, and the shape of its
    result may depend only on the shapes of its arguments.  The grid is
    scanned in C order, in blocks over the leading axes of at most
    BLOCK_VALUES points, so memory does not grow with the grid.  An axis
    ``fn`` does not read is not scanned: its first point stands for all of
    it.  Ties resolve to the first grid point in C order.
    """
    if mode not in ("sup", "inf"):
        raise ValueError(f"mode must be 'sup' or 'inf', got {mode!r}")
    pick = np.argmax if mode == "sup" else np.argmin

    def evaluate(block):
        return np.asarray(fn(*np.meshgrid(*block, indexing="ij", sparse=True)), dtype=float)

    # fn's result has length 1 along every axis it does not read
    probe = evaluate([a[:2] for a in axes]).shape
    probe = (1,) * (len(axes) - len(probe)) + probe
    axes = [a if probe[k] > 1 else a[:1] for k, a in enumerate(axes)]
    shape = tuple(len(a) for a in axes)
    split = next(k for k in range(len(shape)) if math.prod(shape[k + 1:]) <= BLOCK_VALUES)
    step = BLOCK_VALUES // math.prod(shape[split + 1:])
    best = where = None
    for outer in np.ndindex(*shape[:split]):
        for lo in range(0, shape[split], step):
            block = [a[i:i + 1] for a, i in zip(axes, outer)]
            block += [axes[split][lo:lo + step], *axes[split + 1:]]
            vals = np.broadcast_to(evaluate(block), tuple(len(a) for a in block))
            idx = np.unravel_index(int(pick(vals)), vals.shape)
            if best is None or (vals[idx] > best if mode == "sup" else vals[idx] < best):
                best = vals[idx]
                where = (*outer, lo + idx[split], *idx[split + 1:])
    return float(best), tuple(float(a[i]) for a, i in zip(axes, where))


def box_extremum_with_witness(
    fn: Callable,
    box: Sequence[tuple[float, float]],
    mode: str = "sup",
    n_per_axis: int = 17,
) -> tuple[float, tuple[float, ...]]:
    """Tensor-grid estimate of sup or inf of ``fn`` over a box, with its grid point.

    ``fn`` must accept one broadcastable numpy array per axis.  All corners
    are grid points.  The value is an estimate: a lower bound of the true
    sup, an upper bound of the true inf.
    """
    if n_per_axis < 2:
        raise ValueError("n_per_axis must be at least 2")
    return grid_extremum(fn, box_axes(box, n_per_axis), mode)


def sign_change_roots(
    fn: Callable,
    lo: float,
    hi: float,
    n_scan: int = 256,
    xtol: float = 1e-14,
) -> tuple[float, ...]:
    """Interior roots of ``fn`` on [lo, hi] located by scan plus bisection.

    The scan uses ``n_scan`` uniform points; each sign change is refined by
    bisection.  Roots the scan steps over are not found.
    """
    fn_vec = _vectorized(fn)
    xs = np.linspace(lo, hi, n_scan)
    ys = fn_vec(xs)
    roots: list[float] = []
    exact = np.nonzero(ys == 0.0)[0]
    for i in exact:
        if 0 < i < n_scan - 1:
            roots.append(float(xs[i]))
    flips = np.nonzero(ys[:-1] * ys[1:] < 0.0)[0]
    a = xs[flips].astype(float)
    b = xs[flips + 1].astype(float)
    fa = ys[flips].astype(float)
    while a.size and np.max(b - a) > xtol:
        m = 0.5 * (a + b)
        fm = fn_vec(m)
        go_left = fa * fm <= 0.0
        b = np.where(go_left, m, b)
        a = np.where(go_left, a, m)
        fa = np.where(go_left, fa, fm)
    roots.extend(float(x) for x in 0.5 * (a + b))
    interior = sorted(r for r in roots if lo + xtol < r < hi - xtol)
    out: list[float] = []
    for r in interior:
        if not out or r - out[-1] > 10 * xtol:
            out.append(r)
    return tuple(out)
