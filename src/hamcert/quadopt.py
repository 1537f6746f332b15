"""Adaptive quadrature, line extremum search and box sup/inf sampling.

The integrator is a Gauss-Kronrod (7,15) pair with bisection refinement and
caller-declared breakpoints, so piecewise-smooth integrands are split along
their kinks before the first pass.  It integrates many rows t -> int f(t,s) ds
in one first pass, each row as on its own.  The extremum search seeds a uniform
grid and polishes the best bracket with golden-section iteration; it never
returns a value worse than the best seed.  Box extrema are plain tensor-grid scans
(corners included), run block by block in bounded memory, best-first when
interval bounds let blocks be skipped; they are estimates, not certified bounds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Gauss-Kronrod (7,15) nodes and weights on [-1, 1].  Kronrod nodes contain
# the 7 Gauss nodes as every second entry, from the second.
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

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0

# Most values one vectorized evaluation holds (a box scan's block, a solver row
# block): temporaries stay cache-sized, where multi-MB ones are mapped and
# page-faulted anew for each block.
BLOCK_VALUES = 1 << 16

# Most points one scan axis (or one boundary-problem grid) may have.
MAX_AXIS_POINTS = 1 << 22

SCAN_POINTS = 256  # uniform points per row of sign_change_roots' scan
ROOT_TOL = 1e-14  # sign_change_roots bisects until a row's widest bracket is at most this
QUAD_TOL = 1e-12  # the absolute error to which integrate_rows integrates every row
MAX_PANELS = 10_000  # most panels one row may be cut into


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


def _evaluate(fn: Callable, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``fn(t, s)`` as floats of s's shape; a result of another shape is broadcast."""
    out = np.asarray(fn(t, s), dtype=float)
    return out if out.shape == s.shape else np.broadcast_to(out, s.shape)


def _panels_eval(fn, t: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The GK(7,15) value and error of every panel, panel i integrating s -> fn(t[i], s).

    At most BLOCK_VALUES / 4 nodes go through ``fn`` per call: a full block raised the peak RSS
    of ``green-check third_order.prob --grid 20001`` from 34.3 to 36.0 MB (2-core x86-64 box).
    """
    step = max(1, BLOCK_VALUES // (4 * _XK.size))
    if len(lo) > step:
        parts = [_panels_eval(fn, t[i:i + step], lo[i:i + step], hi[i:i + step])
                 for i in range(0, len(lo), step)]
        return tuple(np.concatenate(x) for x in zip(*parts))
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _XK[None, :]
    vals = _evaluate(fn, t[:, None], nodes)
    k15 = half * (vals * _WK[None, :]).sum(axis=1)
    g7 = half * (vals[:, 1::2] * _WG[None, :]).sum(axis=1)  # the Gauss nodes
    resabs = half * (np.abs(vals) * _WK[None, :]).sum(axis=1)
    return k15, np.maximum(np.abs(k15 - g7), 50.0 * np.finfo(float).eps * resabs)


def _row_sums(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each row's sum of its ``counts[r]`` consecutive entries, bit-identical to ``run.sum()``.

    Rows of equal count are summed as one (rows, count) array; np.add.reduceat
    would add sequentially and round differently.
    """
    if len(counts) == 1 or counts.min() == counts.max():
        return x.reshape(len(counts), -1).sum(axis=1)
    out = np.empty(len(counts))
    starts = np.cumsum(counts) - counts
    for c in np.flatnonzero(np.bincount(counts)):  # np.unique would import numpy.ma
        rows = np.flatnonzero(counts == c)
        out[rows] = x[starts[rows, None] + np.arange(c)].sum(axis=1)
    return out


def _first_panels(ts: np.ndarray, lo: float, hi: float, breakpoints):
    """Each row's panels between lo, its breakpoints and hi: t, lo, hi; count per row.

    A breakpoint is an edge if it lies inside (lo, hi) and more than 1e-15
    (relative, above 1) past the row's last edge.
    """
    bps = np.empty((len(ts), 0)) if breakpoints is None else breakpoints
    if len(ts) == 1:  # plain floats beat a dozen array operations on one row
        edges = [lo]
        for b in sorted({float(b) for b in bps[0] if lo < b < hi}):
            if b - edges[-1] > 1e-15 * max(1.0, abs(b)):
                edges.append(b)
        edges, n = np.array(edges + [hi]), len(edges)
        return ts.repeat(n), edges[:-1], edges[1:], np.array([n])
    bps = np.sort(np.asarray(bps, dtype=float).reshape(len(ts), -1), axis=1)
    edges = np.column_stack([np.full(len(ts), lo), bps, np.full(len(ts), hi)])
    keep = np.ones(edges.shape, dtype=bool)
    last = edges[:, 0]
    for j in range(1, edges.shape[1] - 1):  # the same rule, one breakpoint column at a time
        b = edges[:, j]
        keep[:, j] = (lo < b) & (b < hi) & (b - last > 1e-15 * np.maximum(1.0, np.abs(b)))
        last = np.where(keep[:, j], b, last)
    rows, edges = np.nonzero(keep)[0], edges[keep]
    inner = rows[1:] == rows[:-1]  # each edge but a row's last starts a panel
    row = rows[:-1][inner]
    return ts[row], edges[:-1][inner], edges[1:][inner], np.count_nonzero(keep, axis=1) - 1


def _refine(fn, t: float, lo: float, hi: float, a, b, vals, errs) -> tuple[float, float, int]:
    """integrate's bisection of one row's panels [a, b]: its (value, error bound, panel count)."""
    while True:
        total = errs.sum()
        if total <= QUAD_TOL:
            return vals.sum(), total, len(a)
        select = errs > 0.45 * QUAD_TOL * (b - a) / (hi - lo)
        if not select.any():
            select = errs == errs.max()
        if not math.isfinite(total) or len(a) + np.count_nonzero(select) > MAX_PANELS:
            raise QuadratureFailure(
                f"subdivision cap {MAX_PANELS} reached (error {total:.3e} > tol {QUAD_TOL:.3e})"
                if math.isfinite(total) else "non-finite panel value or error estimate",
                float(vals.sum()), float(total), len(a),
            )
        mid = 0.5 * (a[select] + b[select])  # panels: kept, then left halves, then right halves
        a = np.concatenate([a[~select], a[select], mid])
        b = np.concatenate([b[~select], mid, b[select]])
        new = _panels_eval(fn, np.full(2 * len(mid), t), a[-2 * len(mid):], b[-2 * len(mid):])
        vals, errs = (np.concatenate([x[~select], y]) for x, y in zip((vals, errs), new))


def integrate_rows(
    fn: Callable,
    ts,
    lo: float,
    hi: float,
    breakpoints=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate s -> fn(t, s) over [lo, hi] to absolute tolerance QUAD_TOL for every t in ``ts``.

    ``fn`` gets a column of t values and an array of s nodes, a row of nodes
    per t; its result must broadcast to the nodes.  ``breakpoints`` holds a
    row per t of abscissas where the integrand may lose smoothness (NaN,
    repeats and points outside (lo, hi) are ignored).  All rows' first panels
    go through ``fn`` at once, at most BLOCK_VALUES / 4 nodes per call; each
    row left above the tolerance is then bisected on its own, in row order.
    Each row gets integrate's (value, error bound, panel count) bit for bit.
    Raises the QuadratureFailure of the first failing row.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ValueError(f"bad integration interval [{lo}, {hi}]")
    ts = np.asarray(ts, dtype=float)
    if lo == hi or not len(ts):
        return np.zeros(len(ts)), np.zeros(len(ts)), np.ones(len(ts), dtype=int)

    t_arr, lo_arr, hi_arr, counts = _first_panels(ts, lo, hi, breakpoints)
    vals, errs = _panels_eval(fn, t_arr, lo_arr, hi_arr)
    values, total_err = _row_sums(vals, counts), _row_sums(errs, counts)
    if total_err.max() <= QUAD_TOL:  # every row is done (NaN is never below it)
        return values, total_err, counts
    starts = np.cumsum(counts) - counts
    for r in np.flatnonzero(~(total_err <= QUAD_TOL)):
        run = slice(starts[r], starts[r] + counts[r])
        values[r], total_err[r], counts[r] = _refine(
            fn, ts[r], lo, hi, lo_arr[run], hi_arr[run], vals[run], errs[run])
    return values, total_err, counts


def integrate(
    fn: Callable,
    lo: float,
    hi: float,
    breakpoints: Sequence[float] = (),
) -> QuadResult:
    """Integrate ``fn`` over [lo, hi] to absolute tolerance QUAD_TOL: one row of integrate_rows.

    Panels never straddle ``breakpoints``.  Raises QuadratureFailure (carrying
    the best value and achieved error) once MAX_PANELS panels would be
    exceeded, or as soon as a panel's value or error is not finite.
    """
    values, errors, panels = integrate_rows(lambda t, s: fn(s), np.zeros(1), lo, hi, (breakpoints,))
    return QuadResult(float(values[0]), float(errors[0]), int(panels[0]))


def extremize(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    mode: str = "max",
) -> ExtremumResult:
    """Locate an extremum on [lo, hi] of ``fn``, which maps an array of abscissas to values.

    Seeds 129 uniform points (endpoints included) in one call, then
    refines the best bracketing triple by golden-section search down to
    interval width 1e-10, one point per call.  Ties prefer the smallest
    abscissa; the result is never worse than the best seed.
    """
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    if not lo < hi:
        raise ValueError(f"bad search interval [{lo}, {hi}]")

    sign = 1.0 if mode == "max" else -1.0
    xs = np.linspace(lo, hi, 129)
    samples = 0

    def g(x: np.ndarray) -> np.ndarray:
        nonlocal samples
        samples += x.size
        return sign * np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape)

    ys = g(xs)
    best_i = int(np.argmax(ys))
    best_x, best_y = float(xs[best_i]), float(ys[best_i])

    a = float(xs[max(best_i - 1, 0)])
    b = float(xs[min(best_i + 1, len(xs) - 1)])
    c = a + (1.0 - _INV_PHI) * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = g(np.array([c, d])).tolist()
    while b - a > 1e-10:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = a + (1.0 - _INV_PHI) * (b - a)
            (fc,) = g(np.array([c])).tolist()
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            (fd,) = g(np.array([d])).tolist()
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
    fn: Callable, axes: Sequence[np.ndarray], mode: str = "sup", enclose: Callable | None = None
) -> tuple[float, tuple[float, ...]]:
    """sup or inf of ``fn`` over the tensor grid of ``axes``, with its grid point.

    ``fn`` takes one broadcastable array per axis, and the shape of its
    result may depend only on the shapes of its arguments.  The grid is
    scanned in blocks over the leading axes of at most BLOCK_VALUES points,
    so memory does not grow with the grid.  An axis ``fn`` does not read is
    not scanned: its first point stands for all of it.  Ties resolve to the
    first grid point in C order.

    ``enclose`` takes one ``interval.Interval`` per axis and must hold every
    float value ``fn`` computes there (exprlang's compiled functions run on
    Intervals, so hamcert passes ``fn`` itself).  It bounds every block at
    once (``interval.block_bounds``), and the blocks are then evaluated best
    bound first; a block whose bound cannot beat the best value so far, or
    tie it at an earlier point, is skipped.  The value and the point are
    those of the C-order scan, bit for bit.  Without bounds, every block is
    evaluated in C order.
    """
    if mode not in ("sup", "inf"):
        raise ValueError(f"mode must be 'sup' or 'inf', got {mode!r}")
    pick, better = (np.argmax, operator.gt) if mode == "sup" else (np.argmin, operator.lt)

    def evaluate(block):
        return np.asarray(fn(*np.meshgrid(*block, indexing="ij", sparse=True)), dtype=float)

    if enclose is not None:  # loaded here, so that runs without a box scan do not load it
        from .interval import block_bounds
    # fn's result has length 1 along every axis it does not read
    probe = evaluate([a[:2] for a in axes]).shape
    probe = (1,) * (len(axes) - len(probe)) + probe
    axes = [a if probe[k] > 1 else a[:1] for k, a in enumerate(axes)]
    shape = tuple(len(a) for a in axes)
    split = next(k for k in range(len(shape)) if math.prod(shape[k + 1:]) <= BLOCK_VALUES)
    step = BLOCK_VALUES // math.prod(shape[split + 1:])
    blocks = (*shape[:split], -(-shape[split] // step))  # outer index, chunk of the split axis
    bound = None
    if enclose is not None and math.prod(blocks) > 1:
        bound = block_bounds(enclose, axes, split, step, mode == "sup")
    # best bound first, C order among equal bounds; C order without bounds
    order = range(math.prod(blocks)) if bound is None else np.argsort(
        -bound if mode == "sup" else bound, kind="stable")
    rest = (0,) * (len(shape) - split - 1)
    best = where = None
    for b in order:
        *outer, chunk = map(int, np.unravel_index(b, blocks))
        lo = chunk * step
        if bound is not None and best is not None:
            if better(best, bound[b]):
                break
            if bound[b] == best and (*outer, lo, *rest) > where:
                continue
        block = [a[i:i + 1] for a, i in zip(axes, outer)]
        block += [axes[split][lo:lo + step], *axes[split + 1:]]
        vals = np.broadcast_to(evaluate(block), tuple(len(a) for a in block))
        idx = np.unravel_index(int(pick(vals)), vals.shape)
        value, at = vals[idx], (*outer, lo + int(idx[split]), *map(int, idx[split + 1:]))
        if best is None or better(value, best) or (value == best and at < where):
            best, where = value, at
    return float(best), tuple(float(a[i]) for a, i in zip(axes, where))


def box_extremum_with_witness(
    fn: Callable,
    box: Sequence[tuple[float, float]],
    mode: str = "sup",
    n_per_axis: int = 17,
    enclose: Callable | None = None,
) -> tuple[float, tuple[float, ...]]:
    """Tensor-grid estimate of sup or inf of ``fn`` over a box, with its grid point.

    ``fn`` must accept one broadcastable numpy array per axis.  All corners
    are grid points.  The value is an estimate: a lower bound of the true
    sup, an upper bound of the true inf.  ``enclose`` is grid_extremum's.
    """
    if n_per_axis < 2:
        raise ValueError("n_per_axis must be at least 2")
    return grid_extremum(fn, box_axes(box, n_per_axis), mode, enclose)


def sign_change_roots(
    fn: Callable,
    ts,
    lo: float,
    hi: float,
) -> list[tuple[float, ...]]:
    """Interior roots in s of fn(t, s) on [lo, hi] for each t in ``ts``, by scan plus bisection.

    ``fn`` is called as in integrate_rows, first on a (rows, SCAN_POINTS) grid
    of uniform points.  Each sign change is refined by bisection, all rows at
    once, until the row's widest bracket is at most ROOT_TOL or a bracket's
    midpoint is one of its ends.  Roots the scan steps over are not found.
    """
    ts = np.asarray(ts, dtype=float)
    xs = np.linspace(lo, hi, SCAN_POINTS)
    ys = _evaluate(fn, ts[:, None], np.broadcast_to(xs, (len(ts), SCAN_POINTS)))
    zero_row, zero = np.nonzero(ys[:, 1:-1] == 0.0)
    row, flips = np.nonzero(ys[:, :-1] * ys[:, 1:] < 0.0)
    a, b, fa = xs[flips], xs[flips + 1], ys[row, flips]
    while a.size:
        widest = np.zeros(len(ts))
        np.maximum.at(widest, row, b - a)
        m = 0.5 * (a + b)
        live = (widest[row] > ROOT_TOL) & (m != a) & (m != b)  # else no float lies between
        if not live.any():
            break
        m = m[live]
        fm = _evaluate(fn, ts[row[live], None], m[:, None])[:, 0]
        left = fa[live] * fm <= 0.0
        a[live], b[live] = np.where(left, a[live], m), np.where(left, m, b[live])
        fa[live] = np.where(left, fa[live], fm)
    owner = np.concatenate([zero_row, row])
    found = np.concatenate([xs[zero + 1], 0.5 * (a + b)])
    out = []
    for r in range(len(ts)):
        merged: list[float] = []
        for x in sorted(x for x in found[owner == r].tolist() if lo + ROOT_TOL < x < hi - ROOT_TOL):
            if not merged or x - merged[-1] > 10 * ROOT_TOL:
                merged.append(x)
        out.append(tuple(merged))
    return out
