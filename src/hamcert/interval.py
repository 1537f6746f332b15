"""Intervals that enclose numpy's float evaluation, so a box scan can skip blocks.

An Interval holds numpy arrays ``lo`` and ``hi``.  Elementwise, every float that
the same operations compute at points of the argument intervals lies in the
result's [lo, hi]: the float program is enclosed, not the real function.
Rounding to nearest is monotone, so +, -, *, /, sqrt, abs, min and max taken at
the corners already bound it.  power, exp, sin and cos come from libm or SIMD
code that need not be monotone, and are widened by a few ulps.  An element
whose float evaluation might leave the reals (a divisor interval holding 0,
sqrt or a fractional power of a negative part, any non-finite bound) is
poisoned: both ends NaN, as is every interval computed from it.
``np.isfinite`` of an Interval is true, so exprlang's compiled function runs on
Intervals unchanged and the poison carries the failure to the result.
``block_bounds`` encloses every block of a ``quadopt.grid_extremum`` scan, so
that the scan can skip the blocks that cannot hold its extremum.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

_EPS = np.finfo(float).eps
_ULPS = 4 * _EPS  # relative widening of power, exp, sin and cos
_TINY = np.finfo(float).tiny  # absolute widening of power and exp: subnormal results

# Most cells whose enclosures bound the blocks of one scan (a scan of more blocks gets no
# bounds), and at most one per POINT_CELLS grid points: a cell costs about as much as 80
# points, so bounds that skip nothing add about a tenth to a scan.  An enclose call takes
# at most CALL_CELLS cells: each operation makes several arrays per cell.
BOUND_CELLS = 1 << 16
POINT_CELLS = 1024
CALL_CELLS = 2048


class Interval(np.lib.mixins.NDArrayOperatorsMixin):
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None, poison=False):
        lo = np.asarray(lo, dtype=float)
        hi = lo if hi is None else np.asarray(hi, dtype=float)
        bad = ~(np.isfinite(lo) & np.isfinite(hi)) | poison
        if bad.any():
            lo, hi = np.where(bad, np.nan, lo), np.where(bad, np.nan, hi)
        self.lo, self.hi = lo, hi

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        op = _UFUNCS.get(ufunc)
        if op is None or method != "__call__" or kwargs:
            return NotImplemented
        return op(*inputs)


def _interval(x) -> Interval:
    return x if isinstance(x, Interval) else Interval(x)


def _hull(values, poison=False, widen=(0.0, 0.0)) -> Interval:
    """The least interval holding ``values``, widened by (relative, absolute) ``widen``."""
    values = list(values)
    lo, hi = reduce(np.minimum, values), reduce(np.maximum, values)
    if widen != (0.0, 0.0):
        lo, hi = lo - (widen[0] * np.abs(lo) + widen[1]), hi + (widen[0] * np.abs(hi) + widen[1])
    return Interval(lo, hi, poison)


def _multiply(a, b) -> Interval:
    a, b = _interval(a), _interval(b)
    return _hull(x * y for x in (a.lo, a.hi) for y in (b.lo, b.hi))


def _divide(a, b) -> Interval:
    a, b = _interval(a), _interval(b)
    return _hull((x / y for x in (a.lo, a.hi) for y in (b.lo, b.hi)),
                 poison=(b.lo <= 0.0) & (b.hi >= 0.0))


def _power(x, y) -> Interval:
    """x^y: at the corners, where x^y is monotone.  An interval exponent needs x > 0; a
    fractional constant one x >= 0 (x > 0 if negative), an integer one no 0 in x if negative.
    An even power of an x that straddles 0 has the least value 0."""
    x = _interval(x)
    if isinstance(y, Interval) or np.ndim(y):
        y = _interval(y)
        out = _hull((np.power(a, b) for a in (x.lo, x.hi) for b in (y.lo, y.hi)),
                    ~(x.lo > 0.0) | np.isnan(y.lo), (_ULPS, _TINY))  # NaN: x poisoned
        return Interval(np.maximum(out.lo, 0.0), out.hi)
    p = float(y)
    out = _hull((np.power(x.lo, p), np.power(x.hi, p)), np.isnan(x.lo), (_ULPS, _TINY))
    if not p.is_integer():
        poison = x.lo < 0.0 if p > 0 else x.lo <= 0.0
    else:
        poison = (p < 0) & (x.lo <= 0.0) & (x.hi >= 0.0)
        if p % 2:
            return Interval(out.lo, out.hi, poison)
    straddle = (x.lo < 0.0) & (x.hi > 0.0)
    return Interval(np.where(straddle, 0.0, np.maximum(out.lo, 0.0)), out.hi, poison)


def _exp(x) -> Interval:
    out = _hull((np.exp(x.lo), np.exp(x.hi)), widen=(_ULPS, _TINY))
    return Interval(np.maximum(out.lo, 0.0), out.hi)


def _periodic(f, offset: float):
    """sin or cos: the corner values, widened, where no extremum offset + k*pi can lie in
    [lo, hi], else [-1, 1].  The margin covers the rounding of the test itself, and at large
    |x| it spans pi, so the test then always answers [-1, 1]."""
    def apply(x) -> Interval:
        margin = 16 * _EPS * np.maximum(1.0, np.maximum(np.abs(x.lo), np.abs(x.hi)))
        flat = (np.floor((x.lo - margin - offset) / np.pi)
                == np.floor((x.hi + margin - offset) / np.pi))
        out = _hull((f(x.lo), f(x.hi)), widen=(_ULPS, _ULPS))
        return Interval(np.where(flat, np.maximum(out.lo, -1.0), -1.0),
                        np.where(flat, np.minimum(out.hi, 1.0), 1.0), np.isnan(x.lo))
    return apply


def _absolute(x) -> Interval:
    lo = np.where(x.lo >= 0.0, x.lo, np.where(x.hi <= 0.0, -x.hi, 0.0))
    return Interval(lo, np.maximum(np.abs(x.lo), np.abs(x.hi)))


def _sqrt(x) -> Interval:
    return Interval(np.sqrt(x.lo), np.sqrt(x.hi), x.lo < 0.0)


def _monotone(op):
    """A binary ufunc nondecreasing in each argument (+, min, max) on intervals."""
    def apply(a, b) -> Interval:
        a, b = _interval(a), _interval(b)
        return Interval(op(a.lo, b.lo), op(a.hi, b.hi))
    return apply


# every operation exprlang's compiled functions perform (a - b is a + (-b) bit for bit)
_UFUNCS = {
    np.add: _monotone(np.add), np.subtract: lambda a, b: _monotone(np.add)(a, -_interval(b)),
    np.multiply: _multiply, np.negative: lambda x: Interval(-x.hi, -x.lo),
    np.divide: _divide, np.power: _power, np.exp: _exp,
    np.sin: _periodic(np.sin, np.pi / 2), np.cos: _periodic(np.cos, 0.0),
    np.absolute: _absolute, np.sqrt: _sqrt,
    np.minimum: _monotone(np.minimum), np.maximum: _monotone(np.maximum),
    np.isfinite: lambda x: np.True_,
}


def block_bounds(enclose, axes, split: int, step: int, sup: bool) -> np.ndarray | None:
    """Each block's bound on the scanned function, in C order of the blocks: the largest hi
    (``sup``) or the smallest lo of ``enclose`` over the block's cells.  None if a bound is
    not finite or there are more than BOUND_CELLS blocks.

    A block is one point of each axis before ``split``, a chunk of ``step`` points of the
    split axis and all of each later axis, as in ``quadopt.grid_extremum``.  The later axes
    are cut into equal runs of points, as many as the cell budget allows: one enclosure of a
    whole block suffers most from dependency (f and a margin term reading the same axis).
    A cell's interval on an axis spans the min and max of its points.
    """
    blocks = math.prod(len(a) for a in axes[:split]) * -(-len(axes[split]) // step)
    if blocks > BOUND_CELLS:
        return None
    budget = max(blocks, min(BOUND_CELLS, math.prod(len(a) for a in axes) // POINT_CELLS))
    later = sum(len(a) > 1 for a in axes[split + 1:])
    cells = int((budget / blocks) ** (1 / later)) if later else 1
    steps = [1] * split + [step] + [-(-len(a) // cells) for a in axes[split + 1:]]
    ends = []
    for k, (a, s) in enumerate(zip(axes, steps)):
        starts, along = np.arange(0, len(a), s), [-1 if j == k else 1 for j in range(len(axes))]
        ends.append(Interval(np.minimum.reduceat(a, starts).reshape(along),
                             np.maximum.reduceat(a, starts).reshape(along)))
    shape = tuple(x.lo.size for x in ends)
    # enclose CALL_CELLS cells at a time, in slices of the first axis of more than one
    d = next((k for k, n in enumerate(shape) if n > 1), 0)
    rows = max(1, CALL_CELLS * shape[d] // math.prod(shape))
    bound = np.full(shape[:split + 1], -np.inf if sup else np.inf)
    worst = np.maximum if sup else np.minimum
    for i in range(0, shape[d], rows):
        at = (slice(None),) * d + (slice(i, i + rows),)
        args = [Interval(x.lo[at], x.hi[at]) if k == d else x for k, x in enumerate(ends)]
        with np.errstate(all="ignore"):
            out = _interval(enclose(*args))
        side = np.broadcast_to(out.hi if sup else out.lo, args[d].lo.shape[:d + 1] + shape[d + 1:])
        side = worst.reduce(side, axis=tuple(range(split + 1, len(shape))))
        target = bound[at] if d <= split else bound
        worst(target, side, out=target)
    bound = bound.ravel()
    return bound if np.isfinite(bound).all() else None
