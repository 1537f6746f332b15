"""Interval enclosures of exprlang's float evaluation, checked on grids of points."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert.exprlang import FUNCTIONS, BinOp, Call, DomainError, Neg, Num, Var, evaluate, parse
from hamcert.interval import Interval

VARS = ("x", "y")
# exponents: even, odd, zero, negative and fractional, and large literals for sin and cos
LITERALS = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 1e10]
EXPONENTS = [0.0, 1.0, 2.0, 3.0, 4.0, 0.5, 1.5, 2.5, -1.0, -2.0, -3.0, -0.5]


def _grow(children):
    def call(func):
        args = st.lists(children, min_size=FUNCTIONS[func], max_size=FUNCTIONS[func])
        return args.map(lambda a: Call(func, tuple(a)))

    powers = st.one_of(
        st.builds(BinOp, st.just("^"), children, st.sampled_from(EXPONENTS).map(Num)),
        st.builds(BinOp, st.just("^"), children, st.sampled_from(EXPONENTS).map(Num).map(Neg)),
    )
    binops = st.builds(BinOp, st.sampled_from("+-*/^"), children, children)
    return st.one_of(children.map(Neg), binops, powers,
                     st.sampled_from(sorted(FUNCTIONS)).flatmap(call))


trees = st.recursive(
    st.one_of(st.sampled_from(VARS).map(Var), st.sampled_from(LITERALS).map(Num)),
    _grow,
    max_leaves=8,
)
# box ends: near 0 from both sides, moderate, and |x| >= 1e10 for sin and cos
STARTS = [-1e12, -1e10, -3.0, -1.0, -0.5, -1e-300, 0.0, 1e-300, 0.25, 1.0, 2.5, 1e10, 3e12]
WIDTHS = [0.0, 1e-12, 1e-3, 0.5, 1.0, 4.0, 100.0]
axes = st.builds(lambda lo, w, n: np.linspace(lo, lo + w, n),
                 st.sampled_from(STARTS), st.sampled_from(WIDTHS), st.sampled_from([1, 2, 5, 9]))


def _encloses(tree, x: np.ndarray, y: np.ndarray) -> None:
    """The tree's Interval over the hull of x and y holds every float value on their grid,
    and is poisoned if the float evaluation raises."""
    box = {"x": Interval(x.min(), x.max()), "y": Interval(y.min(), y.max())}
    grid = {"x": x[:, None], "y": y[None, :]}
    try:
        with np.errstate(all="ignore"):
            out = evaluate(tree, box)
    except DomainError:  # a part free of x and y leaves the reals: so do the floats
        with pytest.raises(DomainError):
            evaluate(tree, grid)
        return
    lo, hi = (out.lo, out.hi) if isinstance(out, Interval) else (out, out)
    try:
        vals = evaluate(tree, grid)
    except DomainError:
        assert np.isnan(lo) and np.isnan(hi)
        return
    if np.isnan(lo) or np.isnan(hi):  # poisoned: no claim, the scan evaluates every block
        assert np.isnan(lo) and np.isnan(hi)
        return
    assert np.all((lo <= vals) & (vals <= hi)), (lo, hi, np.min(vals), np.max(vals))


@settings(max_examples=1500, deadline=None)
@given(tree=trees, x=axes, y=axes)
def test_an_interval_holds_every_float_value_of_its_box(tree, x, y):
    _encloses(tree, x, y)


@pytest.mark.parametrize("text", [
    "sin(x)", "cos(x)", "sin(x*y)", "cos(x + y)", "x^2", "x^3", "x^4", "x^-1", "x^-2", "x^-3",
    "x^0.5", "x^1.5", "x^-0.5", "x^0", "(x - y)^2", "x^y", "y^x", "1/x", "1/(x - y)", "x/y",
    "exp(x)", "exp(-x*y)", "sqrt(x)", "sqrt(x - y)", "abs(x)", "min(x, y)", "max(x, -y)",
    "2.5^x", "(x*x - 1)/(y + 1e-300)",
])
@pytest.mark.parametrize("x0,w", [
    (1e10, 1.0), (-1e10, 1e-3), (3e12, 0.0), (-0.5, 1.0), (-1e-300, 2e-300), (0.0, 0.5),
    (1.0, 1e-12), (-3.0, 0.0), (0.25, 4.0),
])
def test_named_operations_enclose_their_grid(text, x0, w):
    tree = parse(text, VARS)
    x = np.linspace(x0, x0 + w, 33)
    for y in (np.linspace(-1.0, 1.0, 17), np.linspace(0.5, 3.0, 17), np.array([1e10])):
        _encloses(tree, x, y)


def test_sin_and_cos_are_whole_where_an_extremum_may_lie_and_tight_elsewhere():
    x = Interval(np.array([0.1, 1.0, 1e10, 1e300]), np.array([0.2, 2.0, 1e10 + 4.0, 1e300]))
    s, c = np.sin(x), np.cos(x)
    assert np.sin(0.1) - 1e-15 < s.lo[0] <= np.sin(0.1) and np.cos(0.1) <= c.hi[0] < 1.0
    assert (s.lo[1], s.hi[1]) == (-1.0, 1.0)  # pi/2 lies in [1, 2]
    assert s.lo[2:].tolist() == c.lo[2:].tolist() == [-1.0] * 2
    assert s.hi[2:].tolist() == c.hi[2:].tolist() == [1.0] * 2


def test_even_powers_stay_tight_across_zero():
    out = np.power(Interval(-2.0, 1.0), 2.0)
    assert out.lo == 0.0 and 4.0 <= out.hi <= 4.0 * (1 + 1e-14)
    assert np.power(Interval(-2.0, 1.0), 3.0).lo < -7.99


@pytest.mark.parametrize("text,lo,hi", [
    ("1/x", -1.0, 1.0), ("sqrt(x)", -1e-300, 1.0), ("x^0.5", -1.0, 1.0), ("x^-2", 0.0, 1.0),
    ("x^y", 0.0, 1.0), ("exp(x)", 700.0, 800.0), ("(1/x)^0", -1.0, 1.0), ("min(1/x, 2)", 0.0, 1.0),
    ("(1/x)^min(y, 0)", -1.0, 1.0),  # NaN^0 is 1: a poisoned base must poison the power
])
def test_a_box_that_may_leave_the_reals_is_poisoned_through_to_the_result(text, lo, hi):
    out = evaluate(parse(text, VARS), {"x": Interval(lo, hi), "y": Interval(1.0, 2.0)})
    assert np.isnan(out.lo) and np.isnan(out.hi)


def test_isfinite_of_an_interval_is_true_so_compiled_checks_pass():
    assert np.isfinite(Interval(np.nan, np.nan)).all()
    # the poison, not a DomainError, carries the failure of 1/x on a box through 0
    assert np.isnan(evaluate(parse("1/x + 1", VARS), {"x": Interval(-1.0, 1.0)}).lo)


def test_a_numpy_scalar_times_an_interval_is_an_interval():
    out = np.float64(2.0) * np.abs(Interval(-1.0, 3.0)) - Interval(1.0, 2.0)
    assert (out.lo, out.hi) == (-2.0, 5.0)
