"""Adaptive quadrature and box/interval extremizers against closed forms."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert import exprlang, interval, quadopt
from hamcert.exprlang import FUNCTIONS, BinOp, Call, DomainError, Neg, Num, Var, parse
from hamcert.quadopt import (
    QuadratureFailure,
    box_axes,
    box_extremum_with_witness,
    extremize,
    grid_extremum,
    integrate,
    sign_change_roots,
)


@pytest.mark.parametrize("k", range(11))
def test_monomials_exact(k):
    res = integrate(lambda s: s**k, 0.0, 1.0)
    truth = 1.0 / (k + 1)
    assert abs(res.value - truth) <= 1e-14
    # the reported bound must cover the actual error (tiny slack for roundoff)
    assert abs(res.value - truth) <= max(res.error_bound, 1e-13)


def test_kink_with_declared_breakpoint():
    res = integrate(lambda s: abs(s - 1 / 3), 0.0, 1.0, breakpoints=(1 / 3,))
    assert abs(res.value - 5 / 18) <= 1e-13
    assert res.subdivisions <= 8


def test_kink_without_breakpoint_still_converges():
    res = integrate(lambda s: abs(s - 1 / 3), 0.0, 1.0)
    assert abs(res.value - 5 / 18) <= 1e-10


def test_oscillatory():
    res = integrate(lambda s: np.cos(40.0 * s), 0.0, 1.0)
    assert abs(res.value - math.sin(40.0) / 40.0) <= 1e-12


def test_breakpoints_outside_interval_are_ignored():
    res = integrate(lambda s: s, 0.0, 1.0, breakpoints=(-0.5, 2.0, 0.5))
    assert abs(res.value - 0.5) <= 1e-14


def test_divergent_integrand_raises(monkeypatch):
    monkeypatch.setattr(quadopt, "MAX_PANELS", 512)
    with pytest.raises(QuadratureFailure):
        integrate(lambda s: 1.0 / s, 0.0, 1.0)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_panels_raise(value):
    calls = []

    def fn(s):
        calls.append(1)
        assert len(calls) < 50, "integrate kept subdividing"
        return np.where(s > 0.3, value, 1.0)

    with pytest.raises(QuadratureFailure, match="non-finite"), np.errstate(invalid="ignore"):
        integrate(fn, 0.0, 1.0)


def test_extremize_sine():
    top = extremize(lambda x: np.sin(3 * math.pi * x), 0.0, 1.0, mode="max")
    assert top.value == pytest.approx(1.0, abs=1e-9)
    assert top.location == pytest.approx(1 / 6, abs=1e-6)
    bot = extremize(lambda x: np.sin(3 * math.pi * x), 0.0, 1.0, mode="min")
    assert bot.value == pytest.approx(-1.0, abs=1e-9)
    assert 0.0 <= bot.location <= 1.0
    assert bot.mode == "min"


def test_extremize_never_worse_than_seed_grid():
    def fn(x):
        return np.sin(17.0 * x) + 0.3 * np.cos(39.0 * x) - x * x

    seeds = np.linspace(0.0, 1.0, 129)
    best_seed = max(fn(x) for x in seeds)
    res = extremize(fn, 0.0, 1.0, mode="max")
    assert res.value >= best_seed - 1e-12


def test_extremize_endpoints_count():
    # maximum attained at the right endpoint of the interval
    res = extremize(lambda x: x, 0.0, 2.0, mode="max")
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.location == pytest.approx(2.0, abs=1e-9)


def test_extremize_rejects_bad_mode():
    with pytest.raises(ValueError):
        extremize(lambda x: x, 0.0, 1.0, mode="sideways")


def test_sign_change_roots_quadratic():
    (roots,) = sign_change_roots(lambda t, s: (s - 1 / 3) * (s - 0.77), [0.0], 0.0, 1.0)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(1 / 3, abs=1e-10)
    assert roots[1] == pytest.approx(0.77, abs=1e-10)


def test_sign_change_roots_none():
    assert sign_change_roots(lambda t, s: 1.0 + s, [0.0], 0.0, 1.0) == [()]


def test_sign_change_roots_stop_below_the_float_spacing(monkeypatch):
    # no bracket gets narrower than one ulp, so an xtol below that must not
    # keep the bisection going; raising bounds the test if it would
    monkeypatch.setattr(quadopt, "ROOT_TOL", 1e-17)
    calls = []

    def fn(t, s):
        calls.append(1)
        if len(calls) > 300:
            raise AssertionError("still bisecting after 300 calls")
        return s - 0.3

    (roots,) = sign_change_roots(fn, [0.0], 0.0, 1.0)
    assert len(roots) == 1
    assert abs(roots[0] - 0.3) <= math.ulp(0.3)


def test_integrand_that_ignores_its_argument_is_called_once_per_pass():
    calls = []

    def constant(s):
        calls.append(np.shape(s))
        return 0.75

    assert integrate(constant, 0.0, 2.0).value == pytest.approx(1.5, abs=1e-14)
    assert calls == [(1, 15)]  # one pass on one panel meets the tolerance
    calls.clear()
    assert sign_change_roots(lambda t, s: constant(s), [0.0], 0.0, 1.0) == [()]
    assert calls == [(1, 256)]  # the scan; no sign change to bisect


def test_box_extremum_linear_attains_corner():
    box = [(0.0, 1.0), (0.0, 2.0)]
    val, witness = box_extremum_with_witness(
        lambda u1, u2: u1 + 2.0 * u2, box, mode="sup"
    )
    assert val == pytest.approx(5.0, abs=1e-12)
    assert witness == pytest.approx((1.0, 2.0))
    low, _ = box_extremum_with_witness(lambda u1, u2: u1 + 2.0 * u2, box, mode="inf")
    assert low == pytest.approx(0.0, abs=1e-12)


def test_box_extremum_monotone_under_refinement():
    # nested grids (5, 9, 17, 33 points per axis) can only push a sup upward
    box = [(0.0, 1.0), (0.0, 1.0)]

    def fn(x, y):
        return np.cos(5.0 * x) * np.sin(7.0 * y) + 0.1 * x

    sups = [box_extremum_with_witness(fn, box, "sup", n)[0] for n in (5, 9, 17, 33)]
    for coarse, fine in zip(sups, sups[1:]):
        assert fine >= coarse - 1e-15
    infs = [box_extremum_with_witness(fn, box, "inf", n)[0] for n in (5, 9, 17, 33)]
    for coarse, fine in zip(infs, infs[1:]):
        assert fine <= coarse + 1e-15


def test_box_extremum_degenerate_interval():
    # a pinned coordinate (zero-width interval) is allowed
    val, _ = box_extremum_with_witness(lambda x, y: x * 10.0 + y, [(0.5, 0.5), (0.0, 1.0)])
    assert val == pytest.approx(6.0, abs=1e-12)


def _dense_extremum(fn, axes, mode):
    # the reference the chunked scan must match: one dense C-order arg-reduction
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    vals = np.broadcast_to(np.asarray(fn(*grids), dtype=float), tuple(len(a) for a in axes))
    idx = np.unravel_index(int(np.argmax(vals) if mode == "sup" else np.argmin(vals)), vals.shape)
    return float(vals[idx]), tuple(float(a[i]) for a, i in zip(axes, idx))


SCAN_CASES = {
    "smooth": (lambda t, x, y: np.cos(3.0 * t + x) * np.sin(2.0 * y) + 0.1 * x * y, None),
    "ties": (lambda t, x, y: np.floor(2.0 * x) + np.floor(2.0 * y) + 0.0 * t, None),
    "constant": (lambda t, x, y: 7.0, None),
    "ignores t": (lambda t, x, y: (x - 0.3) ** 2 - y, None),
    "ignores t and y": (lambda t, x, y: np.abs(x - 0.5), None),
    "reads only t": (lambda t, x, y: np.sin(5.0 * t), None),
    "zero-width x": (lambda t, x, y: t * x - y**2, 1),
}


@pytest.mark.parametrize("block", [1, 5, 12, 50, 2**22])
@pytest.mark.parametrize("mode", ["sup", "inf"])
@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_grid_extremum_matches_dense_reference(monkeypatch, block, mode, case):
    # tiny blocks force every split: over t, over x, one row at a time, whole grid
    monkeypatch.setattr(quadopt, "BLOCK_VALUES", block)
    fn, pinned = SCAN_CASES[case]
    axes = [np.linspace(0.0, 1.0, 3), np.linspace(-1.0, 1.0, 4), np.linspace(0.0, 2.0, 5)]
    if pinned is not None:
        axes[pinned] = np.array([0.25])
    assert grid_extremum(fn, axes, mode) == _dense_extremum(fn, axes, mode)


def test_grid_extremum_ties_go_to_first_point_in_c_order():
    axes = box_axes([(0.0, 1.0)] * 3, 5)
    assert grid_extremum(lambda a, b, c: 0.0 * (a + b + c), axes, "sup") == (0.0, (0.0, 0.0, 0.0))
    # equal maxima at x = 1 for every y: the first y wins
    assert grid_extremum(lambda t, x, y: x + 0.0 * y, axes, "sup") == (1.0, (0.0, 1.0, 0.0))


def test_grid_extremum_calls_stay_within_the_block(monkeypatch):
    monkeypatch.setattr(quadopt, "BLOCK_VALUES", 64)
    sizes = []

    def fn(*args):
        sizes.append(np.broadcast(*args).size)
        return sum(np.sin(a * (k + 1)) for k, a in enumerate(args))

    axes = box_axes([(0.0, 1.0)] * 5, 9)
    found = grid_extremum(fn, axes, "sup")
    assert max(sizes) <= 64
    assert sum(sizes[1:]) == 9**5  # the blocks after the probe tile the grid once
    assert found == _dense_extremum(fn, axes, "sup")


def test_grid_extremum_does_not_scan_an_ignored_axis(monkeypatch):
    monkeypatch.setattr(quadopt, "BLOCK_VALUES", 100)
    t_lengths = []

    def fn(t, x, y):
        t_lengths.append(np.shape(t)[0])
        return x * y

    axes = box_axes([(0.0, 1.0)] * 3, 20)
    found = grid_extremum(fn, axes, "inf")
    assert t_lengths[0] == 2  # the probe
    assert t_lengths[1:] == [1] * 4  # 20 x-rows in blocks of 5, once for all t
    assert found == _dense_extremum(fn, axes, "inf")


def test_an_axis_may_hold_more_points_than_one_block(monkeypatch):
    # the per-axis cap is MAX_AXIS_POINTS, not the block size
    monkeypatch.setattr(quadopt, "BLOCK_VALUES", 64)
    fn = lambda x, y: np.sin(7.0 * x) * np.cos(5.0 * y) + x * y
    box = [(0.0, 1.0), (-1.0, 1.0)]
    dense = _dense_extremum(fn, [np.linspace(lo, hi, 100) for lo, hi in box], "sup")
    assert box_extremum_with_witness(fn, box, "sup", 100) == dense


def test_box_extremum_rejects_bad_input():
    with pytest.raises(ValueError, match="mode"):
        box_extremum_with_witness(lambda x: x, [(0.0, 1.0)], mode="max")
    with pytest.raises(ValueError, match="at least 2"):
        box_extremum_with_witness(lambda x: x, [(0.0, 1.0)], n_per_axis=1)
    with pytest.raises(ValueError, match="bad box interval"):
        box_extremum_with_witness(lambda x: x, [(1.0, 0.0)])
    with pytest.raises(ValueError, match="points per axis"):
        quadopt.box_axes([(0.0, 1.0)], quadopt.MAX_AXIS_POINTS + 1)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    b=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)
def test_integrate_is_linear(a, b):
    res = integrate(lambda s: a * s * s + b * s, 0.0, 1.0)
    assert res.value == pytest.approx(a / 3 + b / 2, rel=1e-12, abs=1e-10)


# ------------------------------------------------------------- row batches

ROW_INTEGRANDS = {
    "cos(40ts)": lambda t, s: np.cos(40.0 * t * s),
    "sqrt|s-t|": lambda t, s: np.sqrt(np.abs(s - t)),
    "exp(-50(s-t)^2)": lambda t, s: np.exp(-50.0 * (s - t) ** 2),
}


def _outcome(call):
    """A quadrature's (value, error, panels), or its failure's (message, value, error, panels)."""
    try:
        return call()
    except QuadratureFailure as exc:
        return (str(exc), exc.value, exc.error_bound, exc.subdivisions)


def _scalar_reference(fn, lo, hi, breakpoints=()):
    """The one-row adaptive GK(7,15) loop, written out on its own: what each row must give."""
    tol, max_panels = quadopt.QUAD_TOL, quadopt.MAX_PANELS
    interior = sorted({float(b) for b in breakpoints if lo < b < hi})
    edges = [lo]
    for b in interior:
        if b - edges[-1] > 1e-15 * max(1.0, abs(b)):
            edges.append(b)
    edges.append(hi)

    def panels(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes = mid[:, None] + half[:, None] * quadopt._XK[None, :]
        vals = np.asarray(fn(nodes.ravel()), dtype=float).reshape(nodes.shape)
        k15 = half * (vals * quadopt._WK[None, :]).sum(axis=1)
        g7 = half * (vals[:, 1::2] * quadopt._WG[None, :]).sum(axis=1)
        resabs = np.abs(half) * (np.abs(vals) * quadopt._WK[None, :]).sum(axis=1)
        return k15, np.maximum(np.abs(k15 - g7), 50.0 * np.finfo(float).eps * resabs)

    lo_arr, hi_arr = np.array(edges[:-1]), np.array(edges[1:])
    vals, errs = panels(lo_arr, hi_arr)
    while True:
        total_err = float(errs.sum())
        if not math.isfinite(total_err):
            raise QuadratureFailure("non-finite panel value or error estimate",
                                    float(vals.sum()), total_err, len(lo_arr))
        if total_err <= tol:
            return (float(vals.sum()), total_err, len(lo_arr))
        select = errs > 0.45 * tol * (hi_arr - lo_arr) / (hi - lo)
        if not select.any():
            select = errs == errs.max()
        if len(lo_arr) + int(select.sum()) > max_panels:
            raise QuadratureFailure(
                f"subdivision cap {max_panels} reached (error {total_err:.3e} > tol {tol:.3e})",
                float(vals.sum()), total_err, len(lo_arr),
            )
        mid = 0.5 * (lo_arr[select] + hi_arr[select])
        sub_lo = np.concatenate([lo_arr[select], mid])
        sub_hi = np.concatenate([mid, hi_arr[select]])
        sub_vals, sub_errs = panels(sub_lo, sub_hi)
        lo_arr = np.concatenate([lo_arr[~select], sub_lo])
        hi_arr = np.concatenate([hi_arr[~select], sub_hi])
        vals = np.concatenate([vals[~select], sub_vals])
        errs = np.concatenate([errs[~select], sub_errs])


def _one_row(fn, t, breakpoints):
    """A one-row call's outcome, checked bit for bit against the scalar reference loop."""
    row = lambda s: fn(np.array(t), s)

    def call():
        res = integrate(row, 0.0, 1.0, breakpoints=breakpoints)
        return (res.value, res.error_bound, res.subdivisions)

    outcome = _outcome(call)
    assert repr(outcome) == repr(_outcome(
        lambda: _scalar_reference(row, 0.0, 1.0, breakpoints)))
    return outcome


def _rows_against_one_row_calls(fn, ts, bps):
    """The batch's outcome and the one expected from one-row calls."""
    width = max(len(b) for b in bps)
    padded = [list(b) + [np.nan] * (width - len(b)) for b in bps]
    rows = _outcome(lambda: list(zip(
        *(x.tolist() for x in quadopt.integrate_rows(fn, ts, 0.0, 1.0, padded))
    )))
    expected = []
    for t, b in zip(ts, bps):
        one = _one_row(fn, t, b)
        if isinstance(one[0], str):  # the first failing row's failure is the batch's
            return rows, one
        expected.append(one)
    return rows, expected


@settings(max_examples=40, deadline=None)
@given(
    ts=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10),
    name=st.sampled_from(sorted(ROW_INTEGRANDS)),
    at=st.sampled_from(["none", "t", "t and eta"]),
    tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
)
def test_each_row_equals_a_one_row_call_bit_for_bit(ts, name, at, tol):
    bps = [{"none": (), "t": (t,), "t and eta": (t, 0.37)}[at] for t in ts]
    with pytest.MonkeyPatch.context() as patch:  # a fixture would not reset between examples
        patch.setattr(quadopt, "QUAD_TOL", tol)
        rows, expected = _rows_against_one_row_calls(ROW_INTEGRANDS[name], ts, bps)
    assert repr(rows) == repr(expected)  # bit for bit, NaN included


def test_rows_refine_to_different_panel_counts():
    ts = [0.0, 0.3, 0.5, 0.8, 1.0]
    fn = ROW_INTEGRANDS["sqrt|s-t|"]
    rows, expected = _rows_against_one_row_calls(fn, ts, [()] * len(ts))
    assert repr(rows) == repr(expected)  # bit for bit, NaN included
    assert len({panels for _, _, panels in rows}) > 1


def test_a_non_finite_row_raises_its_one_row_failure():
    # t = 0.7 and 0.9 fail in the first round, on two panels and on one
    fn = lambda t, s: np.where((t > 0.5) & (s > 0.3), np.inf, 1.0 + t * s)
    with np.errstate(invalid="ignore"):
        rows, expected = _rows_against_one_row_calls(
            fn, [0.1, 0.7, 0.9, 0.2], [(), (0.5,), (), ()]
        )
    assert repr(rows) == repr(expected)  # bit for bit, NaN included
    assert "non-finite" in rows[0] and rows[3] == 2


def test_the_first_failing_row_wins_even_if_a_later_row_fails_sooner(monkeypatch):
    # t = 0.5 reaches the panel cap after several rounds; t = 0.9 is not
    # finite in the first round, but the one-row loop would meet t = 0.5 first
    # t = 0.5 and 0.6 reach it in the same round, with different errors
    monkeypatch.setattr(quadopt, "MAX_PANELS", 64)
    fn = lambda t, s: np.where(t > 0.8, np.inf, t / s)
    with np.errstate(invalid="ignore"):
        rows, expected = _rows_against_one_row_calls(fn, [0.0, 0.5, 0.6, 0.9], [()] * 4)
    assert repr(rows) == repr(expected)  # bit for bit, NaN included
    assert rows[0].startswith("subdivision cap 64 reached")


def test_later_rows_stop_once_a_row_fails(monkeypatch):
    # t = 0.9 is not finite in the first round: it and t = 0.95 are never
    # evaluated again, while t = 0.2 refines until it reaches the cap
    monkeypatch.setattr(quadopt, "MAX_PANELS", 64)
    called = []

    def fn(t, s):
        called.append(np.unique(t))
        return np.where(t == 0.9, np.inf, t / s)

    with np.errstate(invalid="ignore"):
        rows = _outcome(lambda: quadopt.integrate_rows(fn, [0.2, 0.9, 0.95], 0.0, 1.0))
        expected = _one_row(lambda t, s: t / s, 0.2, ())
    assert len(called) > 1 and all(c.max() < 0.9 for c in called[1:])
    assert rows[0].startswith("subdivision cap 64 reached") and rows == expected


def test_rows_are_evaluated_in_blocks(monkeypatch):
    monkeypatch.setattr(quadopt, "BLOCK_VALUES", 100)
    sizes = []

    def fn(t, s):
        sizes.append(np.broadcast(t, s).size)
        return np.cos(40.0 * t * s)

    ts = np.linspace(0.0, 1.0, 9)
    values = quadopt.integrate_rows(fn, ts, 0.0, 1.0)[0]
    assert max(sizes) <= 100
    for t, value in zip(ts, values):
        assert value == integrate(lambda s: np.cos(40.0 * t * s), 0.0, 1.0).value


def test_extremize_evaluates_its_seeds_in_one_call():
    sizes = []

    def fn(x):
        sizes.append(x.shape)
        return -((x - 0.3) ** 2)

    found = extremize(fn, 0.0, 1.0, mode="max")
    assert sizes[0] == (129,)
    assert set(sizes[2:]) == {(1,)}  # then one point per golden-section step
    assert found.samples == sum(size[0] for size in sizes)
    assert found.location == pytest.approx(0.3, abs=1e-9)


@pytest.mark.parametrize("xtol", [1e-14, 6.12745098039495e-05])
def test_sign_change_roots_of_many_rows(xtol, monkeypatch):
    # after six bisections the bracket around 0.10031 is 5.6e-17 narrower than
    # the one around 0.90071, and the second xtol lies between them: each row
    # stops when its own widest bracket is within xtol
    ts = np.array([0.2, 0.10031, 1.5, 0.90071])
    fn = lambda t, s: (s - t) * (s - 0.5)
    monkeypatch.setattr(quadopt, "ROOT_TOL", xtol)
    roots = sign_change_roots(fn, ts, 0.0, 1.0)
    assert [len(r) for r in roots] == [2, 2, 1, 2]
    for t, found in zip(ts, roots):
        assert found == sign_change_roots(fn, [t], 0.0, 1.0)[0]


# ------------------------------------------------- best-first scans with interval bounds

SCAN_VARS = ("t", "x", "y")


def _scan_grow(children):
    def call(func):
        args = st.lists(children, min_size=FUNCTIONS[func], max_size=FUNCTIONS[func])
        return args.map(lambda a: Call(func, tuple(a)))

    return st.one_of(children.map(Neg), st.builds(BinOp, st.sampled_from("+-*/^"), children,
                                                  children),
                     st.sampled_from(sorted(FUNCTIONS)).flatmap(call))


scan_trees = st.recursive(
    st.one_of(st.sampled_from(SCAN_VARS).map(Var), st.sampled_from([0.5, 1.0, 2.0, 3.0]).map(Num)),
    _scan_grow,
    max_leaves=7,
).flatmap(lambda tree: st.sampled_from([tree, BinOp("+", tree, parse("t*x*y", SCAN_VARS))]))
scan_axis = st.one_of(
    st.builds(lambda lo, w, n: np.linspace(lo, lo + w, n), st.sampled_from([-2.0, 0.0, 0.25, 1.0]),
              st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.sampled_from([1, 2, 3, 5, 8])),
    st.just(np.full(4, 0.3)),  # a zero-width axis of four equal points
)


def _as_scan_fn(tree):
    return lambda *args: exprlang.evaluate(tree, dict(zip(SCAN_VARS, args)))


def _pruned_matches_c_order(fn, axes, mode, block, point_cells=1024, call_cells=2048):
    """grid_extremum with ``enclose=fn`` equals the scan without bounds, and the dense reference,
    to the sign of a zero; or raises the same DomainError."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadopt, "BLOCK_VALUES", block)
        patch.setattr(interval, "POINT_CELLS", point_cells)  # 1: about a cell per point
        patch.setattr(interval, "CALL_CELLS", call_cells)
        try:
            expected = grid_extremum(fn, axes, mode)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                grid_extremum(fn, axes, mode, enclose=fn)
            assert str(got.value) == str(exc)
            return
        got = grid_extremum(fn, axes, mode, enclose=fn)
    assert got == expected == _dense_extremum(fn, axes, mode)
    assert repr(got) == repr(expected)


@settings(max_examples=600, deadline=None)
@given(tree=scan_trees, axes=st.lists(scan_axis, min_size=3, max_size=3),
       block=st.sampled_from([1, 5, 64, 1 << 16]), mode=st.sampled_from(["sup", "inf"]),
       point_cells=st.sampled_from([1, 4, 1024]), call_cells=st.sampled_from([1, 7, 2048]))
def test_a_pruned_scan_gives_the_c_order_value_and_point(tree, axes, block, mode, point_cells,
                                                          call_cells):
    _pruned_matches_c_order(_as_scan_fn(tree), axes, mode, block, point_cells, call_cells)


@pytest.mark.parametrize("block", [1 << 14, 1 << 16])
@pytest.mark.parametrize("mode", ["sup", "inf"])
@pytest.mark.parametrize("text", [
    "t*(x^2 + y^2)*(2 - sin(x*y)) - 3*x", "x*y - y^2 + t", "(x - y)^2*t - y",
    "sin(3*x)*cos(2*y) + t*x",
])
def test_blocks_cut_into_cells_at_the_shipped_budget_keep_the_c_order_result(block, mode, text):
    # 41^3 points: 2 to 5 blocks, each cut into 3 to 5 cells per trailing axis
    axes = [np.linspace(0.0, 1.0, 41), np.linspace(-1.0, 2.0, 41), np.linspace(0.5, 3.0, 41)]
    _pruned_matches_c_order(_as_scan_fn(parse(text, SCAN_VARS)), axes, mode, block)


@pytest.mark.parametrize("block", [1, 5, 64, 1 << 16])
@pytest.mark.parametrize("mode", ["sup", "inf"])
@pytest.mark.parametrize("text,axes", [
    # symmetric in x and y, as sign_changing's u1 <-> u2: ties at swapped points
    ("t*(x^2 + y^2)*(2 - sin(x*y))", [np.linspace(0.0, 1.0, 5)] + [np.linspace(-2.0, 2.0, 9)] * 2),
    ("(x - y)^2 + t", [np.linspace(0.0, 1.0, 3)] + [np.linspace(-1.0, 1.0, 7)] * 2),
    # every value is a zero: -0.0 first, or 0.0 first and -0.0 later
    ("y*(t*0)", [np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 4), np.linspace(-1.0, 1.0, 5)]),
    ("-y*(t*0)", [np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 4), np.linspace(-1.0, 1.0, 5)]),
    ("x*y - x*y", [np.linspace(0.0, 1.0, 3), np.linspace(-1.0, 1.0, 4), np.linspace(-1.0, 1.0, 5)]),
    # zero-width axes: a pinned point and four equal points
    ("t*x - y^2", [np.array([0.25]), np.linspace(-1.0, 1.0, 6), np.full(4, 0.3)]),
])
def test_a_pruned_scan_keeps_ties_signed_zeros_and_zero_width_axes(block, mode, text, axes):
    _pruned_matches_c_order(_as_scan_fn(parse(text, SCAN_VARS)), axes, mode, block)


@pytest.mark.parametrize("mode,text", [("sup", "5 + x*y*(1 - y)"), ("inf", "5 - x*y*(1 - y)")])
def test_a_block_whose_bound_ties_the_best_is_evaluated_if_it_starts_earlier(mode, text):
    # row x = 1 is bounded by 6 (or 4) and visited first, its extremum 5 at (1, 0); row x = 0
    # is bounded by 5 exactly, and its 5 at (0, 0) comes first in C order
    fn = _as_scan_fn(parse(text, SCAN_VARS))
    axes = [np.array([0.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0])]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadopt, "BLOCK_VALUES", 2)  # one block per row of y
        assert grid_extremum(fn, axes, mode, enclose=fn) == (5.0, (0.0, 0.0, 0.0))
    _pruned_matches_c_order(fn, axes, mode, 2)


@pytest.mark.parametrize("block", [5, 64])
def test_a_pole_in_the_grid_raises_the_c_order_scans_error(block):
    fn = _as_scan_fn(parse("1/(x - 1/2) + t*y", SCAN_VARS))
    axes = [np.linspace(0.0, 1.0, 3), np.linspace(-1.0, 1.0, 9), np.linspace(0.0, 1.0, 5)]
    assert 0.5 in axes[1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadopt, "BLOCK_VALUES", block)
        for mode in ("sup", "inf"):
            with pytest.raises(DomainError) as expected:
                grid_extremum(fn, axes, mode)
            with pytest.raises(DomainError) as got:
                grid_extremum(fn, axes, mode, enclose=fn)
            assert str(got.value) == str(expected.value) == (
                "non-finite value produced by division")


def test_a_nonnegative_f_is_scanned_in_at_most_two_blocks():
    # the scan_nonneg benchmark's f >= 0 check: 33^5 points in 1089 blocks of 33^3
    tree = parse("t*(u1^2 + u2^2)*(12/5 + cos(v1*v2))", ("t", "u1", "u2", "v1", "v2"))
    blocks = []

    def fn(*args):
        if isinstance(args[0], np.ndarray) and np.broadcast(*args).size > 2**5:  # not the probe
            blocks.append(np.broadcast(*args).size)
        return exprlang.evaluate(tree, dict(zip(("t", "u1", "u2", "v1", "v2"), args)))

    box = [(0.0, 1.0)] + [(0.0, 10.0)] * 4
    found = box_extremum_with_witness(fn, box, "inf", 33, enclose=fn)
    assert len(blocks) <= 2 and sum(blocks) <= 2 * 33**3
    assert found == (0.0, (0.0, 0.0, 0.0, 0.0, 0.0))
