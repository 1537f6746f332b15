"""Certified constants: exact rationals for both bundled examples plus
independent brute-force oracles for every constant kind."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from hamcert import constants, exprlang, solver
from hamcert.cli import load_problem
from hamcert.constants import (
    DegenerateConstant,
    compute_component,
    compute_table,
)
from hamcert.model import WEIGHT_VARS, KernelSpec

from conftest import bundled_path

# (field, exact reciprocal) for the sign-changing example
SIGN_EXPECTED = {
    "comp1": {"m": 49 / 512, "m_star": 9 / 16, "M": 7203 / 262144, "M_star": 343 / 32768},
    "comp2": {"m": 81 / 800, "m_star": 11 / 20, "M": 24057 / 640000, "M_star": 1331 / 64000},
}

# the third-order example, in closed form (also cross-checked by the
# brute-force oracles below).  With h = 1 the row integral
# w(t) = int_0^1 k(t,s) ds is increasing on [0,1], so 1/m = w(1) and
# 1/m* = w'(1); the window integral W(t) = int_{eta/alpha}^{eta} k(t,s) ds and
# its t-derivative are increasing on the window, so 1/M and 1/M* are their
# values at t = eta/alpha.
#   green(3/2, 1/2): w = 5t^2/8 - t^3/6,  W = 23t^2/72 - t^3/6 - t/18 + 1/162
#   green(2, 1/3):   w = 7t^2/12 - t^3/6, W = 7t^2/48 - (t - 1/6)^3/6
THIRD_EXPECTED = {
    "comp1": {"m": 11 / 24, "m_star": 3 / 4, "M": 11 / 648, "M_star": 11 / 108},
    "comp2": {"m": 5 / 12, "m_star": 2 / 3, "M": 7 / 1728, "M_star": 7 / 144},
}


@pytest.mark.parametrize("comp_name", ["comp1", "comp2"])
@pytest.mark.parametrize("kind", ["m", "m_star", "M", "M_star"])
def test_sign_changing_reciprocals(sign_table, comp_name, kind):
    result = getattr(getattr(sign_table, comp_name), kind)
    expected = SIGN_EXPECTED[comp_name][kind]
    assert 1.0 / result.constant == pytest.approx(expected, rel=1e-9)
    assert result.quad_error <= 1e-9


@pytest.mark.parametrize("comp_name", ["comp1", "comp2"])
@pytest.mark.parametrize("kind", ["m", "m_star", "M", "M_star"])
def test_third_order_reciprocals(third_table, comp_name, kind):
    result = getattr(getattr(third_table, comp_name), kind)
    expected = THIRD_EXPECTED[comp_name][kind]
    assert 1.0 / result.constant == pytest.approx(expected, rel=1e-9)


def test_extremal_locations(sign_table):
    # 1/m1 = max_t (7/8 t - t^2)/2 peaks at t = 7/16;
    # 1/m1* = max_t |7/8 - 2 t|/2 peaks at the right endpoint
    assert sign_table.comp1.m.t_star == pytest.approx(7 / 16, abs=1e-6)
    assert sign_table.comp1.m_star.t_star == pytest.approx(1.0, abs=1e-9)


def test_window_metadata(sign_table):
    assert sign_table.comp1.M.window == pytest.approx((7 / 32, 21 / 32))
    assert sign_table.comp1.M_star.window == pytest.approx((0.0, 7 / 32))
    assert sign_table.comp2.M.window == pytest.approx((13 / 40, 31 / 40))


def _midpoint_columns(kfun, weight, t_grid, s_lo, s_hi, n_s=20001, rows=64):
    # a block of ``rows`` t-rows at a time keeps the dense grid small; each
    # row's sum is the same whichever block it is summed in
    s = np.linspace(s_lo, s_hi, 2 * n_s + 1)[1::2]  # midpoints
    h = (s_hi - s_lo) / n_s
    t = np.asarray(t_grid)[:, None]
    return np.concatenate([
        (kfun(t[i:i + rows], s[None, :]) * weight(s)).sum(axis=1) * h
        for i in range(0, len(t), rows)
    ])


def brute_m_reciprocal(comp, n_t=4001):
    t = np.linspace(0.0, 1.0, n_t)
    vals = _midpoint_columns(
        lambda tt, ss: np.abs(comp.kernel.k(tt, ss)),
        lambda ss: exprlang.evaluate(comp.weight, {"s": ss}),
        t, 0.0, 1.0,
    )
    return float(vals.max())


def brute_M_reciprocal(comp, star: bool, n_t=2001):
    env = comp.envelope
    lo, hi = (env.gamma, env.delta) if star else (env.a, env.b)
    kern = comp.kernel.dk_dt if star else comp.kernel.k
    t = np.linspace(lo, hi, n_t)
    vals = _midpoint_columns(
        kern, lambda ss: exprlang.evaluate(comp.weight, {"s": ss}), t, lo, hi
    )
    return float(vals.min())


@pytest.mark.parametrize("comp_name", ["comp1", "comp2"])
def test_brute_force_oracle_sign_changing(sign_changing, sign_table, comp_name):
    comp = getattr(sign_changing.problem, comp_name)
    table = getattr(sign_table, comp_name)
    assert brute_m_reciprocal(comp) == pytest.approx(1.0 / table.m.constant, rel=1e-6)
    assert brute_M_reciprocal(comp, star=False) == pytest.approx(
        1.0 / table.M.constant, rel=1e-6
    )
    assert brute_M_reciprocal(comp, star=True) == pytest.approx(
        1.0 / table.M_star.constant, rel=1e-6
    )


@pytest.mark.parametrize("comp_name", ["comp1", "comp2"])
def test_brute_force_oracle_third_order(third_order, third_table, comp_name):
    # the Green-kernel constants rest on the same oracle; in particular the
    # window minimum behind 1/M2 = 7/1728 is confirmed by plain summation
    comp = getattr(third_order.problem, comp_name)
    table = getattr(third_table, comp_name)
    assert brute_m_reciprocal(comp) == pytest.approx(1.0 / table.m.constant, rel=1e-6)
    assert brute_M_reciprocal(comp, star=False) == pytest.approx(
        1.0 / table.M.constant, rel=1e-6
    )
    assert brute_M_reciprocal(comp, star=True) == pytest.approx(
        1.0 / table.M_star.constant, rel=1e-6
    )


def test_component_accessor_matches_table(sign_changing, sign_table):
    direct = compute_component(sign_changing.problem.comp1, 1)
    assert direct.m.constant == sign_table.comp1.m.constant
    assert direct.M_star.constant == sign_table.comp1.M_star.constant


def test_single_constant_entry_names(sign_changing):
    res = compute_component(sign_changing.problem.comp1, 1).m
    assert res.name == "m1"
    assert res.extremal_integral == pytest.approx(49 / 512, rel=1e-9)
    assert res.constant == pytest.approx(512 / 49, rel=1e-9)
    assert res.window == (0.0, 1.0)


def test_zero_weight_is_degenerate(sign_changing):
    comp = dataclasses.replace(
        sign_changing.problem.comp1, weight=exprlang.parse("0", WEIGHT_VARS)
    )
    with pytest.raises(DegenerateConstant):
        compute_component(comp, 1)


def test_each_constant_asks_for_its_seeds_in_one_call(sign_changing, monkeypatch):
    # the 129 seeds are one call of the row integral, and the sign changes of
    # an expression kernel's |K| rows are located in one scan of all of them
    sizes, scans = [], []
    real_extremize, real_roots = constants.extremize, constants.sign_change_roots

    def extremize(fn, lo, hi, **kwargs):
        def recorded(ts):
            sizes.append(len(ts))
            return fn(ts)
        return real_extremize(recorded, lo, hi, **kwargs)

    def roots(fn, ts, *args, **kwargs):
        scans.append(len(ts))
        return real_roots(fn, ts, *args, **kwargs)

    monkeypatch.setattr(constants, "extremize", extremize)
    monkeypatch.setattr(constants, "sign_change_roots", roots)
    found = compute_component(sign_changing.problem.comp1, 1)
    assert sizes.count(129) == 4  # m, m*, M, M*
    assert set(sizes) - {129} == {1, 2}  # golden-section points
    assert scans.count(129) == 2  # |k| and |dk/dt| for m and m*
    assert found.m.extremal_integral == pytest.approx(49 / 512, rel=1e-9)


def test_expression_pieces_are_built_once_per_kernel(monkeypatch):
    counts = {"degree probes": 0, "breakpoints": 0}
    evaluate = exprlang.evaluate

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def probed(expr, env):  # t the Polynomial variable and s no points: a degree probe
        polynomial = isinstance(env.get("t"), exprlang.Polynomial)
        counts["degree probes"] += polynomial and not np.size(env["s"])
        return evaluate(expr, env)

    monkeypatch.setattr(exprlang, "evaluate", probed)
    monkeypatch.setattr(KernelSpec, "breakpoints", counted("breakpoints", KernelSpec.breakpoints))
    problem = load_problem(bundled_path("sign_changing.prob")).problem  # kernels not yet asked
    compute_table(problem)
    solver.picard(problem, solver.bump_init(problem, 101), max_iter=3)
    assert counts["breakpoints"] > 100
    assert counts["degree probes"] == 4  # k and dk/dt of each of the two expression kernels
