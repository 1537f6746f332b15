"""Three-point third-order kernel family: branches, envelopes, BVP residuals."""
from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert import exprlang, greens3, quadopt, solver
from hamcert.greens3 import (
    GreenParams,
    ParamError,
    ResidualTooLarge,
    build_kernel,
    check_kernel_properties,
    default_envelope,
    envelope_constant_c,
    verify_bvp,
)
from hamcert.model import NONLIN_VARS, WEIGHT_VARS, Component, window_integrals
from hamcert.quadopt import integrate

PARAM_SETS = [GreenParams(3 / 2, 1 / 2), GreenParams(2.0, 1 / 3), GreenParams(5 / 4, 0.7)]


def _h(text: str):
    return exprlang.parse(text, ("s",))


def _component(params: GreenParams) -> Component:
    """A Green component with the family's default envelope (weight 1, f = 0)."""
    return Component(build_kernel(params), default_envelope(params),
                     exprlang.parse("1", WEIGHT_VARS), exprlang.parse("0", NONLIN_VARS))


@pytest.mark.parametrize(
    "alpha,eta",
    [(1.5, 0.0), (1.5, 1.0), (1.5, -0.2), (1.0, 0.5), (0.5, 0.5), (2.5, 0.5), (3.1, 1 / 3)],
)
def test_parameter_validation(alpha, eta):
    with pytest.raises(ParamError):
        GreenParams(alpha, eta)


def test_kernel_point_values():
    spec = build_kernel(GreenParams(1.5, 0.5))
    # t <= eta <= s branch: k = t^2 (1-s) / (2 (1 - alpha eta))
    assert spec.k(0.25, 0.75) == pytest.approx(1 / 32, abs=1e-15)
    assert spec.k(0.0, 0.3) == 0.0
    assert spec.k(0.0, 0.9) == 0.0
    assert spec.green == GreenParams(1.5, 0.5)
    # the seam locations are declared so quadrature can split panels there
    assert set(spec.breakpoints(0.25)) == {0.25, 0.5}


def test_kernel_vectorized():
    spec = build_kernel(GreenParams(2.0, 1 / 3))
    t = np.linspace(0.0, 1.0, 40)[:, None]
    s = np.linspace(0.0, 1.0, 41)[None, :]
    k = spec.k(t, s)
    dk = spec.dk_dt(t, s)
    assert k.shape == (40, 41) and dk.shape == (40, 41)
    assert np.all(np.isfinite(k)) and np.all(np.isfinite(dk))
    assert np.all(k >= -1e-15)


def _closed_form(params: GreenParams, t, s, branch=None):
    """(k, dk/dt) from k = t^2((1-s) - alpha(eta-s)_+)/(2(1-alpha*eta)) - (t-s)_+^2/2, or branch
    b's polynomial on the whole square: (eta-s)_+ read as eta-s on branches 0 and 1, else 0, and
    (t-s)_+ as t-s on branches 0 and 2, else 0."""
    alpha, eta = params.alpha, params.eta
    if branch is None:
        near, cut = np.maximum(eta - s, 0.0), np.maximum(t - s, 0.0)
    else:
        near, cut = (eta - s) * (branch < 2), (t - s) * (branch % 2 == 0)
    top, one = (1.0 - s) - alpha * near, 1.0 - alpha * eta
    return t**2 * top / (2.0 * one) - cut**2 / 2.0, t * top / one - cut


def _ulps(params: GreenParams) -> float:
    """4 ulps of 1 over 1 - alpha*eta: a bound on k's and dk/dt's rounding."""
    return 4.0 * np.finfo(float).eps / (1.0 - params.alpha * params.eta)


def _select_reference(table, eta, t, s):
    """All four table branches at every pair, one kept by np.select on the seam conditions."""
    values = [greens3.table_value(table, eta, t, s, b) for b in range(4)]
    return np.select(
        [s <= np.minimum(eta, t), (t <= s) & (s <= eta), (eta <= s) & (s <= t)],
        values[:3], default=values[3])


@pytest.mark.parametrize("params", PARAM_SETS)
def test_branch_coefficients_reproduce_the_branches(params):
    alpha, eta = params.alpha, params.eta
    k_table, dk_table = greens3.branch_coefficients(alpha, eta)
    assert k_table.shape == (4, 3, 3) and dk_table.shape == (4, 2, 3)
    grid = np.unique(np.r_[np.linspace(0.0, 1.0, 61), eta])  # both seams: s = eta and s = t
    t, s = grid[:, None], grid[None, :]
    for b in range(4):
        for c, exact in zip((k_table[b], dk_table[b]), _closed_form(params, t, s, b)):
            poly = sum(c[p, q] * t**p * s**q for p in range(c.shape[0]) for q in range(3))
            assert np.max(np.abs(poly - exact)) <= _ulps(params)


@pytest.mark.parametrize("params", PARAM_SETS)
def test_branch_bounds_cover_the_unit_interval_once(params):
    t = np.unique(np.r_[np.linspace(0.0, 1.0, 41), params.eta])
    ends = greens3.branch_ends(params.eta, t)
    assert ends.shape == (5, len(t)) and np.all(ends[:-1] <= ends[1:])
    assert np.array_equal(ends[0], np.zeros_like(t)) and np.array_equal(ends[-1], np.ones_like(t))
    kern = build_kernel(params)
    tables = greens3.branch_coefficients(params.alpha, params.eta)
    for b, (a, z) in enumerate(zip(ends[:-1], ends[1:])):  # the kernel picks branch b inside
        inside = z - a > 1e-9
        mid = 0.5 * (a + z)[inside]
        for value, table in zip((kern.k, kern.dk_dt), tables):
            branch = greens3.table_value(table, params.eta, t[inside], mid, b)
            assert np.array_equal(value(t[inside], mid), branch)


@pytest.mark.parametrize("params", PARAM_SETS)
def test_breakpoints_are_where_the_pieces_meet(params, third_order):
    eta, grid = params.eta, np.linspace(0.0, 1.0, 101)
    t = np.unique(np.r_[0.0, eta, 1.0, grid])
    kern = build_kernel(params)
    bps = kern.breakpoints(t)
    assert bps.shape == (len(t), 3)
    assert all(set(row) == {ti, eta} for ti, row in zip(t.tolist(), bps.tolist()))
    ends = kern.pieces()[1](t)
    for b in range(1, len(ends) - 1):  # every interior end of every piece is a breakpoint
        assert np.all((bps == ends[b][:, None]).any(axis=1))
    # so the solver's panel edges hold every piece end of every grid row, up to its merging
    problem = dataclasses.replace(third_order.problem, comp1=dataclasses.replace(
        third_order.problem.comp1, kernel=kern))
    edges = solver._panels(problem, len(grid))[1]
    assert np.max(np.abs(kern.pieces()[1](grid)[..., None] - edges).min(axis=-1)) <= 1e-12


@pytest.mark.parametrize("params", PARAM_SETS)
def test_kernel_evaluation_matches_select_bit_for_bit(params):
    eta = params.eta
    kern = build_kernel(params)
    rng = np.random.default_rng(3)
    x, y = eta / 2, (1 + eta) / 2  # split points below and above eta

    def draw(lo, hi, *seams):
        return np.concatenate([rng.uniform(lo, hi, 30), seams])

    def above(v):
        return np.nextafter(v, 2.0)

    # (t, s): pairs inside one branch or spanning several, seams s = t and s = eta included
    cases = [
        (draw(eta, 1, eta, 1.0), draw(0, eta, 0.0, eta)),
        (draw(x, 1, x), draw(0, x, x)),
        (draw(0, x, 0.0, x), draw(above(x), eta, above(x), eta)),
        (draw(y, 1, y, 1.0), draw(above(eta), y, above(eta), y)),
        (draw(0, y, 0.0, y), draw(above(y), 1, above(y), 1.0)),
        (draw(0, 1, eta), draw(0, 1, eta)),
        (draw(x, 1), draw(0, eta, 1.0, 0.0)),  # s straddles eta inside, not at its ends
        (draw(0, 1, 0.0), draw(0, x, x)),
        # one pair on a seam that np.select gives to the neighbouring branch
        (draw(0, x, x), draw(x, eta, x, eta)),
        (draw(y, 1, y), draw(eta, y, eta, y)),
        (draw(y, 1, y), draw(above(eta), y, above(eta), above(y))),
        (draw(0, y, y), draw(y, 1, y, 1.0)),
    ]
    tables = greens3.branch_coefficients(params.alpha, eta)
    for t, s in cases:
        t0, s0 = np.array(t[0]), np.array(s[0])
        for tt, ss in ((t[:, None], s[None, :]), (t0, s), (t0, s0)):
            for value, table, exact in zip((kern.k, kern.dk_dt), tables,
                                           _closed_form(params, tt, ss)):
                got = value(tt, ss)
                want = _select_reference(table, eta, tt, ss)
                assert np.shape(got) == want.shape and np.array_equal(got, want)
                assert np.max(np.abs(got - exact)) <= _ulps(params)


@pytest.mark.parametrize("params", PARAM_SETS)
def test_kernel_property_items(params):
    report = check_kernel_properties(_component(params))
    items = {it.name: it for it in report.items}
    assert items["branch gluing is continuous"].passed
    assert items["branch gluing is continuous"].worst_violation <= 0.0
    assert items["k >= 0 on [0,1]^2"].passed
    assert items["abs(k) <= phi on [0,1]^2"].passed
    assert items["k >= c*phi on the strip"].passed
    assert items["dk/dt >= 0 on [0,1]^2"].passed
    assert items["abs(dk/dt) <= psi on [0,1]^2"].passed
    assert items["dk/dt(1,s) = alpha*dk/dt(eta,s)"].passed


@pytest.mark.parametrize("params", PARAM_SETS)
def test_declared_derivative_fraction_fails_at_small_s(params):
    # dk/dt(t, 0) = 0 for every t while d*psi(0) > 0, so the declared
    # lower envelope on the strip cannot hold near s = 0; the report keeps
    # the check honest and the note records the sharp observed fraction.
    report = check_kernel_properties(_component(params))
    item = {it.name: it for it in report.items}["dk/dt >= d*psi on the strip"]
    assert not item.passed
    env = default_envelope(params)
    psi0 = float(exprlang.evaluate(env.psi, {"s": 0.0}))
    assert item.worst_violation == pytest.approx(env.d * psi0, rel=1e-6)
    assert not report.passed
    assert "eta/alpha" in report.note


@pytest.mark.parametrize("params", PARAM_SETS)
def test_observed_row_max_fraction_is_eta_over_alpha(params):
    # min over the strip of dk(t,s) / max_tau dk(tau,s) equals eta/alpha
    # in the limit; on a finite grid it sits slightly above it.
    spec = build_kernel(params)
    env = default_envelope(params)
    s = np.linspace(0.0, 1.0, 401)[None, :]
    t_all = np.linspace(0.0, 1.0, 401)[:, None]
    t_strip = np.linspace(env.gamma, env.delta, 101)[:, None]
    col_max = np.max(spec.dk_dt(t_all, s), axis=0)
    keep = col_max > 1e-12
    ratio = np.min(spec.dk_dt(t_strip, s)[:, keep] / col_max[keep])
    frac = params.eta / params.alpha
    assert frac - 1e-9 <= ratio <= frac + 0.02


def test_default_envelope_values():
    env = default_envelope(GreenParams(2.0, 1 / 3))
    assert (env.a, env.b) == (pytest.approx(1 / 6), pytest.approx(1 / 3))
    assert (env.gamma, env.delta) == (pytest.approx(1 / 6), pytest.approx(1 / 3))
    assert env.c == pytest.approx(1 / 216, rel=1e-12)
    assert env.d == pytest.approx(1 / 3, rel=1e-12)

    env2 = default_envelope(GreenParams(1.5, 0.5))
    assert (env2.a, env2.b) == (pytest.approx(1 / 3), pytest.approx(1 / 2))
    assert env2.c == pytest.approx(1 / 90, rel=1e-12)
    assert env2.d == pytest.approx(1 / 2, rel=1e-12)


def test_envelope_constant_formula():
    # eta^2 * min(alpha - 1, 1) / (2 alpha^2 (1 + alpha))
    assert envelope_constant_c(GreenParams(1.5, 0.5)) == pytest.approx(1 / 90, rel=1e-14)
    assert envelope_constant_c(GreenParams(2.0, 1 / 3)) == pytest.approx(1 / 216, rel=1e-14)
    assert envelope_constant_c(GreenParams(1.25, 0.7)) == pytest.approx(
        0.49 * 0.25 / (2 * 1.5625 * 2.25), rel=1e-14
    )


def test_window_integrals_closed_forms():
    r1, r2 = window_integrals(default_envelope(GreenParams(1.5, 0.5)), _h("1"))
    assert r1.value > r1.error_bound and r2.value > r2.error_bound
    assert r1.value == pytest.approx(65 / 162, abs=1e-12)
    assert r2.value == pytest.approx(7 / 18, abs=1e-12)

    r1, r2 = window_integrals(default_envelope(GreenParams(2.0, 1 / 3)), _h("1"))
    assert r1.value == pytest.approx(5 / 18, abs=1e-12)
    assert r2.value == pytest.approx(3 / 8, abs=1e-12)


def test_window_integrals_need_positive_weight():
    r1, r2 = window_integrals(default_envelope(GreenParams(1.5, 0.5)), _h("0"))
    assert not (r1.value > r1.error_bound or r2.value > r2.error_bound)


def test_solution_oracle_constant_load():
    # for (alpha, eta) = (3/2, 1/2) and h = 1 the solution is
    # w(t) = 5 t^2 / 8 - t^3 / 6, so w(1/2) = 13/96 and w'(1/2) = 1/2
    spec = build_kernel(GreenParams(1.5, 0.5))
    w = integrate(lambda s: spec.k(0.5, s), 0.0, 1.0, breakpoints=spec.breakpoints(0.5))
    assert w.value == pytest.approx(13 / 96, abs=1e-12)
    dw = integrate(lambda s: spec.dk_dt(0.5, s), 0.0, 1.0, breakpoints=spec.breakpoints(0.5))
    assert dw.value == pytest.approx(1 / 2, abs=1e-12)


@pytest.mark.parametrize("params", PARAM_SETS)
@pytest.mark.parametrize("h_text", ["1", "s"])
def test_bvp_residuals(params, h_text):
    rep = verify_bvp(params, _h(h_text))
    assert rep.ode_residual < 1e-12
    assert abs(rep.bc_at_zero) < 1e-8
    assert abs(rep.bc_slope_at_zero) < 1e-8
    assert abs(rep.bc_three_point) < 1e-8
    assert rep.n_grid == 2001


def test_bvp_zero_load_is_exact():
    rep = verify_bvp(GreenParams(1.5, 0.5), _h("0"), n_grid=201)
    assert rep.ode_residual == 0.0
    assert rep.bc_at_zero == 0.0 and rep.bc_three_point == 0.0


def test_bvp_residual_gate(monkeypatch):
    # a kernel off by one part in 1e8 is refuted at the default tolerance
    real = greens3.build_kernel

    def scaled(params):
        spec = real(params)
        return dataclasses.replace(spec, k=lambda t, s: (1 + 1e-8) * spec.k(t, s))

    monkeypatch.setattr(greens3, "build_kernel", scaled)
    with pytest.raises(ResidualTooLarge) as exc:
        verify_bvp(GreenParams(1.5, 0.5), _h("1"))
    assert 0.0 <= exc.value.worst_node <= 1.0


def test_bvp_grid_validation(monkeypatch):
    with pytest.raises(ValueError):
        verify_bvp(GreenParams(1.5, 0.5), _h("1"), n_grid=100)
    with pytest.raises(ValueError):
        verify_bvp(GreenParams(1.5, 0.5), _h("1"), n_grid=51)

    def no_integrals(*args, **kwargs):
        raise AssertionError("integrated on an over-resolved grid")

    monkeypatch.setattr(greens3, "integrate_rows", no_integrals)
    with pytest.raises(ValueError, match="between 101 and"):
        verify_bvp(GreenParams(1.5, 0.5), _h("1"), n_grid=quadopt.MAX_AXIS_POINTS + 1)


def test_bvp_evaluates_its_kernel_a_few_times(monkeypatch):
    # w at all 2001 nodes and the boundary slopes are two batched integrals
    calls = []
    real = greens3.build_kernel

    def counting(params):
        spec = real(params)

        def counted(kernel):
            def at(t, s):
                calls.append(np.broadcast(t, s).size)
                return kernel(t, s)
            return at

        return dataclasses.replace(spec, k=counted(spec.k), dk_dt=counted(spec.dk_dt))

    monkeypatch.setattr(greens3, "build_kernel", counting)
    rep = verify_bvp(GreenParams(1.5, 0.5), _h("s"), n_grid=2001)
    assert rep.ode_residual < 1e-4
    assert 0 < len(calls) <= 10
    assert max(calls) <= quadopt.BLOCK_VALUES


def test_bvp_memory_is_bounded_by_the_block(monkeypatch):
    # 40001 rows take about 11.6 MB when integrated in one batch; in row
    # blocks the peak stays near one block, and the report does not change
    params, h = GreenParams(1.5, 0.5), _h("s")
    verify_bvp(params, h, n_grid=101)  # first-call imports
    tracemalloc.start()
    try:
        rep = verify_bvp(params, h, n_grid=40001, ode_tol=np.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    monkeypatch.setattr(greens3, "BLOCK_VALUES", 1 << 30)  # every row in one batch
    assert verify_bvp(params, h, n_grid=40001, ode_tol=np.inf) == rep


def test_bvp_matches_one_row_integrals():
    params, h = GreenParams(2.0, 1 / 3), _h("s")
    spec = build_kernel(params)
    h_at = lambda s: s

    def w_at(kernel, t):
        return integrate(lambda s: kernel(np.array(t), s) * h_at(s), 0.0, 1.0,
                         breakpoints=spec.breakpoints(t)).value

    rep = verify_bvp(params, h, n_grid=101)
    assert rep.bc_at_zero == abs(w_at(spec.k, 0.0))
    assert rep.bc_slope_at_zero == abs(w_at(spec.dk_dt, 0.0))
    assert rep.bc_three_point == abs(w_at(spec.dk_dt, 1.0) - 2.0 * w_at(spec.dk_dt, 1 / 3))


valid_params = st.tuples(
    st.floats(min_value=1.05, max_value=3.0),
    st.floats(min_value=0.05, max_value=0.9),
).filter(lambda ae: ae[0] * ae[1] < 0.98)


@settings(max_examples=15, deadline=None)
@given(ae=valid_params)
def test_family_invariants_hold_across_parameters(ae):
    params = GreenParams(*ae)
    report = check_kernel_properties(_component(params), n=80)
    items = {it.name: it for it in report.items}
    assert items["branch gluing is continuous"].passed
    assert items["k >= 0 on [0,1]^2"].passed
    assert items["abs(k) <= phi on [0,1]^2"].passed
    assert items["k >= c*phi on the strip"].passed
    assert items["dk/dt(1,s) = alpha*dk/dt(eta,s)"].passed
    spec = build_kernel(params)
    assert spec.k(0.0, 0.37) == 0.0


@pytest.mark.parametrize("params", PARAM_SETS)
@pytest.mark.parametrize("which", [0, 1], ids=["k", "dk_dt"])
def test_branch_choice_matches_np_select_on_the_seams(params, which):
    eta = params.eta
    s = np.r_[np.linspace(0.0, 1.0, 300), eta][None, :]
    t = np.r_[np.linspace(0.0, 1.0, 500), eta, s[0]][:, None]  # s = t, s = eta and t = eta
    table = greens3.branch_coefficients(params.alpha, eta)[which]
    reference = _select_reference(table, eta, t, s)
    kern = build_kernel(params)
    chosen = (kern.k, kern.dk_dt)[which](t, s)
    assert chosen.dtype == reference.dtype and np.array_equal(chosen, reference)


@settings(max_examples=40, deadline=None)
@given(ae=valid_params)
def test_table_kernel_is_the_closed_form(ae):
    params = GreenParams(*ae)
    kern = build_kernel(params)
    grid = np.unique(np.r_[np.linspace(0.0, 1.0, 41), params.eta])  # both seams
    t, s = grid[:, None], grid[None, :]
    for value, exact in zip((kern.k, kern.dk_dt), _closed_form(params, t, s)):
        assert np.max(np.abs(value(t, s) - exact)) <= _ulps(params)
    assert np.all(kern.k(grid, 0.0) == 0.0) and np.all(kern.dk_dt(grid, 0.0) == 0.0)
    assert np.all(kern.k(0.0, grid) == 0.0)
