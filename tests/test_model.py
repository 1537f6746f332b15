"""Component assumptions: envelope checks, window integrals, kernel derivative."""
from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert import exprlang, greens3
from hamcert.model import (
    HINT_VARS,
    KERNEL_VARS,
    NONLIN_VARS,
    WEIGHT_VARS,
    BoundHints,
    Envelope,
    KernelSpec,
    check_kernel_derivative,
    verify_A3,
    verify_A4,
    verify_nonneg_f,
    window_integrals,
)


def test_envelope_validation():
    phi = exprlang.parse("s", ("s",))
    good = dict(phi=phi, psi=phi, a=0.25, b=0.75, c=0.5, gamma=0.0, delta=0.25, d=0.5)
    Envelope(**good)
    for bad in (
        dict(good, a=0.8),  # a >= b
        dict(good, gamma=0.3),  # gamma >= delta
        dict(good, c=0.0),
        dict(good, c=1.5),
        dict(good, d=-0.1),
        dict(good, b=1.2),
    ):
        with pytest.raises(ValueError):
            Envelope(**bad)


def test_envelope_certificate_holds_for_bundled_components(sign_changing):
    for comp in (sign_changing.problem.comp1, sign_changing.problem.comp2):
        report = verify_A3(comp)
        assert report.passed, [it for it in report.items if not it.passed]
        names = {it.name for it in report.items}
        assert "abs(k) <= phi on [0,1]^2" in names
        assert "k >= c*phi on the strip" in names
        assert "dk/dt >= d*psi on the strip" in names


def test_envelope_detects_overstated_window_fraction(sign_changing):
    comp = sign_changing.problem.comp1
    env = dataclasses.replace(comp.envelope, c=0.76)
    bad = dataclasses.replace(comp, envelope=env)
    report = verify_A3(bad)
    assert not report.passed
    failing = [it for it in report.items if not it.passed]
    assert len(failing) == 1
    item = failing[0]
    assert item.name.startswith("k >= c*phi")
    # worst node sits at a window endpoint, where k/phi dips to its minimum
    t_worst = item.location[0]
    assert min(abs(t_worst - 7 / 32), abs(t_worst - 21 / 32)) < 0.01
    assert item.worst_violation > 0


@settings(max_examples=15, deadline=None)
@given(shrink=st.floats(min_value=0.05, max_value=1.0))
def test_envelope_monotone_in_cone_fractions(sign_changing, shrink):
    # any smaller c, d keeps a passing certificate passing
    comp = sign_changing.problem.comp1
    env = comp.envelope
    smaller = dataclasses.replace(env, c=env.c * shrink, d=env.d * shrink)
    assert verify_A3(dataclasses.replace(comp, envelope=smaller), n_t=60, n_s=60).passed


def test_window_integrals_match_closed_forms(sign_changing):
    comp1, comp2 = sign_changing.problem.components
    r1, r2 = window_integrals(comp1.envelope, comp1.weight)
    assert abs(r1.value - 2401 / 65536) <= 1e-10
    assert abs(r2.value - 441 / 16384) <= 1e-10
    r1, r2 = window_integrals(comp2.envelope, comp2.weight)
    assert abs(r1.value - 8019 / 160000) <= 1e-10
    assert abs(r2.value - 1331 / 32000) <= 1e-10


def test_positive_window_mass_certificate(sign_changing):
    for comp in (sign_changing.problem.comp1, sign_changing.problem.comp2):
        assert verify_A4(comp).passed


def test_zero_weight_fails_window_positivity(sign_changing):
    comp = sign_changing.problem.comp1
    dead = dataclasses.replace(comp, weight=exprlang.parse("0", WEIGHT_VARS))
    report = verify_A4(dead)
    assert not report.passed


def test_nonlinearity_positivity_scan(sign_changing):
    comp = sign_changing.problem.comp1
    box = [(-2.0, 2.0)] * 4
    assert verify_nonneg_f(comp, box).passed

    signed = dataclasses.replace(comp, f=exprlang.parse("u1", NONLIN_VARS))
    report = verify_nonneg_f(signed, box)
    assert not report.passed
    item = report.items[0]
    assert item.worst_violation == pytest.approx(2.0)  # f = -2 at u1 = -2


def test_scan_memory_is_bounded_by_the_block(third_order):
    comp = third_order.problem.comp1
    box = [(-1.0, 1.0)] * 4
    verify_nonneg_f(comp, box, 9)  # first-call imports
    tracemalloc.start()
    try:
        report = verify_nonneg_f(comp, box, 33)  # 33^5 points
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.note == "sampled at 33 points per axis"
    assert peak < 4_000_000


def test_declared_derivative_cross_check(sign_changing):
    for comp in (sign_changing.problem.comp1, sign_changing.problem.comp2):
        assert check_kernel_derivative(comp.kernel).passed


def test_wrong_declared_derivative_is_caught(sign_changing):
    comp = sign_changing.problem.comp1
    wrong = KernelSpec.from_expressions(
        exprlang.parse("s*(7/8*t - t^2)", KERNEL_VARS),
        exprlang.parse("s*(7/8 - 3*t)", KERNEL_VARS),  # extra -t per unit s
    )
    report = check_kernel_derivative(wrong)
    assert not report.passed
    assert report.items[0].worst_violation == pytest.approx(1.0, abs=1e-3)


def test_hints_parse_against_radius_variables(sign_changing):
    hints = sign_changing.problem.comp1.hints
    assert hints.sup is not None
    value = exprlang.evaluate(hints.sup, {"rho1": 2.0, "rho2": 5.0})
    assert float(value) == pytest.approx(12.0)  # 6*rho1


def test_bound_hints_default_to_absent():
    hints = BoundHints()
    assert hints.sup is None and hints.inf_plain is None and hints.inf_star is None


def test_hint_vars_are_radii():
    assert HINT_VARS == ("rho1", "rho2")


def _derivative_check_by_rows(spec, n_t=40, n_s=40, step=1e-5):
    """The consistency check one t row at a time: the reference for the grid version."""
    ts = np.linspace(step, 1.0 - step, n_t)
    ss = np.linspace(0.0, 1.0, n_s)
    worst, where, checked = -np.inf, (0.0, 0.0), 0
    for t in ts:
        mask = np.ones_like(ss, dtype=bool)
        for bp in np.atleast_1d(spec.breakpoints(t)):
            mask &= np.abs(ss - bp) > 10 * step
        if not mask.any():
            continue
        s_ok = ss[mask]
        fd = (np.asarray(spec.k(t + step, s_ok)) - np.asarray(spec.k(t - step, s_ok))) / (2 * step)
        exact = np.asarray(spec.dk_dt(t, s_ok)) * np.ones_like(s_ok)
        viol = np.abs(fd - exact) - np.maximum(1e-6, 1e-4 * np.abs(exact))
        checked += len(s_ok)
        j = int(np.argmax(viol))
        if viol[j] > worst:
            worst, where = float(viol[j]), (float(t), float(s_ok[j]))
    return worst, where, checked


@pytest.mark.parametrize("green", [(1.5, 0.5), (2.0, 1 / 3), None])
def test_kernel_derivative_grid_matches_row_by_row_check(green):
    if green is None:  # a wrong declared derivative, so the worst cell is not trivial
        spec = KernelSpec.from_expressions(
            exprlang.parse("s*(7/8*t - t^2) + sin(9*t*s)", KERNEL_VARS),
            exprlang.parse("s*(7/8 - 3*t) + 9*s*cos(9*t*s)", KERNEL_VARS),
        )
    else:
        spec = greens3.build_kernel(greens3.GreenParams(*green))
    worst, where, checked = _derivative_check_by_rows(spec)
    calls = []
    counted = lambda f: (lambda t, s: calls.append(1) or f(t, s))
    spec = dataclasses.replace(spec, k=counted(spec.k), dk_dt=counted(spec.dk_dt))
    item = check_kernel_derivative(spec).items[0]
    assert (item.worst_violation, item.location) == (worst, where)
    assert check_kernel_derivative(spec).note == f"{checked} samples, step 1e-05"
    assert len(calls) == 2 * 3  # k twice and dk/dt once per check, not once per t


def _kernel(name: str) -> KernelSpec:
    if name == "green":
        return greens3.build_kernel(greens3.GreenParams(1.5, 0.5))
    k, dk = {"expression": ("s*(7/8*t - t^2)", "s*(7/8 - 2*t)"),
             "exp": ("exp(-t*s)", "-s*exp(-t*s)")}[name]
    return KernelSpec.from_expressions(*(exprlang.parse(x, KERNEL_VARS) for x in (k, dk)))


@pytest.mark.parametrize("t", [0.25, np.array(0.25), np.linspace(0.0, 1.0, 5),
                               np.linspace(0.0, 1.0, 5)[:, None]],
                         ids=["float", "0-d", "1-d", "column"])
@pytest.mark.parametrize("name,seams", [("green", 3), ("expression", 0), ("exp", 0)])
def test_piece_ends_and_breakpoints_take_any_shape_of_t(name, seams, t):
    spec = _kernel(name)
    pieces = spec.pieces()
    assert (pieces is None) == (name == "exp")
    if pieces is not None:
        ends = pieces[1](t)
        assert ends.shape == (len(pieces[2]) + 1,) + np.shape(t) == (seams + 2,) + np.shape(t)
        assert np.all(ends[0] == 0.0) and np.all(ends[-1] == 1.0)
        assert np.all(ends[:-1] <= ends[1:])  # piece b spans [ends[b], ends[b + 1]]
    bps = spec.breakpoints(t)
    assert bps.shape == np.shape(t) + (seams,)
    if pieces is not None:
        assert np.array_equal(np.moveaxis(bps, -1, 0), ends[1:-1])
