"""Collocation operator, Picard iteration, cone membership, localization."""
from __future__ import annotations

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from hamcert import exprlang, greens3, quadopt, solver
from hamcert.model import KERNEL_VARS, NONLIN_VARS, WEIGHT_VARS, BoundHints, KernelSpec
from hamcert.solver import (
    MAX_NODES,
    Divergence,
    GridPair,
    _discretize,
    _piecewise,
    apply_T,
    bump_init,
    cone_membership,
    derivative_consistency,
    export_table,
    linear_image,
    localization_check,
    picard,
)


def _constant_f(problem, f1_text: str, f2_text: str):
    comp1 = dataclasses.replace(
        problem.comp1, f=exprlang.parse(f1_text, NONLIN_VARS), hints=BoundHints()
    )
    comp2 = dataclasses.replace(
        problem.comp2, f=exprlang.parse(f2_text, NONLIN_VARS), hints=BoundHints()
    )
    return dataclasses.replace(problem, comp1=comp1, comp2=comp2)


# ------------------------------------------------------------- GridPair


def test_grid_pair_validation():
    with pytest.raises(ValueError):
        GridPair.zeros(100)  # too coarse
    p = GridPair.zeros(101)
    assert p.grid[0] == 0.0 and p.grid[-1] == 1.0

    grid = np.linspace(0.0, 1.0, 101)
    with pytest.raises(ValueError):
        GridPair(grid, np.zeros(100), np.zeros(101), np.zeros(101), np.zeros(101))
    bad = np.zeros(101)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        GridPair(grid, bad, np.zeros(101), np.zeros(101), np.zeros(101))


def test_grid_pair_rejects_a_non_uniform_grid_of_a_cached_length(sign_changing):
    apply_T(sign_changing.problem, GridPair.zeros(201))  # weights for n = 201 now memoized
    squared = np.linspace(0.0, 1.0, 201) ** 2
    with pytest.raises(ValueError, match="uniform grid"):
        GridPair(squared, *np.zeros((4, 201)))


def test_grid_pair_rejects_more_than_max_nodes():
    GridPair.zeros(MAX_NODES)
    with pytest.raises(ValueError, match=f"at most {MAX_NODES} nodes"):
        GridPair.zeros(MAX_NODES + 1)


def test_grid_pair_norms():
    grid = np.linspace(0.0, 1.0, 101)
    p = GridPair(grid, grid, -3.0 * grid, 0.5 * grid, 0.25 * grid)
    n = p.norms()
    assert n["u_C"] == 1.0 and n["du_C"] == 3.0
    assert n["u_C1"] == 3.0  # max of value and derivative sup norms
    assert n["v_C1"] == 0.5


# ------------------------------------------------------------- operator


def test_zero_nonlinearity_maps_to_zero(sign_changing):
    problem = _constant_f(sign_changing.problem, "0", "0")
    rng = np.random.default_rng(0)
    grid = np.linspace(0.0, 1.0, 201)
    start = GridPair(grid, *rng.random((4, 201)))
    out = apply_T(problem, start)
    assert np.all(out.u == 0.0) and np.all(out.du == 0.0)
    assert np.all(out.v == 0.0) and np.all(out.dv == 0.0)


def test_unit_nonlinearity_matches_kernel_moments(sign_changing):
    # with f == 1 the image is the plain weighted kernel integral:
    # u(t) = (7/8 t - t^2)/2, v(t) = (11/10 t - t^2 - 1/10)/2
    problem = _constant_f(sign_changing.problem, "1", "1")
    out = apply_T(problem, GridPair.zeros(401))
    t = out.grid
    assert np.max(np.abs(out.u - (7 / 8 * t - t**2) / 2)) < 1e-13
    assert np.max(np.abs(out.du - (7 / 8 - 2 * t) / 2)) < 1e-13
    assert np.max(np.abs(out.v - (11 / 10 * t - t**2 - 1 / 10) / 2)) < 1e-13
    assert np.max(np.abs(out.dv - (11 / 10 - 2 * t) / 2)) < 1e-13


def test_linear_nonlinearity_matches_the_first_moment(sign_changing):
    # f == t is interpolated exactly by the hat functions:
    # u(t) = (7/8 t - t^2)/3, v(t) = (11/10 t - t^2 - 1/10)/3
    problem = _constant_f(sign_changing.problem, "t", "t")
    out = apply_T(problem, GridPair.zeros(401))
    t = out.grid
    assert np.max(np.abs(out.u - (7 / 8 * t - t**2) / 3)) < 1e-13
    assert np.max(np.abs(out.du - (7 / 8 - 2 * t) / 3)) < 1e-13
    assert np.max(np.abs(out.v - (11 / 10 * t - t**2 - 1 / 10) / 3)) < 1e-13
    assert np.max(np.abs(out.dv - (11 / 10 - 2 * t) / 3)) < 1e-13


def test_operator_of_identity_nonlinearity_is_the_linear_image(sign_changing):
    problem = _constant_f(sign_changing.problem, "u1", "v2")
    rng = np.random.default_rng(5)
    p = GridPair(np.linspace(0.0, 1.0, 201), *rng.standard_normal((4, 201)))
    out = apply_T(problem, p)
    ref = linear_image(problem, p.u, p.dv, n=201)
    for name in ("u", "du", "v", "dv"):
        assert np.max(np.abs(getattr(out, name) - getattr(ref, name))) <= 1e-14


def test_weight_memo_holds_one_problem(sign_changing, third_order):
    exp_sign, exp_green = (_with_kernel(p.problem, "exp(-t*s)", "-s*exp(-t*s)")
                           for p in (sign_changing, third_order))
    apply_T(exp_sign, GridPair.zeros(101))
    apply_T(exp_green, GridPair.zeros(101))
    assert _discretize.cache_info().currsize == 1
    hits = _discretize.cache_info().hits
    weights = _discretize(exp_green, 101)
    assert _discretize.cache_info().currsize == 1 and _discretize.cache_info().hits == hits + 1
    assert weights.s is weights.grid and weights.matrices[1][1].shape == (101, 101)
    assert not weights.matrices[0][0].flags.writeable


@pytest.mark.parametrize("block", [1, 700, 5000])
def test_row_blocks_do_not_change_the_weights(block, third_order, monkeypatch):
    monkeypatch.setattr(quadopt, "BLOCK_VALUES", 1 << 22)  # all 101 rows in one block
    whole = _discretize.__wrapped__(third_order.problem, 101)
    monkeypatch.setattr(quadopt, "BLOCK_VALUES", block)
    blocked = _discretize.__wrapped__(third_order.problem, 101)
    for a, b in zip(whole.matrices, blocked.matrices):
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@pytest.mark.parametrize("kernel", ["third_order", "exp"])
def test_weight_build_memory_is_bounded_by_the_row_block(kernel, third_order):
    problem = third_order.problem  # two Green kernels, or exp(-t*s) on both components
    if kernel == "exp":
        for index in (0, 1):
            problem = _with_kernel(problem, "exp(-t*s)", "-s*exp(-t*s)", index=index)
    _discretize.__wrapped__(problem, 101)  # first-call imports
    tracemalloc.start()
    try:
        weights = _discretize.__wrapped__(problem, 401)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(m.nbytes for pair in weights.matrices for m in pair)
    assert outputs == 4 * 401 * 401 * 8
    assert peak - outputs < 4_000_000


def test_state_independent_nonlinearity_is_idempotent(sign_changing):
    problem = _constant_f(sign_changing.problem, "1 + t", "2 - t")
    once = apply_T(problem, GridPair.zeros(201))
    twice = apply_T(problem, once)
    assert np.array_equal(once.u, twice.u)
    assert np.array_equal(once.dv, twice.dv)


def test_linear_image_is_linear(sign_changing):
    rng = np.random.default_rng(7)
    q1 = rng.random(201)
    q2 = rng.random(201)
    one = linear_image(sign_changing.problem, q1, q2, n=201)
    two = linear_image(sign_changing.problem, 2.0 * q1, 2.0 * q2, n=201)
    assert np.max(np.abs(two.u - 2.0 * one.u)) < 1e-12
    assert np.max(np.abs(two.dv - 2.0 * one.dv)) < 1e-12


# -------------------------------------------------------------- picard


def test_picard_fixed_point_for_state_independent_f(sign_changing):
    problem = _constant_f(sign_changing.problem, "1", "1")
    res = picard(problem, GridPair.zeros(401))
    assert res.converged
    assert res.iterations <= 2
    assert res.residual < 1e-10
    assert res.norms == res.pair.norms()


def test_picard_damped_still_converges(sign_changing):
    problem = _constant_f(sign_changing.problem, "1", "1")
    res = picard(problem, GridPair.zeros(401), theta=0.5)
    assert res.converged
    t = res.pair.grid
    assert np.max(np.abs(res.pair.u - (7 / 8 * t - t**2) / 2)) < 1e-8


def test_picard_grid_refinement_consistency(sign_changing):
    problem = _constant_f(sign_changing.problem, "1", "1")
    coarse = picard(problem, GridPair.zeros(401)).pair
    fine = picard(problem, GridPair.zeros(801)).pair
    assert np.max(np.abs(fine.u[::2] - coarse.u)) < 1e-9
    assert np.max(np.abs(fine.v[::2] - coarse.v)) < 1e-9


def test_picard_contracts_to_zero_from_small_inits(sign_changing):
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 401)
    for _ in range(5):
        arrays = 0.01 * rng.standard_normal((4, 401))
        res = picard(sign_changing.problem, GridPair(grid, *arrays))
        assert res.converged
        assert max(res.norms.values()) < 1e-8


def test_picard_divergence_detected(sign_changing):
    start = bump_init(sign_changing.problem, scale=10.0)
    with pytest.raises(Divergence):
        picard(sign_changing.problem, start)


def test_picard_parameter_validation(sign_changing):
    init = GridPair.zeros(101)
    with pytest.raises(ValueError):
        picard(sign_changing.problem, init, theta=0.0)
    with pytest.raises(ValueError):
        picard(sign_changing.problem, init, theta=1.5)
    with pytest.raises(ValueError):
        picard(sign_changing.problem, init, tol=0.0)
    # a zero iteration budget is legal and reports non-convergence honestly
    res = picard(sign_changing.problem, bump_init(sign_changing.problem, n=101), max_iter=1)
    assert not res.converged or res.residual <= 1e-10


# ----------------------------------------------------- cone and location


def test_zero_pair_is_in_the_cone(sign_changing):
    report = cone_membership(GridPair.zeros(101), sign_changing.problem)
    assert report.passed
    assert all(c.passed for c in report.checks)


def test_bump_profile_is_in_the_cone(sign_changing):
    p = bump_init(sign_changing.problem, scale=0.5)
    report = cone_membership(p, sign_changing.problem)
    assert report.passed
    assert max(v for v in p.norms().values()) == pytest.approx(0.5)


def test_nonneg_image_is_in_the_cone(sign_changing):
    rng = np.random.default_rng(11)
    p = linear_image(sign_changing.problem, rng.random(401), rng.random(401))
    assert cone_membership(p, sign_changing.problem).passed


def test_window_dip_violates_the_cone(sign_changing):
    grid = np.linspace(0.0, 1.0, 401)
    env = sign_changing.problem.comp1.envelope
    u = np.ones(401)
    inside = (grid >= env.a) & (grid <= env.b)
    u[inside] = 0.0  # sup norm 1 but zero on the window
    p = GridPair(grid, u, np.zeros(401), np.ones(401), np.zeros(401))
    report = cone_membership(p, sign_changing.problem)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert any("min u on [a,b]" in c.name for c in failing)
    worst = min(c.slack for c in failing)
    assert worst == pytest.approx(-env.c, rel=1e-12)


def test_window_between_two_nodes_is_checked_at_its_ends(sign_changing):
    grid = np.linspace(0.0, 1.0, 401)  # nodes 0.1 and 0.1025 enclose [gamma, delta]
    comp = sign_changing.problem.comp1
    env = dataclasses.replace(comp.envelope, gamma=0.1001, delta=0.1002)
    problem = dataclasses.replace(sign_changing.problem,
                                  comp1=dataclasses.replace(comp, envelope=env))
    p = GridPair(grid, np.ones(401), 1.0 - grid, np.ones(401), np.zeros(401))
    report = cone_membership(p, problem)
    check = next(c for c in report.checks if c.name.startswith("min u' on [gamma,delta]"))
    assert check.slack == pytest.approx(np.interp(0.1002, grid, 1.0 - grid) - env.d, rel=1e-12)
    json.dumps(dataclasses.asdict(report), allow_nan=False)  # no Infinity in the report


def test_sign_constraints_only_for_nonneg_variants(sign_changing, third_order):
    grid = np.linspace(0.0, 1.0, 401)
    negative = GridPair(grid, -np.ones(401), np.zeros(401), -np.ones(401), np.zeros(401))
    sign_report = cone_membership(negative, sign_changing.problem)
    hat_report = cone_membership(negative, third_order.problem)
    assert not any("u >= 0" in c.name for c in sign_report.checks)
    assert any(not c.passed and ">= 0" in c.name for c in hat_report.checks)


def test_localization_annulus():
    grid = np.linspace(0.0, 1.0, 101)

    def pair(scale):
        return GridPair(grid, scale * grid, scale * np.ones(101),
                        scale * grid, scale * np.ones(101))

    def result(scale):
        p = pair(scale)
        from hamcert.solver import SolutionResult
        return SolutionResult(p, 0.0, 1, True, p.norms())

    inner, outer = (0.03, 0.3), (700.0, 600.0)
    assert localization_check(result(5.0), inner, outer)
    assert not localization_check(result(0.001), inner, outer)  # inside both
    assert not localization_check(result(1e4), inner, outer)  # outside both


def test_derivative_consistency_for_polynomial_image(sign_changing):
    problem = _constant_f(sign_changing.problem, "1", "1")
    out = apply_T(problem, GridPair.zeros(401))
    assert derivative_consistency(out) < 1e-10  # quadratic: central diff exact


def test_export_table_round_trip(sign_changing):
    p = bump_init(sign_changing.problem, n=101, scale=1.0)
    text = export_table(p)
    lines = text.strip().splitlines()
    assert lines[0].split("\t") == ["t", "u", "du", "v", "dv"]
    assert len(lines) == 102
    values = np.array([[float(x) for x in ln.split("\t")] for ln in lines[1:]])
    assert np.max(np.abs(values[:, 0] - p.grid)) < 1e-12
    assert np.max(np.abs(values[:, 1] - p.u)) < 1e-10
    assert np.max(np.abs(values[:, 4] - p.dv)) < 1e-10


# ------------------------------------------------------------- factored weights


def _with_kernel(problem, kernel: str, kernel_dt: str, weight: str = "1", index: int = 0):
    spec = KernelSpec.from_expressions(*(exprlang.parse(x, KERNEL_VARS)
                                         for x in (kernel, kernel_dt)))
    comp = dataclasses.replace(problem.components[index], kernel=spec,
                               weight=exprlang.parse(weight, WEIGHT_VARS))
    return dataclasses.replace(problem, **{("comp1", "comp2")[index]: comp})


def _cubic(problem):
    for index, weight in enumerate(("1 + s", "2 - s")):
        problem = _with_kernel(problem, "(t - s)^3 + s*t", "3*(t - s)^2 + s", weight, index)
    return problem


def _hand_built(second=np.copy) -> KernelSpec:
    """k = t^2 s(1 - s) + t s, neither Green nor an expression: one piece over the basis
    (s(1 - s), second), where second(s) is s."""
    k, dk = np.zeros((1, 3, 2)), np.zeros((1, 2, 2))
    k[0, 2, 0] = k[0, 1, 1] = dk[0, 0, 1] = 1.0
    dk[0, 1, 0] = 2.0

    def pieces():
        return ((lambda s: s * (1.0 - s), second),
                lambda t: np.array([np.zeros(np.shape(t)), np.ones(np.shape(t))]), k, dk)

    return KernelSpec(lambda t, s: t**2 * s * (1.0 - s) + t * s,
                      lambda t, s: 2.0 * t * s * (1.0 - s) + s, None, pieces)


def _with_spec(problem, spec: KernelSpec):
    return dataclasses.replace(problem, comp1=dataclasses.replace(problem.comp1, kernel=spec))


def _green(problem, alpha: float, eta: float):
    kernel = greens3.build_kernel(greens3.GreenParams(alpha, eta))
    comps = (dataclasses.replace(c, kernel=kernel) for c in problem.components)
    return dataclasses.replace(problem, **dict(zip(("comp1", "comp2"), comps)))


def _assert_applies_as_dense(problem, n: int) -> None:
    piecewise = _piecewise.__wrapped__(problem, n)
    dense = _discretize.__wrapped__(problem, n)
    f = np.random.default_rng(3).standard_normal(n)
    for pair, dense_pair in zip(piecewise, dense.matrices):
        for op, matrix in zip(pair, dense_pair):
            assert op.v.shape == (n, op.coef.shape[1]) and op.coef.shape[1] <= 4
            assert op.left.shape == op.right.shape == (len(op.cell), op.coef.shape[2])
            exact = matrix @ f
            assert np.max(np.abs(op @ f - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("n", [101, 401])
@pytest.mark.parametrize("make", [
    lambda p: p, _cubic, lambda p: _with_spec(p, _hand_built()),
    lambda p: _with_kernel(p, "s*t^(1 + 1) - t", "2*s*t - 1"),  # an exponent computed, not read
], ids=["sign_changing", "cubic", "hand_built", "computed_power"])
def test_factored_weights_apply_as_the_dense_weights(n, make, sign_changing):
    _assert_applies_as_dense(make(sign_changing.problem), n)


@pytest.mark.parametrize("n", [101, 401, 2001])
def test_green_weights_apply_as_the_dense_weights(n, third_order):
    _assert_applies_as_dense(third_order.problem, n)


@pytest.mark.parametrize("alpha,eta", [
    (2.0, 1 / 3),  # eta between two grid nodes
    (1.5, 0.5 + 4e-13),  # eta merged into the node below it
    (1.5, 0.5 - 4e-13),  # eta kept, the node above it merged
], ids=["between-nodes", "above-a-node", "below-a-node"])
def test_green_seams_off_the_grid_apply_as_the_dense_weights(alpha, eta, third_order):
    _assert_applies_as_dense(_green(third_order.problem, alpha, eta), 101)


def test_mixed_green_and_polynomial_weights_apply_as_the_dense_weights(sign_changing,
                                                                       third_order):
    mixed = dataclasses.replace(sign_changing.problem, comp2=third_order.problem.comp2)
    _assert_applies_as_dense(mixed, 401)


def test_a_basis_function_that_returns_its_nodes_is_refused(sign_changing):
    problem = _with_spec(sign_changing.problem, _hand_built(lambda s: s))
    with pytest.raises(ValueError, match="read-only"):  # else it would rescale the nodes
        _piecewise.__wrapped__(problem, 101)


def test_other_pieces_make_another_kernel_with_its_own_weights(sign_changing):
    kernel = _hand_built()
    basis, ends, k, dk = kernel.pieces()
    doubled = dataclasses.replace(kernel, pieces=lambda: (basis, ends, 2.0 * k, 2.0 * dk))
    assert doubled != kernel and dataclasses.replace(kernel) == kernel
    problem = _with_spec(sign_changing.problem, kernel)
    first = _piecewise(problem, 101)
    assert _piecewise(_with_spec(problem, dataclasses.replace(kernel)), 101) is first
    second = _piecewise(_with_spec(problem, doubled), 101)
    f = np.random.default_rng(5).standard_normal(101)
    for op, op2 in zip(first[0], second[0]):
        assert np.array_equal(op2 @ f, 2.0 * (op @ f))
    assert second[1][0] is not first[1][0]


def test_polynomial_kernels_build_no_dense_weights(sign_changing, monkeypatch):
    monkeypatch.setattr(solver, "_discretize", lambda *a: pytest.fail("dense weights built"))
    image = linear_image(sign_changing.problem, np.ones(401), np.ones(401), n=401)
    assert np.max(np.abs(image.u)) > 0.0


@pytest.mark.parametrize("make", [
    lambda p, third: third.problem,
    lambda p, third: dataclasses.replace(p, comp2=third.problem.comp2),
], ids=["third_order", "mixed"])
def test_piecewise_kernels_build_no_dense_weights(make, sign_changing, third_order,
                                                  monkeypatch):
    problem = make(sign_changing.problem, third_order)
    monkeypatch.setattr(solver, "_discretize", lambda *a: pytest.fail("dense weights built"))
    image = linear_image(problem, np.ones(101), np.ones(101), n=101)
    assert np.max(np.abs(image.v)) > 0.0 and np.all(np.isfinite(image.u))
    picard(problem, bump_init(problem, n=101), max_iter=3)


@pytest.mark.parametrize("make", [
    lambda p, third: _with_kernel(p, "exp(-t*s)", "-s*exp(-t*s)"),
    lambda p, third: _with_kernel(third.problem, "exp(-t*s)", "-s*exp(-t*s)"),
], ids=["exp", "exp_green"])
def test_other_kernels_keep_the_dense_weights(make, sign_changing, third_order, monkeypatch):
    problem = make(sign_changing.problem, third_order)
    built = []
    monkeypatch.setattr(solver, "_discretize",
                        lambda *a: built.append(a) or _discretize.__wrapped__(*a))
    image = linear_image(problem, np.ones(101), np.ones(101), n=101)
    assert built == [(problem, 101)] and np.all(np.isfinite(image.u))
    assert _piecewise(problem, 101) is None


def _build_peak(problem, n: int) -> int:
    """Peak traced bytes of one piecewise weight build, its outputs included."""
    _piecewise.__wrapped__(problem, 101)  # first-call compiles
    tracemalloc.start()
    try:
        weights = _piecewise.__wrapped__(problem, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert weights is not None
    return peak


def test_factored_build_at_2001_nodes_needs_under_2_mb(sign_changing):
    assert _build_peak(sign_changing.problem, 2001) < 2_000_000


def test_green_build_at_4001_nodes_needs_under_2_mb(third_order):
    assert _build_peak(third_order.problem, 4001) < 2_000_000
