"""Index conditions, multiplicity scenarios, and non-existence certificates."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert import exprlang
from hamcert.conditions import (
    GRID_ESTIMATE,
    USER_HINT,
    BoundEstimate,
    HintInconsistent,
    HintMissing,
    HintPolicy,
    LadderViolation,
    Scenario,
    Verdict,
    certify,
    check_I0,
    check_I1,
    check_nonexistence,
    sup_box,
    _entry,
)
from hamcert.model import HINT_VARS, NONLIN_VARS, BoundHints, ConeVariant


def _f(text: str):
    return exprlang.parse(text, NONLIN_VARS)


def _hint(text: str):
    return exprlang.parse(text, HINT_VARS)


def _with_f(comp, f_text: str, sup=None, inf_plain=None, inf_star=None):
    hints = BoundHints(
        sup=_hint(sup) if sup else None,
        inf_plain=_hint(inf_plain) if inf_plain else None,
        inf_star=_hint(inf_star) if inf_star else None,
    )
    return dataclasses.replace(comp, f=_f(f_text), hints=hints)


# ---------------------------------------------------------------- boxes


def test_sup_box_symmetric_vs_one_sided():
    sym = sup_box(0.03, 0.3, ConeVariant.SIGN_CHANGING)
    assert sym == ((-0.03, 0.03), (-0.03, 0.03), (-0.3, 0.3), (-0.3, 0.3))
    pos = sup_box(10.0, 10.0, ConeVariant.NON_NEGATIVE)
    assert pos == ((0.0, 10.0),) * 4


@pytest.mark.parametrize("coord", ["u1", "u2", "v1", "v2"])
def test_index_zero_boxes_pin_the_own_coordinates(sign_changing, sign_table, coord):
    # with f equal to one coordinate on the one-sided cone, only the entry
    # whose box pins that coordinate to [c rho, rho] (value) or [d rho, rho]
    # (derivative) has a nonzero inf; its t axis starts at the entry's window
    comps = [_with_f(c, coord) for c in sign_changing.problem.components]
    problem = dataclasses.replace(
        sign_changing.problem, comp1=comps[0], comp2=comps[1], variant=ConeVariant.NON_NEGATIVE
    )
    out = check_I0(problem, 2.0, 3.0, sign_table, HintPolicy.IGNORE)
    pinned = ["u1", "u2", "v1", "v2"].index(coord)
    for k, e in enumerate(out.inequalities):  # plain, star of component 1, then of 2
        env, star = comps[k // 2].envelope, k % 2 == 1
        expected = (env.d if star else env.c) if k == pinned else 0.0
        assert e.bound_source == GRID_ESTIMATE
        assert e.grid_value == pytest.approx(expected, rel=1e-12), e.name
        assert e.witness[0] == (env.gamma if star else env.a)


# ------------------------------------------------------- sup / inf bounds


def test_sup_bound_prefers_hint_and_cross_checks(sign_changing, sign_table):
    est = check_I1(sign_changing.problem, 0.03, 0.3, sign_table).inequalities[0]
    assert est.bound_source == USER_HINT
    assert est.lhs == pytest.approx(6 * 0.03, rel=1e-12)
    assert est.grid_value <= est.lhs + 1e-12
    # grid attains the corner value exactly for this polynomial nonlinearity
    assert est.grid_value == pytest.approx(6 * 0.03, rel=1e-9)


def test_sup_bound_grid_only(sign_changing, sign_table):
    out = check_I1(sign_changing.problem, 0.03, 0.3, sign_table, HintPolicy.IGNORE)
    est = out.inequalities[0]
    assert est.bound_source == GRID_ESTIMATE
    assert est.lhs == pytest.approx(0.18, rel=1e-9)
    assert len(est.witness) == 5


def test_zero_nonlinearity_bounds(sign_changing, sign_table):
    comp = _with_f(sign_changing.problem.comp1, "0", sup="0")
    problem = dataclasses.replace(sign_changing.problem, comp1=comp)
    est = check_I1(problem, 1.0, 1.0, sign_table).inequalities[0]
    assert est.lhs == 0.0 and est.bound_source == USER_HINT
    est = check_I0(problem, 1.0, 1.0, sign_table).inequalities[0]
    assert est.lhs == 0.0 and est.bound_source == GRID_ESTIMATE


def test_inf_bounds_match_hand_derivation(sign_changing, sign_table):
    plain, star = check_I0(sign_changing.problem, 0.03, 0.3, sign_table).inequalities[:2]
    assert plain.bound_source == USER_HINT
    assert plain.lhs == pytest.approx(9 / 16 * 0.03, rel=1e-12)
    assert plain.grid_value >= plain.lhs - 1e-12
    assert star.lhs == pytest.approx(49 / 324 * 0.03, rel=1e-12)


def test_hint_above_grid_inf_is_rejected(third_order, third_table):
    # the bundled third-order file carries a plain inf hint for component 2
    # that the grid refutes: the pinned coordinate enters squared, so the
    # true inf scales with (c2 rho2)^2, far below the hinted rho2/54.
    with pytest.raises(HintInconsistent, match="grid inf estimate"):
        check_I0(third_order.problem, 400000.0, 20000.0, third_table)


def test_sup_hint_below_grid_is_rejected(sign_changing, sign_table):
    comp = _with_f(
        sign_changing.problem.comp1,
        "(u1^2 + u2^2)*(2 + cos(v1*v2))",
        sup="rho1/100",  # far below the attainable corner value 6 rho1
    )
    problem = dataclasses.replace(sign_changing.problem, comp1=comp)
    with pytest.raises(HintInconsistent, match="grid sup estimate"):
        check_I1(problem, 0.03, 0.3, sign_table)


def test_missing_hint_policies(sign_changing, sign_table):
    comp = dataclasses.replace(sign_changing.problem.comp1, hints=BoundHints())
    problem = dataclasses.replace(sign_changing.problem, comp1=comp)
    with pytest.raises(HintMissing, match="no sup hint supplied"):
        check_I1(problem, 1.0, 1.0, sign_table, HintPolicy.REQUIRE)
    with pytest.raises(HintMissing, match="no inf-plain hint supplied"):
        check_I0(problem, 1.0, 1.0, sign_table, HintPolicy.REQUIRE)
    est = check_I1(problem, 1.0, 1.0, sign_table, HintPolicy.ALLOW).inequalities[0]
    assert est.bound_source == GRID_ESTIMATE


@pytest.mark.parametrize("mode", ["sup", "inf"])
def test_verdict_boundaries_sit_at_rhs_plus_minus_eps(mode):
    # sup: FAILS iff grid >= rhs + eps, HOLDS iff a hint < rhs - eps;
    # inf mirrors both: FAILS iff grid <= rhs - eps, HOLDS iff a hint > rhs + eps
    rhs, rhs_error = 0.5, 1e-6
    eps = 10.0 * rhs_error + 1e-12  # every value here is below 1
    sign = 1.0 if mode == "sup" else -1.0
    fail_edge, hold_edge = rhs + sign * eps, rhs - sign * eps
    inward, outward = -sign * np.inf, sign * np.inf

    def entry(value, source=USER_HINT):
        # a hint is never on the wrong side of the grid, so put both at value
        est = BoundEstimate(value, source, value, ())
        return _entry("x", est, rhs, rhs_error, mode)

    cases = [
        (fail_edge, USER_HINT, Verdict.FAILS),
        (float(np.nextafter(fail_edge, outward)), USER_HINT, Verdict.FAILS),
        (float(np.nextafter(fail_edge, inward)), USER_HINT, Verdict.INCONCLUSIVE),
        (float(np.nextafter(hold_edge, outward)), USER_HINT, Verdict.INCONCLUSIVE),
        (hold_edge, USER_HINT, Verdict.INCONCLUSIVE),
        (float(np.nextafter(hold_edge, inward)), USER_HINT, Verdict.HOLDS),
        (float(np.nextafter(hold_edge, inward)), GRID_ESTIMATE, Verdict.INCONCLUSIVE),
        (fail_edge, GRID_ESTIMATE, Verdict.FAILS),
    ]
    for value, source, verdict in cases:
        e = entry(value, source)
        assert (e.verdict, e.epsilon, e.lhs, e.rhs) == (verdict, eps, value, rhs), value
        assert e.margin == (rhs - value if mode == "sup" else value - rhs)
        assert (e.margin > 0) == (sign * value < sign * rhs)
    # equality gives a margin of +0.0 in both modes, never -0.0
    assert math.copysign(1.0, entry(rhs).margin) == 1.0


@pytest.mark.parametrize("mode", ["sup", "inf"])
def test_hint_one_tolerance_beyond_the_grid_is_the_last_accepted(
    sign_changing, sign_table, mode
):
    base = dataclasses.replace(sign_changing.problem.comp1, f=_f("0.5"))
    check = check_I1 if mode == "sup" else check_I0

    def bound(hint_text):
        hint = _hint(hint_text) if hint_text else None
        hints = BoundHints(sup=hint) if mode == "sup" else BoundHints(inf_plain=hint)
        problem = dataclasses.replace(
            sign_changing.problem, comp1=dataclasses.replace(base, hints=hints)
        )
        return check(problem, 1.0, 1.0, sign_table).inequalities[0]

    grid_only = bound(None)
    grid, witness = grid_only.grid_value, grid_only.witness
    assert grid == 0.5 and grid_only.bound_source == GRID_ESTIMATE
    tol = 1e-9  # relative hint tolerance times max(1, |hint|, |grid|)
    edge = grid - tol if mode == "sup" else grid + tol
    accepted = bound(repr(edge))
    assert (accepted.lhs, accepted.bound_source) == (edge, USER_HINT)
    bad = float(np.nextafter(edge, -np.inf if mode == "sup" else np.inf))
    with pytest.raises(HintInconsistent) as exc:
        bound(repr(bad))
    if mode == "sup":
        expected = (
            f"sup hint {bad!r} is below the grid sup estimate {grid!r} "
            f"(grid witness {witness}); an upper bound cannot be smaller"
        )
    else:
        expected = (
            f"inf-plain hint {bad!r} is above the grid inf estimate {grid!r} "
            f"(grid witness {witness}); a lower bound cannot be larger"
        )
    assert str(exc.value) == expected


# ----------------------------------------------------------- conditions


def test_index_one_condition_holds_at_small_radii(sign_changing, sign_table):
    out = check_I1(sign_changing.problem, 0.03, 0.3, sign_table)
    assert out.verdict is Verdict.HOLDS
    names = [e.name for e in out.inequalities]
    assert names == ["sup f1/rho1 < min(m1, m1*)", "sup f2/rho2 < min(m2, m2*)"]
    for e in out.inequalities:
        assert e.bound_source == USER_HINT
        assert e.margin > e.epsilon
    # second entry is the binding one: 6*0.3 = 1.8 against min = 20/11
    assert out.inequalities[1].rhs == pytest.approx(20 / 11, rel=1e-9)
    assert out.inequalities[1].margin == pytest.approx(20 / 11 - 1.8, rel=1e-6)


def test_index_one_condition_fails_at_unit_radii(sign_changing, sign_table):
    out = check_I1(sign_changing.problem, 1.0, 1.0, sign_table)
    assert out.verdict is Verdict.FAILS
    assert out.inequalities[0].lhs == pytest.approx(6.0)
    assert out.inequalities[0].margin < 0


def test_index_zero_condition_holds_at_large_radii(sign_changing, sign_table):
    out = check_I0(sign_changing.problem, 700.0, 600.0, sign_table)
    assert out.verdict is Verdict.HOLDS
    names = [e.name for e in out.inequalities]
    assert names == [
        "inf f1/rho1 > M1",
        "inf* f1/rho1 > M1*",
        "inf f2/rho2 > M2",
        "inf* f2/rho2 > M2*",
    ]
    lhs = [e.lhs for e in out.inequalities]
    assert lhs[0] == pytest.approx(9 / 16 * 700, rel=1e-12)
    assert lhs[1] == pytest.approx(49 / 324 * 700, rel=1e-12)
    assert lhs[2] == pytest.approx(9 / 16 * 600, rel=1e-12)
    assert lhs[3] == pytest.approx(169 / 1936 * 600, rel=1e-12)


def test_zero_nonlinearity_verdicts(sign_changing, sign_table):
    comp1 = _with_f(sign_changing.problem.comp1, "0", sup="0")
    comp2 = _with_f(sign_changing.problem.comp2, "0", sup="0")
    zero = dataclasses.replace(sign_changing.problem, comp1=comp1, comp2=comp2)
    assert check_I1(zero, 1.0, 1.0, sign_table).verdict is Verdict.HOLDS
    # 0 > M is impossible and the grid refutes it rigorously
    assert check_I0(zero, 1.0, 1.0, sign_table).verdict is Verdict.FAILS


def test_grid_sup_never_certifies(sign_changing, sign_table):
    # a spike between grid nodes: the grid estimate stays small, but a grid
    # sup is only a lower bound of the true sup, so the verdict must stay
    # INCONCLUSIVE rather than HOLDS
    comp1 = _with_f(
        sign_changing.problem.comp1, "1000*exp(0 - 1e8*(u1 - 0.1234)^2)"
    )
    comp2 = _with_f(sign_changing.problem.comp2, "0")
    spiked = dataclasses.replace(sign_changing.problem, comp1=comp1, comp2=comp2)
    out = check_I1(spiked, 0.5, 0.5, sign_table)
    assert out.inequalities[0].lhs < 1.0  # the grid misses the spike
    assert out.inequalities[0].verdict is Verdict.INCONCLUSIVE
    assert out.verdict is Verdict.INCONCLUSIVE


# ------------------------------------------------------------ scenarios


def test_one_solution_certificate(sign_changing, sign_table):
    cert = certify(
        sign_changing.problem, Scenario.S2, ((0.03, 0.3), (700.0, 600.0)), sign_table
    )
    assert cert.verdict is Verdict.HOLDS
    assert cert.solution_count == 1
    assert cert.rigorous
    assert cert.annuli == (((0.03, 0.3), (700.0, 600.0)),)
    assert [o.condition for o in cert.outcomes] == ["I1", "I0"]
    assert all(o.verdict is Verdict.HOLDS for o in cert.outcomes)


def test_certificate_follows_sub_verdicts(sign_changing, sign_table):
    cert = certify(
        sign_changing.problem, Scenario.S2, ((1.0, 1.0), (700.0, 600.0)), sign_table
    )
    assert cert.verdict is Verdict.FAILS
    assert cert.outcomes[0].verdict is Verdict.FAILS


def test_ladder_gap_validation(sign_changing, sign_table):
    with pytest.raises(LadderViolation, match="rho_1 < r_1"):
        certify(
            sign_changing.problem, Scenario.S2, ((700.0, 600.0), (0.03, 0.3)), sign_table
        )
    # S1 divides by the cone fraction: 0.03/0.75 = 0.04 >= 0.039
    with pytest.raises(LadderViolation, match="rho_1/c_1 < r_1"):
        certify(
            sign_changing.problem, Scenario.S1, ((0.03, 0.3), (0.039, 0.39)), sign_table
        )


def test_ladder_length_validation(sign_changing, sign_table):
    with pytest.raises(LadderViolation, match="3 radius pairs"):
        certify(sign_changing.problem, Scenario.S3, ((0.03, 0.3), (700.0, 600.0)), sign_table)


def test_three_rung_scenario_structure(sign_changing, sign_table):
    cert = certify(
        sign_changing.problem,
        Scenario.S4,
        ((0.03, 0.3), (700.0, 600.0), (1300.0, 1100.0)),
        sign_table,
    )
    assert [o.condition for o in cert.outcomes] == ["I1", "I0", "I1"]
    assert cert.solution_count == 2
    assert len(cert.annuli) == 2
    # the third rung reuses the sup hint at huge radii, so it must fail
    assert cert.verdict is Verdict.FAILS
    assert cert.outcomes[2].verdict is Verdict.FAILS


def test_hatted_certificate_propagates_hint_refutation(third_order, third_table):
    with pytest.raises(HintInconsistent):
        certify(
            third_order.problem, Scenario.S2_HAT, third_order.check.ladder, third_table
        )


# --------------------------------------------------------- non-existence


def test_nonexistence_supported_by_construction(sign_changing, sign_table):
    m1 = sign_table.comp1.m.constant
    m2 = sign_table.comp2.m.constant
    comp1 = _with_f(sign_changing.problem.comp1, f"{m1 / 2!r}*abs(u1)")
    comp2 = _with_f(sign_changing.problem.comp2, f"{m2 / 2!r}*abs(v1)")
    problem = dataclasses.replace(sign_changing.problem, comp1=comp1, comp2=comp2)
    box = sup_box(10.0, 10.0, ConeVariant.SIGN_CHANGING)
    cert = check_nonexistence(problem, sign_table, box, n=41)
    assert cert.verdict is Verdict.HOLDS
    assert cert.solution_count == 0
    assert not cert.rigorous  # sampling on a truncated box
    held = {a.name for a in cert.alternatives if a.holds}
    assert "N1a: f1 < m1|u1|" in held
    assert "N2a: f2 < m2|v1|" in held


def test_nonexistence_second_alternative(sign_changing, sign_table):
    m2 = sign_table.comp2.m.constant
    slope = 2.0 * sign_table.comp1.M.constant / sign_changing.problem.comp1.envelope.c
    comp1 = _with_f(sign_changing.problem.comp1, f"{slope!r}*u1")
    comp2 = _with_f(sign_changing.problem.comp2, f"{m2 / 2!r}*abs(v1)")
    problem = dataclasses.replace(
        sign_changing.problem,
        comp1=comp1,
        comp2=comp2,
        variant=ConeVariant.NON_NEGATIVE,
    )
    box = sup_box(10.0, 10.0, ConeVariant.NON_NEGATIVE)
    cert = check_nonexistence(problem, sign_table, box, n=41)
    assert cert.verdict is Verdict.HOLDS
    record = {a.name: a for a in cert.alternatives}
    assert record["N1b: f1 > (M1/c1)u1"].holds
    assert record["N2a: f2 < m2|v1|"].holds


def test_nonexistence_refuted_for_bundled_nonlinearity(sign_changing, sign_table):
    box = sup_box(10.0, 10.0, ConeVariant.SIGN_CHANGING)
    cert = check_nonexistence(sign_changing.problem, sign_table, box, n=41)
    assert cert.verdict is Verdict.FAILS
    assert all(not a.holds for a in cert.alternatives)
    # witnesses document the violated strict inequality
    for a in cert.alternatives:
        assert len(a.witness) == 5


# ----------------------------------------------------------- properties


@settings(max_examples=20, deadline=None)
@given(rho=st.floats(min_value=1e-3, max_value=1e3))
def test_degree_one_homogeneous_sup_is_radius_free(sign_changing, sign_table, rho):
    comp = _with_f(sign_changing.problem.comp1, "sqrt(u1^2 + u2^2)")
    problem = dataclasses.replace(sign_changing.problem, comp1=comp)

    def sup(r):
        return check_I1(problem, r, r, sign_table, HintPolicy.IGNORE, n=7).inequalities[0]

    assert sup(rho).lhs == pytest.approx(sup(1.0).lhs, rel=1e-12, abs=1e-12)


def test_index_one_verdict_antitone_in_radius(sign_changing, sign_table):
    # once the condition holds at some radius, it keeps holding below it
    verdicts = [
        check_I1(sign_changing.problem, rho, 10 * rho, sign_table).verdict
        for rho in np.linspace(0.003, 0.03, 10)
    ]
    assert all(v is Verdict.HOLDS for v in verdicts)
