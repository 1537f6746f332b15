"""Problem-file parsing, subcommands, exit codes, and report determinism."""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import hamcert
from hamcert import conditions, exprlang, greens3, quadopt, solver
from hamcert.cli import CheckConfig, ProblemFileError, SolverConfig, load_problem, main
from hamcert.conditions import Scenario
from hamcert.model import ConeVariant

from conftest import bundled_path


@pytest.fixture(scope="module")
def sign_text() -> str:
    return (resources.files("hamcert") / "problems" / "sign_changing.prob").read_text()


@pytest.fixture(scope="module")
def third_text() -> str:
    return (resources.files("hamcert") / "problems" / "third_order.prob").read_text()


def _write(tmp_path, text: str) -> str:
    p = tmp_path / "case.prob"
    p.write_text(text)
    return str(p)


# -------------------------------------------------------------- loading


def test_load_bundled_sign_changing(sign_changing):
    assert sign_changing.problem.variant is ConeVariant.SIGN_CHANGING
    assert sign_changing.check.scenario is Scenario.S2
    assert sign_changing.check.ladder == ((0.03, 0.3), (700.0, 600.0))
    assert sign_changing.check.resolution == 17
    assert sign_changing.solver.n == 401
    assert [c.kernel.green for c in sign_changing.problem.components] == [None, None]


def test_load_bundled_third_order(third_order):
    assert third_order.problem.variant is ConeVariant.NON_NEGATIVE_NON_DECREASING
    assert third_order.check.scenario is Scenario.S2_HAT
    g1, g2 = (c.kernel.green for c in third_order.problem.components)
    assert (g1.alpha, g1.eta) == (1.5, 0.5)
    assert (g2.alpha, g2.eta) == (2.0, pytest.approx(1 / 3))
    # component 1 overrides the envelope fraction; component 2 keeps the formula value
    assert third_order.problem.comp1.envelope.c == pytest.approx(1 / 45)
    assert third_order.problem.comp2.envelope.c == pytest.approx(1 / 216)


PARSE_CASES = [
    ("schema = 1\n", "", "first entry must be 'schema = 1'"),
    ("schema = 1", "schema = 2", "unsupported schema"),
    ("weight = 1\nf =", "weight = 1\nbogus = 1\nf =", "unknown key 'bogus'"),
    ("c = 3/4\npsi", "c = 3/4\nc = 1/2\npsi", "duplicate key 'c'"),
    ("scenario = s2", "scenario = s9", "unknown scenario"),
    ("rho = 0.03, 0.3", "rho = 0.03", "two comma-separated values"),
    ("d = 7/18\n", "", "must declare d"),
    ("f = (u1^2", "f = (u1^^2", "byte offset"),
    ("r = 700, 600", "s = 700, 600", "s needs r before it"),
    # nested deeper than the recursion limit, and than Python's 200 parentheses
    pytest.param("f = ", "f = " + "-" * 5000, "byte offset", id="5000-minus-signs"),
    pytest.param("f = ", "f = " + "(" * 300, "byte offset", id="300-parentheses"),
]


@pytest.mark.parametrize("old,new,fragment", PARSE_CASES)
def test_parse_errors_carry_location(tmp_path, sign_text, old, new, fragment):
    path = _write(tmp_path, sign_text.replace(old, new, 1))
    with pytest.raises(ProblemFileError) as exc:
        load_problem(path)
    message = str(exc.value)
    assert fragment in message
    assert re.search(r":\d+:\d+: ", message)  # path:line:col: prefix


def test_sections_left_out_take_their_defaults(tmp_path, sign_text):
    components = sign_text.partition("[cone]")[0]  # schema = 1 and both components
    loaded = load_problem(_write(tmp_path, components))
    assert loaded.check == CheckConfig(None, (), 17, (10.0, 10.0), 41)
    assert loaded.solver == SolverConfig()
    assert loaded.solver.n == 401
    assert loaded.problem.variant is ConeVariant.SIGN_CHANGING


def test_unknown_section_rejected(tmp_path, sign_text):
    path = _write(tmp_path, sign_text + "\n[extra]\nx = 1\n")
    with pytest.raises(ProblemFileError, match=r"unknown section \[extra\]"):
        load_problem(path)


def test_green_kernel_rejects_explicit_derivative(tmp_path, third_text):
    text = third_text.replace(
        "kernel = green(3/2, 1/2)\n", "kernel = green(3/2, 1/2)\nkernel_dt = 0\n", 1
    )
    with pytest.raises(ProblemFileError, match="not allowed with a green"):
        load_problem(_write(tmp_path, text))


def test_green_kernel_parameter_errors_are_located(tmp_path, third_text):
    text = third_text.replace("green(2, 1/3)", "green(3, 1/2)", 1)
    with pytest.raises(ProblemFileError, match="1 < alpha < 1/eta"):
        load_problem(_write(tmp_path, text))


@pytest.mark.parametrize("component", [1, 2])
@pytest.mark.parametrize("key", ["kernel", "weight", "f"])
def test_a_missing_key_is_reported_at_its_section_header(tmp_path, sign_text, capsys,
                                                          component, key):
    header = f"[component.{component}]"
    head, _, body = sign_text.partition(header + "\n")
    body, _, tail = body.partition("\n\n")
    lines = [ln for ln in body.splitlines() if not ln.startswith(f"{key} =")]
    path = _write(tmp_path, head + header + "\n" + "\n".join(lines) + "\n\n" + tail)
    line = head.count("\n") + 1
    assert line == {1: 8, 2: 25}[component]
    assert main(["constants", path]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:{line}:1: [component.{component}] is missing '{key}'\n"
    )


@pytest.mark.parametrize("new,line,fragment", [
    ("c = 2", 15, "need c in (0, 1], got 2.0"),
    ("c = 1/45\nb = 0.5\na = 0.9", 17, "need 0 <= a < b <= 1, got a=0.9, b=0.5"),
    ("c = 1/45\ngamma = 0.8\ndelta = 0.5", 16,
     "need 0 <= gamma < delta <= 1, got gamma=0.8, delta=0.5"),
    ("c = 1/45\nd = 2", 16, "need d in (0, 1], got 2.0"),
    # a names green(3/2, 1/2)'s default, which the file does not set: at b
    ("c = 1/45\nb = 0.01", 16, "need 0 <= a < b <= 1, got a=0.3333333333333333, b=0.01"),
])
def test_envelope_range_errors_are_located(tmp_path, third_text, capsys, new, line, fragment):
    path = _write(tmp_path, third_text.replace("c = 1/45", new, 1))
    assert main(["certify", path]) == 1
    assert capsys.readouterr().err == f"error: {path}:{line}:1: {fragment}\n"


@pytest.mark.parametrize("old,new,line,fragment", [
    ("n = 401", "n = 50", 54, "expected an integer between 101 and 4001, got '50'"),
    ("n = 401", "n = 5000", 54, "expected an integer between 101 and 4001, got '5000'"),
    ("theta = 1", "theta = x", 55, "unknown variable 'x'"),
    ("theta = 1", "theta = 0", 55, "theta must be in (0, 1], got 0.0"),
    ("tol = 1e-10", "tol = -1", 56, "tol must be positive"),
    ("max_iter = 200", "max_iter = 1.5", 57, "expected an integer >= 1, got '1.5'"),
    ("init = zero", "init = hot", 58, "init must be 'zero' or 'bump', got 'hot'"),
])
def test_solver_section_errors_are_located(tmp_path, sign_text, capsys, old, new, line, fragment):
    path = _write(tmp_path, sign_text.replace(f"\n{old}\n", f"\n{new}\n", 1))
    assert main(["solve", path]) == 1
    assert capsys.readouterr().err == f"error: {path}:{line}:1: {fragment}\n"


# --------------------------------------------------------- exit codes


def test_certify_bundled_sign_changing_exits_zero(capsys):
    assert main(["certify", bundled_path("sign_changing.prob")]) == 0
    out = capsys.readouterr().out
    assert "HOLDS" in out
    assert "1 nontrivial solution" in out


def test_certify_third_order_hint_refutation_exits_one(capsys):
    # the bundled plain inf hint for component 2 is refuted by the grid
    # cross-check, so certification aborts with an explanatory error
    assert main(["certify", bundled_path("third_order.prob")]) == 1
    err = capsys.readouterr().err
    assert "grid inf estimate" in err


def test_certify_third_order_grid_only_fails(capsys):
    code = main(["certify", bundled_path("third_order.prob"), "--hints", "ignore"])
    assert code == 2
    assert "FAILS" in capsys.readouterr().out


def test_constants_exits_zero(capsys):
    assert main(["constants", bundled_path("sign_changing.prob")]) == 0
    out = capsys.readouterr().out
    assert "1/m1" in out or "m1" in out


def test_constants_of_a_kernel_that_ignores_s(tmp_path, sign_text, capsys):
    text = sign_text.replace("kernel = s*(7/8*t - t^2)\n", "kernel = 7/8*t - t^2 + 1/16\n", 1)
    text = text.replace("kernel_dt = s*(7/8 - 2*t)\n", "kernel_dt = 7/8 - 2*t\n", 1)
    out = tmp_path / "report.json"
    assert main(["constants", _write(tmp_path, text), "--no-meta", "--out", str(out)]) == 0
    rows = {r["name"]: r for r in json.loads(out.read_text())["constants"]}
    # with g = 1, 1/m1 = max |k| at t = 7/16 and 1/m1* = max |dk/dt| at t = 1
    assert rows["m1"]["extremal_integral"] == pytest.approx(65 / 256, rel=1e-12)
    assert rows["m1*"]["extremal_integral"] == pytest.approx(9 / 8, rel=1e-12)


def test_constants_reports_a_domain_error(tmp_path, sign_text, capsys):
    text = sign_text.replace("weight = 1\n", "weight = 1/(s - 1/2)\n", 1)
    assert main(["constants", _write(tmp_path, text)]) == 1
    assert capsys.readouterr().err == "error: non-finite value produced by division\n"


def test_assumptions_sign_changing_exits_zero(capsys):
    assert main(["assumptions", bundled_path("sign_changing.prob")]) == 0
    capsys.readouterr()


def test_assumptions_third_order_reports_failed_item(capsys):
    # the declared derivative fraction d cannot hold near s = 0 for the
    # Green family; the command reports it honestly and exits nonzero
    assert main(["assumptions", bundled_path("third_order.prob")]) == 2
    capsys.readouterr()


def test_nonexistence_refuted_exits_two(capsys):
    assert main(["nonexistence", bundled_path("sign_changing.prob")]) == 2
    capsys.readouterr()


def test_nonexistence_supported_exits_zero(tmp_path, sign_text, capsys):
    text = sign_text.replace(
        "f = (u1^2 + u2^2)*(2 + cos(v1*v2))", "f = 256/49*abs(u1)", 1
    ).replace("f = (v1^2 + v2^2)*(2 - sin(u1*u2))", "f = 400/81*abs(v1)", 1)
    assert main(["nonexistence", _write(tmp_path, text)]) == 0
    out = capsys.readouterr().out
    assert "supports non-existence" in out


def test_nonexistence_never_evaluates_f_at_excluded_points(tmp_path, sign_text, capsys):
    # 1/u1 is defined at every sampled point: alternative a drops u1 = 0 and
    # alternative b keeps only u1 > 0
    text = sign_text.replace("f = (u1^2 + u2^2)*(2 + cos(v1*v2))", "f = 1/u1", 1)
    assert main(["nonexistence", _write(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "holds  N1a: f1 < m1|u1|" in captured.out


def test_solve_exits_zero_and_writes_table(tmp_path, capsys):
    table = tmp_path / "solution.tsv"
    code = main(["solve", bundled_path("sign_changing.prob"), "--table", str(table)])
    assert code == 0
    capsys.readouterr()
    lines = table.read_text().strip().splitlines()
    assert lines[0].startswith("t\tu")
    assert len(lines) == 402  # header + solver grid


def test_green_check_runs_on_green_kernels(capsys):
    # exit 2: the declared-fraction item fails honestly for this family
    assert main(["green-check", bundled_path("third_order.prob")]) == 2
    out = capsys.readouterr().out
    assert "branch gluing is continuous" in out


@pytest.mark.parametrize("grid", ["6001", "10001"])
def test_green_check_passes_the_bvp_on_large_grids(grid, capsys):
    # w is compared with the exact solution, so refining the grid adds no error
    assert main(["green-check", bundled_path("third_order.prob"), "--grid", grid]) == 2
    bvp = re.findall(r"(?m)^  bvp h = (\S+): (.*)$", capsys.readouterr().out)
    assert [h for h, _ in bvp] == ["1", "s", "1", "s"]
    for _, line in bvp:
        assert float(re.match(r"ode residual (\S+),", line).group(1)) < 1e-12


def test_green_check_writes_json_report(tmp_path, capsys):
    out = tmp_path / "green.json"
    assert main(["green-check", bundled_path("third_order.prob"), "--out", str(out)]) == 2
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["passed"] is False
    items = {it["name"]: it for c in doc["components"] for it in c["properties"]["items"]}
    assert items["dk/dt(1,s) = alpha*dk/dt(eta,s)"]["passed"] is True


_A3_ITEMS = ("abs(k) <= phi on [0,1]^2", "abs(dk/dt) <= psi on [0,1]^2",
             "k >= c*phi on the strip", "dk/dt >= d*psi on the strip")


@pytest.mark.parametrize("edit", [
    ("c = 1/45\n", "c = 1/44\n"),  # refuted by assumptions, worst violation 2.78e-5
    ("kernel = green(2, 1/3)\n",  # [gamma, delta] = [1/5, 3/10] is not [a, b] = [1/6, 1/3]
     "kernel = green(2, 1/3)\npsi = 4*(1-s)\nd = 1/10\ngamma = 1/5\ndelta = 3/10\n"),
])
def test_green_check_and_assumptions_judge_the_declared_envelope_alike(
        edit, third_text, tmp_path, capsys):
    assert third_text.count(edit[0]) == 1
    path = _write(tmp_path, third_text.replace(*edit))
    docs = {}
    for command in ("assumptions", "green-check"):
        out = tmp_path / f"{command}.json"
        main([command, path, "--no-meta", "--out", str(out)])
        docs[command] = json.loads(out.read_text())
    capsys.readouterr()
    for i, comp in enumerate(docs["green-check"]["components"], start=1):
        checked = [it for it in comp["properties"]["items"] if it["name"] in _A3_ITEMS]
        envelope = next(r for r in docs["assumptions"]["reports"]
                        if r["name"] == f"component {i}: envelope inequalities")
        assert [it["name"] for it in checked] == list(_A3_ITEMS)
        assert checked == envelope["items"]


def test_green_check_requires_green_kernels(capsys):
    assert main(["green-check", bundled_path("sign_changing.prob")]) == 1
    assert "green" in capsys.readouterr().err


def test_missing_file_exits_one(capsys):
    assert main(["certify", "/nonexistent/path.prob"]) == 1
    assert "error:" in capsys.readouterr().err


def test_an_unwritable_report_path_exits_one_with_one_error_line(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["constants", bundled_path("sign_changing.prob"), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "m1" in captured.out  # the table was printed before the write failed
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(out) in captured.err and not out.exists()


def test_parse_error_exits_one(tmp_path, sign_text, capsys):
    path = _write(tmp_path, sign_text.replace("schema = 1", "schema = 3", 1))
    assert main(["certify", path]) == 1
    assert "unsupported schema" in capsys.readouterr().err


def test_unknown_command_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["swizzle", bundled_path("sign_changing.prob")])
    assert exc.value.code == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: hamcert" in capsys.readouterr().out


# ------------------------------------------------------------- reports


def test_json_report_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    src = bundled_path("sign_changing.prob")
    assert main(["certify", src, "--out", str(out1), "--no-meta"]) == 0
    assert main(["certify", src, "--out", str(out2), "--no-meta"]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["schema"] == 1
    assert "meta" not in doc
    assert doc["certificate"]["verdict"] == "HOLDS"


def test_json_report_metadata(tmp_path, capsys):
    out = tmp_path / "meta.json"
    assert main(["constants", bundled_path("sign_changing.prob"), "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["meta"]["package"] == "hamcert"
    assert "generated_unix" in doc["meta"]


def test_grid_override(capsys):
    assert main(["certify", bundled_path("sign_changing.prob"), "--grid", "9"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("name", ["sign_changing.prob", "third_order.prob"])
def test_solve_grid_above_the_ceiling_exits_one_before_building(name, monkeypatch, capsys):
    def no_weights(*args):
        raise AssertionError("weights built for an oversized grid")

    monkeypatch.setattr(solver, "_discretize", no_weights)
    monkeypatch.setattr(solver, "_piecewise", no_weights)
    assert main(["solve", bundled_path(name), "--grid", "20001"]) == 1
    assert "grid needs at most 4001 nodes, got 20001" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0", "1", "-5", "many", "²"])
def test_grid_below_two_is_rejected(grid, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", bundled_path("sign_changing.prob"), "--grid", grid])
    assert exc.value.code != 0
    assert "--grid: expected an integer >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "tight"])
def test_tol_must_be_finite_and_positive(tol, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", bundled_path("sign_changing.prob"), "--tol", tol])
    assert exc.value.code == 1
    assert "argument --tol: expected a finite number > 0" in capsys.readouterr().err


def test_literal_that_overflows_is_a_file_error(tmp_path, sign_text, capsys):
    path = _write(tmp_path, sign_text.replace("tol = 1e-10", "tol = 1e400", 1))
    assert main(["solve", path]) == 1
    assert "bad numeric literal '1e400'" in capsys.readouterr().err


OVER_CAP = str(quadopt.MAX_AXIS_POINTS + 1)


def _no_work(*args, **kwargs):
    raise AssertionError("worked on an over-resolved grid")


@pytest.mark.parametrize("command,key", [
    ("certify", "resolution"), ("nonexistence", "nonexistence_resolution"),
])
def test_scan_resolution_above_the_cap_exits_one(command, key, tmp_path, sign_text,
                                                   monkeypatch, capsys):
    monkeypatch.setattr(quadopt, "grid_extremum", _no_work)
    monkeypatch.setattr(conditions, "grid_extremum", _no_work)
    src = bundled_path("sign_changing.prob")
    assert main([command, src, "--grid", OVER_CAP]) == 1
    assert (f"at most {quadopt.MAX_AXIS_POINTS} points per axis, got {OVER_CAP}"
            in capsys.readouterr().err)
    line = sign_text[:re.search(rf"(?m)^{key} = ", sign_text).start()].count("\n") + 1
    for value in (OVER_CAP, "1e300"):  # located at load, as the entry was written
        over = re.sub(rf"(?m)^{key} = \d+$", f"{key} = {value}", sign_text)
        over_file = _write(tmp_path, over)
        assert main([command, over_file]) == 1
        assert capsys.readouterr().err == (
            f"error: {over_file}:{line}:1: expected an integer between 2 and "
            f"{quadopt.MAX_AXIS_POINTS}, got '{value}'\n"
        )


def test_green_check_grid_above_the_cap_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(greens3, "integrate", _no_work)
    assert main(["green-check", bundled_path("third_order.prob"), "--grid", OVER_CAP]) == 1
    assert f"between 101 and {quadopt.MAX_AXIS_POINTS}" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["100", "99"])
def test_green_check_rejects_its_grid_before_any_output(grid, monkeypatch, capsys):
    monkeypatch.setattr(greens3, "check_kernel_properties", _no_work)
    assert main(["green-check", bundled_path("third_order.prob"), "--grid", grid]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "n_grid must be between 101" in err


_UNREAD_FLAGS = [
    ("assumptions", "--grid"), ("assumptions", "--tol"), ("assumptions", "--hints"),
    ("assumptions", "--table"), ("constants", "--grid"), ("constants", "--tol"),
    ("constants", "--hints"), ("constants", "--table"), ("certify", "--tol"),
    ("certify", "--table"), ("nonexistence", "--tol"), ("nonexistence", "--hints"),
    ("nonexistence", "--table"), ("solve", "--hints"), ("green-check", "--hints"),
    ("green-check", "--table"),
]


@pytest.mark.parametrize("command,flag", _UNREAD_FLAGS)
def test_a_flag_the_command_does_not_read_is_a_usage_error(command, flag, tmp_path, capsys):
    value = {"--grid": "101", "--tol": "1", "--hints": "require",
             "--table": str(tmp_path / "t.tsv")}[flag]
    with pytest.raises(SystemExit) as exc:
        main([command, bundled_path("third_order.prob"), flag, value])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"usage: hamcert {command} " in err
    assert f"unrecognized arguments: {flag} {value}" in err
    assert not (tmp_path / "t.tsv").exists()


# The report of each command, as nested key paths (list elements are
# transparent); every report also has command, problem and schema.
# green-check on sign_changing is an error and writes none.
_ITEMS = ("items", "items.location", "items.name", "items.passed", "items.worst_violation",
          "name", "note", "passed")
_CERTIFICATE = (
    "certificate", "certificate.alternatives", "certificate.annuli", "certificate.ladder",
    "certificate.note", "certificate.outcomes", "certificate.rigorous",
    "certificate.scenario", "certificate.solution_count", "certificate.verdict",
)
REPORT_KEYS = {
    "assumptions": ("passed", "reports", *(f"reports.{k}" for k in _ITEMS)),
    "constants": (
        "constants", "constants.constant", "constants.extremal_integral", "constants.name",
        "constants.quad_error", "constants.t_star", "constants.window",
    ),
    "certify": (
        *_CERTIFICATE, "certificate.outcomes.condition", "certificate.outcomes.inequalities",
        "certificate.outcomes.rho", "certificate.outcomes.verdict",
        *(f"certificate.outcomes.inequalities.{k}" for k in (
            "bound_source", "epsilon", "grid_value", "lhs", "margin", "name", "rhs",
            "verdict", "witness")),
    ),
    "nonexistence": (
        *_CERTIFICATE, "certificate.alternatives.holds", "certificate.alternatives.name",
        "certificate.alternatives.samples", "certificate.alternatives.witness",
        "certificate.alternatives.worst_margin",
    ),
    "solve": (
        "annuli", "annuli.inner", "annuli.localized", "annuli.outer",
        "cone", "cone.checks", "cone.checks.name", "cone.checks.passed", "cone.checks.slack",
        "cone.passed", "cone.tolerance", "converged", "derivative_consistency", "iterations",
        "n", "norms", "norms.du_C", "norms.dv_C", "norms.u_C", "norms.u_C1", "norms.v_C",
        "norms.v_C1", "residual", "residual_source", "tol",
    ),
    "green-check": (
        "components", "components.alpha", "components.bvp", "components.component",
        "components.eta", "components.properties", "passed",
        *(f"components.bvp.{k}" for k in (
            "bc_at_zero", "bc_slope_at_zero", "bc_three_point", "h", "n_grid",
            "ode_residual", "ode_worst_node", "passed")),
        *(f"components.properties.{k}" for k in _ITEMS),
    ),
}


def _key_paths(node, prefix=""):
    if isinstance(node, list):
        return set().union(*(_key_paths(v, prefix) for v in node))
    if not isinstance(node, dict):
        return set()
    return {p for k, v in node.items() for p in (prefix + k, *_key_paths(v, f"{prefix}{k}."))}


@pytest.mark.parametrize("name", ["sign_changing.prob", "third_order.prob"])
@pytest.mark.parametrize("command", sorted(REPORT_KEYS))
def test_report_key_tree(command, name, tmp_path, capsys):
    out = tmp_path / "report.json"
    grid = ["--grid", "9"] if command in ("certify", "nonexistence") else []
    hints = ["--hints", "ignore"] if command == "certify" else []
    main([command, bundled_path(name), *grid, *hints, "--no-meta", "--out", str(out)])
    capsys.readouterr()
    if command == "green-check" and name == "sign_changing.prob":
        assert not out.exists()
        return
    keys = _key_paths(json.loads(out.read_text()))
    assert keys == {"command", "problem", "schema", *REPORT_KEYS[command]}


@pytest.mark.parametrize("name", ["sign_changing.prob", "third_order.prob"])
def test_loading_a_bundled_problem_compiles_no_expression(name, monkeypatch):
    compiled = []
    real = exprlang._compile
    monkeypatch.setattr(exprlang, "_compile", lambda *a, **k: compiled.append(a) or real(*a, **k))
    load_problem(bundled_path(name))
    assert compiled == []


def test_a_stdout_closed_early_exits_141_without_an_error_line():
    # unbuffered, so each line is its own write; the BVP checks print long after the first
    env = dict(os.environ, PYTHONPATH=str(Path(hamcert.__file__).parents[1]),
               PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "hamcert.cli", "green-check", bundled_path("third_order.prob")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"FAIL  green kernel properties")
    proc.stdout.close()
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert proc.wait() == 141
