"""The output checker flags doctored verdicts, exit codes and residuals."""
from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    return {
        w: workloads.generate(w, 4, out / w) for w in ("certify", "collocation")
    }


def _certify_report(expect: dict) -> dict:
    return {
        "certificate": {
            "verdict": expect["verdict"],
            "rigorous": expect["rigorous"],
            "outcomes": [
                {"condition": cond, "verdict": verdict,
                 "inequalities": [{"verdict": v} for v in entries]}
                for cond, verdict, entries in expect["outcomes"]
            ],
        }
    }


def _certify_job(jobs, verdict):
    return next(
        j for j in jobs["certify"]
        if j["command"] == "certify" and j["expect"].get("verdict") == verdict
    )


@pytest.mark.parametrize("verdict", ["HOLDS", "FAILS"])
def test_expected_certificate_passes(jobs, verdict):
    job = _certify_job(jobs, verdict)
    report = _certify_report(job["expect"])
    assert checker.check(job, job["expect"]["exit"], report, "", "") == []


def test_doctored_verdict_is_flagged(jobs):
    job = _certify_job(jobs, "HOLDS")
    report = _certify_report(job["expect"])
    report["certificate"]["verdict"] = "INCONCLUSIVE"
    assert any("verdict" in p for p in checker.check(job, 0, report, "", ""))
    report = _certify_report(job["expect"])
    report["certificate"]["outcomes"][1]["inequalities"][2]["verdict"] = "FAILS"
    assert checker.check(job, 0, report, "", "")


def test_doctored_exit_code_is_flagged(jobs):
    job = _certify_job(jobs, "HOLDS")
    report = _certify_report(job["expect"])
    assert any("exit code" in p for p in checker.check(job, 3, report, "", ""))


def test_error_exit_needs_its_message(jobs):
    job = next(j for j in jobs["certify"] if j["expect"]["exit"] == 1)
    assert checker.check(job, 1, None, "", "error: inf-plain hint 370.3 is above ...") == []
    assert checker.check(job, 1, None, "", "error: something else")
    assert checker.check(job, 0, None, "", "error: inf-plain hint")


def test_constants_within_tolerance(jobs):
    job = next(j for j in jobs["certify"] if j["command"] == "constants")
    rows = [{"name": n, "constant": v * (1 + 1e-9)} for n, v in job["expect"]["constants"].items()]
    assert checker.check(job, 0, {"constants": rows}, "", "") == []
    rows[3]["constant"] *= 1.001
    assert checker.check(job, 0, {"constants": rows}, "", "")


def test_solve_needs_convergence_and_small_residual(jobs):
    job = jobs["collocation"][0]
    good = {"converged": True, "residual": 1e-12, "n": job["expect"]["n"]}
    assert checker.check(job, 0, good, "", "") == []
    assert checker.check(job, 0, {**good, "converged": False}, "", "")
    assert checker.check(job, 0, {**good, "residual": 1e-6}, "", "")
    assert checker.check(job, 0, None, "", "")  # the report is missing


_GREEN_BLOCK = """FAIL  green kernel properties
  ok  branch gluing is continuous  (worst violation -1.000e-10)
  ok  k >= 0 on [0,1]^2  (worst violation -0.000e+00)
  BAD dk/dt >= d*psi on the strip  (worst violation 2.000e+00)
      sampled on 200x200 grids; ...
  bvp h = 1: ode residual 3.026e-06, bc residuals (0.0e+00, 0.0e+00, 0.0e+00)
  bvp h = s: ode residual 2.590e-06, bc residuals (0.0e+00, 0.0e+00, 5.6e-17)
"""


def test_green_check_text_report(jobs):
    job = jobs["collocation"][2]
    assert job["command"] == "green-check"
    stdout = _GREEN_BLOCK * 2
    assert checker.check(job, 2, None, stdout, "") == []
    assert checker.check(job, 0, None, stdout, "")
    assert checker.check(job, 2, None, stdout.replace("3.026e-06", "3.026e-03"), "")
    assert checker.check(job, 2, None, stdout.replace("  ok  k >= 0", "  BAD k >= 0"), "")
    assert checker.check(job, 2, None, _GREEN_BLOCK, "")  # one component missing
    doctored = copy.deepcopy(job)
    doctored["expect"]["failing_items"] = [[], []]
    assert checker.check(doctored, 2, None, stdout, "")
