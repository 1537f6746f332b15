"""Output checker: compares one job's exit code and report with its expectation.

Only the decisive fields are compared (verdicts, constants to a relative
tolerance, convergence and residuals, property items), never report bytes,
so correctness work that changes the wording or adds fields of a report does
not count as a failure.  ``check`` returns the list of mismatches; an empty
list means the job's output is correct.
"""

from __future__ import annotations

import math
import re

from workloads import CONST_RTOL


def check(job: dict, exit_code: int, report: dict | None, stdout: str, stderr: str) -> list[str]:
    exp = job["expect"]
    problems = []
    if exit_code != exp["exit"]:
        problems.append(f"exit code {exit_code}, expected {exp['exit']}")
    if "stderr" in exp and exp["stderr"] not in stderr:
        problems.append(f"stderr lacks {exp['stderr']!r}")
    if exp["exit"] == 1:
        return problems  # an error exit writes no report
    if job["out"] and report is None:
        return problems + ["no JSON report written"]
    return problems + _CHECKS[job["command"]](exp, report, stdout)


def _assumptions(exp, report, stdout):
    got = [r["passed"] for r in report["reports"]]
    out = []
    if got != exp["reports"]:
        out.append(f"report verdicts {got}, expected {exp['reports']}")
    if report["passed"] != all(exp["reports"]):
        out.append(f"overall passed {report['passed']}")
    return out


def _constants(exp, report, stdout):
    got = {row["name"]: row["constant"] for row in report["constants"]}
    out = []
    if set(got) != set(exp["constants"]):
        return [f"constant names {sorted(got)}, expected {sorted(exp['constants'])}"]
    for name, want in exp["constants"].items():
        if not math.isclose(got[name], want, rel_tol=CONST_RTOL):
            out.append(f"{name} = {got[name]!r}, closed form {want!r}")
    return out


def _certify(exp, report, stdout):
    cert = report["certificate"]
    out = []
    if cert["verdict"] != exp["verdict"]:
        out.append(f"verdict {cert['verdict']}, expected {exp['verdict']}")
    if cert["rigorous"] != exp["rigorous"]:
        out.append(f"rigorous {cert['rigorous']}, expected {exp['rigorous']}")
    got = [
        [o["condition"], o["verdict"], [e["verdict"] for e in o["inequalities"]]]
        for o in cert["outcomes"]
    ]
    if got != exp["outcomes"]:
        out.append(f"condition verdicts {got}, expected {exp['outcomes']}")
    return out


def _nonexistence(exp, report, stdout):
    cert = report["certificate"]
    out = []
    if cert["verdict"] != exp["verdict"]:
        out.append(f"verdict {cert['verdict']}, expected {exp['verdict']}")
    holds = [a["holds"] for a in cert["alternatives"]]
    if holds != exp["holds"]:
        out.append(f"alternatives hold {holds}, expected {exp['holds']}")
    return out


def _solve(exp, report, stdout):
    out = []
    if report["converged"] is not True:
        out.append("did not converge")
    if not report["residual"] <= exp["tol"]:
        out.append(f"residual {report['residual']!r} above tol {exp['tol']!r}")
    if report["n"] != exp["n"]:
        out.append(f"n = {report['n']}, expected {exp['n']}")
    return out


_ITEM = re.compile(r"^  (ok |BAD) (.+?)  \(worst violation ")
_BVP = re.compile(
    r"^  bvp h = (\S+): ode residual (\S+), bc residuals \((\S+), (\S+), (\S+)\)$"
)


def _green_check(exp, report, stdout):
    """green-check's text report: one property block and two BVP lines per component."""
    blocks: list[list[str]] = []
    bvps: list[list[tuple[str, list[float]]]] = []
    for line in stdout.splitlines():
        if line.endswith("green kernel properties"):
            blocks.append([])
            bvps.append([])
        elif (m := _ITEM.match(line)) and blocks:
            if m.group(1) == "BAD":
                blocks[-1].append(m.group(2))
        elif (m := _BVP.match(line)) and bvps:
            bvps[-1].append((m.group(1), [float(x) for x in m.group(2, 3, 4, 5)]))
    out = []
    if blocks != exp["failing_items"]:
        out.append(f"failing property items {blocks}, expected {exp['failing_items']}")
    for i, comp in enumerate(bvps, start=1):
        if [h for h, _ in comp] != exp["bvp"]:
            out.append(f"component {i}: BVP checks {[h for h, _ in comp]}, expected {exp['bvp']}")
        for h, (ode, *bcs) in comp:
            if not ode <= exp["ode_tol"] or not max(bcs) <= exp["bc_tol"]:
                out.append(f"component {i}, h = {h}: residuals {ode!r}, {bcs!r} above tolerance")
    if len(bvps) != len(exp["failing_items"]):
        out.append(f"{len(bvps)} green components reported")
    return out


_CHECKS = {
    "assumptions": _assumptions,
    "constants": _constants,
    "certify": _certify,
    "nonexistence": _nonexistence,
    "solve": _solve,
    "green-check": _green_check,
}
