"""Seeded workload generator for the hamcert benchmark.

``generate(workload, seed, out_dir)`` writes the workload's problem
files under ``out_dir/problems`` plus ``out_dir/expected.json`` and returns
the job list.  Each job carries the outcome the checker expects.  Expected
constants and verdicts are derived here from closed forms of the kernels'
constants, never from hamcert itself.

The seed changes coefficients, radii, (alpha, eta) and scales only.  The job
count, the commands, grid sizes, solver n and expression shapes are the same
for every seed, so two seeds do the same amount of work.

Kernel families and their closed-form constants (weight g = 1):

* expression kernel k = s*h(t) with h(t) = p*t - t^2 - q, dk/dt = s*h'(t).
  1/m = max|h|/2, 1/m* = max|h'|/2, 1/M = min_[a,b] h * (b^2-a^2)/2 and
  1/M* = h'(delta) * (delta^2-gamma^2)/2 (h is concave, h' decreasing).
* green(alpha, eta): w(t) = int k(t,s) ds = C t^2 - t^3/6 with
  C = (1 - alpha eta^2) / (4 (1 - alpha eta)).  1/m = max w, 1/m* = max w',
  and 1/M, 1/M* are the window integrals F, G below, minimized over [a,b].

Nonlinearity family: f = lam*(u1^2+u2^2)*(A + cos(v1*v2)) for component 1 and
lam*(v1^2+v2^2)*(A - sin(u1*u2)) for component 2, so that
sup f/rho = 2 lam (A+1) rho, inf f/rho = lam c^2 (A-1) rho and
inf* f/rho = lam d^2 (A-1) rho are valid bounds (exact for component 1).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from pathlib import Path

WORKLOADS = ("certify", "scan", "collocation")

BUNDLED = Path("src/hamcert/problems")

CONST_RTOL = 1e-6
"""Relative tolerance on each constant against its closed form."""

GREEN_ODE_TOL = 1e-4
GREEN_BC_TOL = 1e-8
"""Default green-check residual tolerances (hamcert's --tol and bc_tol)."""

D_PSI_ITEM = "dk/dt >= d*psi on the strip"


def fmt(x: Q) -> str:
    """A rational as a literal the problem-file parser folds exactly."""
    x = Q(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def sig4(x: float, up: bool) -> str:
    """``x`` to four significant digits, rounded away from the verdict boundary."""
    exp = math.floor(math.log10(abs(x))) - 3
    scaled = x / 10.0**exp
    digits = math.ceil(scaled) if up else math.floor(scaled)
    return f"{digits}e{exp}"


def draw(rng: random.Random, lo: Q, hi: Q, den: int) -> Q:
    """A rational in [lo, hi] on the grid 1/den."""
    return Q(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den)


# ---------------------------------------------------------------- kernels


@dataclass(frozen=True)
class ExprKernel:
    p: Q
    q: Q
    a: Q
    b: Q
    gamma: Q
    delta: Q

    def h(self, t: Q) -> Q:
        return self.p * t - t * t - self.q

    def dh(self, t: Q) -> Q:
        return self.p - 2 * t

    @property
    def h_max(self) -> Q:
        cands = [abs(self.h(Q(0))), abs(self.h(Q(1)))]
        if 0 <= self.p / 2 <= 1:
            cands.append(abs(self.h(self.p / 2)))
        return max(cands)

    @property
    def dh_max(self) -> Q:
        return max(abs(self.dh(Q(0))), abs(self.dh(Q(1))))

    @property
    def c(self) -> Q:
        return min(self.h(self.a), self.h(self.b)) / self.h_max

    @property
    def d(self) -> Q:
        return self.dh(self.delta) / self.dh_max

    def reciprocals(self) -> tuple[float, float, float, float]:
        """(1/m, 1/m*, 1/M, 1/M*)."""
        return (
            float(self.h_max / 2),
            float(self.dh_max / 2),
            float(min(self.h(self.a), self.h(self.b)) * (self.b**2 - self.a**2) / 2),
            float(self.dh(self.delta) * (self.delta**2 - self.gamma**2) / 2),
        )

    def lines(self) -> list[str]:
        return [
            f"kernel = s*({fmt(self.p)}*t - t^2 - {fmt(self.q)})",
            f"kernel_dt = s*({fmt(self.p)} - 2*t)",
            "weight = 1",
            f"phi = {fmt(self.h_max)}*s",
            f"psi = {fmt(self.dh_max)}*s",
            f"a = {fmt(self.a)}",
            f"b = {fmt(self.b)}",
            f"c = {fmt(self.c)}",
            f"gamma = {fmt(self.gamma)}",
            f"delta = {fmt(self.delta)}",
            f"d = {fmt(self.d)}",
        ]

    @staticmethod
    def symmetric(p: Q, q: Q) -> "ExprKernel":
        """Windows [p/4, 3p/4] and [0, p/4], as in the bundled component 1."""
        return ExprKernel(p, q, p / 4, 3 * p / 4, Q(0), p / 4)


@dataclass(frozen=True)
class GreenKernel:
    alpha: Q
    eta: Q

    @property
    def omega(self) -> Q:
        return 1 - self.alpha * self.eta

    @property
    def a(self) -> Q:
        return self.eta / self.alpha

    @property
    def b(self) -> Q:
        return self.eta

    @property
    def c(self) -> Q:
        al, et = self.alpha, self.eta
        return et**2 / (2 * al**2 * (1 + al)) * min(al - 1, Q(1))

    @property
    def d(self) -> Q:
        return min(self.alpha * self.eta, self.eta)

    def _window_F(self, t: float) -> float:
        """int_a^b k(t,s) ds for t in [a,b] (branches s <= t and t <= s <= eta)."""
        a, b, w, al = float(self.a), float(self.b), float(self.omega), float(self.alpha)
        return (w * (-t**3 / 3 + b * t**2 - a**2 * t + a**3 / 3)
                + t**2 * (al - 1) * (b**2 - a**2) / 2) / (2 * w)

    def _window_G(self, t: float) -> float:
        """int_a^b dk/dt(t,s) ds for t in [a,b]."""
        a, b, w, al = float(self.a), float(self.b), float(self.omega), float(self.alpha)
        return (w * (-t**2 / 2 + b * t - a**2 / 2) + t * (al - 1) * (b**2 - a**2) / 2) / w

    def reciprocals(self) -> tuple[float, float, float, float]:
        C = (1 - self.alpha * self.eta**2) / (4 * self.omega)
        # w = C t^2 - t^3/6 increases up to t = 4C >= 1; w' peaks at t = 2C
        t_w = min(4 * C, Q(1))
        t_dw = min(2 * C, Q(1))
        inv_m = C * t_w**2 - t_w**3 / 6
        inv_m_star = 2 * C * t_dw - t_dw**2 / 2
        a, b = float(self.a), float(self.b)
        w, al = float(self.omega), float(self.alpha)
        # F'(t) * 2w = -w t^2 + (2 b w + (al-1)(b^2-a^2)) t - w a^2
        lin = 2 * b * w + (al - 1) * (b**2 - a**2)
        disc = lin**2 - 4 * w * w * a**2
        cands = [a, b]
        if disc >= 0:
            cands += [(lin - s * math.sqrt(disc)) / (2 * w) for s in (1, -1)]
        inv_M = min(self._window_F(t) for t in cands if a <= t <= b)
        inv_M_star = min(self._window_G(a), self._window_G(b))  # concave in t
        return float(inv_m), float(inv_m_star), inv_M, inv_M_star

    def lines(self) -> list[str]:
        return [f"kernel = green({fmt(self.alpha)}, {fmt(self.eta)})", "weight = 1"]

    def d_psi_violation(self) -> float:
        """d*psi(0) - dk/dt(t,0): dk/dt vanishes at s = 0, psi(0) = 1/omega."""
        return float(self.d / self.omega)


# ---------------------------------------------------------------- problems


@dataclass(frozen=True)
class Comp:
    kernel: ExprKernel | GreenKernel
    lam: Q
    A: Q
    shift: Q = Q(0)      # additive constant inside the quadratic: f(0) != 0
    t_factor: bool = False

    def f_text(self, index: int) -> str:
        own = "u" if index == 1 else "v"
        trig = f"({fmt(self.A)} + cos(v1*v2))" if index == 1 else f"({fmt(self.A)} - sin(u1*u2))"
        quad = f"{own}1^2 + {own}2^2"
        if self.shift:
            quad = f"{fmt(self.shift)} + {quad}"
        t = "t*" if self.t_factor else ""
        return f"{fmt(self.lam)}*{t}({quad})*{trig}"

    def bounds(self) -> tuple[Q, Q, Q]:
        """(sup f/rho, inf f/rho, inf* f/rho) per unit radius, shift = 0, no t factor."""
        k = self.kernel
        return (
            2 * self.lam * (self.A + 1),
            self.lam * k.c**2 * (self.A - 1),
            self.lam * k.d**2 * (self.A - 1),
        )

    def constants(self, index: int) -> dict[str, float]:
        inv = self.kernel.reciprocals()
        names = (f"m{index}", f"m{index}*", f"M{index}", f"M{index}*")
        return {n: 1.0 / v for n, v in zip(names, inv)}


@dataclass(frozen=True)
class Problem:
    name: str
    comps: tuple[Comp, Comp]
    variant: str
    scenario: str = ""
    ladder: tuple[tuple[str, str], ...] = ()
    hints: bool = True
    solver: tuple[tuple[str, str], ...] = ()

    def text(self) -> str:
        out = ["schema = 1", ""]
        for i, comp in enumerate(self.comps, start=1):
            out.append(f"[component.{i}]")
            out += comp.kernel.lines()
            out.append(f"f = {comp.f_text(i)}")
            if self.hints:
                sup, inf, inf_star = comp.bounds()
                rho = f"rho{i}"
                out += [
                    f"sup_hint = {fmt(sup)}*{rho}",
                    f"inf_plain_hint = {fmt(inf)}*{rho}",
                    f"inf_star_hint = {fmt(inf_star)}*{rho}",
                ]
            out.append("")
        out += ["[cone]", f"variant = {self.variant}", "", "[check]"]
        if self.ladder:
            out.append(f"scenario = {self.scenario}")
        for key, (r1, r2) in zip(("rho", "r"), self.ladder):
            out.append(f"{key} = {r1}, {r2}")
        out += ["resolution = 17", "nonexistence_box = 10, 10", "nonexistence_resolution = 41", ""]
        if self.solver:
            out.append("[solver]")
            out += [f"{k} = {v}" for k, v in self.solver]
            out.append("")
        return "\n".join(out)

    def constants(self) -> dict[str, float]:
        return {**self.comps[0].constants(1), **self.comps[1].constants(2)}


def _ladder(comps, rng: random.Random, refute_first: bool) -> tuple[tuple[str, str], ...]:
    """Radius pairs (rho, r) for scenario s2/s2hat: I1 at rho, then I0 at r.

    I1 holds with sup/rho at 50-80% of min(m, m*); I0 holds with both inf
    bounds 30-60% above M and M*.  ``refute_first`` puts component 1's sup
    30-60% above min(m, m*) instead, which the grid refutes (its sup is
    attained at a grid corner).
    """
    rho, r = [], []
    for i, comp in enumerate(comps):
        m, m_star, M, M_star = (1.0 / v for v in comp.kernel.reciprocals())
        sup, inf, inf_star = (float(x) for x in comp.bounds())
        fails = refute_first and i == 0
        k1 = float(draw(rng, Q(13, 10), Q(16, 10), 100) if fails else draw(rng, Q(1, 2), Q(4, 5), 100))
        rho.append(sig4(k1 * min(m, m_star) / sup, up=fails))
        k0 = float(draw(rng, Q(13, 10), Q(16, 10), 100))
        r.append(sig4(k0 * max(M / inf, M_star / inf_star), up=True))
    return ((rho[0], rho[1]), (r[0], r[1]))


def _certify_expectation(prob: Problem) -> dict:
    """Verdicts of scenario s2/s2hat with every bound from the exact hints."""
    consts = prob.constants()
    rho = [float(x) for x in prob.ladder[0]]
    r = [float(x) for x in prob.ladder[1]]
    i1, i0 = [], []
    for i, comp in enumerate(prob.comps, start=1):
        sup, inf, inf_star = (float(x) for x in comp.bounds())
        lhs = sup * rho[i - 1]
        rhs = min(consts[f"m{i}"], consts[f"m{i}*"])
        i1.append(_verdict(rhs - lhs, rhs))
        for bound, cname in ((inf, f"M{i}"), (inf_star, f"M{i}*")):
            lhs = bound * r[i - 1]
            i0.append(_verdict(lhs - consts[cname], consts[cname]))
    out1 = "FAILS" if "FAILS" in i1 else "HOLDS"
    out0 = "FAILS" if "FAILS" in i0 else "HOLDS"
    verdict = "FAILS" if "FAILS" in (out1, out0) else "HOLDS"
    return {
        "verdict": verdict,
        "rigorous": verdict == "HOLDS",
        "outcomes": [["I1", out1, i1], ["I0", out0, i0]],
    }


def _verdict(margin: float, scale: float) -> str:
    """A margin clear of zero; no expected verdict rests on rounding."""
    if abs(margin) < 0.005 * abs(scale):
        raise AssertionError(f"margin {margin!r} too close to the boundary ({scale!r})")
    return "HOLDS" if margin > 0 else "FAILS"


def _nonexistence_expectation(prob: Problem) -> dict:
    """Every alternative fails: margins at explicit samples of the 41-point grid.

    Alternative a (f < m|w| for w != 0) fails at w = 1/2, the other quadratic
    coordinate at 10 and the trig argument 0; alternative b (f > (M/c) w for
    w > 0) fails at w = 1/2 with every other coordinate 0.
    """
    consts = prob.constants()
    alts = []
    for i, comp in enumerate(prob.comps, start=1):
        lam, A = float(comp.lam), float(comp.A)
        trig = A + 1.0 if i == 1 else A  # cos(0) = 1; sin(0) = 0
        f_a = lam * (0.25 + 100.0) * trig
        f_b = lam * 0.25 * trig
        margin_a = consts[f"m{i}"] * 0.5 - f_a
        margin_b = f_b - consts[f"M{i}"] / float(comp.kernel.c) * 0.5
        for margin in (margin_a, margin_b):
            if not margin < -1.0:
                raise AssertionError(f"non-existence alternative not clearly refuted: {margin!r}")
        alts += [False, False]
    return {"verdict": "FAILS", "holds": alts}


# ---------------------------------------------------------------- variants


def _expr_comp(rng: random.Random, nonneg: bool = False, **kw) -> Comp:
    if nonneg:
        p, q = draw(rng, Q(1), Q(5, 4), 80), Q(0)  # k = s t (p - t) >= 0
    else:
        p = draw(rng, Q(4, 5), Q(6, 5), 80)
        q = draw(rng, Q(0), Q(1, 10), 80)
    lam = draw(rng, Q(1, 2), Q(3, 2), 20)
    A = draw(rng, Q(3, 2), Q(3), 10)
    return Comp(ExprKernel.symmetric(p, q), lam, A, **kw)


def _green_comp(rng: random.Random, **kw) -> Comp:
    eta = draw(rng, Q(1, 3), Q(1, 2), 24)
    alpha = draw(rng, Q(6, 5), (1 / eta) * Q(9, 10), 20)
    lam = kw.pop("lam", None) or draw(rng, Q(1, 2), Q(3, 2), 20)
    A = draw(rng, Q(3, 2), Q(3), 10)
    return Comp(GreenKernel(alpha, eta), lam, A, **kw)


def _expr_problem(rng, name, refute=False, solver=()) -> Problem:
    comps = (_expr_comp(rng), _expr_comp(rng))
    return Problem(name, comps, "sign_changing", "s2", _ladder(comps, rng, refute), solver=solver)


def _green_problem(rng, name) -> Problem:
    comps = (_green_comp(rng), _green_comp(rng))
    return Problem(name, comps, "nonnegative_nondecreasing", "s2hat", _ladder(comps, rng, False))


# Bundled problems, as declared in src/hamcert/problems/*.prob.
_SIGN_CHANGING = Problem(
    "sign_changing",
    (
        Comp(ExprKernel(Q(7, 8), Q(0), Q(7, 32), Q(21, 32), Q(0), Q(7, 32)), Q(1), Q(2)),
        Comp(ExprKernel(Q(11, 10), Q(1, 10), Q(13, 40), Q(31, 40), Q(0), Q(11, 40)), Q(1), Q(2)),
    ),
    "sign_changing", "s2", (("0.03", "0.3"), ("700", "600")),
)
_THIRD_ORDER_KERNELS = (GreenKernel(Q(3, 2), Q(1, 2)), GreenKernel(Q(2), Q(1, 3)))


def _job(jid, command, path, expect, extra=(), out=True) -> dict:
    return {
        "id": jid,
        "command": command,
        "file": str(path),
        "extra": list(extra),
        "out": out,
        "expect": expect,
    }


def _certify_jobs(rng, pdir):
    jobs = []
    sc = BUNDLED / "sign_changing.prob"
    sc_cert = _certify_expectation(_SIGN_CHANGING)
    sc_consts = _SIGN_CHANGING.constants()
    jobs += [
        ("constants", sc, {"exit": 0, "constants": sc_consts}),
        ("certify", sc, {"exit": 0, **sc_cert}),
        ("assumptions", sc, {"exit": 0, "reports": [True] * 6}),
    ]
    to = BUNDLED / "third_order.prob"
    to_consts = {}
    for i, k in enumerate(_THIRD_ORDER_KERNELS, start=1):
        names = (f"m{i}", f"m{i}*", f"M{i}", f"M{i}*")
        to_consts.update({n: 1.0 / v for n, v in zip(names, k.reciprocals())})
    jobs += [
        ("constants", to, {"exit": 0, "constants": to_consts}),
        # component 2's inf-plain hint rho2/54 is refuted by the grid
        ("certify", to, {"exit": 1, "stderr": "inf-plain hint"}),
    ]
    for name, refute in (("expr_holds", False), ("expr_refuted", True)):
        prob = _expr_problem(rng, name, refute)
        path = _write(pdir, prob)
        cert = _certify_expectation(prob)
        jobs += [
            ("constants", path, {"exit": 0, "constants": prob.constants()}),
            ("certify", path, {"exit": 0 if cert["verdict"] == "HOLDS" else 2, **cert}),
            ("assumptions", path, {"exit": 0, "reports": [True] * 6}),
        ]
    prob = _green_problem(rng, "green_holds")
    path = _write(pdir, prob)
    cert = _certify_expectation(prob)
    jobs += [
        ("constants", path, {"exit": 0, "constants": prob.constants()}),
        ("certify", path, {"exit": 0, **cert}),
    ]
    return [_job(i, c, p, e) for i, (c, p, e) in enumerate(jobs)]


def _scan_jobs(rng, pdir):
    sampled = _expr_problem(rng, "scan_nonexistence")
    fine = _expr_problem(rng, "scan_certify33")
    nonneg_comps = (
        _expr_comp(rng, nonneg=True, t_factor=True),
        _expr_comp(rng, nonneg=True, t_factor=True),
    )
    nonneg = Problem("scan_nonneg", nonneg_comps, "nonnegative", hints=False)
    cert = _certify_expectation(fine)
    return [
        _job(0, "nonexistence", _write(pdir, sampled), {"exit": 2, **_nonexistence_expectation(sampled)}),
        # f = lam t (...)(...) makes the 33^5 f >= 0 grid dense in all five axes
        _job(1, "assumptions", _write(pdir, nonneg), {"exit": 0, "reports": [True] * 8}),
        _job(2, "certify", _write(pdir, fine), {"exit": 0, **cert}, extra=("--grid", "33")),
    ]


def _collocation_jobs(rng, pdir):
    expr = _expr_problem(rng, "solve_expr_2001", solver=(
        ("n", "2001"), ("theta", "1"), ("tol", "1e-10"), ("max_iter", "200"),
        ("init", "bump"), ("scale", fmt(draw(rng, Q(1, 25), Q(1, 20), 400))),
    ))
    # f(0) = lam*shift*(A +- trig) != 0: the fixed point is not zero, and the
    # damped iteration contracts by about 1 - theta per step
    picard_comps = tuple(
        _green_comp(rng, lam=draw(rng, Q(1, 25), Q(1, 20), 400), shift=draw(rng, Q(1, 2), Q(1), 20))
        for _ in range(2)
    )
    picard = Problem("solve_green_picard", picard_comps, "nonnegative_nondecreasing",
                     hints=False, solver=(
                         ("n", "1001"), ("theta", "1/5"), ("tol", "1e-10"), ("max_iter", "200"),
                         ("init", "bump"), ("scale", fmt(draw(rng, Q(3, 10), Q(7, 20), 100))),
                     ))
    check = _green_problem(rng, "green_check")
    if not all(comp.kernel.d_psi_violation() > 1e-9 for comp in check.comps):
        raise AssertionError("expected the d*psi strip item to fail for every green component")
    return [
        _job(0, "solve", _write(pdir, expr), {"exit": 0, "n": 2001, "tol": 1e-10}),
        _job(1, "solve", _write(pdir, picard), {"exit": 0, "n": 1001, "tol": 1e-10}),
        # green-check runs without --out: its JSON report cannot be written at
        # this version (a numpy bool in the property items), see README
        _job(2, "green-check", _write(pdir, check), {
            "exit": 2,
            "failing_items": [[D_PSI_ITEM], [D_PSI_ITEM]],
            "bvp": ["1", "s"],
            "ode_tol": GREEN_ODE_TOL,
            "bc_tol": GREEN_BC_TOL,
        }, out=False),
    ]


def _write(pdir: Path, prob: Problem) -> Path:
    path = pdir / f"{prob.name}.prob"
    path.write_text(prob.text())
    return path


_JOB_LISTS = {"certify": _certify_jobs, "scan": _scan_jobs, "collocation": _collocation_jobs}


def generate(workload: str, seed: int, out_dir: Path) -> list[dict]:
    """Write the workload's problems and expected outcomes; return its jobs.

    A relative ``out_dir`` is taken from the repository root, the working
    directory of every job.
    """
    if workload not in _JOB_LISTS:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    pdir = Path(out_dir) / "problems"
    pdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"hamcert-bench/{workload}/{seed}")
    jobs = _JOB_LISTS[workload](rng, pdir)
    (Path(out_dir) / "expected.json").write_text(json.dumps(jobs, indent=1, sort_keys=True) + "\n")
    return jobs
