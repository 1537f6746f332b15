"""Command-line driver: declarative problem files in, structured reports out.

A problem file is a sectioned key = value document (``schema = 1``) that
declares the two components (kernel, weight, nonlinearity, envelope,
optional bound hints), the cone variant, the certification ladder, and
solver settings.  Subcommands run the assumption checks, the constants
table, scenario certification, non-existence sampling, the Picard solver,
and the Green-family property suite.

Exit codes: 0 holds/passed/converged, 2 fails, 3 inconclusive, 1 error, and
141 (128 + SIGPIPE) with no error line when stdout is closed early, as by
``| head``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import time
from enum import Enum
from functools import partial
from pathlib import Path

from . import __version__, exprlang, greens3
from .conditions import (
    _SCENARIOS,
    RUNGS,
    Certificate,
    HintPolicy,
    Scenario,
    Verdict,
    certify,
    check_nonexistence,
    ladder_annuli,
    sup_box,
)
from .constants import compute_table
from .exprlang import ExprError
from .quadopt import MAX_AXIS_POINTS, QuadratureFailure
from .model import (
    AssumptionReport,
    BoundHints,
    Component,
    ConeVariant,
    Envelope,
    ENVELOPE_VARS,
    HINT_VARS,
    KERNEL_VARS,
    KernelSpec,
    NONLIN_VARS,
    SystemProblem,
    WEIGHT_VARS,
    check_kernel_derivative,
    verify_A3,
    verify_A4,
    verify_nonneg_f,
)
from .solver import (
    MAX_NODES,
    GridPair,
    bump_init,
    cone_membership,
    derivative_consistency,
    export_table,
    localization_check,
    picard,
)


class ProblemFileError(ValueError):
    def __init__(self, message: str, path: str, line: int, col: int = 1):
        super().__init__(f"{path}:{line}:{col}: {message}")


_GREEN_RE = re.compile(r"green\((.*)\)\s*$")

_ENVELOPE_KEYS = ("phi", "psi", "a", "b", "c", "gamma", "delta", "d")
_HINT_KEYS = ("sup_hint", "inf_plain_hint", "inf_star_hint")


@dataclasses.dataclass(frozen=True)
class _Entry:
    value: str
    line: int
    col: int


class _Section(dict):
    """A section's entries by key; ``line`` is its header's."""

    line = 1


def _parse_sections(text: str, path: str) -> dict[str, _Section]:
    sections: dict[str, _Section] = {}
    current: str | None = None
    saw_schema = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            m = re.fullmatch(r"\[([a-z0-9.]+)\]", stripped)
            if m is None:
                raise ProblemFileError(f"malformed section header {stripped!r}", path, lineno)
            name = m.group(1)
            if name not in _SECTION_KEYS:
                raise ProblemFileError(f"unknown section [{name}]", path, lineno)
            if name in sections:
                raise ProblemFileError(f"duplicate section [{name}]", path, lineno)
            if not saw_schema:
                raise ProblemFileError("first entry must be 'schema = 1'", path, lineno)
            sections[name] = _Section()
            sections[name].line, current = lineno, name
            continue
        if "=" not in stripped:
            raise ProblemFileError(f"expected 'key = value', got {stripped!r}", path, lineno)
        key_part, _, value = raw.partition("=")
        key = key_part.strip()
        col = raw.index(key) + 1 if key else 1
        value = value.strip()
        if not key:
            raise ProblemFileError("missing key before '='", path, lineno, col)
        if not saw_schema:
            if key != "schema":
                raise ProblemFileError("first entry must be 'schema = 1'", path, lineno, col)
            if value != "1":
                raise ProblemFileError(f"unsupported schema {value!r}", path, lineno, col)
            saw_schema = True
            continue
        if key == "schema":
            raise ProblemFileError("duplicate schema entry", path, lineno, col)
        if current is None:
            raise ProblemFileError(f"key {key!r} outside any section", path, lineno, col)
        if key not in _SECTION_KEYS[current]:
            raise ProblemFileError(f"unknown key {key!r} in section [{current}]", path, lineno, col)
        if key in sections[current]:
            raise ProblemFileError(f"duplicate key {key!r} in section [{current}]", path, lineno, col)
        sections[current][key] = _Entry(value, lineno, col)
    if not saw_schema:
        raise ProblemFileError("first entry must be 'schema = 1'", path, 1)
    for required in ("component.1", "component.2"):
        if required not in sections:
            raise ProblemFileError(f"missing section [{required}]", path, 1)
    return sections


def _const(entry: _Entry, path: str) -> float:
    """Evaluate a variable-free arithmetic value such as 7/32 or 1e-10."""
    try:
        val = exprlang.evaluate(exprlang.parse(entry.value, ()), {})
    except ExprError as exc:
        raise ProblemFileError(str(exc), path, entry.line, entry.col) from exc
    return float(val)


def _expr(entry: _Entry, path: str, variables: tuple[str, ...]):
    try:
        return exprlang.parse(entry.value, variables)
    except ExprError as exc:
        raise ProblemFileError(str(exc), path, entry.line, entry.col) from exc


def _pair(entry: _Entry, path: str, what: str) -> tuple[float, float]:
    """Two positive comma-separated values; ``what`` names them in the error."""
    parts = entry.value.split(",")
    if len(parts) != 2:
        raise ProblemFileError(
            f"expected two comma-separated values, got {entry.value!r}",
            path, entry.line, entry.col,
        )
    pair = tuple(_const(_Entry(p.strip(), entry.line, entry.col), path) for p in parts)
    if pair[0] <= 0 or pair[1] <= 0:
        raise ProblemFileError(f"{what} must be positive, got {pair}", path, entry.line, entry.col)
    return pair


@dataclasses.dataclass(frozen=True)
class CheckConfig:
    scenario: Scenario | None = None
    ladder: tuple[tuple[float, float], ...] = ()
    resolution: int = 17
    nonexistence_box: tuple[float, float] = (10.0, 10.0)
    nonexistence_resolution: int = 41


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    n: int = 401
    theta: float = 1.0
    tol: float = 1e-10
    max_iter: int = 200
    init: str = "zero"
    scale: float = 1.0


@dataclasses.dataclass(frozen=True)
class LoadedProblem:
    problem: SystemProblem
    check: CheckConfig
    solver: SolverConfig


def _kernel(entry: _Entry, path: str):
    """green(alpha, eta)'s GreenParams, or else an expression over KERNEL_VARS."""
    green = _GREEN_RE.fullmatch(entry.value)
    if green is None:
        return _expr(entry, path, KERNEL_VARS)
    args = green.group(1).split(",")
    if len(args) != 2:
        raise ProblemFileError(
            "green(...) takes exactly two arguments (alpha, eta)", path, entry.line, entry.col
        )
    alpha, eta = (_const(_Entry(arg.strip(), entry.line, entry.col), path) for arg in args)
    try:
        return greens3.GreenParams(alpha, eta)
    except greens3.ParamError as exc:
        raise ProblemFileError(str(exc), path, entry.line, entry.col) from exc


def _build_component(sections: dict[str, _Section], name: str, path: str) -> Component:
    sec = sections[name]
    for key in ("kernel", "weight", "f"):
        if key not in sec:
            raise ProblemFileError(f"[{name}] is missing {key!r}", path, sec.line)
    values = _values(sections, name, path)
    kentry, kernel = sec["kernel"], values.pop("kernel")
    if isinstance(kernel, greens3.GreenParams):
        if "kernel_dt" in sec:
            e = sec["kernel_dt"]
            raise ProblemFileError(
                "kernel_dt is not allowed with a green(...) kernel", path, e.line, e.col
            )
        kernel = greens3.build_kernel(kernel)
    else:
        if "kernel_dt" not in sec:
            raise ProblemFileError(
                "an expression kernel needs kernel_dt", path, kentry.line, kentry.col
            )
        kernel = KernelSpec.from_expressions(kernel, values.pop("kernel_dt"))
        missing = [key for key in _ENVELOPE_KEYS if key not in sec]
        if missing:
            raise ProblemFileError(
                f"[{name}] with an expression kernel must declare {', '.join(missing)}",
                path, kentry.line,
            )
    # a green kernel's keys override its default envelope; an expression kernel has all
    present = {key: values.pop(key) for key in _ENVELOPE_KEYS if key in values}
    try:
        if kernel.green is not None:
            envelope = dataclasses.replace(greens3.default_envelope(kernel.green), **present)
        else:
            envelope = Envelope(**present)
    except ValueError as exc:  # an out-of-range value: at the first key it names, if given
        at = next((sec[w] for w in re.findall(r"\w+", str(exc)) if w in present), kentry)
        raise ProblemFileError(str(exc), path, at.line, at.col) from exc
    hints = BoundHints(**{key.removesuffix("_hint"): values.pop(key)
                          for key in _HINT_KEYS if key in values})
    return Component(kernel=kernel, envelope=envelope, hints=hints, **values)  # weight and f


def _positive_int(entry: _Entry, path: str, minimum: int = 1, maximum: float = float("inf")) -> int:
    val = _const(entry, path)
    if val != int(val) or not minimum <= val <= maximum:
        bound = f"between {minimum} and {maximum}" if maximum < float("inf") else f">= {minimum}"
        raise ProblemFileError(
            f"expected an integer {bound}, got {entry.value!r}", path, entry.line, entry.col
        )
    return int(val)


def _bounded(entry: _Entry, path: str, ok, message: str) -> float:
    """A constant for which ``ok`` holds; ``message`` formats the value it rejects."""
    val = _const(entry, path)
    if not ok(val):
        raise ProblemFileError(message.format(val), path, entry.line, entry.col)
    return val


def _choice(options: dict, message: str):
    """A parser mapping an entry's value through ``options``; ``message`` formats a miss."""
    def parse(entry: _Entry, path: str):
        if entry.value not in options:
            raise ProblemFileError(message.format(entry.value), path, entry.line, entry.col)
        return options[entry.value]
    return parse


# each section's keys and the parser (entry, path) -> value of each, in reading order
_COMPONENT_KEYS = {
    "kernel": _kernel,
    "kernel_dt": partial(_expr, variables=KERNEL_VARS),
    **dict.fromkeys(("phi", "psi"), partial(_expr, variables=ENVELOPE_VARS)),
    **dict.fromkeys(("a", "b", "c", "gamma", "delta", "d"), _const),
    **dict.fromkeys(_HINT_KEYS, partial(_expr, variables=HINT_VARS)),
    "weight": partial(_expr, variables=WEIGHT_VARS),
    "f": partial(_expr, variables=NONLIN_VARS),
}
_SECTION_KEYS = {
    "component.1": _COMPONENT_KEYS,
    "component.2": _COMPONENT_KEYS,
    "cone": {
        "variant": _choice(
            {v.value: v for v in ConeVariant},
            "unknown variant {!r}; one of " + str(sorted(v.value for v in ConeVariant)),
        ),
    },
    "check": {
        "scenario": _choice({s.value: s for s in Scenario}, "unknown scenario {!r}"),
        **dict.fromkeys(RUNGS, partial(_pair, what="radii")),
        "nonexistence_box": partial(_pair, what="box bounds"),
        "resolution": partial(_positive_int, minimum=2, maximum=MAX_AXIS_POINTS),
        "nonexistence_resolution": partial(_positive_int, minimum=2, maximum=MAX_AXIS_POINTS),
    },
    "solver": {
        "n": partial(_positive_int, minimum=101, maximum=MAX_NODES),
        # picard's own range checks, here located at the entry
        "theta": partial(_bounded, ok=lambda v: 0.0 < v <= 1.0,
                         message="theta must be in (0, 1], got {}"),
        "tol": partial(_bounded, ok=lambda v: v > 0.0, message="tol must be positive"),
        "max_iter": _positive_int,
        "init": _choice({"zero": "zero", "bump": "bump"},
                        "init must be 'zero' or 'bump', got {!r}"),
        "scale": _const,
    },
}


def _values(sections: dict[str, _Section], name: str, path: str) -> dict:
    """Section [name]'s parsed values by key, read in _SECTION_KEYS order."""
    sec = sections.get(name, {})
    return {key: parse(sec[key], path) for key, parse in _SECTION_KEYS[name].items() if key in sec}


def load_problem(path: str) -> LoadedProblem:
    sections = _parse_sections(Path(path).read_text(), path)
    variant = _values(sections, "cone", path).get("variant", ConeVariant.SIGN_CHANGING)
    comp1 = _build_component(sections, "component.1", path)
    comp2 = _build_component(sections, "component.2", path)

    check_sec = sections.get("check", {})
    check = _values(sections, "check", path)
    for rung, before in zip(RUNGS[1:], RUNGS):
        if rung in check and before not in check:
            entry = check_sec[rung]
            raise ProblemFileError(f"{rung} needs {before} before it", path, entry.line, entry.col)
    ladder = tuple(check.pop(rung) for rung in RUNGS if rung in check)
    scenario = check.get("scenario")
    if scenario in _SCENARIOS and len(ladder) != len(_SCENARIOS[scenario][0]):
        raise ProblemFileError(
            f"scenario {scenario.value} needs {len(_SCENARIOS[scenario][0])} radius pairs "
            f"(rho, r, ...), got {len(ladder)}",
            path, check_sec["scenario"].line,
        )
    return LoadedProblem(
        SystemProblem(comp1, comp2, variant),
        CheckConfig(ladder=ladder, **check),
        SolverConfig(**_values(sections, "solver", path)),
    )


# ---------------------------------------------------------------- reports


def _print_reports(reports: list[AssumptionReport]) -> None:
    for rep in reports:
        print(f"{'PASS' if rep.passed else 'FAIL'}  {rep.name}")
        for it in rep.items:
            mark = "ok " if it.passed else "BAD"
            print(f"  {mark} {it.name}  (worst violation {it.worst_violation:.3e})")
        if rep.note:
            print(f"      {rep.note}")


def _print_certificate(cert: Certificate) -> None:
    if cert.ladder:
        rungs = " -> ".join(f"({r[0]:g}, {r[1]:g})" for r in cert.ladder)
        print(f"scenario {cert.scenario.value} along {rungs}")
    for out in cert.outcomes:
        print(f"  {out.condition} at ({out.rho[0]:g}, {out.rho[1]:g}): {out.verdict.value}")
        for e in out.inequalities:
            print(
                f"    {e.verdict.value:<12} {e.name}: {e.lhs:.6g} vs {e.rhs:.6g} "
                f"(margin {e.margin:.3e}, {e.bound_source})"
            )
    for alt in cert.alternatives:
        mark = "holds" if alt.holds else "fails"
        print(f"  {mark:<6} {alt.name}  (worst margin {alt.worst_margin:.3e}, {alt.samples} samples)")
    tail = " [rigorous]" if cert.rigorous else ""
    if cert.solution_count and cert.verdict is Verdict.HOLDS:
        tail += f"; at least {cert.solution_count} nontrivial solution(s)"
    print(f"verdict: {cert.verdict.value}{tail}")
    if cert.note:
        print(f"note: {cert.note}")


_VERDICT_EXIT = {Verdict.HOLDS: 0, Verdict.FAILS: 2, Verdict.INCONCLUSIVE: 3}


def _json_default(obj):
    """A report field's JSON form: dataclasses as dicts, enums as their values."""
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    if isinstance(obj, Enum):
        return obj.value
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(doc: dict, args) -> None:
    if not args.no_meta:
        doc["meta"] = {
            "package": "hamcert",
            "version": __version__,
            "generated_unix": int(time.time()),
        }
    if args.out:
        text = json.dumps(doc, sort_keys=True, indent=2, default=_json_default)
        Path(args.out).write_text(text + "\n")


# ---------------------------------------------------------------- commands


def _cmd_assumptions(loaded: LoadedProblem, args) -> tuple[int, dict]:
    problem = loaded.problem
    reports: list[AssumptionReport] = []
    for i, comp in enumerate(problem.components):
        own = [verify_A3(comp), verify_A4(comp)]
        if comp.kernel.green is None:
            own.append(check_kernel_derivative(comp.kernel))
        if problem.variant is not ConeVariant.SIGN_CHANGING:
            box = sup_box(*loaded.check.nonexistence_box, problem.variant)
            own.append(verify_nonneg_f(comp, box))
        reports += [dataclasses.replace(r, name=f"component {i + 1}: {r.name}") for r in own]
    _print_reports(reports)
    passed = all(r.passed for r in reports)
    doc = {"command": "assumptions", "passed": passed, "reports": reports}
    return (0 if passed else 2), doc


def _cmd_constants(loaded: LoadedProblem, args) -> tuple[int, dict]:
    table = compute_table(loaded.problem)
    rows = [dataclasses.asdict(res) for consts in table.components
            for res in (consts.m, consts.m_star, consts.M, consts.M_star)]
    width = max(len(r["name"]) for r in rows)
    for r in rows:
        print(
            f"{r['name']:<{width}}  {r['constant']:.12g}  (1/{r['name']} = "
            f"{r['extremal_integral']:.12g}, quadrature error {r['quad_error']:.2e})"
        )
    doc = {"command": "constants", "constants": rows}
    return 0, doc


def _cmd_certify(loaded: LoadedProblem, args) -> tuple[int, dict]:
    check = loaded.check
    if check.scenario is None or check.scenario is Scenario.NONEXISTENCE:
        raise ValueError("the problem file's [check] section must name an existence scenario")
    table = compute_table(loaded.problem)
    policy = HintPolicy(args.hints)
    n = args.grid if args.grid is not None else check.resolution
    cert = certify(loaded.problem, check.scenario, check.ladder, table, policy, n)
    _print_certificate(cert)
    doc = {"command": "certify", "certificate": cert}
    return _VERDICT_EXIT[cert.verdict], doc


def _cmd_nonexistence(loaded: LoadedProblem, args) -> tuple[int, dict]:
    problem = loaded.problem
    table = compute_table(problem)
    box = sup_box(*loaded.check.nonexistence_box, problem.variant)
    n = args.grid if args.grid is not None else loaded.check.nonexistence_resolution
    cert = check_nonexistence(problem, table, box, n)
    _print_certificate(cert)
    doc = {"command": "nonexistence", "certificate": cert}
    return _VERDICT_EXIT[cert.verdict], doc


def _cmd_solve(loaded: LoadedProblem, args) -> tuple[int, dict]:
    problem = loaded.problem
    cfg = loaded.solver
    n = args.grid if args.grid is not None else cfg.n
    tol = args.tol if args.tol is not None else cfg.tol
    if cfg.init == "bump":
        start = bump_init(problem, n, cfg.scale)
    else:
        start = GridPair.zeros(n)
    result = picard(problem, start, cfg.theta, tol, cfg.max_iter)
    cone = cone_membership(result.pair, problem)
    annuli = [
        {
            "inner": list(inner),
            "outer": list(outer),
            "localized": localization_check(result, inner, outer),
        }
        for inner, outer in ladder_annuli(loaded.check.ladder)
    ]
    status = "converged" if result.converged else "not converged"
    print(f"{status} after {result.iterations} iterations; residual {result.residual:.3e} (n = {n})")
    for k, v in result.norms.items():
        print(f"  {k} = {v:.12g}")
    print(f"cone membership: {'PASS' if cone.passed else 'FAIL'}")
    for c in cone.checks:
        print(f"  {'ok ' if c.passed else 'BAD'} {c.name}  (slack {c.slack:.3e})")
    for a in annuli:
        print(f"  localized in [{a['inner']}, {a['outer']}]: {a['localized']}")
    if args.table:
        Path(args.table).write_text(export_table(result.pair))
        print(f"nodal table written to {args.table}")
    doc = {
        "command": "solve",
        "converged": result.converged,
        "iterations": result.iterations,
        "residual": result.residual,
        "residual_source": "sup norm of x - T(x) at the grid nodes",
        "n": n,
        "tol": tol,
        "norms": result.norms,
        "derivative_consistency": derivative_consistency(result.pair),
        "cone": cone,
        "annuli": annuli,
    }
    return (0 if result.converged else 2), doc


def _cmd_green_check(loaded: LoadedProblem, args) -> tuple[int, dict]:
    all_pass = True
    sections = []
    n_grid = args.grid if args.grid is not None else greens3.BVP_GRID
    ode_tol = args.tol if args.tol is not None else greens3.ODE_TOL
    greens3.check_bvp_grid(n_grid)
    for i, comp in enumerate(loaded.problem.components):
        params = comp.kernel.green
        if params is None:
            continue
        report = greens3.check_kernel_properties(comp)
        _print_reports([report])
        entry = {
            "component": i + 1,
            "alpha": params.alpha,
            "eta": params.eta,
            "properties": report,
            "bvp": [],
        }
        ok = report.passed
        for h_text in ("1", "s"):
            h = exprlang.parse(h_text, WEIGHT_VARS)
            try:
                res = greens3.verify_bvp(params, h, n_grid=n_grid, ode_tol=ode_tol)
                entry["bvp"].append({"h": h_text, **dataclasses.asdict(res), "passed": True})
                print(
                    f"  bvp h = {h_text}: ode residual {res.ode_residual:.3e}, "
                    f"bc residuals ({res.bc_at_zero:.1e}, {res.bc_slope_at_zero:.1e}, "
                    f"{res.bc_three_point:.1e})"
                )
            except greens3.ResidualTooLarge as exc:
                ok = False
                entry["bvp"].append({"h": h_text, "passed": False, "error": str(exc)})
                print(f"  bvp h = {h_text}: FAIL ({exc})")
        all_pass = all_pass and ok
        sections.append(entry)
    if not sections:
        raise ValueError("no component of this problem uses a green(...) kernel")
    doc = {"command": "green-check", "passed": all_pass, "components": sections}
    return (0 if all_pass else 2), doc


_COMMANDS = {
    "assumptions": _cmd_assumptions,
    "constants": _cmd_constants,
    "certify": _cmd_certify,
    "nonexistence": _cmd_nonexistence,
    "solve": _cmd_solve,
    "green-check": _cmd_green_check,
}


def _grid_size(text: str) -> int:
    if not re.fullmatch(r"[0-9]+", text.strip()) or int(text) < 2:  # ASCII digits only
        raise argparse.ArgumentTypeError(f"expected an integer >= 2, got {text!r}")
    return int(text)


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error: exit 2 means FAILS or refuted."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_OPTIONS = {
    "--grid": {"type": _grid_size, "help": "override the command's resolution"},
    "--tol": {"type": _tolerance, "help": "override the command's tolerance"},
    "--hints": {
        "choices": [p.value for p in HintPolicy], "default": "allow",
        "help": "how to treat user bound hints during certification",
    },
    "--table": {"help": "write the nodal table (TSV) here"},
}
# The options each command reads; any other is a usage error.
_COMMAND_OPTIONS = {
    "assumptions": (),
    "constants": (),
    "certify": ("--grid", "--hints"),
    "nonexistence": ("--grid",),
    "solve": ("--grid", "--tol", "--table"),
    "green-check": ("--grid", "--tol"),
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser by name."""
    parser = _Parser(
        prog="hamcert",
        description="certify and solve two-component Hammerstein systems with "
        "derivative-dependent nonlinearities",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name in sorted(_COMMANDS):
        sub = commands.add_parser(name)
        sub.add_argument("file", help="problem file (schema = 1)")
        sub.add_argument("--out", help="write a machine-readable JSON report here")
        sub.add_argument("--no-meta", action="store_true",
                         help="omit the metadata block for byte-identical reports")
        for option in _COMMAND_OPTIONS[name]:
            sub.add_argument(option, **_OPTIONS[option])
    return parser, commands.choices


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # the command's parser reports it, so the usage shows its options
        commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        loaded = load_problem(args.file)
        code, doc = _COMMANDS[args.command](loaded, args)
        doc["problem"] = args.file
        doc["schema"] = 1
        _emit(doc, args)  # an unwritable --out is one error line too
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
    except BrokenPipeError:  # the reader has gone: point stdout at devnull for shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, ValueError, ArithmeticError, RuntimeError, ExprError,
            QuadratureFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
