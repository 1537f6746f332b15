"""Traced job runner and span aggregation for the hamcert benchmark.

Run as a script, it executes one hamcert CLI job in this process with every
layer's public functions wrapped from outside the program:

    python perfbench/tracing.py SPANS_JSON JOB_ID -- COMMAND FILE [CLI ARGS...]

Each name is patched where its caller imported it (``constants.integrate``,
``conditions.box_extremum_with_witness``, ``cli.compute_table`` ...), so no
tracing code lives in ``src/hamcert``.  Spans carry name, start, end, parent
and job id; they stay in memory and are written to SPANS_JSON when the job
ends, together with the counts taken from the wrapped functions' return
values.  Each job needs a fresh process: ``solver`` caches discretizations by
``id(problem)``, so a second job in one process would skip work and keep
memory alive.

``job_metrics`` turns one job's span file into per-layer sums.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import defaultdict

# (metric, unit) for every per-layer metric, in report order
COMMANDS = ("assumptions", "constants", "certify", "nonexistence", "solve", "green-check")
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("cli.import_s", "s"),
    ("cli.load_problem.self_s", "s"),
    ("cli.main.self_s", "s"),
    *((f"cli.{c}.wall_s", "s") for c in COMMANDS),
    *((f"cli.{c}.peak_rss_mb", "MB") for c in COMMANDS),
    ("exprlang.evaluate.self_s", "s"),
    ("exprlang.evaluate.calls", "count"),
    ("exprlang.evaluate.elements", "count"),
    ("quadopt.integrate.self_s", "s"),
    ("quadopt.integrate.calls", "count"),
    ("quadopt.integrate.panels", "count"),
    ("quadopt.extremize.self_s", "s"),
    ("quadopt.extremize.samples", "count"),
    ("quadopt.sign_change_roots.self_s", "s"),
    ("quadopt.box_extremum.self_s", "s"),
    ("quadopt.box_extremum.points", "count"),
    ("constants.compute_table.self_s", "s"),
    ("constants.compute_table.total_s", "s"),
    ("conditions.certify.total_s", "s"),
    ("conditions.check_nonexistence.self_s", "s"),
    ("conditions.check_nonexistence.total_s", "s"),
    ("conditions.check_nonexistence.samples", "count"),
    ("model.verify_A3.self_s", "s"),
    ("model.verify_A4.self_s", "s"),
    ("model.check_kernel_derivative.self_s", "s"),
    ("model.verify_nonneg_f.self_s", "s"),
    ("model.verify_nonneg_f.points", "count"),
    ("solver.first_apply.total_s", "s"),
    ("solver.apply.self_s", "s"),
    ("solver.apply.calls", "count"),
    ("solver.picard.total_s", "s"),
    ("solver.picard.iterations", "count"),
    ("solver.bump_init.total_s", "s"),
    ("solver.cone_membership.self_s", "s"),
    ("solver.matrix_bytes", "bytes"),
    ("greens3.check_kernel_properties.self_s", "s"),
    ("greens3.verify_bvp.self_s", "s"),
    ("greens3.verify_bvp.total_s", "s"),
    ("trace.overhead_s", "s"),
)


class Recorder:
    """Spans as [name, start, end, parent index] rows plus named counters."""

    def __init__(self, job: int):
        self.job = job
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def dump(self, path: str, missing: list[str]) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"job": self.job, "spans": self.spans, "counts": self.counts, "missing": missing},
                fh,
            )


def _wrap(rec: Recorder, owner, attr: str, name, count=None, missing=None) -> None:
    """Replace ``owner.attr`` by a span-recording wrapper.

    ``name`` is the span name, a callable choosing it from the arguments,
    or None for a counter without a span; ``count(out, args, kwargs)`` adds
    to the recorder's counters.
    """
    fn = getattr(owner, attr, None)
    if fn is None:
        missing.append(f"{owner.__name__}.{attr}")
        return

    def counted(*args, **kwargs):
        out = fn(*args, **kwargs)
        count(out, args, kwargs)
        return out

    def wrapper(*args, **kwargs):
        idx = rec.open(name(args) if callable(name) else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if count is not None:
            count(out, args, kwargs)
        return out

    setattr(owner, attr, wrapper if name is not None else counted)


def _arguments(fn, args, kwargs) -> dict:
    """The call's arguments by parameter name, defaults included."""
    call = inspect.signature(fn).bind(*args, **kwargs)
    call.apply_defaults()
    return call.arguments


def _box_points(box, n: int) -> int:
    return math.prod(1 if lo == hi else n for lo, hi in box)


def install(rec: Recorder, cli, constants, model, conditions, solver, greens3, exprlang) -> list[str]:
    """Patch every traced name; return the names this version lacks."""
    missing: list[str] = []
    c = rec.counts

    def add(key, value):
        c[key] += value

    def wrap(owner, attr, name, count=None):
        _wrap(rec, owner, attr, name, count, missing)

    wrap(cli, "load_problem", "cli.load_problem")
    wrap(cli, "compute_table", "constants.compute_table")
    wrap(cli, "certify", "conditions.certify")
    wrap(cli, "check_nonexistence", "conditions.check_nonexistence",
         lambda out, a, k: add("conditions.check_nonexistence.samples",
                               sum(alt.samples for alt in out.alternatives)))
    wrap(cli, "verify_A3", "model.verify_A3")
    wrap(cli, "verify_A4", "model.verify_A4")
    wrap(cli, "check_kernel_derivative", "model.check_kernel_derivative")

    nonneg_f = getattr(cli, "verify_nonneg_f", None)

    def nonneg_points(out, a, k):
        call = _arguments(nonneg_f, a, k)
        add("model.verify_nonneg_f.points", call["n"] * _box_points(call["box"], call["n"]))

    wrap(cli, "verify_nonneg_f", "model.verify_nonneg_f", nonneg_points)
    wrap(cli, "bump_init", "solver.bump_init")
    wrap(cli, "picard", "solver.picard",
         lambda out, a, k: add("solver.picard.iterations", out.iterations))
    wrap(cli, "cone_membership", "solver.cone_membership")
    wrap(greens3, "check_kernel_properties", "greens3.check_kernel_properties")
    wrap(greens3, "verify_bvp", "greens3.verify_bvp")

    def quad_count(out, a, k):
        add("quadopt.integrate.calls", 1)
        add("quadopt.integrate.panels", out.subdivisions)

    for owner in (constants, model, greens3):
        wrap(owner, "integrate", "quadopt.integrate", quad_count)
    wrap(constants, "extremize", "quadopt.extremize",
         lambda out, a, k: add("quadopt.extremize.samples", out.samples))
    wrap(constants, "sign_change_roots", "quadopt.sign_change_roots")

    box_fn = getattr(conditions, "box_extremum_with_witness", None)

    def box_count(out, a, k):
        call = _arguments(box_fn, a, k)
        add("quadopt.box_extremum.points", _box_points(call["box"], call["n_per_axis"]))

    wrap(conditions, "box_extremum_with_witness", "quadopt.box_extremum", box_count)

    def evaluate_count(out, a, k):
        add("exprlang.evaluate.calls", 1)
        add("exprlang.evaluate.elements", getattr(out, "size", 1))

    wrap(exprlang, "evaluate", "exprlang.evaluate", evaluate_count)

    # the first apply_T on a problem builds its discretization
    seen: set[int] = set()
    last = [""]

    def apply_name(args):
        last[0] = "solver.apply" if id(args[0]) in seen else "solver.first_apply"
        seen.add(id(args[0]))
        return last[0]

    wrap(solver, "apply_T", apply_name,
         lambda out, a, k: add("solver.apply.calls", int(last[0] == "solver.apply")))

    built: set[int] = set()

    def matrix_bytes(out, a, k):
        # four (n x quadrature nodes) float64 matrices; computed, not measured
        if id(out) not in built:
            built.add(id(out))
            add("solver.matrix_bytes", 4 * len(out.grid) * len(out.s) * 8)

    wrap(solver, "_discretize", None, matrix_bytes)
    return missing


def main(argv: list[str]) -> int:
    spans_path, job, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS_JSON JOB_ID -- COMMAND FILE [ARGS...]")
    rec = Recorder(int(job))
    idx = rec.open("cli.import")
    from hamcert import cli, conditions, constants, exprlang, greens3, model, solver
    rec.close(idx)
    missing = install(rec, cli, constants, model, conditions, solver, greens3, exprlang)
    if missing:
        print(f"tracing: not found in this version: {', '.join(missing)}", file=sys.stderr)
    idx = rec.open("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        rec.close(idx)
        rec.dump(spans_path, missing)
    return code


# ---------------------------------------------------------------- aggregation


def job_metrics(doc: dict) -> dict[str, float]:
    """Per-layer sums for one traced job: self and total time per span name, plus counts."""
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, parent), inner in zip(spans, child):
        out[f"{name}.total_s"] += end - start
        out[f"{name}.self_s"] += end - start - inner
    out["cli.import_s"] = out.pop("cli.import.total_s", 0.0)
    for key, value in doc["counts"].items():
        out[key] += value
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
