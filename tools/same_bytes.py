"""Check that the CLI gives byte-identical results at a git revision and in this checkout.

    python tools/same_bytes.py REF [--rounds K]

Unpacks ``git archive REF`` into a temporary directory (``.git`` is only
read) and copies this checkout's ``src`` beside it, then runs
``python -m hamcert.cli CMD FILE --no-meta --out F`` in both trees, each from
its own root with its own ``src`` on PYTHONPATH.
The runs are the six commands on both bundled problems, plus
``certify --hints ignore``, ``certify --grid 33``, ``solve --grid 201`` and
the scaled box scans ``nonexistence --grid 61`` and ``certify --grid 61``,
the scaled solves ``solve sign_changing.prob --grid 2001`` (the O(n) apply of
kernels polynomial in t) and ``solve third_order.prob --grid 4001``,
every job of the benchmark workloads at seed 1, whose problem files
``perfbench/workloads.py`` writes into the temporary directory (the module
is imported without writing bytecode; nothing under ``perfbench/`` changes),
``solve`` and ``solve --grid 201`` on a problem derived from
``sign_changing.prob`` whose exp(-t*s) kernel has no pieces, so that the
dense n x n weights are built, and ``constants`` and ``solve`` on one whose
t*exp(s) kernel is one piece over a basis that is not polynomial in s (exits 1
if a substitution does not match exactly once).  Exit code, stdout, stderr and
the JSON report must match byte for byte.  Prints each run that differs; under
it, the stdout and stderr lines that differ (``-`` at REF, ``+`` here, no
context), and for a JSON report that differs every leaf that moved (path,
value at REF, value here and, for a number, the relative change), every key
that only one report has and every list whose length changed.  Then prints the
``wc -l`` total of ``src/hamcert/*.py`` in both trees; exits 1 if any run
differs, else 0.

With ``--rounds K``, each run is then timed K more times in each tree, in a
fresh process each time, REF first in every other pair.  Wall time, CPU time
(user + system) and peak RSS come from ``os.wait4``; the tool prints each
run's medians at REF and here, then the sum of those medians per command.
The timings do not change the exit status.
"""

from __future__ import annotations

import argparse
import difflib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ("sign_changing.prob", "third_order.prob")
RUNS = [
    [cmd] for cmd in ("assumptions", "constants", "certify", "nonexistence", "solve", "green-check")
] + [
    ["certify", "--hints", "ignore"],
    ["certify", "--grid", "33"],
    ["solve", "--grid", "201"],
    ["nonexistence", "--grid", "61"],
    ["certify", "--grid", "61"],
]
SCALED_SOLVES = [(PROBLEMS[0], "2001"), (PROBLEMS[1], "4001")]  # (problem, --grid)
# sign_changing.prob with exp(-t*s) beside a Green kernel, started from a small bump
DENSE_EDITS = [
    ("kernel = s*(7/8*t - t^2)\nkernel_dt = s*(7/8 - 2*t)\n",
     "kernel = exp(-t*s)\nkernel_dt = -s*exp(-t*s)\n"),
    ("kernel = s*(11/10*t - t^2 - 1/10)\nkernel_dt = s*(11/10 - 2*t)\n", "kernel = green(2, 1/3)\n"),
    ("init = zero\n", "init = bump\nscale = 1/100\n"),
]
# sign_changing.prob with component 1 polynomial in t over the coefficient exp(s), from a bump
TREE_EDITS = [
    ("kernel = s*(7/8*t - t^2)\nkernel_dt = s*(7/8 - 2*t)\n",
     "kernel = t*exp(s)\nkernel_dt = exp(s)\n"),
    ("init = zero\n", "init = bump\nscale = 1/100\n"),
]


def cli(tree: Path, report: Path, argv: list[str]) -> dict:
    """The ``subprocess`` arguments of one CLI run in ``tree`` that writes ``report``."""
    report.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return dict(args=[sys.executable, "-m", "hamcert.cli", *argv, "--no-meta", "--out", str(report)],
                cwd=tree, env=env)


def run(tree: Path, report: Path, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr, report bytes) of one CLI run in ``tree``."""
    done = subprocess.run(**cli(tree, report, argv), capture_output=True)
    return done.returncode, done.stdout, done.stderr, report.read_bytes() if report.exists() else None


def timed(tree: Path, report: Path, argv: list[str]) -> tuple[float, float, float]:
    """(wall s, CPU s, peak RSS MB) of one CLI run in ``tree``, output discarded."""
    start = time.perf_counter()
    proc = subprocess.Popen(**cli(tree, report, argv), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024  # ru_maxrss is in KiB


def changed_lines(stream: str, ref: bytes, here: bytes) -> list[str]:
    """The lines of one output stream that differ, ``-`` at REF and ``+`` here, no context."""
    diff = list(difflib.unified_diff(ref.decode(errors="replace").splitlines(),
                                     here.decode(errors="replace").splitlines(),
                                     n=0, lineterm=""))[2:]  # the two file headers
    return [f"    {stream} {line}" for line in diff if not line.startswith("@@")]


def moved_leaves(ref: bytes, here: bytes) -> list[str]:
    """One line per JSON leaf that differs between two reports (a number with its relative
    change), per key that only one of them has and per list whose length differs."""
    lines: list[str] = []

    def walk(a, b, path: str) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            lines.extend(f"    {path}.{key}: only at REF" for key in a if key not in b)
            lines.extend(f"    {path}.{key}: only here" for key in b if key not in a)
            for key in (k for k in a if k in b):
                walk(a[key], b[key], f"{path}.{key}")
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                lines.append(f"    {path or '.'}: {len(a)} items at REF, {len(b)} here")
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{i}]")
        elif a != b:
            numbers = all(type(x) in (int, float) for x in (a, b))  # bool is no number
            rel = f" (relative {abs(b - a) / max(abs(a), abs(b)):.1e})" if numbers else ""
            lines.append(f"    {path or '.'}: {a!r} -> {b!r}{rel}")

    try:
        walk(json.loads(ref), json.loads(here), "")
    except ValueError:  # not JSON: the byte comparison has said all there is
        return []
    return lines


def workload_runs(out_dir: Path) -> list[list[str]]:
    """The argv of every job of every benchmark workload at seed 1."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return [[job["command"], job["file"], *job["extra"]]
            for name in workloads.WORKLOADS
            for job in workloads.generate(name, 1, out_dir / name)]


def derived(out_dir: Path, name: str, edits: list[tuple[str, str]]) -> str:
    """The path of ``sign_changing.prob`` with ``edits`` applied, written into out_dir."""
    text = (ROOT / "src/hamcert/problems" / PROBLEMS[0]).read_text()
    for old, new in edits:
        if text.count(old) != 1:
            raise SystemExit(f"{PROBLEMS[0]}: {old!r} does not occur exactly once")
        text = text.replace(old, new)
    path = out_dir / name
    path.write_text(text)
    return str(path)


def derived_runs(out_dir: Path) -> list[list[str]]:
    """``solve`` at the file's n and at 201 on the dense-path problem, and ``constants`` and
    ``solve`` on the tree-basis problem."""
    dense = derived(out_dir, "dense.prob", DENSE_EDITS)
    tree = derived(out_dir, "tree.prob", TREE_EDITS)
    return [["solve", dense], ["solve", dense, "--grid", "201"],
            ["constants", tree], ["solve", tree]]


def source_lines(tree: Path) -> int:
    """``wc -l src/hamcert/*.py`` in ``tree``: the total count of newlines."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src/hamcert").glob("*.py"))


def print_timings(runs: list[list[str]], ref_name: str, ref: list, here: list) -> None:
    """Each run's median (wall, CPU, RSS) at REF and here, then their sums per command."""
    def pairs(a: tuple, b: tuple) -> str:
        return "  ".join(f"{x:8.3f} {y:8.3f}" for x, y in zip(a, b))

    print(f"medians, {ref_name} then here:    wall s             CPU s        peak RSS MB")
    for argv_run, a, b in zip(runs, ref, here):
        print(f"  {pairs(a, b)}  {' '.join(argv_run)}")
    print("sum of the medians per command:")
    for command in dict.fromkeys(argv_run[0] for argv_run in runs):
        picked = [i for i, argv_run in enumerate(runs) if argv_run[0] == command]
        a, b = (tuple(map(sum, zip(*(meds[i] for i in picked)))) for meds in (ref, here))
        print(f"  {pairs(a, b)}  {command} ({len(picked)} runs)")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Compare the CLI's output at REF and here.")
    parser.add_argument("ref", metavar="REF")
    parser.add_argument("--rounds", type=int, default=0, metavar="K",
                        help="then time every run K more times in each tree")
    args = parser.parse_args(argv)
    archive = subprocess.run(["git", "archive", args.ref], cwd=ROOT, capture_output=True)
    if archive.returncode:
        sys.stderr.write(archive.stderr.decode())
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        ref, here = Path(tmp) / "ref", Path(tmp) / "here"
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(ref)
        shutil.copytree(ROOT / "src", here / "src", ignore=shutil.ignore_patterns("__pycache__"))
        report = Path(tmp) / "report.json"
        runs = [[extra[0], f"src/hamcert/problems/{prob}", *extra[1:]]
                for prob in PROBLEMS for extra in RUNS]
        runs += [["solve", f"src/hamcert/problems/{p}", "--grid", n] for p, n in SCALED_SOLVES]
        runs += workload_runs(Path(tmp) / "workloads")
        runs += derived_runs(Path(tmp))
        differ = 0
        for argv_run in runs:
            a, b = run(ref, report, argv_run), run(here, report, argv_run)
            parts = [p for p, x, y in zip(("exit", "stdout", "stderr", "json"), a, b) if x != y]
            if parts:
                differ += 1
                print(f"DIFFERS ({', '.join(parts)}): {' '.join(argv_run)}")
                for stream, x, y in (("stdout", a[1], b[1]), ("stderr", a[2], b[2])):
                    for line in changed_lines(stream, x, y):
                        print(line)
                if "json" in parts and a[3] is not None and b[3] is not None:
                    for line in moved_leaves(a[3], b[3]):
                        print(line)
        print(f"{differ} of {len(runs)} runs differ from {args.ref}")
        print(f"wc -l src/hamcert/*.py: {source_lines(ref)} at {args.ref}, "
              f"{source_lines(here)} here")
        if args.rounds > 0:
            samples = {ref: [[] for _ in runs], here: [[] for _ in runs]}
            for k in range(args.rounds):
                for i, argv_run in enumerate(runs):
                    for tree in (ref, here) if (k + i) % 2 == 0 else (here, ref):
                        samples[tree][i].append(timed(tree, report, argv_run))
            ref_meds, here_meds = ([tuple(map(statistics.median, zip(*times))) for times in per_run]
                                   for per_run in samples.values())
            print_timings(runs, args.ref, ref_meds, here_meds)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
