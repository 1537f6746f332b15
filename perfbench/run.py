#!/usr/bin/env python3
"""hamcert benchmark: a closed loop with one client.

    python3 perfbench/run.py --workload {certify,scan,collocation,all} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root (the program is taken from ``src/``).  For the
seed it generates the workload's problem files and expected outcomes under
``perfbench/out/``, then starts one ``python -m hamcert.cli COMMAND FILE
--no-meta --out REPORT`` job at a time (``green-check`` without ``--out``,
see README.md) and waits for it: the way a user runs
hamcert, and never more load than one core.  Each job's wall time, CPU time
and peak RSS come from ``os.wait4``; its exit code and report are checked
against the expectation.  The job list is run again and again (a "pass"):
at least three times (two traced and two untraced with ``--trace 1``), and
while another pass fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics: the wall time (``run_s``) and
CPU time (``cpu_s``) of one pass, as the sum over jobs of each job's median
over the passes, the largest per-job peak RSS
(``peak_rss_mb``) and the median per-job set-up time (``setup_s``: process
start, ``import hamcert.cli`` and ``load_problem``, from separate probe
processes).  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics of ``tracing.py``.  The last line of output is one JSON
object; ``--workload all`` prints one line per workload and ends with a JSON
object keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import checker
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = Path("perfbench/out")

END_TO_END = (("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
BLAS_THREADS = 1
"""One BLAS thread: the single client then uses one core of the box, and
matrix-vector reductions run in a fixed order, so counts repeat exactly."""
SETUP_PROBES = 10
MIN_PASSES = 3
JOB_TIMEOUT_S = 150
PROBE = (
    "import sys, time\n"
    "import hamcert.cli\n"
    "hamcert.cli.load_problem(sys.argv[1])\n"
    "print(time.monotonic())\n"
)


def job_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path) -> tuple[int, float, float, float]:
    """Run one process to completion: (exit code, wall s, cpu s, peak RSS MB)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=job_env())
        timer = threading.Timer(JOB_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def run_pass(jobs: list[dict], pdir: Path, traced: bool) -> dict:
    """One pass over the job list; outputs are checked after the clock stops."""
    pdir.mkdir(parents=True)
    results = []
    t0 = time.perf_counter()
    for job in jobs:
        stem = pdir / f"job{job['id']:02d}"
        args = [job["command"], job["file"], "--no-meta", *job["extra"]]
        if job["out"]:
            args += ["--out", f"{stem}.json"]
        if traced:
            argv = [sys.executable, "perfbench/tracing.py", f"{stem}.spans.json", str(job["id"]), "--", *args]
        else:
            argv = [sys.executable, "-m", "hamcert.cli", *args]
        code, wall, cpu, rss = spawn(argv, Path(f"{stem}.out"), Path(f"{stem}.err"))
        results.append({"id": job["id"], "command": job["command"], "exit": code,
                        "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss})
    wall = time.perf_counter() - t0
    for job, res in zip(jobs, results):
        stem = pdir / f"job{job['id']:02d}"
        report_path = Path(f"{stem}.json")
        try:
            report = json.loads(report_path.read_text()) if job["out"] and report_path.exists() else None
            res["problems"] = checker.check(
                job, res["exit"], report,
                Path(f"{stem}.out").read_text(), Path(f"{stem}.err").read_text(),
            )
        except (ValueError, KeyError, TypeError) as exc:
            res["problems"] = [f"unreadable report: {exc!r}"]
        for problem in res["problems"]:
            print(f"job {job['id']} ({job['command']} {job['file']}): {problem}", file=sys.stderr)
    return {"traced": traced, "wall_s": wall, "cpu_s": sum(r["cpu_s"] for r in results), "jobs": results}


def setup_times(jobs: list[dict]) -> list[float]:
    """Per-job set-up from fresh processes: start, import and load_problem."""
    files = list(dict.fromkeys(job["file"] for job in jobs))
    times = []
    for i in range(SETUP_PROBES + 1):  # the first probe warms caches and is dropped
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", PROBE, files[i % len(files)]],
            capture_output=True, text=True, env=job_env(), timeout=JOB_TIMEOUT_S, check=True,
        )
        if i:
            times.append(float(done.stdout) - t0)
    return times


def run_workload(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    rdir = OUT / f"{workload}-seed{seed}{'-trace' if traced else ''}"
    shutil.rmtree(rdir, ignore_errors=True)
    jobs = workloads.generate(workload, seed, rdir)
    probes = [] if traced else setup_times(jobs)
    passes: list[dict] = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, rdir / f"pass{len(passes):02d}", False))
        if traced:
            passes.append(run_pass(jobs, rdir / f"pass{len(passes):02d}", True))
        unit = statistics.median(p["wall_s"] for p in passes) * (2 if traced else 1)
        if len(passes) >= MIN_PASSES and time.perf_counter() - t0 + unit > seconds:
            break
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(1 for p in passes for r in p["jobs"] if r["problems"])
    if traced:
        metrics = layer_metrics(jobs, passes, rdir)
    else:
        metrics = {
            "run_s": pass_estimate(plain, "wall_s"),
            "cpu_s": pass_estimate(plain, "cpu_s"),
            "peak_rss_mb": max(r["peak_rss_mb"] for p in plain for r in p["jobs"]),
            "setup_s": statistics.median(probes),
        }
    units = dict(tracing.LAYER_METRICS if traced else END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
        "machine": machine(), "setup_probes_s": probes, "passes": passes, "result": result,
    }
    (rdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def pass_estimate(passes: list[dict], key: str) -> float:
    """One pass's time as the sum over jobs of each job's median over passes.

    A slow outlier job in one pass then affects neither the other jobs'
    medians nor the other passes, which a median of pass totals cannot
    guarantee with a handful of passes.
    """
    return sum(statistics.median(p["jobs"][i][key] for p in passes) for i in range(len(passes[0]["jobs"])))


def layer_metrics(jobs: list[dict], passes: list[dict], rdir: Path) -> dict[str, float]:
    """Per-layer metrics: per-pass sums, median over passes (counts must repeat)."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = []
    spans = []
    for i, p in enumerate(passes):
        if not p["traced"]:
            continue
        sums: dict[str, float] = defaultdict(float)
        for job in jobs:
            path = rdir / f"pass{i:02d}" / f"job{job['id']:02d}.spans.json"
            if not path.exists():
                continue  # the job died before writing its spans; counted as failed
            doc = json.loads(path.read_text())
            spans.append({"pass": i, **doc})
            for key, value in tracing.job_metrics(doc).items():
                sums[key] += value
        per_pass.append(sums)
    (rdir / "trace.json").write_text(json.dumps(spans) + "\n")
    out = {}
    for name, unit in tracing.LAYER_METRICS:
        values = [s.get(name, 0.0) for s in per_pass]
        if unit == "count" and len(set(values)) > 1:
            print(f"warning: {name} differs between traced passes: {values}", file=sys.stderr)
        out[name] = statistics.median(values)
    for command in tracing.COMMANDS:
        walls = [sum(r["wall_s"] for r in p["jobs"] if r["command"] == command) for p in plain]
        rss = [r["peak_rss_mb"] for p in plain for r in p["jobs"] if r["command"] == command]
        out[f"cli.{command}.wall_s"] = statistics.median(walls)
        out[f"cli.{command}.peak_rss_mb"] = max(rss, default=0.0)
    out["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced) - statistics.median(p["wall_s"] for p in plain)
    )
    return out


def machine() -> dict:
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    try:
        info["mem_total_mb"] = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20
    except (OSError, ValueError):
        pass
    return info


def summary(workload: str, seed: int, result: dict) -> str:
    rows = [f"{workload} (seed {seed}): {result['attempted']} jobs, "
            f"{'correct' if result['correct'] else 'INCORRECT'}"]
    for name, m in result["metrics"].items():
        rows.append(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    rows.append(f"  {'fail_ratio':<40} {ratio:.6g} ({result['failed']}/{result['attempted']} jobs)")
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hamcert" / "cli.py").is_file():
        print(f"error: no hamcert sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(summary(name, args.seed, results[name]), flush=True)
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
