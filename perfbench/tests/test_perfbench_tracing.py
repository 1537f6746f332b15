"""Traced runs: counts repeat exactly, and self time excludes nested spans."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children():
    doc = {
        "job": 0,
        "spans": [
            ["cli.main", 0.0, 10.0, -1],
            ["constants.compute_table", 1.0, 7.0, 0],
            ["quadopt.integrate", 2.0, 5.0, 1],
            ["exprlang.evaluate", 3.0, 4.0, 2],
            ["quadopt.integrate", 5.5, 6.5, 1],
        ],
        "counts": {"quadopt.integrate.calls": 2},
    }
    m = tracing.job_metrics(doc)
    assert m["cli.main.self_s"] == 4.0
    assert m["constants.compute_table.total_s"] == 6.0
    assert m["constants.compute_table.self_s"] == 2.0
    assert m["quadopt.integrate.self_s"] == 3.0
    assert m["quadopt.integrate.total_s"] == 4.0
    assert m["quadopt.integrate.calls"] == 2


def _traced_counts(job: dict, spans: Path) -> dict:
    args = [job["command"], job["file"], "--no-meta", *job["extra"]]
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(HERE / "tracing.py"), str(spans), str(job["id"]), "--", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == job["expect"]["exit"], done.stderr
    doc = json.loads(spans.read_text())
    assert doc["missing"] == []
    assert doc["job"] == job["id"]
    return doc["counts"]


@pytest.mark.parametrize("command", ["constants", "certify", "assumptions"])
def test_traced_counts_repeat_exactly(command, tmp_path):
    jobs = workloads.generate("certify", 9, tmp_path / "gen")
    job = next(j for j in jobs if j["command"] == command and "expr_holds" in j["file"])
    first = _traced_counts(job, tmp_path / "a.json")
    second = _traced_counts(job, tmp_path / "b.json")
    assert first == second
    assert first["exprlang.evaluate.calls"] > 0
    if command == "constants":
        assert first["quadopt.integrate.calls"] > 1000
        assert first["quadopt.extremize.samples"] > 0
    if command == "certify":
        assert first["quadopt.box_extremum.points"] == 6 * 17**5
