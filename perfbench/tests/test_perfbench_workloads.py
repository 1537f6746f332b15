"""The seeded generator: determinism, seed-independent shapes, closed-form constants."""
from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import workloads  # noqa: E402

_NUMBER = re.compile(r"\d+(?:\.\d+)?(?:e[+-]?\d+)?(?:/\d+)?")
_SIZES = re.compile(r"^(n|resolution|nonexistence_resolution|max_iter) = (.*)$", re.M)


def _files(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_writes_identical_files(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workloads.generate(workload, 11, Path("a"))
    first = _files(tmp_path / "a")
    for p in (tmp_path / "a").rglob("*.prob"):
        p.unlink()
    workloads.generate(workload, 11, Path("a"))
    assert _files(tmp_path / "a") == first
    assert any(name.endswith(".prob") for name in first)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_share_jobs_sizes_and_shapes(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    jobs = {seed: workloads.generate(workload, seed, Path(f"s{seed}")) for seed in (1, 2)}
    shape = lambda job: (job["id"], job["command"], job["extra"], job["out"], Path(job["file"]).name)
    assert [shape(j) for j in jobs[1]] == [shape(j) for j in jobs[2]]
    texts = {
        seed: [Path(j["file"]).read_text() for j in js if j["file"].startswith(f"s{seed}")]
        for seed, js in jobs.items()
    }
    assert texts[1] != texts[2]
    for a, b in zip(texts[1], texts[2]):
        assert _SIZES.findall(a) == _SIZES.findall(b)
        assert _NUMBER.sub("#", a) == _NUMBER.sub("#", b)


def test_closed_form_constants_match_hamcert(tmp_path, monkeypatch):
    from hamcert.cli import load_problem
    from hamcert.constants import compute_table

    monkeypatch.chdir(tmp_path)
    jobs = workloads.generate("certify", 3, Path("c"))
    seen = set()
    for job in jobs:
        if job["command"] != "constants" or not job["file"].startswith("c") or job["file"] in seen:
            continue
        seen.add(job["file"])
        table = compute_table(load_problem(job["file"]).problem)
        got = {
            r.name: r.constant
            for comp in table.components
            for r in (comp.m, comp.m_star, comp.M, comp.M_star)
        }
        assert got == pytest.approx(job["expect"]["constants"], rel=workloads.CONST_RTOL)
    assert len(seen) == 3  # two expression-kernel variants and one green(alpha, eta)


def test_expected_verdicts_cover_holds_and_refuted(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    jobs = workloads.generate("certify", 5, Path("c"))
    verdicts = [j["expect"].get("verdict") for j in jobs if j["command"] == "certify"]
    assert "HOLDS" in verdicts and "FAILS" in verdicts
    assert [j["expect"]["exit"] for j in jobs if j["command"] == "certify"].count(1) == 1
