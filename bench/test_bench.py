"""Smoke self-test of the benchmark at tiny input size.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that a wrong golden value is counted as a failed operation, that the
exact counts repeat across traced runs with one seed, and that the
benchmark refuses to run without the equiwave sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(out: Path, workload: str, trace: int, *extra, cwd=ROOT, seed=5):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", "--out", str(out), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(tmp_path, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        res = result(bench(tmp_path, workload, trace))
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        assert got == want


def test_wrong_golden_counts_as_failure(tmp_path):
    golden = json.loads((BENCH / "golden.json").read_text())
    golden["all-default"]["tiny"]["fixed"]["verify"]["h_infinity"] *= 1.01
    wrong = tmp_path / "golden.json"
    wrong.write_text(json.dumps(golden))
    proc = bench(tmp_path, "all-default", 0, "--golden", str(wrong))
    res = result(proc)
    assert not res["correct"]
    assert res["failed"] == 1
    assert res["metrics"]["pass_ratio"]["value"] == 1 - 1 / res["attempted"]
    assert "verify" in proc.stdout and "h_infinity" in proc.stdout


def test_exact_counts_repeat(tmp_path):
    first = result(bench(tmp_path, "all-default", 1))
    second = result(bench(tmp_path, "all-default", 1))
    assert second["correct"], second
    for name in ("spectral.eigensolve.calls", "admissibility.estimate_h_infinity.calls",
                 "solver.steps", "profiles.jet.calls", "spectral.basis_transform.calls"):
        assert first["metrics"][name] == second["metrics"][name]
    # a stored count that differs is reported as drift
    counts = tmp_path / "counts.json"
    stored = json.loads(counts.read_text())
    for key in stored:
        stored[key]["solver.steps"] += 1
    counts.write_text(json.dumps(stored))
    third = result(bench(tmp_path, "all-default", 1))
    assert not third["correct"] and third["failed"] >= 1


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path / "out", "evolve-consistency", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
