"""The benchmark's workloads at tiny size, run in process against its
golden file: a change that breaks a call the benchmark makes fails here.

bench/workloads.py is loaded from its file and only read."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


workloads = _load_workloads()
GOLDEN = json.loads((BENCH / "golden.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_passes_its_gate(tmp_path, workload):
    plan = workloads.make_plan(workload, 5, "tiny")
    inputs, artifacts = tmp_path / "inputs", tmp_path / "artifacts"
    inputs.mkdir()
    artifacts.mkdir()
    ctx = workloads.setup(plan, inputs)
    out = workloads.BODIES[workload](ctx, artifacts)
    # the benchmark passes the collected output through JSON
    collected = json.loads(json.dumps(workloads.collect(workload, out, artifacts)))
    rows = workloads.gate(plan, collected, GOLDEN)
    assert rows
    assert [r for r in rows if not r[1]] == []
