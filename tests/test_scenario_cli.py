"""Scenario validation and the command line contract: artifacts, exit
codes, and determinism."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
import scipy.linalg

import equiwave
import equiwave.admissibility
import equiwave.cli
import equiwave.reduction
import equiwave.scenario
from equiwave.cli import emit_closed_forms, main
from equiwave.errors import CFLViolation, ClosedFormMismatch, ScenarioError
from equiwave.scenario import Scenario, load_scenario
from equiwave.spectral import DiscreteRadialOperator

GOOD = {
    "name": "good",
    "manifold": {"kind": "hyperbolic"},
    "target": {"kind": "sphere"},
    "n": 3,
    "k": 1,
    "delta0": "search",
    "grid": {"R_max": 25.0, "N": 400},
    "time": {"T": 8.0, "dt_factor": 0.1, "snap_every": 1.0},
    "data": {"shape": "gaussian", "amplitude": 0.05, "width": 1.0, "center": 0.0},
    "checks": ["hardy", "dimshift"],
    "seed": 0,
}
# a small `all` run with every estimate check
ALL_CHECKS = {**GOOD, "grid": {"R_max": 25.0, "N": 300},
              "checks": ["hardy", "smoothing", "strichartz", "dimshift"]}


def write_scenario(tmp_path, payload, name="s.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_load_good_scenario(tmp_path):
    s = load_scenario(write_scenario(tmp_path, GOOD))
    assert s.n == 3 and s.k == 1
    assert s.support_radius == 6.0
    assert s.profile().kind == "hyperbolic"


def test_defaults_applied(tmp_path):
    minimal = {"manifold": {"kind": "flat"}, "target": {"kind": "sphere"},
               "n": 3, "k": 1}
    s = load_scenario(write_scenario(tmp_path, minimal))
    assert s.seed == 0
    assert s.delta0 == "search"
    assert s.grid["N"] == 4000


@pytest.mark.parametrize(
    "patch,exc",
    [
        ({"n": 2}, ScenarioError),
        ({"k": 0}, ScenarioError),
        ({"delta0": 1.5}, ScenarioError),
        ({"checks": ["nosuch"]}, ScenarioError),
        ({"data": {"shape": "triangle"}}, ScenarioError),
        ({"time": {"T": 30.0, "dt_factor": 0.1, "snap_every": 1.0}}, ScenarioError),
        ({"time": {"T": 8.0, "dt_factor": 0.9, "snap_every": 1.0}}, CFLViolation),
        ({"manifold": {"kind": "nosuch"}}, ScenarioError),
        ({"manifold": {"kind": "custom"}}, ScenarioError),
        ({"manifold": {"kind": "custom", "expr": ["pow", "r"]}}, ScenarioError),
        ({"manifold": {"kind": "custom", "expr": ["cutoff", "x"]}}, ScenarioError),
        # values of the wrong JSON type
        ({"data": "abc"}, ScenarioError),
        ({"manifold": "hyperbolic"}, ScenarioError),
        ({"grid": {"R_max": 25.0, "N": "x"}}, ScenarioError),
        ({"n": 3.5}, ScenarioError),
        ({"data": {"width": "w"}}, ScenarioError),
        ({"manifold": {"kind": "polynomial-growth", "M": "x"}}, ScenarioError),
        ({"seed": "x"}, ScenarioError),
        # values out of range
        ({"seed": -1}, ScenarioError),
        ({"grid": {"R_max": float("nan"), "N": 400}}, ScenarioError),
        ({"data": {"width": 0.0}}, ScenarioError),
        # h(0) = 0 and h'(0) = 1 fail, or h has no jet at r = 0
        ({"manifold": {"kind": "custom", "expr": 5}}, ScenarioError),
        ({"manifold": {"kind": "custom", "expr": ["*", 1.5, "r"]}}, ScenarioError),
        ({"manifold": {"kind": "custom", "expr": ["sqrt", "r"]}}, ScenarioError),
        ({"manifold": {"kind": "custom", "expr": ["/", 1, "r"]}}, ScenarioError),
        # no Gamma series at s = 0: g g' is not s + O(s^3), or g has no
        # jet at s = 0
        ({"target": {"kind": "custom", "expr": ["*", 2, "r"]}}, ScenarioError),
        ({"target": {"kind": "custom", "expr": ["+", "r", ["pow", "r", 2]]}},
         ScenarioError),
        ({"target": {"kind": "custom", "expr": ["sqrt", "r"]}}, ScenarioError),
        # a profile whose jet at 0 overflows
        ({"manifold": {"kind": "custom", "expr": ["*", "r", ["exp", 1000]]}},
         ScenarioError),
        ({"target": {"kind": "custom", "expr": ["*", "r", ["exp", 1000]]}},
         ScenarioError),
    ],
)
def test_validation_rejects(tmp_path, patch, exc):
    payload = {**GOOD, **patch}
    with pytest.raises(exc):
        load_scenario(write_scenario(tmp_path, payload))


@pytest.mark.parametrize(
    "target",
    [{"kind": "flat"}, {"kind": "sphere"}, {"kind": "hyperbolic"},
     {"kind": "custom", "expr": ["sin", "r"]}],
)
def test_targets_with_a_gamma_series_load(target):
    assert Scenario(**{**GOOD, "target": target}).target_profile().kind == target["kind"]


def test_readme_scenario_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    s = load_scenario(write_scenario(tmp_path, json.loads(block)))
    assert s.profile().kind == "hyperbolic"


def test_programming_errors_are_not_config_errors(monkeypatch):
    def broken(kind, **params):
        raise RuntimeError("bug in a profile factory")

    monkeypatch.setattr(equiwave.scenario, "metric_profile", broken)
    with pytest.raises(RuntimeError):
        Scenario(**GOOD)


def test_cost_guard_rejects_before_allocation(monkeypatch):
    def unreachable(kind, **params):
        raise RuntimeError("the guard must run before any profile is built")

    monkeypatch.setattr(equiwave.scenario, "metric_profile", unreachable)
    N = equiwave.scenario.MAX_GRID_POINTS
    too_large = [
        ({"grid": {"R_max": 25.0, "N": N + 1}}, "grid N"),
        ({"grid": {"R_max": 1e9, "N": 2},
          "time": {"T": 1e8, "dt_factor": 1e-9, "snap_every": 1.0}}, "step count"),
        # every step a stored snapshot of 16 N bytes
        ({"grid": {"R_max": 25.0, "N": N},
          "time": {"T": 8.0, "dt_factor": 0.1, "snap_every": 1e-6}}, "snapshots"),
    ]
    for patch, what in too_large:
        with pytest.raises(ScenarioError, match=f"{what}.*budget"):
            Scenario(**{**GOOD, **patch})


def test_cost_guard_admits_the_largest_run_in_use():
    # N = 4000, T = 50: 33,334 steps, the longest run of tests and benchmark
    readme = {**GOOD, "grid": {"R_max": 60.0, "N": 4000},
              "time": {"T": 50.0, "dt_factor": 0.1, "snap_every": 0.5}}
    assert Scenario(**readme).stepping[0] == 33334
    largest = {**GOOD, "grid": {"R_max": 25.0, "N": equiwave.scenario.MAX_GRID_POINTS}}
    Scenario(**largest)


def test_unknown_field_rejected(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(write_scenario(tmp_path, {**GOOD, "extra": 1}))


def test_bad_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_initial_data_zero_shape():
    import numpy as np

    s = Scenario(**{**GOOD, "data": {"shape": "zero"}})
    f, v = s.initial_data(np.linspace(0.01, 1.0, 5))
    assert np.all(f == 0) and np.all(v == 0)


# -- CLI ---------------------------------------------------------------------------


def test_cli_verify_pass(tmp_path):
    path = write_scenario(tmp_path, GOOD)
    out = tmp_path / "out"
    assert main(["verify", "--scenario", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "PASS"
    assert math.isclose(report["h_infinity"], 1.0, rel_tol=1e-8)


def test_cli_verify_fail_exit_1(tmp_path, capsys):
    payload = {**GOOD, "manifold": {"kind": "sin"}}
    path = write_scenario(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["verify", "--scenario", str(path), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "FAIL"
    # stderr names each failing condition with its witness and reason
    err = capsys.readouterr().err
    iii = next(c for c in report["conditions"] if c["name"] == "iii")
    assert iii["verdict"] == "FAIL" and iii["witness_r"] is not None
    line = next(ln for ln in err.splitlines() if ln.startswith("condition iii"))
    assert f"witness_r={iii['witness_r']}" in line
    assert iii["detail"]["reason"] in line


def test_cli_config_error_exit_2(tmp_path):
    assert main(["verify", "--scenario", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 2
    payload = {**GOOD, "time": {"T": 8.0, "dt_factor": 0.9, "snap_every": 1.0}}
    path = write_scenario(tmp_path, payload)
    assert main(["evolve", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    good = write_scenario(tmp_path, GOOD, name="good.json")
    assert main(["verify", "--scenario", str(good), "--out", str(good)]) == 2
    assert main(["verify", "--scenario", str(good), "--out", str(tmp_path / "o"),
                 "--seed", "-1"]) == 2
    # h = 5 is not a metric profile: h(0) = 0 and h'(0) = 1 fail
    flat5 = write_scenario(tmp_path, {**GOOD, "manifold": {"kind": "custom", "expr": 5}})
    assert main(["verify", "--scenario", str(flat5), "--out", str(tmp_path / "o")]) == 2
    # g(s) = 2s has no Gamma series; the solver would fail on its first step
    g2s = write_scenario(tmp_path, {**GOOD, "target": {"kind": "custom",
                                                       "expr": ["*", 2, "r"]}})
    assert main(["evolve", "--scenario", str(g2s), "--out", str(tmp_path / "o")]) == 2


def test_cli_numerical_error_exit_3(tmp_path):
    # amplitude far outside the sphere target domain trips the cubic term
    payload = {**GOOD,
               "data": {"shape": "gaussian", "amplitude": 80.0, "width": 1.0,
                        "center": 0.0}}
    path = write_scenario(tmp_path, payload)
    assert main(["evolve", "--scenario", str(path), "--out", str(tmp_path)]) == 3


def test_cli_reduce_and_estimates_past_the_overflow_of_h_squared(tmp_path):
    # sinh(r)^2 overflows past r ~ 355; the potential must stay finite there
    payload = {**ALL_CHECKS, "grid": {"R_max": 400.0, "N": 400}}
    path = write_scenario(tmp_path, payload)
    for cmd in ("reduce", "estimates"):
        assert main([cmd, "--scenario", str(path), "--out", str(tmp_path / cmd)]) == 0


def test_cli_non_finite_potential_exits_3(tmp_path, capsys):
    # sinh r overflows past r ~ 711, and V with it: a numerical error
    for checks in (["smoothing", "strichartz"], ["strichartz"]):
        payload = {**ALL_CHECKS, "grid": {"R_max": 800.0, "N": 300}, "checks": checks}
        path = write_scenario(tmp_path, payload)
        for cmd in ("reduce", "estimates"):
            assert main([cmd, "--scenario", str(path), "--out", str(tmp_path / cmd)]) == 3
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert "DomainError" in err and "not finite at r = 710.667" in err


def test_cli_all_artifacts_and_determinism(tmp_path):
    path = write_scenario(tmp_path, ALL_CHECKS)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["all", "--scenario", str(path), "--out", str(out_a)]) == 0
    assert main(["all", "--scenario", str(path), "--out", str(out_b)]) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    for artifact in ("report.json", "trajectory.csv", "spectrum.csv",
                     "ratios_hardy.csv", "ratios_smoothing.csv",
                     "ratios_strichartz.csv", "ratios_dimshift.csv"):
        assert (out_a / artifact).exists(), artifact
    header = (out_a / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,energy,sup,h_half_norm,strichartz_partial"


def _counting(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((name, kwargs))
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_cli_all_builds_each_operator_once(tmp_path, monkeypatch):
    # the reduced and the free operator are shared by every pipeline; no
    # pipeline computes an eigenvector, and `reduce` takes the one full
    # spectrum (the other solves find the lowest eigenvalue by bisection)
    eig, h_inf = [], []
    for name in ("eigh_tridiagonal", "eigvalsh_tridiagonal"):
        _counting(monkeypatch, scipy.linalg, name, eig)
    for module in (equiwave.admissibility, equiwave.reduction, equiwave.cli):
        _counting(monkeypatch, module, "estimate_h_infinity", h_inf)
    path = write_scenario(tmp_path, ALL_CHECKS)
    assert main(["all", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
    vectors = [kw for name, kw in eig
               if name == "eigh_tridiagonal" and not kw.get("eigvals_only")]
    full_spectra = [kw for _, kw in eig if kw.get("select", "a") == "a"]
    assert vectors == []
    assert len(full_spectra) == 1
    assert len(h_inf) <= 2


def test_cli_all_makes_no_eigenbasis_transform(tmp_path, monkeypatch):
    # the Strichartz monitor, the snapshot norms and the Strichartz trace
    # apply functions of the operator without its eigenbasis
    calls = []
    for name in ("coefficients", "from_coefficients"):
        _counting(monkeypatch, DiscreteRadialOperator, name, calls)
    path = write_scenario(tmp_path, ALL_CHECKS)
    assert main(["all", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
    assert calls == []


def test_cli_all_memory_stays_below_one_dense_matrix(tmp_path):
    # no pipeline holds an N x N array: at N = 2000 one is 8 N^2 = 32 MB
    N = 2000
    payload = {**ALL_CHECKS, "grid": {"R_max": 25.0, "N": N},
               "time": {"T": 4.0, "dt_factor": 0.1, "snap_every": 0.5}}
    path = write_scenario(tmp_path, payload)
    tracemalloc.start()
    try:
        assert main(["all", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * N * N


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.special, scipy.fft and scipy.sparse would add to every start-up
    code = ("import sys, equiwave.cli\n"
            "print(sorted(m for m in ('scipy.special', 'scipy.fft', 'scipy.sparse')"
            " if m in sys.modules))\n")
    src = str(Path(equiwave.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="thread count is read from /proc/self/status")
def test_equiwave_threads_caps_blas():
    code = (
        "import equiwave, numpy as np\n"
        "a = np.ones((300, 300)); a @ a\n"
        "status = open('/proc/self/status').read().splitlines()\n"
        "print(next(l.split()[1] for l in status if l.startswith('Threads:')))\n"
    )
    env = {key: val for key, val in os.environ.items()
           if key not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    src = str(Path(equiwave.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["EQUIWAVE_THREADS"] = "1"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"


def test_python_m_equiwave(tmp_path):
    src = str(Path(equiwave.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    for path, code in ((write_scenario(tmp_path, GOOD), 0), (bad, 2)):
        run = subprocess.run(
            [sys.executable, "-m", "equiwave", "verify", "--scenario", str(path),
             "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True)
        assert run.returncode == code, run.stderr


def test_cli_seed_override_changes_families(tmp_path):
    path = write_scenario(tmp_path, GOOD)
    out_a, out_b = tmp_path / "sa", tmp_path / "sb"
    main(["estimates", "--scenario", str(path), "--out", str(out_a), "--seed", "1"])
    main(["estimates", "--scenario", str(path), "--out", str(out_b), "--seed", "2"])
    ra = (out_a / "ratios_hardy.csv").read_text()
    rb = (out_b / "ratios_hardy.csv").read_text()
    assert ra != rb


def test_closed_forms_pass():
    report = emit_closed_forms()
    assert report["verdict"] == "PASS"
    assert report["polynomial_n3_M1"]["Q"] == pytest.approx([2.0, 16.0, 14.0], abs=1e-8)
    assert report["polynomial_n4_M2"]["Q"] == pytest.approx([15.0, 90.0, 99.0], abs=1e-8)


def test_closed_forms_tolerance_guard():
    with pytest.raises(ClosedFormMismatch):
        emit_closed_forms(tol=-1.0)  # impossible tolerance must trip
