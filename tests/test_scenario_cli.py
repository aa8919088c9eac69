"""Scenario validation and the command line contract: artifacts, exit
codes, and determinism."""

import csv
import io
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import equiwave
import equiwave.admissibility
import equiwave.cli
import equiwave.reduction
import equiwave.scenario
import equiwave.solver
import equiwave.spectral
from equiwave.cli import emit_closed_forms, main
from equiwave.errors import BlowUp, CFLViolation, ClosedFormMismatch, ScenarioError
from equiwave.scenario import Scenario, load_scenario
from equiwave.solver import Trajectory, integrate, strichartz_trace

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
        # a key that the kind does not take, and a domain bound that is not
        # positive: each ran at the kind's defaults (a bound of 0 became pi)
        ({"manifold": {"kind": "sinh-perturbed", "amplitue": 0.5}}, ScenarioError),
        ({"manifold": {"kind": "flat", "M": 3}}, ScenarioError),
        ({"manifold": {"kind": "polynomial-growth", "eps": 0.1}}, ScenarioError),
        ({"manifold": {"kind": "custom", "expr": "r", "M": 1.0}}, ScenarioError),
        ({"manifold": {"kind": "hyperbolic", "domain_bound": 1.0}}, ScenarioError),
        ({"target": {"kind": "sphere", "radius": 2}}, ScenarioError),
        ({"target": {"kind": "flat", "expr": "r"}}, ScenarioError),
        ({"target": {"kind": "sphere", "domain_bound": 0}}, ScenarioError),
        ({"target": {"kind": "hyperbolic", "domain_bound": -1.0}}, ScenarioError),
        # a key that data, grid or time does not take: each ran at its default
        ({"data": {"shape": "gaussian", "amplitue": 0.5}}, ScenarioError),
        ({"grid": {"R_max": 25.0, "N": 300, "n": 5}}, ScenarioError),
        ({"time": {"T": 8.0, "dt_factor": 0.1, "snap_every": 1.0, "dt": 0.5}}, ScenarioError),
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


# h = r + 0.3 r^3 (1 + r^2)^-2, asymptotically flat: verify finds no delta0
BULGE = {**ALL_CHECKS, "grid": {"R_max": 60.0, "N": 1000},
         "manifold": {"kind": "custom", "expr": [
             "+", "r", ["*", 0.3, ["pow", "r", 3], ["pow", ["+", 1, ["*", "r", "r"]], -2]]]}}


def test_cli_smoothing_without_delta0_fails_with_a_report(tmp_path, capsys):
    # condition iii finds no delta0, so the smoothing check cannot run: it
    # fails as not run, the other checks run, and every command exits 1
    path = write_scenario(tmp_path, BULGE)
    not_run = {"verdict": "FAIL", "not_run": "no delta0 found for smoothing check"}
    reports = {}
    for cmd in ("verify", "estimates", "all"):
        out = tmp_path / cmd
        assert main([cmd, "--scenario", str(path), "--out", str(out)]) == 1
        reports[cmd] = json.loads((out / "report.json").read_text())
        assert reports[cmd]["verdict"] == "FAIL"
        err = capsys.readouterr().err
        if cmd != "verify":
            assert not (out / "ratios_smoothing.csv").exists()
            assert (out / "ratios_strichartz.csv").exists()
            prefix = "estimates." if cmd == "all" else ""
            assert f"{prefix}smoothing.not run" in err
            assert "reason: no delta0 found for smoothing check" in err
    iii = next(c for c in reports["verify"]["conditions"] if c["name"] == "iii")
    assert iii["verdict"] == "FAIL" and round(iii["witness_r"], 3) == 1.497
    for estimates in (reports["estimates"], reports["all"]["estimates"]):
        assert estimates["smoothing"] == not_run
        assert all(estimates[name]["verdict"] == "PASS"
                   for name in ("hardy", "strichartz", "dimshift"))
    assert [reports["all"][stage]["verdict"] for stage in equiwave.cli.PIPELINES] == [
        "FAIL", "PASS", "FAIL", "PASS"]


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
    # a bump centred at r = -10 is negligible on r >= 0 from 6 widths past
    # 0, not past -4: T = 33 breaks the budget of R_max = 30
    negative = write_scenario(tmp_path, {
        **GOOD, "grid": {"R_max": 30.0, "N": 300},
        "time": {"T": 33.0, "dt_factor": 0.1, "snap_every": 1.0},
        "data": {"shape": "gaussian", "amplitude": 0.05, "width": 1.0, "center": -10.0}})
    assert main(["verify", "--scenario", str(negative), "--out", str(tmp_path / "o")]) == 2


def test_cli_numerical_error_exit_3(tmp_path):
    # amplitude far outside the sphere target domain trips the cubic term
    payload = {**GOOD,
               "data": {"shape": "gaussian", "amplitude": 80.0, "width": 1.0,
                        "center": 0.0}}
    path = write_scenario(tmp_path, payload)
    assert main(["evolve", "--scenario", str(path), "--out", str(tmp_path)]) == 3


def test_cli_domain_exit_names_its_radius(tmp_path, capsys):
    # the data 8 r e^(-r^2) peak at r = 1/sqrt(2), above pi, the bound of
    # the sphere target; 0.725 is the grid node nearest the peak
    payload = {"manifold": {"kind": "flat"}, "target": {"kind": "sphere"},
               "n": 3, "k": 1, "grid": {"R_max": 10.0, "N": 200},
               "time": {"T": 2.0, "dt_factor": 0.1, "snap_every": 0.5},
               "data": {"shape": "gaussian", "amplitude": 8.0}}
    path = write_scenario(tmp_path, payload)
    assert main(["evolve", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == ("numerical error (DomainError): field 3.42888 "
                                       "left the target domain at t=0, r=0.725\n")


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


def test_cli_underflowing_operator_weights_exit_3(tmp_path, capsys):
    # at m = 123 the product rho_j rho_(j+1) of the weights r^(m-1)
    # underflows near r = 0, and the symmetrized off-diagonal is -inf there
    payload = {**GOOD, "k": 60, "grid": {"R_max": 6.0, "N": 600},
               "time": {"T": 2.0, "dt_factor": 0.1, "snap_every": 0.5},
               "data": {"shape": "zero"}, "checks": ["strichartz"]}
    path = write_scenario(tmp_path, payload)
    for cmd in ("reduce", "estimates", "evolve", "all"):
        assert main([cmd, "--scenario", str(path), "--out", str(tmp_path / cmd)]) == 3
        assert capsys.readouterr().err == ("numerical error (DomainError): symmetrized "
                                           "stencil is not finite at r = 0.01\n")


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


def _counting(monkeypatch, module, name, log):
    """Patch module.name to append a line per call to the file log: from
    this process and from the evolve child, which inherits the patch."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(json.dumps([name, kwargs.get("eigvals_only", False),
                                 kwargs.get("select", "a")]) + "\n")
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_cli_all_builds_each_operator_once(tmp_path, monkeypatch):
    # the reduced and the free operator are shared by every pipeline; no
    # pipeline computes an eigenvector, and `reduce` takes the one full
    # spectrum (the other solves of this process find the lowest eigenvalue
    # by bisection; the evolve child makes no eigensolve at all)
    eig, h_inf = tmp_path / "eig.log", tmp_path / "h_inf.log"
    for name in ("eigh_tridiagonal", "eigvalsh_tridiagonal"):
        _counting(monkeypatch, scipy.linalg, name, eig)
    for module in (equiwave.admissibility, equiwave.reduction, equiwave.cli):
        _counting(monkeypatch, module, "estimate_h_infinity", h_inf)
    path = write_scenario(tmp_path, ALL_CHECKS)
    assert main(["all", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
    eig_calls = [json.loads(line) for line in eig.read_text().splitlines()]
    vectors = [call for call in eig_calls
               if call[0] == "eigh_tridiagonal" and not call[1]]
    full_spectra = [call for call in eig_calls if call[2] == "a"]
    assert vectors == []
    assert len(full_spectra) == 1
    assert len(h_inf.read_text().splitlines()) <= 2


def test_cli_all_memory_stays_below_one_dense_matrix(tmp_path, monkeypatch):
    # no pipeline holds an N x N array: at N = 2000 one is 8 N^2 = 32 MB.
    # The evolve child inherits the tracing and logs its own peak before
    # it sends its last value, the trajectory
    N = 2000
    payload = {**ALL_CHECKS, "grid": {"R_max": 25.0, "N": N},
               "time": {"T": 4.0, "dt_factor": 0.1, "snap_every": 0.5}}
    path = write_scenario(tmp_path, payload)
    child_peak = tmp_path / "child_peak"
    snapshots = equiwave.solver._Run.snapshots

    def logging_peak(run, *args):
        for value in snapshots(run, *args):
            if isinstance(value, Trajectory):
                child_peak.write_text(str(tracemalloc.get_traced_memory()[1]))
            yield value

    monkeypatch.setattr(equiwave.solver._Run, "snapshots", logging_peak)
    tracemalloc.start()
    try:
        assert main(["all", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(peak, int(child_peak.read_text())) < 8 * N * N


# -- the evolve stage on two processes ------------------------------------------------

# 33 snapshots: the child's H^(1/2) norms span three blocks
EVOLVE = {**GOOD, "grid": {"R_max": 25.0, "N": 300},
          "time": {"T": 8.0, "dt_factor": 0.1, "snap_every": 0.25}}


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(header)
    wr.writerows(rows)
    return buf.getvalue()


def test_cli_evolve_matches_an_in_process_run(tmp_path):
    path = write_scenario(tmp_path, EVOLVE)
    out = tmp_path / "o"
    assert main(["evolve", "--scenario", str(path), "--out", str(out)]) == 0
    assert multiprocessing.active_children() == []
    scenario = load_scenario(path)
    tr = integrate(scenario, "phi")
    total, partials = strichartz_trace(tr, scenario, return_partials=True)
    header = ["t", "energy", "sup", "h_half_norm", "strichartz_partial"]
    want = _csv_text(header, zip(tr.times, tr.energies, tr.sup_norms, tr.h_half_norms,
                                 partials.tolist()))
    assert (out / "trajectory.csv").read_bytes().decode() == want
    report = json.loads((out / "report.json").read_text())
    assert report["snapshots"] == len(tr.times) == 33
    assert report["strichartz_trace"] == total
    assert report["energy_drift"] == float(tr.energy_drift.max())
    assert report["local_energy_final"] == float(tr.local_energies[-1])
    assert report["verdict"] == "PASS" and "reason" not in report


def test_cli_evolve_blowup_in_the_child_exits_3(tmp_path, monkeypatch, capsys):
    # a ceiling below the initial sup: the forked run raises BlowUp at t = 0
    monkeypatch.setattr(equiwave.solver, "BLOWUP_FACTOR", 0.5)
    path = write_scenario(tmp_path, EVOLVE)
    with pytest.raises(BlowUp) as exc:
        integrate(load_scenario(path), "phi", spectral_diagnostics=False)
    for cmd in ("evolve", "all"):
        out = tmp_path / cmd
        assert main([cmd, "--scenario", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"numerical error (BlowUp): {exc.value}\n"
        assert not (out / "trajectory.csv").exists()
        assert not (out / "report.json").exists()
        assert multiprocessing.active_children() == []


def _failing_estimates(exc):
    def run_estimates(scenario, out):
        raise exc
    return run_estimates


def test_cli_all_raises_a_parent_stage_error_first(tmp_path, monkeypatch, capsys):
    # evolve fails at once, but the error of estimates, which the parent
    # runs first, sets the exit code
    monkeypatch.setattr(equiwave.solver, "BLOWUP_FACTOR", 0.5)
    monkeypatch.setitem(equiwave.cli.PIPELINES, "estimates",
                        _failing_estimates(ScenarioError("no estimates")))
    path = write_scenario(tmp_path, EVOLVE)
    out = tmp_path / "o"
    assert main(["all", "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "configuration error: no estimates\n"
    assert not (out / "trajectory.csv").exists()
    assert not (out / "report.json").exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("exc", [ScenarioError("no estimates"), KeyboardInterrupt()],
                         ids=["config-error", "interrupt"])
def test_cli_all_terminates_the_evolve_child_on_a_parent_error(tmp_path, monkeypatch,
                                                               exc):
    def slow_snapshots(run, fields, velocities):
        time.sleep(60.0)
        yield 1

    monkeypatch.setattr(equiwave.solver._Run, "snapshots", slow_snapshots)
    monkeypatch.setitem(equiwave.cli.PIPELINES, "estimates", _failing_estimates(exc))
    argv = ["all", "--scenario", str(write_scenario(tmp_path, EVOLVE)),
            "--out", str(tmp_path / "o")]
    t0 = time.monotonic()
    if isinstance(exc, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == 2
    assert time.monotonic() - t0 < 30.0  # the sleeping child was terminated
    assert multiprocessing.active_children() == []


def _artifacts(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_cli_evolve_child_makes_no_spectral_solve(tmp_path, monkeypatch):
    # the child only steps; every solve (LAPACK, through spectral._linalg)
    # of the evolve stage is made by this process, with the same bits
    path = write_scenario(tmp_path, EVOLVE)
    for cmd in ("evolve", "all"):
        assert main([cmd, "--scenario", str(path), "--out", str(tmp_path / "a" / cmd)]) == 0
    pid, linalg = os.getpid(), equiwave.spectral._linalg

    def parent_only():
        if os.getpid() != pid:
            raise AssertionError("the evolve child made a spectral solve")
        return linalg()

    monkeypatch.setattr(equiwave.spectral, "_linalg", parent_only)
    for cmd in ("evolve", "all"):
        out = tmp_path / "b" / cmd
        assert main([cmd, "--scenario", str(path), "--out", str(out)]) == 0
        assert _artifacts(out) == _artifacts(tmp_path / "a" / cmd)
    assert multiprocessing.active_children() == []


def test_cli_evolve_child_never_waits_on_the_parent(tmp_path, monkeypatch):
    # 52 snapshots of 600 points, four blocks of up to 77 KB, more than a pipe
    # holds: the child writes its last column while estimates still sleeps
    payload = {**EVOLVE, "grid": {"R_max": 25.0, "N": 600},
               "time": {"T": 4.0, "dt_factor": 0.1, "snap_every": 0.08}}
    assert Scenario(**payload).snapshot_count == 52
    log = tmp_path / "times.log"
    snapshots, run_estimates = equiwave.solver._Run.snapshots, equiwave.cli.run_estimates

    def logging_blocks(run, *args):
        for value in snapshots(run, *args):
            if not isinstance(value, Trajectory):  # a block was just written
                with open(log, "a") as fh:
                    fh.write(f"child {time.monotonic()!r}\n")
            yield value

    def slow_estimates(scenario, out):
        report = run_estimates(scenario, out)
        time.sleep(1.0)
        with open(log, "a") as fh:
            fh.write(f"estimates {time.monotonic()!r}\n")
        return report

    monkeypatch.setattr(equiwave.solver._Run, "snapshots", logging_blocks)
    monkeypatch.setitem(equiwave.cli.PIPELINES, "estimates", slow_estimates)
    path = write_scenario(tmp_path, payload)
    assert main(["all", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
    times = [line.split() for line in log.read_text().splitlines()]
    child = [float(t) for who, t in times if who == "child"]
    (estimates,) = [float(t) for who, t in times if who == "estimates"]
    assert len(child) == 4
    assert max(child) < estimates
    assert multiprocessing.active_children() == []


def test_cli_evolve_child_failing_mid_run_exits_3(tmp_path, monkeypatch, capsys):
    # the force turns NaN after 600 of the 961 calls, between the first
    # and the second block of snapshots (one per 30 steps)
    bind = equiwave.solver._Discretization.bind
    calls = []

    def failing(disc, u):
        measure, force = bind(disc, u)

        def failing_force():
            calls.append(None)
            out = force()
            return out if len(calls) <= 600 else np.full_like(out, np.nan)

        return measure, failing_force

    monkeypatch.setattr(equiwave.solver._Discretization, "bind", failing)
    path = write_scenario(tmp_path, EVOLVE)
    with pytest.raises(BlowUp) as exc:
        integrate(load_scenario(path), "phi", spectral_diagnostics=False)
    # snapshot 15, the end of the first block, is at step 450; 31 at 930
    assert 450 < exc.value.t / (8.0 / 960) < 930
    for cmd in ("evolve", "all"):
        calls.clear()  # the child inherits the count at the fork
        out = tmp_path / cmd
        assert main([cmd, "--scenario", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"numerical error (BlowUp): {exc.value}\n"
        assert not (out / "trajectory.csv").exists()
        assert not (out / "report.json").exists()
        assert multiprocessing.active_children() == []
    assert list((tmp_path / "evolve").iterdir()) == []


def test_cli_evolve_child_killed_exits_3(tmp_path, capsys,
                                        child_killed_at_the_fourth_snapshot):
    # a child that dies without sending (killed, out of memory) is a
    # numerical error that names its exit code, not an EOFError
    path = write_scenario(tmp_path, EVOLVE)
    for cmd in ("evolve", "all"):
        out = tmp_path / cmd
        assert main([cmd, "--scenario", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"numerical error (EquiwaveError): the forked child ended with exit code "
            f"{-signal.SIGKILL} before sending a value\n")
        assert not (out / "trajectory.csv").exists()
        assert not (out / "report.json").exists()
        assert multiprocessing.active_children() == []


def test_cli_evolve_child_error_that_cannot_be_pickled_exits_3(tmp_path, capfd, monkeypatch):
    # an exception of the child that holds a lock cannot be pickled: the
    # child sends its type name and message, and prints no traceback
    class Bad(Exception):
        def __init__(self, message):
            super().__init__(message)
            self.lock = threading.Lock()

    record, pid = equiwave.solver._Run._record, os.getpid()

    def failing_record(run, t):
        if os.getpid() != pid and len(run.times) == 3:
            raise Bad("original message")
        return record(run, t)

    monkeypatch.setattr(equiwave.solver._Run, "_record", failing_record)
    path = write_scenario(tmp_path, EVOLVE)
    out = tmp_path / "o"
    assert main(["evolve", "--scenario", str(path), "--out", str(out)]) == 3
    assert capfd.readouterr().err == (
        "numerical error (EquiwaveError): Bad: original message\n")
    assert not (out / "trajectory.csv").exists()
    assert multiprocessing.active_children() == []


def test_cli_evolve_fail_prints_its_reason(tmp_path, capsys):
    # amplitude 0.5 on a coarse grid: the energy drifts past its bound
    payload = {**GOOD, "manifold": {"kind": "flat"}, "grid": {"R_max": 25.0, "N": 200},
               "data": {**GOOD["data"], "amplitude": 0.5}}
    path = write_scenario(tmp_path, payload)
    assert main(["evolve", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["verdict"] == "FAIL"
    assert report["reason"] == "energy_drift 0.000135 > 0.0001"
    assert capsys.readouterr().err == (
        "result                       FAIL\n"
        "result                       reason: energy_drift 0.000135 > 0.0001\n")


def _python(code: str, *args: str, env_vars=None) -> str:
    """Standard output of ``python -c code args`` with this checkout's
    equiwave first on the path and env_vars set (unset where None)."""
    src = str(Path(equiwave.__file__).resolve().parents[1])
    env = dict(os.environ)
    for key, val in (env_vars or {}).items():
        if val is None:
            env.pop(key, None)
        else:
            env[key] = val
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # each of these would add to every start-up; scipy.linalg, the largest,
    # is imported on the first solve, multiprocessing by the fork helper
    code = ("import sys, equiwave.cli\n"
            "print(sorted(m for m in ('scipy.linalg', 'scipy.special', 'scipy.fft',"
            " 'scipy.sparse', 'multiprocessing') if m in sys.modules))\n")
    assert _python(code) == "[]"


def test_cli_loads_lapack_only_to_solve(tmp_path):
    # verify, closed-forms and the hardy and dimshift estimates make no
    # solve, so they never import scipy.linalg; reduce does
    path = write_scenario(tmp_path, {**GOOD, "checks": ["hardy", "dimshift"]})
    scenario, out = ["--scenario", str(path)], ["--out", str(tmp_path / "o")]
    runs = [["verify", *scenario, *out], ["closed-forms", *out],
            ["estimates", *scenario, *out], ["reduce", *scenario, *out]]
    code = ("import json, sys\n"
            "from equiwave.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    code = main(argv)\n"
            "    print(argv[0], code, 'scipy.linalg' in sys.modules)\n")
    assert _python(code, json.dumps(runs)).splitlines() == [
        "verify 0 False", "closed-forms 0 False", "estimates 0 False", "reduce 0 True"]


def test_solver_without_spectral_diagnostics_never_loads_lapack():
    # the phi/psi consistency check, the evolve child and a run without
    # diagnostics make no solve; importing scipy.linalg would cost each of
    # them about 0.3 s and 27 MB
    code = ("import json, sys\n"
            "from equiwave.scenario import Scenario\n"
            "from equiwave.solver import _Run, consistency_check, integrate\n"
            "import numpy as np\n"
            "s = Scenario(**json.loads(sys.argv[1]))\n"
            "consistency_check(s)\n"
            "list(_Run(s, 'phi').snapshots(np.empty((s.radial_grid.N, s.snapshot_count)), None))\n"
            "for form in ('phi', 'psi'):\n"
            "    integrate(s, form, spectral_diagnostics=False)\n"
            "print('scipy.linalg' in sys.modules)\n")
    assert _python(code, json.dumps(GOOD)) == "False"


_THREADS = ("status = open('/proc/self/status').read().splitlines()\n"
            "print(next(l.split()[1] for l in status if l.startswith('Threads:')))\n")
# EQUIWAVE_THREADS alone, with no explicit BLAS thread variable
_CAPPED = {"EQUIWAVE_THREADS": "1", "OMP_NUM_THREADS": None,
           "OPENBLAS_NUM_THREADS": None, "MKL_NUM_THREADS": None}


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="thread count is read from /proc/self/status")
def test_equiwave_threads_caps_blas():
    code = "import equiwave, numpy as np\na = np.ones((300, 300)); a @ a\n" + _THREADS
    assert _python(code, env_vars=_CAPPED) == "1"


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="thread count is read from /proc/self/status")
def test_equiwave_threads_caps_lapack_loaded_on_first_solve():
    # scipy's own BLAS loads with scipy.linalg, after equiwave set the cap
    code = ("import sys, equiwave\n"
            "from equiwave.spectral import RadialGrid, build_operator\n"
            "print('scipy.linalg' in sys.modules)\n"
            "build_operator(RadialGrid(10.0, 50), 5).eigenvalues\n" + _THREADS)
    assert _python(code, env_vars=_CAPPED).splitlines() == ["False", "1"]


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


@pytest.mark.parametrize("patched, kind, message", [
    ("compute_H", "flat", "flat H n=4 r=0.5: "),  # H = 0 at n = 3
    ("compute_H", "hyperbolic", "hyperbolic H n=3 r=0.5: "),
    ("compute_H", "exp-growth", "exp H n=3 r=0.5: "),
    ("estimate_h_infinity", "hyperbolic", "hyperbolic h_inf n=3: "),
    ("estimate_h_infinity", "exp-growth", "exp h_inf n=3: "),
    ("compute_P", "polynomial-growth", "polynomial Q0 (n=3, M=1, delta0=0.5): "),
])
def test_closed_forms_name_the_family_that_mismatches(monkeypatch, patched, kind, message):
    # one pipeline value of one family off by a relative 1e-6, far above
    # the tolerance: the mismatch raised is that family's own
    real = getattr(equiwave.cli, patched)

    def off(profile, *args, **kwargs):
        value = real(profile, *args, **kwargs)
        if profile.kind != kind:
            return value
        if isinstance(value, tuple):
            return (value[0] * (1.0 + 1e-6),) + value[1:]
        return value * (1.0 + 1e-6)

    monkeypatch.setattr(equiwave.cli, patched, off)
    with pytest.raises(ClosedFormMismatch) as exc:
        emit_closed_forms()
    assert str(exc.value).startswith(message)
