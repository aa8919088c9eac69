"""Command line entry point: run verification pipelines on a scenario
file and write deterministic JSON/CSV artifacts.

Commands: verify, reduce, estimates, evolve, all, closed-forms.
Exit codes: 0 all PASS, 1 a verdict FAILed, 2 configuration error,
3 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .admissibility import compute_H, compute_P, estimate_h_infinity
from .errors import CFLViolation, ClosedFormMismatch, EquiwaveError, ScenarioError
from .estimates import (
    dimshift_check,
    gaussian_family,
    hardy_check,
    smoothing_check,
    strichartz_monitor,
)
from .profiles import metric_profile
from .scenario import Scenario, load_scenario
from .solver import integrate, strichartz_trace


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)


# -- pipelines ---------------------------------------------------------------------


def run_verify(scenario: Scenario, out: Path) -> dict:
    report = scenario.admissibility
    payload = report.to_json()
    payload["verdict"] = "PASS" if report.admissible else "FAIL"
    return payload


def run_reduce(scenario: Scenario, out: Path) -> dict:
    lam = scenario.reduced_operator.eigenvalues
    _write_csv(out / "spectrum.csv", ["index", "eigenvalue"],
               enumerate(lam.tolist()))
    summary = scenario.reduced_problem.summary()
    summary["spectrum"] = {
        "min_eigenvalue": float(lam[0]),
        "max_eigenvalue": float(lam[-1]),
        "count": int(len(lam)),
    }
    summary["verdict"] = "PASS" if lam[0] > -1e-8 else "FAIL"
    return summary


def _default_lambda_grid():
    grid = []
    for re in (0.0, 1.25, 2.5, 3.75, 5.0):
        for im in (0.2, 1.8, 3.4, 5.0):
            grid.append(complex(re, im))
    return grid


def run_estimates(scenario: Scenario, out: Path) -> dict:
    profile = scenario.profile()
    n, k, seed = scenario.n, scenario.k, scenario.seed
    results = {}
    reports = []
    checks = scenario.checks or ["hardy", "dimshift"]
    for name in checks:
        if name == "hardy":
            fam = gaussian_family(30, seed, r_power=1)
            rep = hardy_check(lambda r: r ** (1.0 - n), n, fam)
        elif name == "smoothing":
            delta0 = scenario.delta0
            if delta0 == "search":
                delta0 = scenario.admissibility.delta0
            if delta0 is None:
                raise ScenarioError("no delta0 found for smoothing check")
            fam = gaussian_family(10, seed, r_power=k)
            rep = smoothing_check(
                profile, n, k, float(delta0), _default_lambda_grid(), fam,
                h_infinity=scenario.reduced_problem.h_infinity,
                R_max=float(scenario.grid["R_max"]), N=int(scenario.grid["N"]),
            )
        elif name == "strichartz":
            problem = scenario.reduced_problem
            fams = gaussian_family(10, seed, r_power=2)
            fam = [tf.fn(scenario.radial_grid.nodes) for tf in fams]
            idx = problem.indices
            nu = problem.h_infinity if problem.h_infinity > 0 else 0.0
            # the diagonal pair (a, a) sits on the admissibility line for
            # every m; the monitor validates the pair exactly
            rep = strichartz_monitor(scenario.reduced_operator, nu,
                                     (idx["a"], idx["a"]), fam,
                                     free_op=scenario.free_operator)
        elif name == "dimshift":
            fam = gaussian_family(30, seed, r_power=k)
            rep = dimshift_check(n, k, 1.0, fam)
        else:
            raise ScenarioError(f"unknown check {name!r}")
        _write_csv(out / f"ratios_{name}.csv", ["sample_id", "ratio"],
                   rep.csv_rows())
        results[name] = rep.to_json()
        reports.append(rep)
    results["verdict"] = "PASS" if all(r.passed for r in reports) else "FAIL"
    return results


def run_evolve(scenario: Scenario, out: Path) -> dict:
    trajectory = integrate(scenario, "phi")
    total, partials = strichartz_trace(trajectory, scenario, return_partials=True)
    _write_csv(
        out / "trajectory.csv",
        ["t", "energy", "sup", "h_half_norm", "strichartz_partial"],
        trajectory.csv_rows(partials.tolist()),
    )
    # division by E(0) > 0 is monotone, so this max is max(|E - E0|) / E0
    drift = float(trajectory.energy_drift.max())
    sup0 = trajectory.sup_norms[0]
    sup_ratio = float(trajectory.sup_norms.max() / sup0) if sup0 > 0 else 0.0
    bounded = sup0 == 0 or sup_ratio <= 2.0
    return {
        "T": trajectory.times[-1],
        "snapshots": int(len(trajectory.times)),
        "energy_initial": float(trajectory.energies[0]),
        "energy_drift": drift,
        "sup_ratio": sup_ratio,
        "strichartz_trace": total,
        "ball_radius": trajectory.meta["ball_radius"],
        "local_energy_final": float(trajectory.local_energies[-1]),
        "verdict": "PASS" if (bounded and drift <= 1e-4) else "FAIL",
    }


# -- closed-form reference values ----------------------------------------------------


def _rel_err(got: float, want: float) -> float:
    scale = max(abs(want), 1.0)
    return abs(got - want) / scale


def emit_closed_forms(tol: float = 1e-8) -> dict:
    """Recompute every built-in closed-form quantity through the numeric
    pipeline and compare: flat and exponential H(r), hyperbolic h_inf and
    H - h_inf, and the polynomial-growth coefficients Q0, Q1, Q2 of
    16 r (1+sqrt(r))^2 P(r).  Raises ClosedFormMismatch on disagreement."""
    report = {}
    radii = [0.5, 1.0, 2.0, 5.0]

    flat = metric_profile("flat")
    for n in (3, 4, 5):
        rows = []
        for r in radii:
            got = compute_H(flat, n, r)
            want = (n - 1) * (n - 3) / (4.0 * r * r)
            if _rel_err(got, want) > tol:
                raise ClosedFormMismatch(f"flat H n={n} r={r}: {got} vs {want}")
            rows.append({"r": r, "H": got, "closed_form": want})
        report[f"flat_n{n}"] = rows

    hyp = metric_profile("hyperbolic")
    for n in (3, 4, 5):
        h_inf, _ = estimate_h_infinity(hyp, n)
        want_inf = (n - 1) ** 2 / 4.0
        if _rel_err(h_inf, want_inf) > tol:
            raise ClosedFormMismatch(f"hyperbolic h_inf n={n}: {h_inf} vs {want_inf}")
        rows = []
        for r in radii:
            got = compute_H(hyp, n, r) - want_inf
            want = (n - 1) * (n - 3) / (4.0 * np.sinh(r) ** 2)
            if _rel_err(got, want) > tol:
                raise ClosedFormMismatch(f"hyperbolic H n={n} r={r}: {got} vs {want}")
            rows.append({"r": r, "H_minus_h_inf": got, "closed_form": want})
        report[f"hyperbolic_n{n}"] = {"h_infinity": h_inf, "samples": rows}

    expg = metric_profile("exp-growth")
    for n in (3, 4):
        h_inf, _ = estimate_h_infinity(expg, n)
        want_inf = (n - 1) ** 2 / 4.0
        if _rel_err(h_inf, want_inf) > tol:
            raise ClosedFormMismatch(f"exp h_inf n={n}: {h_inf} vs {want_inf}")
        rows = []
        for r in radii:
            got = compute_H(expg, n, r)
            x = 1.0 / (1.0 - np.exp(-r))  # e^r/(e^r - 1)
            want = (n - 1) / 2.0 * x + (n - 1) * (n - 3) / 4.0 * x * x
            if _rel_err(got, want) > tol:
                raise ClosedFormMismatch(f"exp H n={n} r={r}: {got} vs {want}")
            rows.append({"r": r, "H": got, "closed_form": want})
        report[f"exp_n{n}"] = {"h_infinity": h_inf, "samples": rows}

    for n, M, delta0 in ((3, 1, 0.5), (4, 2, 0.25)):
        poly = metric_profile("polynomial-growth", M=M)
        h_inf, _ = estimate_h_infinity(poly, n)
        rs = np.linspace(0.25, 4.0, 120)
        P, _ = compute_P(poly, n, delta0, rs, h_infinity=h_inf)
        lhs = 16.0 * rs * (1.0 + np.sqrt(rs)) ** 2 * P
        basis = np.stack([np.ones_like(rs), np.sqrt(rs), rs], axis=1)
        coef, *_ = np.linalg.lstsq(basis, lhs, rcond=None)
        resid = float(np.max(np.abs(basis @ coef - lhs)))
        want = (
            4.0 * (n - 2) ** 2 - 4.0 * delta0,
            2.0 * M * (n - 1) * (2 * n - 3) + 8.0 * (n - 2) ** 2 - 8.0 * delta0,
            (M * n + 2 * n - M - 4) ** 2 - 4.0 * delta0,
        )
        for i, (got, exp) in enumerate(zip(coef, want)):
            if _rel_err(float(got), exp) > tol:
                raise ClosedFormMismatch(
                    f"polynomial Q{i} (n={n}, M={M}, delta0={delta0}): "
                    f"{got} vs {exp}"
                )
        if resid > 1e-6:
            raise ClosedFormMismatch(
                f"polynomial fit residual {resid} (n={n}, M={M})"
            )
        report[f"polynomial_n{n}_M{M}"] = {
            "delta0": delta0,
            "Q": [float(c) for c in coef],
            "closed_form": list(want),
            "fit_residual": resid,
        }

    report["verdict"] = "PASS"
    return report


# -- driver ------------------------------------------------------------------------

PIPELINES = {
    "verify": run_verify,
    "reduce": run_reduce,
    "estimates": run_estimates,
    "evolve": run_evolve,
}


def _summary_lines(report: dict, prefix=""):
    """A line per verdict and per failing condition, with witness and reason."""
    lines = []
    for key, val in sorted(report.items()):
        if key == "verdict":
            lines.append(f"{prefix or 'result':<28} {val}")
        elif isinstance(val, dict) and "verdict" in val:
            lines.extend(_summary_lines(val, prefix=f"{prefix}{key}."))
    for cond in report.get("conditions", []):
        if cond["verdict"] == "FAIL":
            label = f"{prefix}condition {cond['name']}"
            lines.append(f"{label:<28} FAIL witness_r={cond['witness_r']} "
                         f"reason: {cond['detail'].get('reason')}")
    return lines


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="equiwave",
        description="verification pipelines for equivariant wave maps "
        "on rotationally symmetric manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "reduce", "estimates", "evolve", "all"):
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--seed", type=_seed, default=None)
    sub.add_parser("closed-forms").add_argument("--out", default=".")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"configuration error: cannot create --out: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "closed-forms":
            report = emit_closed_forms()
        else:
            scenario = load_scenario(args.scenario)
            if args.seed is not None:
                scenario.seed = args.seed
            if args.command == "all":
                report = {"scenario": scenario.to_json()}
                for name, fn in PIPELINES.items():
                    report[name] = fn(scenario, out)
                verdicts = [report[name].get("verdict") for name in PIPELINES]
                report["verdict"] = "PASS" if all(v == "PASS" for v in verdicts) else "FAIL"
            else:
                report = PIPELINES[args.command](scenario, out)
                report["scenario"] = scenario.to_json()
    except (ScenarioError, CFLViolation) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except EquiwaveError as exc:
        print(f"numerical error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3

    _write_json(out / "report.json", report)
    for line in _summary_lines(report):
        print(line, file=sys.stderr)
    return 0 if report.get("verdict") == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
