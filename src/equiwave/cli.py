"""Command line entry point: run verification pipelines on a scenario
file and write deterministic JSON/CSV artifacts.

Commands: verify, reduce, estimates, evolve, all, closed-forms.
Exit codes: 0 all PASS, 1 a verdict FAILed, 2 configuration error,
3 numerical error.

`evolve` and `all` run the evolve stage on two processes: its phi run
is forked (solver._forked_run) before any other stage runs, so the
child carries none of their operators or spectra.  Meanwhile this
process runs verify, reduce and estimates; then it measures each block
of the child's fields as soon as the child has written it, by the
solver's one measurement of a run (solver._measured, as `integrate`
does), and it alone writes the artifacts.
An error of a stage of this process is raised first; one of the child
after them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

from .admissibility import _not_run, _verdict, compute_H, compute_P, estimate_h_infinity
from .errors import (
    CFLViolation,
    ClosedFormMismatch,
    EquiwaveError,
    NoLimit,
    ScenarioError,
    TruncationTooSmall,
)
from .estimates import (
    dimshift_check,
    gaussian_family,
    hardy_check,
    smoothing_check,
    strichartz_monitor,
)
from .profiles import metric_profile
from .reduction import indices
from .scenario import Scenario, load_scenario
from .solver import _forked_run, _measured
from .spectral import EIG_TOL


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)


# -- pipelines ---------------------------------------------------------------------

# the errors that mean the scenario's base is outside what a stage or a
# check takes, each with the reason that its not-run record gives
_NOT_RUN = {
    NoLimit: "no curvature limit h_inf",
    TruncationTooSmall: "grid too short for the smoothing frequencies",
}


def _or_not_run(body):
    """body, returning the not-run record of an error of _NOT_RUN.  A body
    reads h_inf before its other work, so no error of that work hides a
    missing limit."""
    @functools.wraps(body)
    def run(*args):
        try:
            return body(*args)
        except tuple(_NOT_RUN) as exc:
            return _not_run(f"{_NOT_RUN[type(exc)]}: {exc}")
    return run


def _all_pass(records) -> str:
    return "PASS" if all(r["verdict"] == "PASS" for r in records) else "FAIL"


def _graded(report: dict, bounds) -> dict:
    """report with its verdict: PASS if each of its bounds (name, value,
    held, relation, bound) held, else FAIL with a reason that names each
    broken one by the relation it broke, as "energy_drift 0.000135 > 0.0001"."""
    failed = [f"{name} {value:.3g} {relation} {bound:g}"
              for name, value, held, relation, bound in bounds if not held]
    return {**report, **_verdict("; ".join(failed) if failed else None)}


def run_verify(scenario: Scenario, out: Path) -> dict:
    return scenario.admissibility.to_json()


@_or_not_run
def run_reduce(scenario: Scenario, out: Path) -> dict:
    h_inf = scenario.h_infinity
    lam = scenario.reduced_operator.eigenvalues
    _write_csv(out / "spectrum.csv", ["index", "eigenvalue"],
               enumerate(lam.tolist()))
    n, k = scenario.n, scenario.k
    idx = {key: [v.numerator, v.denominator] if isinstance(v, Fraction) else v
           for key, v in indices(n, k).items()}
    low = float(lam[0])
    spectrum = {"min_eigenvalue": low, "max_eigenvalue": float(lam[-1]), "count": len(lam)}
    return _graded({"profile": scenario.profile().spec(), "n": n, "k": k, "m": n + 2 * k,
                    "h_infinity": h_inf, "indices": idx, "spectrum": spectrum},
                   [("min_eigenvalue", low, low > -EIG_TOL, "<", -EIG_TOL)])


# the frequencies of the smoothing check
_LAMBDA_GRID = [complex(re, im) for re in (0.0, 1.25, 2.5, 3.75, 5.0)
               for im in (0.2, 1.8, 3.4, 5.0)]


@_or_not_run
def _estimate(scenario: Scenario, out: Path, name: str) -> dict:
    """The record of the check `name`, with its ratios in ratios_<name>.csv."""
    n, k, seed = scenario.n, scenario.k, scenario.seed
    if name == "hardy":
        fam = gaussian_family(30, seed, r_power=1)
        rep = hardy_check(lambda r: r ** (1.0 - n), n, fam)
    elif name == "smoothing":
        delta0 = scenario.delta0
        if delta0 == "search":
            delta0 = scenario.admissibility.delta0
        if delta0 is None:  # the search of verify's condition iii found none
            return _not_run("no delta0 found for smoothing check")
        h_inf = scenario.h_infinity
        fam = gaussian_family(10, seed, r_power=k)
        rep = smoothing_check(
            scenario.profile(), n, k, float(delta0), _LAMBDA_GRID, fam,
            h_infinity=h_inf, R_max=float(scenario.grid["R_max"]), N=int(scenario.grid["N"]),
        )
    elif name == "strichartz":
        h_inf = scenario.h_infinity
        fams = gaussian_family(10, seed, r_power=2)
        fam = [tf.fn(scenario.radial_grid.nodes) for tf in fams]
        nu = h_inf if h_inf > 0 else 0.0
        # the diagonal pair (a, a) sits on the admissibility line for
        # every m; the monitor validates the pair exactly
        a = indices(n, k)["a"]
        rep = strichartz_monitor(scenario.reduced_operator, nu, (a, a), fam,
                                 free_op=scenario.free_operator)
    elif name == "dimshift":
        fam = gaussian_family(30, seed, r_power=k)
        rep = dimshift_check(n, k, 1.0, fam)
    _write_csv(out / f"ratios_{name}.csv", ["sample_id", "ratio"], rep.csv_rows())
    return rep.to_json()


def run_estimates(scenario: Scenario, out: Path) -> dict:
    results = {name: _estimate(scenario, out, name)
               for name in scenario.checks or ["hardy", "dimshift"]}
    results["verdict"] = _all_pass(results.values())
    return results


def run_evolve(scenario: Scenario, out: Path, evolve) -> dict:
    """The evolve stage from `evolve`, the (fields, values) of a
    solver._forked_run of the phi form, measured by solver._measured as
    the child writes each block, as integrate measures an in-process run."""
    trajectory = _measured(*evolve, scenario, "phi")
    _write_csv(
        out / "trajectory.csv",
        ["t", "energy", "sup", "h_half_norm", "strichartz_partial"],
        zip(trajectory.times, trajectory.energies, trajectory.sup_norms,
            trajectory.h_half_norms, trajectory.strichartz_partials),
    )
    # division by E(0) > 0 is monotone, so this max is max(|E - E0|) / E0
    drift = float(trajectory.energy_drift.max())
    sup0 = trajectory.sup_norms[0]
    sup_ratio = float(trajectory.sup_norms.max() / sup0) if sup0 > 0 else 0.0
    return _graded({
        "T": trajectory.times[-1],
        "snapshots": int(len(trajectory.times)),
        "energy_initial": float(trajectory.energies[0]),
        "energy_drift": drift,
        "sup_ratio": sup_ratio,
        "strichartz_trace": float(trajectory.strichartz_partials[-1]),
        "ball_radius": trajectory.meta["ball_radius"],
        "local_energy_final": float(trajectory.local_energies[-1]),
    }, [("sup_ratio", sup_ratio, sup_ratio <= 2.0, ">", 2.0),
        ("energy_drift", drift, drift <= 1e-4, ">", 1e-4)])


# -- closed-form reference values ----------------------------------------------------


def _rel_err(got: float, want: float) -> float:
    scale = max(abs(want), 1.0)
    return abs(got - want) / scale


def _sampled_H(label, profile, n, key, shift, closed_form, tol) -> list:
    """Rows {"r", key: H(r) - shift, "closed_form"} at four radii; raises
    ClosedFormMismatch where H(r) - shift and closed_form(n, r) disagree."""
    rows = []
    for r in (0.5, 1.0, 2.0, 5.0):
        got = compute_H(profile, n, r) - shift
        want = closed_form(n, r)
        if _rel_err(got, want) > tol:
            raise ClosedFormMismatch(f"{label} H n={n} r={r}: {got} vs {want}")
        rows.append({"r": r, key: got, "closed_form": want})
    return rows


def _checked_h_infinity(label, profile, n, tol) -> float:
    """h_inf of the profile; raises ClosedFormMismatch unless it is (n-1)^2/4."""
    h_inf, _ = estimate_h_infinity(profile, n)
    want = (n - 1) ** 2 / 4.0
    if _rel_err(h_inf, want) > tol:
        raise ClosedFormMismatch(f"{label} h_inf n={n}: {h_inf} vs {want}")
    return h_inf


def _exp_growth_H(n, r):
    x = 1.0 / (1.0 - np.exp(-r))  # e^r/(e^r - 1)
    return (n - 1) / 2.0 * x + (n - 1) * (n - 3) / 4.0 * x * x


# the families with a closed form of H: (label, profile kind, dimensions,
# whether h_inf = (n-1)^2/4 is checked and reported, the row key, and the
# closed form at (n, r) of H, or of H - h_inf for the key H_minus_h_inf)
_H_FAMILIES = (
    ("flat", "flat", (3, 4, 5), False, "H",
     lambda n, r: (n - 1) * (n - 3) / (4.0 * r * r)),
    ("hyperbolic", "hyperbolic", (3, 4, 5), True, "H_minus_h_inf",
     lambda n, r: (n - 1) * (n - 3) / (4.0 * np.sinh(r) ** 2)),
    ("exp", "exp-growth", (3, 4), True, "H", _exp_growth_H),
)


def emit_closed_forms(tol: float = 1e-8) -> dict:
    """Recompute every built-in closed-form quantity through the numeric
    pipeline and compare: flat and exponential H(r), hyperbolic h_inf and
    H - h_inf, and the polynomial-growth coefficients Q0, Q1, Q2 of
    16 r (1+sqrt(r))^2 P(r).  Raises ClosedFormMismatch on disagreement."""
    report = {}
    for label, kind, dims, limit, key, closed_form in _H_FAMILIES:
        profile = metric_profile(kind)
        for n in dims:
            h_inf = _checked_h_infinity(label, profile, n, tol) if limit else None
            shift = (n - 1) ** 2 / 4.0 if key == "H_minus_h_inf" else 0.0
            rows = _sampled_H(label, profile, n, key, shift, closed_form, tol)
            report[f"{label}_n{n}"] = (rows if h_inf is None
                                       else {"h_infinity": h_inf, "samples": rows})

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


def _summary_lines(report: dict, label: str, prefix: str):
    """A line with the verdict of report, labelled label, and of each
    record that it holds by key, labelled by the keys that lead to it
    after prefix; and for each failing record, held by key or in a list
    (where its name labels it), a line with its reason or its not_run."""
    def explained(record, title):
        return [f"{title:<28} {key}: {record[key]}" for key in ("reason", "not_run")
                if key in record]

    lines, listed = [], []
    for key, val in sorted(report.items()):
        if key == "verdict":
            lines += [f"{label:<28} {val}", *explained(report, label)]
        elif isinstance(val, dict) and "verdict" in val:
            lines += _summary_lines(val, f"{prefix}{key}", f"{prefix}{key}.")
        elif isinstance(val, list):
            listed += [line for record in val if isinstance(record, dict) and "verdict" in record
                       for line in explained(record, f"{prefix}{key}.{record['name']}")]
    return lines + listed


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
            names = list(PIPELINES) if args.command == "all" else [args.command]
            stages = {}
            # evolve starts first, in a child, and is collected last
            evolve = _forked_run(scenario, "phi") if "evolve" in names else nullcontext()
            with evolve as child:
                for name in names:
                    extra = (child,) if name == "evolve" else ()
                    try:
                        stages[name] = PIPELINES[name](scenario, out, *extra)
                    except (ScenarioError, CFLViolation):
                        raise
                    except EquiwaveError as exc:
                        # past a verify that rejects the base, a numerical
                        # error of a stage is the base's: the stage is not run
                        if stages.get("verify", {}).get("verdict") != "FAIL":
                            raise
                        stages[name] = _not_run(f"verify failed: {type(exc).__name__}: {exc}")
            report = (stages[args.command] if args.command != "all" else
                      {**stages, "verdict": _all_pass(stages.values())})
            report["scenario"] = scenario.to_json()
    except (ScenarioError, CFLViolation) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except EquiwaveError as exc:
        print(f"numerical error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3

    _write_json(out / "report.json", report)
    for line in _summary_lines(report, "result", ""):
        print(line, file=sys.stderr)
    return 0 if report.get("verdict") == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
