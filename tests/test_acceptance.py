"""Acceptance gate: ten numbered criteria, each printing one PASS/FAIL
line with its measured quantity.  Tolerances are part of the contract
and must not be loosened."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from _baselines import (
    REGRESSION_WINDOW,
    STRICHARTZ_FLAT,
    STRICHARTZ_FREE,
    STRICHARTZ_HYPERBOLIC_KG,
)
from equiwave.admissibility import check_admissibility, compute_H
from equiwave.cli import emit_closed_forms
from equiwave.estimates import (
    dimshift_check,
    gaussian_family,
    hardy_check,
    smoothing_check,
    strichartz_monitor,
)
from equiwave.profiles import metric_profile
from equiwave.reduction import compute_V, indices
from equiwave.scenario import Scenario
from equiwave.solver import WaveState, consistency_check, integrate
from _dense import evolve_linear
from equiwave.spectral import RadialGrid, build_operator, resolve

ALL_PROFILES = [
    "flat",
    "hyperbolic",
    "sinh-perturbed",
    "polynomial-growth",
    "smoothed-polynomial",
    "exp-growth",
    "smoothed-exponential",
    "sin",
]


def report(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_closed_forms():
    t0 = time.perf_counter()
    out = emit_closed_forms(tol=1e-8)
    elapsed = time.perf_counter() - t0
    ok = out["verdict"] == "PASS" and elapsed < 5.0
    report(1, ok, f"closed forms reproduced to 1e-8, {elapsed:.2f}s")


def test_criterion_2_admissibility_verdicts():
    t0 = time.perf_counter()
    verdicts = {}
    for kind in ("flat", "hyperbolic", "smoothed-polynomial", "sinh-perturbed"):
        for n in (3, 4, 5) if kind in ("flat", "hyperbolic") else (3,):
            rep = check_admissibility(metric_profile(kind), n)
            verdicts[f"{kind}-n{n}"] = rep.admissible
    sin_rep = check_admissibility(metric_profile("sin"), 3)
    witness = any(
        v.witness_r is not None
        for v in (sin_rep.cond_i, sin_rep.cond_ii, sin_rep.cond_iii)
        if not v.passed
    )
    elapsed = time.perf_counter() - t0
    ok = all(verdicts.values()) and not sin_rep.admissible and witness and elapsed < 30.0
    report(2, ok, f"{len(verdicts)} PASS verdicts, sin FAILs with witness, {elapsed:.1f}s")


def test_criterion_3_H_formula_consistency():
    # compute_H evaluates both forms internally and raises at 1e-10
    # relative disagreement; 50 radii per profile
    for kind in ALL_PROFILES:
        # sin r turns negative past pi, so probe it on (0, 3) only
        radii = np.geomspace(1e-3, 3.0 if kind == "sin" else 50.0, 50)
        profile = metric_profile(kind)
        for n in (3, 5):
            for r in radii:
                val = compute_H(profile, n, float(r), tol=1e-10)
                assert math.isfinite(val)
    report(3, True, f"two H formulas agree to 1e-10 over {len(radii)} radii x "
                    f"{len(ALL_PROFILES)} profiles")


def test_criterion_4_hardy_constant():
    analytic = [
        type("T", (), {
            "id": "analytic",
            "fn": staticmethod(lambda r: r * np.exp(-r)),
            "dfn": staticmethod(lambda r: (1.0 - r) * np.exp(-r)),
        })
    ]
    sups, errs = [], []
    for n in (3, 5):
        fam = gaussian_family(30, 0, r_power=1)
        rep = hardy_check(lambda r: r ** (1.0 - n), n, fam)
        sups.append(rep.sup_ratio)
        rep_a = hardy_check(lambda r: r ** (1.0 - n), n, analytic, Nq=40000)
        errs.append(abs(rep_a.ratios[0] - 0.5))
    ok = max(sups) <= 1.0 and max(errs) < 1e-6
    report(4, ok, f"sup ratio {max(sups):.4f} <= 1, analytic sample error "
                  f"{max(errs):.2e} < 1e-6")


def test_criterion_5_smoothing_constant():
    t0 = time.perf_counter()
    lam_grid = [complex(re, im)
                for re in np.linspace(0.0, 5.0, 5)
                for im in np.linspace(0.2, 5.0, 4)]
    fam = gaussian_family(10, 0, r_power=1)
    results = []
    for kind, h_inf in (("flat", 0.0), ("hyperbolic", 1.0)):
        profile = metric_profile(kind)
        delta0 = check_admissibility(profile, 3).delta0
        rep = smoothing_check(profile, 3, 1, delta0, lam_grid, fam,
                              h_infinity=h_inf, R_max=60.0, N=4000)
        results.append((kind, delta0, rep.sup_ratio, rep.passed))
    elapsed = time.perf_counter() - t0
    ok = all(r[3] for r in results) and elapsed < 180.0
    detail = ", ".join(f"{k}: sup {s:.3f} <= {4/d*1.1:.2f}" for k, d, s, _ in results)
    report(5, ok, f"{detail}, {elapsed:.0f}s")


def test_criterion_6_resolvent_convergence():
    kappa = 1.0 + 1.0j
    errs = []
    for N in (1000, 2000, 4000):
        grid = RadialGrid(30.0, N)
        r = grid.nodes
        u = np.exp(-(r**2))
        f = (4.0 * r**2 - 10.0) * u + kappa**2 * u
        errs.append(np.max(np.abs(resolve(kappa, f, build_operator(grid, 5)) - u)))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = abs(r1 - 4.0) <= 0.6 and abs(r2 - 4.0) <= 0.6
    report(6, ok, f"max-error ratios {r1:.2f}, {r2:.2f} within 4 +- 15%")


def test_criterion_7_strichartz_regression_and_indices():
    grid = RadialGrid(60.0, 2000)
    free = build_operator(grid, 5)
    fam = [tf.fn(grid.nodes) for tf in gaussian_family(10, 0, r_power=2)]
    sup_free = strichartz_monitor(free, 0.0, (3, 3), fam, free_op=free).sup_ratio
    op_flat = build_operator(grid, 5, compute_V(metric_profile("flat"), 3, 1, grid.nodes) - 0.0)
    sup_flat = strichartz_monitor(op_flat, 0.0, (3, 3), fam, free_op=free).sup_ratio
    op_hyp = build_operator(grid, 5, compute_V(metric_profile("hyperbolic"), 3, 1, grid.nodes) - 1.0)
    sup_hyp = strichartz_monitor(op_hyp, 1.0, (3, 3), fam, free_op=free).sup_ratio
    within = all(
        math.isfinite(s) and abs(s - b) <= REGRESSION_WINDOW * b
        for s, b in ((sup_free, STRICHARTZ_FREE), (sup_flat, STRICHARTZ_FLAT),
                     (sup_hyp, STRICHARTZ_HYPERBOLIC_KG))
    )
    # exact rational identities for the published index pairs
    exact = True
    for n, k in ((3, 1), (4, 1), (3, 2)):
        idx = indices(n, k)
        m = idx["m"]
        exact &= idx["p"] == Fraction(4 * (m + 1), m + 3)
        exact &= idx["q"] == Fraction(4 * m * (m + 1), 2 * m * m - m - 5)
        a = idx["a"]
        exact &= Fraction(2) / a + Fraction(m - 1) / a == Fraction(m - 1, 2)
        exact &= Fraction(1) / idx["q"] <= Fraction(1, 2) - Fraction(2, m - 1) / idx["p"]
    ok = within and exact
    report(7, ok, f"sup ratios free {sup_free:.4f} / flat {sup_flat:.4f} / "
                  f"KG {sup_hyp:.4f} within +-20% of baselines; index "
                  f"identities exact in rationals")


def test_criterion_8_dimension_shift():
    fam = gaussian_family(30, 0, r_power=1)
    rep0 = dimshift_check(3, 1, 0.0, fam)
    err0 = float(np.max(np.abs(np.array(rep0.ratios) - 1.0)))
    rep1 = dimshift_check(3, 1, 1.0, fam)
    spread = rep1.detail["log_ratio_spread"]
    ok = err0 <= 1e-12 and spread <= 1.0
    report(8, ok, f"s=0 identity error {err0:.1e} <= 1e-12, s=1 log-ratio "
                  f"spread {spread:.3f} <= 1.0")


def _global_run_scenario(manifold):
    return Scenario(
        "acceptance", {"kind": manifold}, {"kind": "sphere"}, 3, 1, 0.5,
        {"R_max": 60.0, "N": 4000},
        {"T": 50.0, "dt_factor": 0.1, "snap_every": 1.0},
        {"shape": "gaussian", "amplitude": 0.05, "width": 1.0, "center": 0.0},
    )


def test_criterion_9_small_data_global_runs():
    details = []
    ok = True
    for manifold in ("flat", "hyperbolic"):
        t0 = time.perf_counter()
        s = _global_run_scenario(manifold)
        tr = integrate(s, "phi", spectral_diagnostics=False)
        drift = float(np.max(np.abs(tr.energies - tr.energies[0])) / tr.energies[0])
        sup_ratio = float(tr.sup_norms.max() / tr.sup_norms[0])
        fs = tr.final_state
        back = WaveState(0.0, fs.field.copy(), -fs.velocity, "phi")
        tr2 = integrate(s, "phi", initial_state=back,
                        spectral_diagnostics=False, ceiling=math.inf)
        phi0, phi1 = s.initial_data(RadialGrid(60.0, 4000).nodes)
        rev = max(
            float(np.max(np.abs(tr2.final_state.field - phi0))),
            float(np.max(np.abs(-tr2.final_state.velocity - phi1))),
        )
        elapsed = time.perf_counter() - t0
        run_ok = (sup_ratio <= 2.0 and drift <= 1e-5 and rev <= 1e-8
                  and elapsed < 300.0)
        ok &= run_ok
        details.append(f"{manifold}: sup x{sup_ratio:.2f}, drift {drift:.1e}, "
                       f"reversal {rev:.1e}, {elapsed:.0f}s")
    report(9, ok, "; ".join(details))


def test_criterion_10_formulation_consistency():
    # phi- vs psi-solver at N=4000 with second-order decay
    def scen(N):
        return Scenario(
            "consistency", {"kind": "hyperbolic"}, {"kind": "sphere"}, 3, 1, 0.5,
            {"R_max": 30.0, "N": N},
            {"T": 10.0, "dt_factor": 0.1, "snap_every": 1.0},
            {"shape": "gaussian", "amplitude": 0.05, "width": 1.0, "center": 0.0},
        )

    mis_2000 = consistency_check(scen(2000))["mismatch"]
    mis_4000 = consistency_check(scen(4000))["mismatch"]
    ratio = mis_2000 / mis_4000
    # linear flat case against the spectral propagator
    lin_errs = []
    for N in (500, 1000):
        s = Scenario(
            "linear", {"kind": "flat"}, {"kind": "flat"}, 3, 1, 0.5,
            {"R_max": 30.0, "N": N},
            {"T": 8.0, "dt_factor": 0.25, "snap_every": 2.0},
            {"shape": "gaussian", "amplitude": 0.05, "width": 1.0, "center": 3.0},
        )
        tr = integrate(s, "psi", spectral_diagnostics=False)
        grid = RadialGrid(30.0, N)
        op = build_operator(grid, 5)
        phi0, phi1 = s.initial_data(grid.nodes)
        ref = evolve_linear(op, phi0 / grid.nodes, phi1 / grid.nodes, 0.0,
                            tr.times[-1])
        lin_errs.append(float(np.max(np.abs(tr.final_state.field - ref))))
    lin_ratio = lin_errs[0] / lin_errs[1]
    ok = (mis_4000 <= 1e-4 and 2.5 <= ratio <= 6.0
          and lin_errs[1] < 1e-5 and 2.5 <= lin_ratio <= 6.0)
    report(10, ok, f"mismatch {mis_4000:.2e} <= 1e-4 (refinement ratio "
                   f"{ratio:.2f}), linear-vs-spectral error {lin_errs[1]:.2e} "
                   f"(ratio {lin_ratio:.2f})")


def test_small_data_scaling_oracle():
    # Beside the gate, not a numbered criterion.  The Strichartz trace of a
    # small-data run tends to that of the linear flow (flat target,
    # g g' = s) as the amplitude eps -> 0.  The remainder is cubic, so the
    # relative gap is O(eps^2): halving eps divides it by 4.
    def trace(base, n, k, target, eps):
        s = Scenario(
            "scaling", {"kind": base}, {"kind": target}, n, k, 0.5,
            {"R_max": 30.0, "N": 500},
            {"T": 15.0, "dt_factor": 0.1, "snap_every": 0.5},
            {"shape": "gaussian", "amplitude": eps, "width": 1.0, "center": 0.0},
        )
        return integrate(s, "phi").strichartz_partials[-1]

    details = []
    ok = True
    for base, n, k in (("flat", 3, 1), ("hyperbolic", 3, 1), ("hyperbolic", 4, 1),
                       ("hyperbolic", 5, 2), ("sinh-perturbed", 3, 2)):
        gaps = []
        for eps in (0.2, 0.1, 0.05):
            linear = trace(base, n, k, "flat", eps)
            gaps.append(abs(trace(base, n, k, "sphere", eps) - linear) / linear)
        factors = [gaps[0] / gaps[1], gaps[1] / gaps[2]]
        ok &= all(abs(f - 4.0) <= 0.3 for f in factors)
        details.append(f"{base} n={n} k={k}: " + ", ".join(f"{f:.3f}" for f in factors))
    line = f"scaling oracle: {'PASS' if ok else 'FAIL'} - gap factors " + "; ".join(details)
    print(line)
    assert ok, line
