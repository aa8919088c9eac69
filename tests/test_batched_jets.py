"""Batched jets (one jet over a whole radius grid) against the per-point
scalar jets they replace, and the number of jet evaluations a check
makes."""

import math

import numpy as np
import pytest

import equiwave.admissibility
from equiwave.admissibility import H_jet, check_admissibility
from equiwave.errors import DomainError
from equiwave.jets import Jet, jet_exp
from equiwave.profiles import SERIES_RADIUS, MetricProfile, metric_profile, target_profile
from equiwave.reduction import compute_V

ALL_KINDS = [
    "flat",
    "hyperbolic",
    "sinh-perturbed",
    "polynomial-growth",
    "smoothed-polynomial",
    "exp-growth",
    "smoothed-exponential",
    "sin",
]
# the series seam, ordinary radii, and r = 1000 where exp and sinh overflow
RADII = [SERIES_RADIUS, 2e-3, 0.1, 0.5, 1.0, 2.7, 10.0, 50.0, 100.0, 1000.0]
SCALAR_FAILURES = (DomainError, OverflowError, ZeroDivisionError)


def grid(profile):
    return np.array(([0.0] if profile.smooth_at_zero else []) + RADII)


def pointwise(fn, rs, width):
    """The per-point loop: one scalar jet per radius, NaN where it raises."""
    out = np.full((width, len(rs)), np.nan)
    for i, r in enumerate(rs):
        try:
            out[:, i] = fn(float(r))
        except SCALAR_FAILURES:
            pass
    return out


def V_pointwise(profile, n, k, r):
    """compute_V as it was written with one scalar jet per radius."""
    out = np.empty_like(r)
    lbar = k * (k + n - 2)
    small = r < SERIES_RADIUS
    rb = r[~small]
    h, h1v, h2v = pointwise(lambda x: profile.jet(x, 2).coeffs, rb, 3)
    out[~small] = (n - 1) / 2 * (
        h2v / h + (n - 3) / 2 * (h1v**2 / h**2 - 1.0 / rb**2)
    ) + lbar * (1.0 / h**2 - 1.0 / rb**2)
    out[small] = compute_V(profile, n, k, r[small])
    return out


def assert_same(batched, reference):
    batched = np.asarray(batched)
    assert np.array_equal(np.isfinite(batched), np.isfinite(reference))
    ok = np.isfinite(reference)
    np.testing.assert_allclose(batched[ok], reference[ok], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_profile_jet_batched_matches_pointwise(kind):
    profile = metric_profile(kind)
    rs = grid(profile)
    ref = pointwise(lambda r: profile.jet(r, 3).taylor, rs, 4)
    assert_same(profile.jet(rs, 3).taylor, ref)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [3, 5])
def test_H_jet_batched_matches_pointwise(kind, n):
    profile = metric_profile(kind)
    rs = np.array(RADII)  # H needs r > 0
    ref = pointwise(lambda r: H_jet(profile, n, r, order=1).coeffs, rs, 2)
    assert_same(H_jet(profile, n, rs, order=1).coeffs, ref)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_compute_V_batched_matches_pointwise(kind):
    profile = metric_profile(kind)
    rs = grid(profile)
    for n, k in ((3, 1), (4, 2)):
        assert_same(compute_V(profile, n, k, rs), V_pointwise(profile, n, k, rs))


def test_overflow_stays_nonfinite():
    # h = sinh r overflows at r = 1000: the scalar jet raises, the batch
    # is NaN there and finite elsewhere, with no warning (warnings are
    # errors in this suite)
    hyp = metric_profile("hyperbolic")
    with pytest.raises(OverflowError):
        hyp.jet(1000.0, 2)
    jet = hyp.jet(np.array([1.0, 1000.0]), 2)
    assert np.all(np.isfinite(jet.taylor[:, 0]))
    assert np.all(np.isnan(jet.taylor[:, 1]))
    # 1 / h would be 0 at an overflowed point; it stays NaN
    inv = jet.reciprocal()
    assert np.all(np.isnan(inv.taylor[:, 1]))
    assert np.all(np.isnan(jet_exp(Jet.variable(np.array([800.0]), 2)).taylor))


def test_batched_real_power_of_mixed_signs():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    jet = Jet.variable(x, 3) ** 0.5
    bad = x <= 0
    assert np.all(np.isnan(jet.taylor[:, bad]))
    assert np.all(np.isfinite(jet.taylor[:, ~bad]))
    for i in np.flatnonzero(~bad):
        want = (Jet.variable(float(x[i]), 3) ** 0.5).taylor
        np.testing.assert_allclose(jet.taylor[:, i], want, rtol=1e-15)
    for v in x[bad]:
        with pytest.raises(DomainError):
            Jet.variable(float(v), 3) ** 0.5


def test_batched_reciprocal_of_zero():
    jet = Jet.variable(np.array([0.0, 2.0]), 2).reciprocal()
    assert np.all(np.isnan(jet.taylor[:, 0]))
    assert np.allclose(jet.taylor[:, 1], [0.5, -0.25, 0.125])
    with pytest.raises(ZeroDivisionError):
        Jet.variable(0.0, 2).reciprocal()


def test_profile_jet_rejects_radii_without_a_jet():
    # polynomial-growth has no jet at r = 0, no profile at r < 0: a grid
    # holding such a radius is rejected like the radius itself
    poly = metric_profile("polynomial-growth")
    for r in (-1.0, 0.0):
        for r0 in (r, np.array([1.0, r])):
            with pytest.raises(DomainError):
                poly.jet(r0, 2)


# -- how many jets a check evaluates -------------------------------------------------


def _count_profile_jets(monkeypatch):
    calls = []
    jet = MetricProfile.jet

    def counted(self, r0, order):
        calls.append(order)
        return jet(self, r0, order)

    monkeypatch.setattr(MetricProfile, "jet", counted)
    return calls


@pytest.mark.parametrize("points", [150, 1200])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_check_admissibility_jet_count_is_grid_free(monkeypatch, n, points):
    monkeypatch.setattr(equiwave.admissibility, "GRID", np.geomspace(1e-3, 1e3, points))
    calls = _count_profile_jets(monkeypatch)
    check_admissibility(metric_profile("sinh-perturbed"), n)
    assert 0 < len(calls) <= 40


def test_custom_gg_prime_is_one_jet(monkeypatch):
    target = target_profile("custom", expr=["sin", "r"])
    calls = []
    jet = target.expr.jet

    def counted(s0, order):
        calls.append(order)
        return jet(s0, order)

    monkeypatch.setattr(target.expr, "jet", counted)
    s = np.linspace(-1.0, 1.0, 2000)
    got = target.gg_prime_fn(s, None)
    assert len(calls) == 1
    np.testing.assert_allclose(got, 0.5 * np.sin(2.0 * s), rtol=1e-13, atol=1e-16)
    assert math.isclose(target.gg_prime_fn(np.array(0.3), None), 0.5 * math.sin(0.6),
                        rel_tol=1e-13)
