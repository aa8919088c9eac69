"""Change of variables to the flat radial problem: weight, potential,
exact indices, and the spectrum of the reduced operator on H^n against
its continuum limit."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from scipy.optimize import brentq

from equiwave.errors import DomainError
from equiwave.profiles import SERIES_RADIUS, metric_profile
from equiwave.reduction import compute_V, indices, weight_w
from equiwave.scenario import Scenario


def sympy_V(h_expr, r, n, k, r0):
    h = h_expr
    lbar = k * (k + n - 2)
    V = sp.Rational(n - 1, 2) * (
        sp.diff(h, r, 2) / h
        + sp.Rational(n - 3, 2) * (sp.diff(h, r) ** 2 / h**2 - 1 / r**2)
    ) + lbar * (1 / h**2 - 1 / r**2)
    return float(V.subs(r, r0))


def test_weight_w_values():
    hyp = metric_profile("hyperbolic")
    r = 1.3
    want = r ** (1 + 1) / math.sinh(r) ** 1  # n=3, k=1
    assert math.isclose(weight_w(hyp, 3, 1, r), want, rel_tol=1e-12)
    assert weight_w(hyp, 3, 1, 0.0) == 0.0


def test_V_matches_sympy_direct():
    r = sp.symbols("r", positive=True)
    hyp = metric_profile("hyperbolic")
    for n, k in ((3, 1), (5, 2)):
        for r0 in (0.5, 1.0, 2.0):
            want = sympy_V(sp.sinh(r), r, n, k, r0)
            got = compute_V(hyp, n, k, r0)
            assert math.isclose(got, want, rel_tol=1e-10)


def test_V_past_the_overflow_of_h_squared():
    # sinh(r)^2 overflows past r ~ 355; there coth^2 = 1 and 1/sinh^2 = 0
    # to double precision, which leaves the closed form below
    hyp = metric_profile("hyperbolic")
    for n, k in ((3, 1), (5, 2)):
        r = np.array([400.0, 600.0])
        want = (n - 1) / 2 * (1 + (n - 3) / 2 * (1 - 1 / r**2)) - k * (k + n - 2) / r**2
        assert np.allclose(compute_V(hyp, n, k, r), want, rtol=1e-12, atol=0)


def test_V_series_seam_continuity():
    hyp = metric_profile("hyperbolic")
    below = SERIES_RADIUS * 0.999
    above = SERIES_RADIUS * 1.001
    for n, k in ((3, 1), (4, 1), (3, 2)):
        a = compute_V(hyp, n, k, below)
        b = compute_V(hyp, n, k, above)
        assert abs(a - b) < 1e-7 * max(1.0, abs(a))


def test_V_origin_limit_hyperbolic():
    # sinh r = r + r^3/6 + ..., so h1(0) = 1/6 and V(0+) for n=3, k=1 is
    # (n-1)/2 * 6 h1 + lbar * (-2 h1) = 3/6 * 6 * ... evaluated: 1/3
    hyp = metric_profile("hyperbolic")
    got = compute_V(hyp, 3, 1, 1e-9)
    r = sp.symbols("r", positive=True)
    want = float(sp.limit(
        sp.Rational(1, 1) * (sp.diff(sp.sinh(r), r, 2) / sp.sinh(r))
        + 2 * (1 / sp.sinh(r) ** 2 - 1 / r**2), r, 0))
    assert math.isclose(got, want, rel_tol=1e-6)


def test_V_minus_V0_identity():
    # V - V0 = lbar (1/h^2 - 1/r^2) exactly
    hyp = metric_profile("hyperbolic")
    n, k = 5, 2
    lbar = k * (k + n - 2)
    rs = np.array([0.2, 0.7, 1.9])
    V = compute_V(hyp, n, k, rs)
    V0 = compute_V(hyp, n, 0, rs)
    want = lbar * (1.0 / np.sinh(rs) ** 2 - 1.0 / rs**2)
    assert np.allclose(V - V0, want, rtol=1e-12)


def test_flat_V_is_zero():
    flat = metric_profile("flat")
    rs = np.array([1e-4, 0.1, 1.0, 10.0])
    assert np.allclose(compute_V(flat, 3, 1, rs), 0.0, atol=1e-10)


def test_indices_exact_rationals():
    for n, k in ((3, 1), (4, 1), (3, 2)):
        idx = indices(n, k)
        m = n + 2 * k
        assert idx["m"] == m
        assert idx["p"] == Fraction(4 * (m + 1), m + 3)
        assert idx["q"] == Fraction(4 * m * (m + 1), 2 * m * m - m - 5)
        # diagonal pair on the admissibility line, exactly
        a = idx["a"]
        assert Fraction(2) / a + Fraction(m - 1) / a == Fraction(m - 1, 2)
        # dual identities
        assert 2 * idx["a_prime"] == idx["p"]
        assert idx["b"] == idx["q"]


def test_indices_m5_pair_is_diagonal():
    idx = indices(3, 1)
    assert idx["p"] == idx["q"] == idx["a"] == Fraction(3)


def test_indices_extended_range():
    for n, k in ((4, 1), (3, 2), (5, 3)):
        idx = indices(n, k)
        m = idx["m"]
        lhs = Fraction(1) / idx["q"]
        rhs = Fraction(1, 2) - Fraction(2, m - 1) / idx["p"]
        assert lhs <= rhs


def test_reduction_rejects_bad_inputs():
    hyp = metric_profile("hyperbolic")
    with pytest.raises(DomainError):
        indices(3, 0)
    with pytest.raises(DomainError):
        compute_V(hyp, 2, 1, 1.0)


def _dirichlet_kappas(ell: int, R: float, count: int) -> np.ndarray:
    """The lowest count roots kappa > 0 of psi_ell(kappa, R) = 0, where
    psi_ell = A_ell* ... A_1* sin(kappa r) with A_j* = -d/dr + j coth r: the
    Dirichlet eigenfunctions on [0, R] of -d^2/dr^2 + ell(ell+1)/sinh^2 r,
    the reflectionless Poschl-Teller well of the reduced operator on H^n,
    n odd, with ell = k + (n-3)/2 (Cooper, Khare & Sukhatme, Phys. Rep. 251
    (1995))."""
    r, kappa = sp.symbols("r kappa", positive=True)
    psi = sp.sin(kappa * r)
    for j in range(1, ell + 1):
        psi = -sp.diff(psi, r) + j * sp.coth(r) * psi
    f = sp.lambdify(kappa, psi.subs(r, R), "math")
    roots, step, a = [], 0.1 / R, 0.1 / R
    while len(roots) < count:
        if f(a) * f(a + step) < 0:
            roots.append(brentq(f, a, a + step, xtol=1e-15, rtol=1e-15))
        a += step
    return np.array(roots)


# max |eigenvalue - kappa^2| over the lowest 6 modes at R_max = 30 and
# N = 500, 1000, 2000, as measured when this oracle was added
EXACT_SPECTRUM_ERRORS = {
    (3, 1): (7.10e-5, 1.78e-5, 4.45e-6),
    (5, 1): (1.15e-4, 2.87e-5, 7.18e-6),
    (3, 2): (1.15e-4, 2.87e-5, 7.18e-6),
    (7, 1): (1.86e-4, 4.66e-5, 1.17e-5),
}


@pytest.mark.parametrize("n,k", list(EXACT_SPECTRUM_ERRORS))
def test_reduced_spectrum_on_odd_hyperbolic_space_converges_to_the_exact_one(n, k):
    # on h = sinh r the reduced operator minus h_inf is, in v = r^((m-1)/2)
    # psi, -d^2/dr^2 + ell(ell+1)/sinh^2 r: compute_V, the weights and the
    # stencil together against a continuum answer, at second order
    R_max, modes = 30.0, 6
    errors = []
    for N in (500, 1000, 2000):
        s = Scenario("oracle", {"kind": "hyperbolic"}, {"kind": "sphere"}, n, k, 0.5,
                     {"R_max": R_max, "N": N}, {"T": 1.0, "dt_factor": 0.1, "snap_every": 1.0},
                     {"shape": "zero"})
        # the Dirichlet condition sits on the ghost node, half a cell past R_max
        kappas = _dirichlet_kappas(k + (n - 3) // 2, R_max + 0.5 * s.radial_grid.dr, modes)
        errors.append(np.max(np.abs(s.reduced_operator.eigenvalues[:modes] - kappas**2)))
    bounds = [2.0 * e for e in EXACT_SPECTRUM_ERRORS[n, k]]
    assert all(e < b for e, b in zip(errors, bounds)), (errors, bounds)
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(4.0, abs=0.3)
