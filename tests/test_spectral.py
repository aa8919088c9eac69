"""Discrete radial operator: eigenbasis quality, fractional calculus,
linear evolution, and the resolvent with manufactured solutions.  The
contour-quadrature powers and the Chebyshev propagator are checked
against the dense eigen-calculus."""

import math

import numpy as np
import pytest

from equiwave.errors import (
    DimensionError,
    DomainError,
    NegativeEigenvalue,
    TruncationTooSmall,
)
from equiwave.profiles import metric_profile
from equiwave.reduction import reduce_problem
from equiwave.spectral import (
    RadialGrid,
    _contour_rule,
    _cosine_flow,
    _down_rows,
    _fractional_power,
    _powered,
    build_operator,
    evolve_linear,
    frac_norm,
    resolve,
)


@pytest.fixture(scope="module")
def op600():
    return build_operator(RadialGrid(40.0, 600), 5)


def test_grid_basics():
    grid = RadialGrid(10.0, 100)
    assert grid.dr == 0.1
    assert np.isclose(grid.nodes[0], 0.05)
    assert np.isclose(grid.faces[-1], 10.0)
    # surface constant of the unit sphere in R^5 is 8 pi^2 / 3
    assert math.isclose(grid.surface_constant(5), 8.0 * math.pi**2 / 3.0, rel_tol=1e-14)
    with pytest.raises(DomainError):
        RadialGrid(-1.0, 100)


def test_dimension_guard():
    with pytest.raises(DimensionError):
        build_operator(RadialGrid(10.0, 50), 4)


def test_eigenvectors_orthonormal(op600):
    vec = op600.eigenvectors
    gram = vec.T @ vec
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-11


def test_eigen_residual(op600):
    lam, vec = op600.eigenvalues, op600.eigenvectors
    for idx in (0, 5, 100):
        v = op600.unsymmetrize(vec[:, idx])
        resid = op600.apply(v) - lam[idx] * v
        assert np.max(np.abs(op600.symmetrize(resid))) < 1e-11


def test_apply_second_order_convergence():
    # H u for u = e^(-r^2), exact -Delta u in R^5: (4r^2 - 10) e^(-r^2)
    errs = []
    for N in (400, 800, 1600):
        grid = RadialGrid(20.0, N)
        op = build_operator(grid, 5)
        r = grid.nodes
        u = np.exp(-(r**2))
        exact = (10.0 - 4.0 * r**2) * np.exp(-(r**2)) * -1.0
        errs.append(np.max(np.abs(op.apply(u) + exact)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_frac_norm_s0_is_l2(op600):
    r = op600.grid.nodes
    v = r**2 * np.exp(-r)
    # frac_norm uses cell-averaged weights, l2_norm midpoint weights;
    # they agree to the quadrature order
    assert math.isclose(
        frac_norm(op600, 0.0, v), op600.grid.l2_norm(v, 5), rel_tol=1e-3
    )
    # and exactly in the cell-averaged metric
    exact = math.sqrt(
        op600.grid.surface_constant(5) * op600.grid.dr
        * float(np.sum(op600.rho_cells * v**2))
    )
    assert math.isclose(frac_norm(op600, 0.0, v), exact, rel_tol=1e-12)


def test_frac_norm_s1_matches_gradient():
    grid = RadialGrid(40.0, 2000)
    op = build_operator(grid, 5)
    r = grid.nodes
    v = r * np.exp(-(r**2))
    dv = np.exp(-(r**2)) * (1.0 - 2.0 * r**2)
    want = grid.l2_norm(dv, 5)
    got = frac_norm(op, 1.0, v)
    assert math.isclose(got, want, rel_tol=1e-3)


def test_negative_eigenvalue_guard(op600):
    lam = op600.eigenvalues.copy()
    W = np.full(op600.grid.N, -(lam[0] + 10.0))
    op_neg = build_operator(op600.grid, 5, W)
    with pytest.raises(NegativeEigenvalue):
        frac_norm(op_neg, 0.5, np.exp(-op600.grid.nodes))


def test_evolve_identity_at_t0(op600):
    r = op600.grid.nodes
    f = r * np.exp(-r)
    g = np.exp(-(r**2))
    u = evolve_linear(op600, f, g, 0.0, 0.0)
    assert np.max(np.abs(u - f)) < 1e-10


def test_evolve_modewise_energy_conserved(op600):
    r = op600.grid.nodes
    f = r * np.exp(-((r - 3.0) ** 2))
    cf0 = op600.coefficients(f)
    u, ut = evolve_linear(op600, f, np.zeros_like(f), 0.5, 7.0, return_velocity=True)
    om2 = op600.eigenvalues + 0.5
    cu = op600.coefficients(u)
    cut = op600.coefficients(ut)
    e = om2 * cu**2 + cut**2
    e0 = om2 * cf0**2
    assert np.max(np.abs(e - e0)) < 1e-12 * np.max(e0)


def test_resolvent_manufactured_flat():
    # manufacture f from u = e^(-r^2) and recover u
    kappa = 1.0 + 1.0j
    errs = []
    for N in (1000, 2000, 4000):
        grid = RadialGrid(30.0, N)
        r = grid.nodes
        u = np.exp(-(r**2))
        lap = (4.0 * r**2 - 2.0 * 5.0) * np.exp(-(r**2))
        f = lap + kappa**2 * u
        got = resolve(kappa, f, grid, m=5)
        errs.append(np.max(np.abs(got - u)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


def test_resolvent_manufactured_manifold():
    # manifold form with h = sinh r, n = 3: u'' + 2 coth(r) u' + kappa^2 u = f
    hyp = metric_profile("hyperbolic")
    kappa = 0.5 + 1.2j
    errs = []
    for N in (1000, 2000):
        grid = RadialGrid(30.0, N)
        r = grid.nodes
        # u must be a regular radial function: u'(0) = 0
        u = np.exp(-(r**2))
        du = -2.0 * r * np.exp(-(r**2))
        d2u = (4.0 * r**2 - 2.0) * np.exp(-(r**2))
        f = d2u + 2.0 * du / np.tanh(r) + kappa**2 * u
        got = resolve(kappa, f, grid, profile=hyp, n=3, h_infinity=1.0)
        errs.append(np.max(np.abs(got - u)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_resolvent_truncation_guard():
    grid = RadialGrid(30.0, 500)
    with pytest.raises(TruncationTooSmall):
        resolve(1.0 + 0.01j, np.ones(500), grid, m=5)
    with pytest.raises(DomainError):
        resolve(1.0 - 1.0j, np.ones(500), grid, m=5)


@pytest.mark.parametrize("form", ["flat", "manifold"])
def test_resolve_stack_matches_single_solves(form):
    # one solve on an (N, 3) stack gives the three single solves, bit for bit
    grid = RadialGrid(30.0, 400)
    r = grid.nodes
    if form == "flat":
        kw = {"m": 5, "W": 1.0 / (1.0 + r**2)}
    else:
        kw = {"profile": metric_profile("hyperbolic"), "n": 3, "h_infinity": 1.0}
    stack = np.stack([np.exp(-((r - 2.0) ** 2)), np.zeros_like(r), r * np.exp(-r)],
                     axis=1)
    got = resolve(0.5 + 1.2j, stack, grid, **kw)
    want = np.stack([resolve(0.5 + 1.2j, stack[:, j], grid, **kw) for j in range(3)],
                    axis=1)
    assert np.array_equal(got, want)
    assert not got[:, 1].any()


def test_non_finite_potential_is_a_domain_error():
    grid = RadialGrid(30.0, 300)
    W = np.zeros(grid.N)
    W[200:] = np.nan
    with pytest.raises(DomainError, match=f"r = {grid.nodes[200]:.6g}"):
        build_operator(grid, 5, W)
    with pytest.raises(DomainError, match="not finite"):
        resolve(1.0 + 1.0j, np.ones(grid.N), grid, m=5, W=W)


def test_reduced_operator_positive_spectrum():
    # hyperbolic reduction has W = V - 1 and the operator stays positive
    hyp = metric_profile("hyperbolic")
    problem = reduce_problem(hyp, 3, 1, h_infinity=1.0)
    grid = RadialGrid(40.0, 800)
    op = build_operator(grid, 5, problem.W(grid.nodes))
    assert op.eigenvalues[0] > 0.0


def test_spectral_function_round_trip(op600):
    r = op600.grid.nodes
    v = r * np.exp(-r)
    back = op600.from_coefficients(op600.coefficients(v))
    assert np.max(np.abs(back - v)) < 1e-10


def test_transforms_take_column_stacks(op600):
    # an (N, k) stack gives the column-by-column results of 1-D calls
    r = op600.grid.nodes
    stack = np.stack([r * np.exp(-r), np.exp(-(r - 5.0) ** 2), np.zeros_like(r)],
                     axis=1)
    coef = op600.coefficients(stack)
    back = op600.from_coefficients(coef)
    norms = frac_norm(op600, 0.5, stack)
    assert coef.shape == back.shape == stack.shape and norms.shape == (3,)
    for i in range(stack.shape[1]):
        ci = op600.coefficients(stack[:, i])
        assert np.max(np.abs(coef[:, i] - ci)) <= 1e-12 * np.max(np.abs(ci), initial=1.0)
        bi = op600.from_coefficients(ci)
        assert np.max(np.abs(back[:, i] - bi)) <= 1e-12 * np.max(np.abs(bi), initial=1.0)
        ni = frac_norm(op600, 0.5, stack[:, i])
        assert isinstance(ni, float)
        assert abs(norms[i] - ni) <= 1e-12 * max(ni, 1.0)


# -- functions of the operator without an eigenbasis, against the dense
# eigen-calculus

@pytest.fixture(scope="module")
def free_and_reduced():
    grid = RadialGrid(40.0, 800)
    problem = reduce_problem(metric_profile("hyperbolic"), 3, 1, h_infinity=1.0)
    return build_operator(grid, 5), build_operator(grid, 5, problem.W(grid.nodes))


def _samples(grid):
    r = grid.nodes
    return np.stack([r**2 * np.exp(-((r - c) ** 2)) for c in (0.0, 3.0, 7.0)]
                    + [np.sin(r) * np.exp(-r / 5.0)], axis=1)


def _dense_power(op, s, v, shift):
    return op.from_coefficients(_down_rows(_powered(op, s, shift), v)
                                * op.coefficients(v))


def _l2_error(op, got, want):
    # relative error per column in the L^2(R^m) norm
    w = op.grid.volume_weights(op.m)[:, None]
    return np.max(np.sqrt(np.sum(w * (got - want) ** 2, axis=0)
                          / np.sum(w * want**2, axis=0)))


def test_spectral_bounds(free_and_reduced):
    for op in free_and_reduced:
        lo, hi = op.spectral_bounds
        assert lo == pytest.approx(op.eigenvalues[0], rel=1e-12)
        assert hi >= op.eigenvalues[-1]


@pytest.mark.parametrize("alpha", [-1.0, -0.5, -1.0 / 32])
@pytest.mark.parametrize("lo, hi", [(1.0, 1e5), (1e-3, 3e4)])
def test_contour_rule_uniform_relative_accuracy(alpha, lo, hi):
    # the quadrature is a rational function of lambda: test it pointwise
    z, c = _contour_rule(alpha, lo, hi)
    lam = np.geomspace(lo, hi, 500)
    approx = np.sum(np.imag(c / (z - lam[:, None])), axis=1)
    assert np.max(np.abs(approx / lam**alpha - 1.0)) < 1e-13


@pytest.mark.parametrize("shift", ["homogeneous", "inhomogeneous"])
@pytest.mark.parametrize("s", [-1.0, -0.5, 1.0 / 16, 0.5, 1.0])
def test_frac_norm_matches_dense(free_and_reduced, s, shift):
    for op in free_and_reduced:
        v = _samples(op.grid)
        scale = op.grid.surface_constant(op.m) * op.grid.dr
        want = np.sqrt(scale * np.sum(_down_rows(_powered(op, s, shift), v)
                                      * op.coefficients(v) ** 2, axis=0))
        assert frac_norm(op, s, v, shift) == pytest.approx(want, rel=1e-10)
        # a complex stack: real and imaginary parts add in the square
        got = frac_norm(op, s, (1.0 + 2.0j) * v, shift)
        assert got == pytest.approx(math.sqrt(5.0) * want, rel=1e-10)


@pytest.mark.parametrize("s", [-1.5, -0.5, 0.25, 0.75])
def test_fractional_power_matches_dense_with_modes_below_the_floor(free_and_reduced, s):
    # shift W so that the lowest eigenvalue sits between 0 and the infrared
    # floor: negative homogeneous powers floor it, positive ones do not
    free, _ = free_and_reduced
    floor = free.lambda_floor
    shift_W = np.full(free.grid.N, 0.5 * floor - free.eigenvalues[0])
    op = build_operator(free.grid, 5, shift_W)
    assert 0.0 < op.eigenvalues[0] < floor
    v = _samples(op.grid)
    for shift in ("homogeneous", "inhomogeneous"):
        got = _fractional_power(op, s, v, shift)
        assert _l2_error(op, got, _dense_power(op, s, v, shift)) < 1e-10


@pytest.mark.parametrize("nu", [0.0, 1.0])
def test_cosine_flow_matches_evolve_linear(free_and_reduced, nu):
    _, op = free_and_reduced
    v = _samples(op.grid)
    times = np.linspace(0.0, 20.0, 80)
    flow = _cosine_flow(op, nu, v, times[1], len(times))
    for t, u in zip(times, flow):
        want = np.stack([evolve_linear(op, v[:, i], np.zeros(op.grid.N), nu, t)
                         for i in range(v.shape[1])], axis=1)
        assert _l2_error(op, u, want) < 1e-10
