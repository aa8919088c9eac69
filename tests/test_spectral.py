"""Discrete radial operator: eigenbasis quality, fractional calculus,
linear evolution, and the resolvent with manufactured solutions.  The
fractional powers (contour quadrature, and real poles for the square
roots) and the Chebyshev propagator are checked against the dense
eigen-calculus of the tests (_dense)."""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

import equiwave.spectral
from _dense import coefficients, eigenvectors, evolve_linear, from_coefficients, powered
from equiwave.errors import (
    DimensionError,
    DomainError,
    NegativeEigenvalue,
    TruncationTooSmall,
)
from equiwave.estimates import gaussian_family, strichartz_monitor
from equiwave.profiles import metric_profile
from equiwave.reduction import compute_V, reduce_problem, weight_w
from equiwave.spectral import (
    DiscreteRadialOperator,
    RadialGrid,
    _contour_rule,
    _cosine_flow,
    _down_rows,
    _fractional_power,
    _lq_norms,
    _zolotarev_rule,
    build_operator,
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
    vec = eigenvectors(op600)
    gram = vec.T @ vec
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-11


def test_eigen_residual(op600):
    lam, vec = op600.eigenvalues, eigenvectors(op600)
    for idx in (0, 5, 100):
        v = op600.unsymmetrize(vec[:, idx])
        resid = op600.apply(v) - lam[idx] * v
        assert np.max(np.abs(op600.symmetrize(resid))) < 1e-11


@pytest.mark.parametrize("form", ["flat", "manifold"])
def test_apply_agrees_with_tridiagonal(form):
    # the band product of apply against the symmetrized matrix of the
    # eigensolves, on every layout apply takes: one vector, C- and
    # F-ordered column stacks, complex input
    grid = RadialGrid(20.0, 300)
    r = grid.nodes
    if form == "flat":
        op = build_operator(grid, 5, 2.0 / (1.0 + r**2))
    else:
        op = DiscreteRadialOperator.manifold(grid, metric_profile("hyperbolic"), 3)
    diag, off = op.tridiagonal
    T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    stack = np.random.default_rng(0).standard_normal((grid.N, 3))
    for v in (stack[:, 0].copy(), np.ascontiguousarray(stack),
              np.asfortranarray(stack), stack[:, 0] + 1j * stack[:, 1]):
        got = op.apply(v)
        want = op.unsymmetrize(T @ op.symmetrize(v))
        assert got.shape == v.shape and got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
        * float(np.sum(op600.rho * v**2))
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
    cf0 = coefficients(op600, f)
    u, ut = evolve_linear(op600, f, np.zeros_like(f), 0.5, 7.0, return_velocity=True)
    om2 = op600.eigenvalues + 0.5
    cu = coefficients(op600, u)
    cut = coefficients(op600, ut)
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
        got = resolve(kappa, f, build_operator(grid, 5))
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
        got = resolve(kappa, f, DiscreteRadialOperator.manifold(grid, hyp, 3), 1.0)
        errs.append(np.max(np.abs(got - u)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_resolvent_manifold_form_is_the_reduced_flat_form():
    # the reduction with k = 0: u = w v turns the manifold form into the
    # flat form on R^n with W = V, for w and V of the base h = sinh r
    hyp = metric_profile("hyperbolic")
    kappa = 1.5 + 1.0j
    errs = []
    for N in (500, 1000, 2000):
        grid = RadialGrid(30.0, N)
        r = grid.nodes
        f = np.exp(-((r - 3.0) ** 2))
        w = weight_w(hyp, 3, 0, r)
        got = resolve(kappa, f, DiscreteRadialOperator.manifold(grid, hyp, 3), 1.0)
        flat = DiscreteRadialOperator.flat(grid, 3, compute_V(hyp, 3, 0, r))
        want = w * resolve(kappa, f / w, flat, 1.0)
        errs.append(np.max(np.abs(got - want)))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.3)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.3)


def test_resolvent_truncation_guard():
    grid = RadialGrid(30.0, 500)
    with pytest.raises(TruncationTooSmall):
        resolve(1.0 + 0.01j, np.ones(500), build_operator(grid, 5))
    with pytest.raises(DomainError):
        resolve(1.0 - 1.0j, np.ones(500), build_operator(grid, 5))


@pytest.mark.parametrize("form", ["flat", "manifold"])
def test_resolve_stack_matches_single_solves(form):
    # one solve on an (N, 3) stack gives the three single solves, bit for bit
    grid = RadialGrid(30.0, 400)
    r = grid.nodes
    if form == "flat":
        op, h_infinity = build_operator(grid, 5, 1.0 / (1.0 + r**2)), 0.0
    else:
        op = DiscreteRadialOperator.manifold(grid, metric_profile("hyperbolic"), 3)
        h_infinity = 1.0
    stack = np.stack([np.exp(-((r - 2.0) ** 2)), np.zeros_like(r), r * np.exp(-r)],
                     axis=1)
    got = resolve(0.5 + 1.2j, stack, op, h_infinity)
    want = np.stack([resolve(0.5 + 1.2j, stack[:, j], op, h_infinity) for j in range(3)],
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
        DiscreteRadialOperator.flat(grid, 3, W)


def test_non_finite_weights_are_a_domain_error():
    # r^(m-1) overflows near R_max = 30 at m = 211, and the bands are NaN
    # there; the bands are finite at m = 123 on R_max = 6 and at m = 93 on
    # R_max = 60, but rho_j rho_(j+1) underflows near 0 in the first (the
    # symmetrized off-diagonal is -inf there) and overflows far out in the
    # second (it was -0 there, an operator of the wrong spectrum)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="operator band is not finite at r = 29.05"):
            DiscreteRadialOperator.flat(RadialGrid(30.0, 300), 211, None)
    for grid, m, r in ((RadialGrid(6.0, 600), 123, 0.01), (RadialGrid(60.0, 400), 93, 47.4)):
        op = DiscreteRadialOperator.flat(grid, m, None)
        with pytest.raises(DomainError, match=f"symmetrized stencil is not finite at r = {r}$"):
            op.tridiagonal


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
    back = from_coefficients(op600, coefficients(op600, v))
    assert np.max(np.abs(back - v)) < 1e-10


def test_transforms_take_column_stacks(op600):
    # an (N, k) stack gives the column-by-column results of 1-D calls
    r = op600.grid.nodes
    stack = np.stack([r * np.exp(-r), np.exp(-(r - 5.0) ** 2), np.zeros_like(r)],
                     axis=1)
    coef = coefficients(op600, stack)
    back = from_coefficients(op600, coef)
    norms = frac_norm(op600, 0.5, stack)
    assert coef.shape == back.shape == stack.shape and norms.shape == (3,)
    for i in range(stack.shape[1]):
        ci = coefficients(op600, stack[:, i])
        assert np.max(np.abs(coef[:, i] - ci)) <= 1e-12 * np.max(np.abs(ci), initial=1.0)
        bi = from_coefficients(op600, ci)
        assert np.max(np.abs(back[:, i] - bi)) <= 1e-12 * np.max(np.abs(bi), initial=1.0)
        ni = frac_norm(op600, 0.5, stack[:, i])
        assert isinstance(ni, float)
        assert abs(norms[i] - ni) <= 1e-12 * max(ni, 1.0)


def test_a_column_has_the_bits_of_its_1d_call(op600):
    # every column of a stack is summed on its own, pairwise, as numpy sums
    # a 1-D array: no block split or layout of the stack moves a bit.  The
    # L^q norm takes a contour at s = 1/4 and products with H at s = 1
    r = op600.grid.nodes
    stack = np.stack([r**2 * np.exp(-((r - c) ** 2) / 4.0) for c in np.linspace(0.0, 20.0, 19)],
                     axis=1)
    norms = {
        "frac_norm": lambda v: frac_norm(op600, 0.5, v),
        "l2_norm": lambda v: op600.grid.l2_norm(v, op600.m),
        "lq 1/4": lambda v: _lq_norms(op600, 0.25, v, "inhomogeneous", 3.0),
        "lq 1": lambda v: _lq_norms(op600, 1.0, v, "inhomogeneous", 3.0),
    }
    for name, norm in norms.items():
        want = [norm(stack[:, i]) for i in range(stack.shape[1])]
        for split in ([1, 18], [16, 3], [5, 5, 9]):
            blocks = np.split(stack, np.cumsum(split)[:-1], axis=1)
            got = np.concatenate([norm(b) for b in blocks])
            assert np.array_equal(got, want), (name, split)
        for layout in (np.ascontiguousarray, np.asfortranarray):
            assert np.array_equal(norm(layout(stack)), want), (name, layout)


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
    return from_coefficients(op, _down_rows(powered(op, s, shift), v)
                             * coefficients(op, v))


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


# the intervals of the contour test, then those of H and 1+H on the README
# scenario, with their pole counts
@pytest.mark.parametrize("lo, hi, poles", [(1.0, 1e5, 26), (1e-3, 3e4, 36),
                                           (0.0056, 2.6e4, 33), (1.006, 2.6e4, 24)])
def test_zolotarev_rule_uniform_relative_accuracy(lo, hi, poles):
    # d + sum_j a_j / (lambda + p_j) against lambda^(-1/2), both at 30
    # digits: the error is that of the rule's coefficients alone
    p, a, d = _zolotarev_rule(lo, hi)
    assert len(p) == len(a) == poles
    assert np.all(p > 0) and np.all(a > 0) and d > 0
    with mpmath.workdps(30):
        worst = max(abs(mpmath.sqrt(lam) * (d + mpmath.fsum(
                        mpmath.mpf(aj) / (lam + mpmath.mpf(pj)) for aj, pj in zip(a, p))) - 1)
                    for lam in map(mpmath.mpf, np.geomspace(lo, hi, 500)))
    assert worst <= 1e-13


def test_square_roots_make_no_complex_solve(free_and_reduced, monkeypatch):
    # H^(1/2) and (1+H)^(1/2) take real poles only: the snapshot norms and
    # the Strichartz L^q norms never reach the complex shifted solve
    def no_complex_solve(*args):
        raise AssertionError("complex solve")

    monkeypatch.setattr(equiwave.spectral, "_shifted_solve", no_complex_solve)
    for op in free_and_reduced:
        v = _samples(op.grid)
        for shift in ("homogeneous", "inhomogeneous"):
            assert np.all(frac_norm(op, 0.5, v, shift) > 0.0)
            assert np.all(_lq_norms(op, 0.5, v, shift, 3.0) > 0.0)


@pytest.mark.parametrize("shift", ["homogeneous", "inhomogeneous"])
@pytest.mark.parametrize("s", [-1.0, -0.5, 1.0 / 16, 0.5, 1.0])
def test_frac_norm_matches_dense(free_and_reduced, s, shift):
    for op in free_and_reduced:
        v = _samples(op.grid)
        scale = op.grid.surface_constant(op.m) * op.grid.dr
        want = np.sqrt(scale * np.sum(_down_rows(powered(op, s, shift), v)
                                      * coefficients(op, v) ** 2, axis=0))
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


def test_square_root_with_an_eigenvalue_just_below_zero():
    # the lowest eigenvalue, -5e-9, is within EIG_TOL; on this wide grid
    # the first real pole is smaller, so H + p is indefinite and H^(1/2)
    # takes the contour
    grid = RadialGrid(4000.0, 800)
    free = build_operator(grid, 5)
    op = build_operator(grid, 5, np.full(grid.N, -5e-9 - free.eigenvalues[0]))
    assert -1e-8 < op.spectral_bounds[0] < -_zolotarev_rule(
        op.lambda_floor, op.spectral_bounds[1])[0][0]
    r = grid.nodes
    v = np.stack([r**2 * np.exp(-(((r - c) / 100.0) ** 2)) for c in (0.0, 600.0)], axis=1)
    got = _fractional_power(op, 0.5, v, "homogeneous")
    assert _l2_error(op, got, _dense_power(op, 0.5, v, "homogeneous")) < 1e-10


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


def test_functional_calculus_makes_no_full_eigensolve(free_and_reduced, monkeypatch):
    # every function of the operator reaches eigh_tridiagonal only for the
    # few eigenpairs below a cut (select=), never for the whole basis
    selected = []
    eigh = scipy.linalg.eigh_tridiagonal

    def select_only(*args, **kwargs):
        assert "select" in kwargs, "full eigendecomposition"
        selected.append(kwargs["select"])
        return eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", select_only)
    free, reduced = free_and_reduced
    grid = free.grid
    # built as in test_strichartz_holds_negative_modes_like_the_reference
    # at nu = 1: two modes below -nu, held by the flow
    lam = reduced.eigenvalues
    nu = 1.0
    W = reduced.W_samples - (nu + 0.5 * (lam[1] + lam[2]))
    op = build_operator(grid, 5, W)
    assert np.sum(op.eigenvalues + nu < 0) == 2
    fam = [tf.fn(grid.nodes) for tf in gaussian_family(3, 0, r_power=2)]
    v = np.stack(fam, axis=1)
    for u in _cosine_flow(op, nu, v, 0.25, 4):
        assert np.all(np.isfinite(u))
    rep = strichartz_monitor(op, nu, (3, 3), fam, free_op=free)
    assert np.all(np.isfinite(rep.ratios))
    assert np.all(np.isfinite(resolve(1.0 + 1.0j, v, op)))
    # frac_norm needs a nonnegative spectrum: one mode below the infrared
    # floor is taken out under the homogeneous shift
    floor = build_operator(grid, 5, np.full(grid.N, 0.5 * free.lambda_floor
                                            - free.eigenvalues[0]))
    for shift in ("homogeneous", "inhomogeneous"):
        assert np.all(frac_norm(floor, 0.5, v, shift) > 0.0)
    # the flow and the monitor each solve for the two held modes, and the
    # homogeneous frac_norm for the one below the floor
    assert selected == ["v", "v", "v"]
