"""Hardy, smoothing, Strichartz, and dimension-shift checks, with
regression baselines frozen on the first build."""

from fractions import Fraction

import numpy as np
import pytest

from _baselines import (
    DIMSHIFT_S1_BRACKET,
    EQUIVNORM_BRACKETS,
    REGRESSION_WINDOW,
    STRICHARTZ_FLAT,
    STRICHARTZ_FREE,
    STRICHARTZ_HYPERBOLIC_KG,
)
from _dense import coefficients, eigenvalues, from_coefficients, powered
from equiwave.errors import DomainError, NotAdmissible
from equiwave.estimates import (
    QUAD_NQ,
    QUAD_R,
    dimshift_check,
    gaussian_family,
    hardy_check,
    hardy_probe_family,
    smoothing_check,
    strichartz_monitor,
    validate_wave_pair,
)
from equiwave.profiles import metric_profile
from equiwave.reduction import compute_V
from equiwave.spectral import RadialGrid, build_operator, frac_norm


# -- Hardy -------------------------------------------------------------------------


def test_hardy_analytic_sample():
    # u = r e^(-r), alpha = r^(1-n): LHS/RHS = 1/2 exactly, quadrature 1e-6
    fam = [
        type(
            "T", (), {
                "id": "analytic",
                "fn": staticmethod(lambda r: r * np.exp(-r)),
                "dfn": staticmethod(lambda r: (1.0 - r) * np.exp(-r)),
            },
        )
    ]
    for n in (3, 5):
        rep = hardy_check(n, fam, Nq=40000)
        assert abs(rep.ratios[0] - 0.5) < 1e-6


def test_hardy_gaussian_suite_below_one():
    for n in (3, 5):
        fam = gaussian_family(30, 0, r_power=1)
        rep = hardy_check(n, fam)
        assert rep.passed
        assert rep.sup_ratio <= 1.0


def test_hardy_probes_approach_one_from_below():
    fam = hardy_probe_family(10, 1)
    rep = hardy_check(3, fam)
    assert rep.passed
    assert 0.8 < rep.sup_ratio <= 1.0


def test_hardy_rejects_a_short_quadrature_grid():
    # the beta slope reads the 100th quadrature point
    fam = gaussian_family(2, 0, r_power=1)
    with pytest.raises(DomainError):
        hardy_check(3, fam, Nq=80)
    with pytest.raises(DomainError):
        hardy_check(3, fam, Nq=100)
    assert hardy_check(3, fam, Nq=101).ratios


def test_hardy_ratios_are_the_1d_quadrature():
    # alpha = r^(1-n) makes beta = r, so every ratio is the midpoint sum
    # of int u^2 / r^2 over 4 int u'^2, whatever n
    rs = RadialGrid(QUAD_R, QUAD_NQ).nodes
    fam = gaussian_family(10, 2, r_power=1)
    want = [np.sum(tf.fn(rs) ** 2 / rs**2) / (4.0 * np.sum(tf.dfn(rs) ** 2)) for tf in fam]
    for n in (3, 5):
        assert hardy_check(n, fam).ratios == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [104, 150, 200, 250])
def test_hardy_weight_out_of_range_is_a_domain_error(n):
    # r^(1-n) overflows at the first node from n = 104 on: one error that
    # names n, not an overflow warning and a NaN ratio
    with pytest.raises(DomainError, match=f"n = {n}: .* first at r = 0.001$"):
        hardy_check(n, gaussian_family(2, 0, r_power=1))


def test_hardy_at_the_largest_n_with_finite_weights():
    rep = hardy_check(103, gaussian_family(3, 0, r_power=1))
    assert rep.passed and all(0.0 < x <= 1.0 for x in rep.ratios)


@pytest.mark.parametrize("n", [150, 200, 250])
def test_dimshift_weight_out_of_range_is_a_domain_error(n):
    # r^(n-1) underflows to 0 at the first node from n = 109 on, and
    # r^(m-1) overflows at the last from m = 194 on
    with pytest.raises(DomainError, match=f"n = {n}: .* first at r = 0.001$"):
        dimshift_check(n, 1, 1.0, gaussian_family(2, 0, r_power=1))


# -- smoothing ---------------------------------------------------------------------


LAMBDA_GRID = [complex(re, im) for re in (0.0, 2.5, 5.0) for im in (0.2, 2.6, 5.0)]


def test_smoothing_flat():
    flat = metric_profile("flat")
    fam = gaussian_family(6, 0, r_power=1)
    rep = smoothing_check(flat, 3, 1, 0.5, LAMBDA_GRID, fam, h_infinity=0.0,
                          R_max=60.0, N=1500)
    assert rep.passed
    assert rep.sup_ratio <= 8.0 * 1.1


def test_smoothing_hyperbolic():
    hyp = metric_profile("hyperbolic")
    fam = gaussian_family(6, 0, r_power=1)
    rep = smoothing_check(hyp, 3, 1, 0.95, LAMBDA_GRID, fam, h_infinity=1.0,
                          R_max=60.0, N=1500)
    assert rep.passed
    assert rep.sup_ratio <= (4.0 / 0.95) * 1.1


def test_smoothing_rejects_bad_delta0():
    flat = metric_profile("flat")
    with pytest.raises(DomainError):
        smoothing_check(flat, 3, 1, 1.5, LAMBDA_GRID, gaussian_family(1, 0, r_power=1),
                        h_infinity=0.0, R_max=60.0, N=500)


def test_smoothing_solves_once_per_frequency(monkeypatch):
    # the whole family goes through the resolvent in one stacked solve
    import equiwave.estimates as estimates
    from equiwave.cli import _LAMBDA_GRID as lam_grid

    calls = []
    resolve = estimates.resolve

    def counted(*args, **kwargs):
        calls.append(args[1].shape)
        return resolve(*args, **kwargs)

    monkeypatch.setattr(estimates, "resolve", counted)
    rep = smoothing_check(metric_profile("hyperbolic"), 3, 1, 0.95, lam_grid,
                          gaussian_family(10, 0, r_power=1), h_infinity=1.0,
                          R_max=60.0, N=500)
    assert len(calls) == len(lam_grid) == 20
    assert calls[0] == (500, 10)
    assert len(rep.ratios) == 200
    assert rep.sample_ids[:2] == [f"gauss-0-0@{lam_grid[0]}", f"gauss-0-1@{lam_grid[0]}"]


def test_smoothing_zero_member_and_empty_family():
    # a local import: pytest would try to collect a module-level Test* class
    from equiwave.estimates import TestFunction

    flat = metric_profile("flat")
    zero = TestFunction("zero", lambda r: 0.0 * r, lambda r: 0.0 * r)
    fam = gaussian_family(2, 0, r_power=1)
    kw = {"h_infinity": 0.0, "R_max": 60.0, "N": 500}
    rep = smoothing_check(flat, 3, 1, 0.5, LAMBDA_GRID, [fam[0], zero, fam[1]], **kw)
    alone = smoothing_check(flat, 3, 1, 0.5, LAMBDA_GRID, fam, **kw)
    assert rep.ratios[1::3] == [0.0] * len(LAMBDA_GRID)
    assert rep.ratios[0::3] == alone.ratios[0::2]
    assert rep.ratios[2::3] == alone.ratios[1::2]
    empty = smoothing_check(flat, 3, 1, 0.5, LAMBDA_GRID, [], **kw)
    assert empty.sample_ids == [] and empty.ratios == []


# -- Strichartz --------------------------------------------------------------------


def test_validate_wave_pair():
    validate_wave_pair(3, 3, 5)
    with pytest.raises(NotAdmissible):
        validate_wave_pair(2, 10, 5)  # p must exceed 2
    with pytest.raises(NotAdmissible):
        validate_wave_pair(4, 4, 5)  # off the admissibility line


@pytest.fixture(scope="module")
def strichartz_setup():
    grid = RadialGrid(60.0, 2000)
    free = build_operator(grid, 5)
    fams = gaussian_family(10, 0, r_power=2)
    fam = [tf.fn(grid.nodes) for tf in fams]
    return grid, free, fam


def test_strichartz_monitor_rejects_an_empty_time_window():
    # T < 0 made the Chebyshev tolerance negative, and the series length
    # doubled without end; T = 0 and n_t < 2 gave ratio 0 and a PASS
    grid = RadialGrid(60.0, 200)
    free = build_operator(grid, 5)
    fam = [np.exp(-((grid.nodes - 3.0) ** 2))]
    for T, n_t in [(-5.0, 80), (0.0, 80), (20.0, 0), (20.0, 1)]:
        with pytest.raises(DomainError):
            strichartz_monitor(free, 0.0, (3, 3), fam, T, n_t, free_op=free)


def test_strichartz_free_baseline(strichartz_setup):
    grid, free, fam = strichartz_setup
    rep = strichartz_monitor(free, 0.0, (3, 3), fam, free_op=free)
    assert rep.passed
    assert rep.sup_ratio == pytest.approx(STRICHARTZ_FREE, rel=REGRESSION_WINDOW)


def test_strichartz_flat_reduced_baseline(strichartz_setup):
    grid, free, fam = strichartz_setup
    op = build_operator(grid, 5, compute_V(metric_profile("flat"), 3, 1, grid.nodes) - 0.0)
    rep = strichartz_monitor(op, 0.0, (3, 3), fam, free_op=free)
    assert rep.sup_ratio == pytest.approx(STRICHARTZ_FLAT, rel=REGRESSION_WINDOW)


def test_strichartz_hyperbolic_kg_baseline(strichartz_setup):
    grid, free, fam = strichartz_setup
    op = build_operator(grid, 5, compute_V(metric_profile("hyperbolic"), 3, 1, grid.nodes) - 1.0)
    rep = strichartz_monitor(op, 1.0, (3, 3), fam, free_op=free)
    assert rep.sup_ratio == pytest.approx(
        STRICHARTZ_HYPERBOLIC_KG, rel=REGRESSION_WINDOW
    )


def _strichartz_per_time(op, nu, pq, family, free_op, T=20.0, n_t=80):
    """Reference ratios: one 1-D transform per member and time."""
    p, q = Fraction(pq[0]), Fraction(pq[1])
    s0 = float(1 / q - 1 / p)
    shift = "inhomogeneous" if nu > 0 else "homogeneous"
    om = np.sqrt(np.maximum(eigenvalues(op) + nu, 0.0))
    mult = powered(free_op, s0 / 2.0, shift)
    times = np.linspace(0.0, T, n_t)
    vol = op.grid.volume_weights(op.m)
    ratios = []
    for f in family:
        cf = coefficients(op, f)
        rhs = frac_norm(free_op, 0.5, f, shift)
        if rhs == 0.0:
            ratios.append(0.0)
            continue
        lq = np.empty(n_t)
        for j, t in enumerate(times):
            u = from_coefficients(op, np.cos(t * om) * cf)
            if s0 != 0.0:
                u = from_coefficients(free_op, mult * coefficients(free_op, u))
            lq[j] = np.sum(np.abs(u) ** float(q) * vol) ** (1.0 / float(q))
        ratios.append(float(np.trapezoid(lq ** float(p), times) ** (1.0 / float(p))
                            / rhs))
    return ratios


@pytest.mark.parametrize("pq", [(3, 3), (4, Fraction(8, 3))])
def test_strichartz_matches_per_time_reference(pq):
    # (4, 8/3) has s0 = 1/8 and takes the free-operator branch
    grid = RadialGrid(40.0, 400)
    free = build_operator(grid, 5)
    op = build_operator(grid, 5, compute_V(metric_profile("hyperbolic"), 3, 1, grid.nodes) - 1.0)
    fam = [tf.fn(grid.nodes) for tf in gaussian_family(3, 0, r_power=2)]
    fam.insert(1, np.zeros(grid.N))
    rep = strichartz_monitor(op, 1.0, pq, fam, free_op=free)
    want = _strichartz_per_time(op, 1.0, pq, fam, free)
    assert rep.ratios[1] == 0.0
    assert rep.ratios == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("nu, pq", [(1.0, (3, 3)), (0.0, (4, Fraction(8, 3)))])
def test_strichartz_holds_negative_modes_like_the_reference(nu, pq):
    # W shifted below -nu for the two lowest modes: they stay at frequency 0
    grid = RadialGrid(40.0, 400)
    free = build_operator(grid, 5)
    W = compute_V(metric_profile("hyperbolic"), 3, 1, grid.nodes) - 1.0
    lam = build_operator(grid, 5, W).eigenvalues
    op = build_operator(grid, 5, W - (nu + 0.5 * (lam[1] + lam[2])))
    assert np.sum(op.eigenvalues + nu < 0) == 2
    fam = [tf.fn(grid.nodes) for tf in gaussian_family(3, 0, r_power=2)]
    rep = strichartz_monitor(op, nu, pq, fam, free_op=free)
    want = _strichartz_per_time(op, nu, pq, fam, free)
    assert rep.ratios == pytest.approx(want, rel=1e-10)


def test_strichartz_empty_family(strichartz_setup):
    grid, free, _ = strichartz_setup
    rep = strichartz_monitor(free, 0.0, (3, 3), [], free_op=free)
    assert rep.sample_ids == [] and rep.ratios == []
    assert rep.sup_ratio == 0.0 and rep.passed


def test_equivalent_norms_bracket(strichartz_setup):
    # fractional norms of the reduced operator against the free one stay
    # within the frozen bracket over s in {-1, -1/2, 0, 1/2, 1}
    grid, free, fam = strichartz_setup
    op = build_operator(grid, 5, compute_V(metric_profile("hyperbolic"), 3, 1, grid.nodes) - 1.0)
    for s, (lo, hi) in EQUIVNORM_BRACKETS.items():
        rats = []
        for v in fam:
            a = frac_norm(op, s, v, shift="inhomogeneous")
            b = frac_norm(free, s, v, shift="inhomogeneous")
            rats.append(a / b)
        assert min(rats) >= lo * (1.0 - 0.05)
        assert max(rats) <= hi * (1.0 + 0.05)


# -- dimension shift ----------------------------------------------------------------


def test_dimshift_s0_exact():
    fam = gaussian_family(30, 0, r_power=1)
    rep = dimshift_check(3, 1, 0.0, fam)
    assert np.allclose(rep.ratios, 1.0, atol=1e-12)


def test_dimshift_s1_bracket():
    fam = gaussian_family(30, 0, r_power=1)
    rep = dimshift_check(3, 1, 1.0, fam)
    lo, hi = DIMSHIFT_S1_BRACKET
    assert min(rep.ratios) == pytest.approx(lo, rel=1e-9)
    assert max(rep.ratios) == pytest.approx(hi, rel=1e-9)
    assert rep.detail["log_ratio_spread"] <= 1.0


def test_dimshift_rejects_other_s():
    with pytest.raises(DomainError):
        dimshift_check(3, 1, 0.5, gaussian_family(1, 0, r_power=1))


def test_report_json_and_csv():
    fam = gaussian_family(3, 0, r_power=1)
    rep = hardy_check(3, fam)
    payload = rep.to_json()
    assert payload["verdict"] == "PASS"
    assert len(rep.csv_rows()) == 3
