"""Metric and target profiles: values, jets, normalization, and the
cubic decomposition of the wave-map nonlinearity."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from _gamma import SEAM, gamma_reference
from equiwave.admissibility import GRID
from equiwave.errors import DomainError, OrderUnavailable
from equiwave.profiles import (
    check_normalization,
    metric_profile,
    parse_expr,
    target_profile,
)

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


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_normalization(kind):
    # every built-in profile satisfies h(0)=0, h'(0)=1
    assert check_normalization(metric_profile(kind))


def sympy_profile(kind, amplitude=0.01, M=1.0, eps=0.05):
    r = sp.symbols("r", positive=True)
    if kind == "flat":
        return r, r
    if kind == "hyperbolic":
        return sp.sinh(r), r
    if kind == "sinh-perturbed":
        return sp.sinh(r) + amplitude * r**3 / (1 + r**2) ** 3, r
    if kind == "polynomial-growth":
        return r * (1 + sp.sqrt(r)), r
    if kind == "smoothed-polynomial":
        return r * (1 + sp.sqrt(r) * sp.exp(-eps / r)) ** M, r
    if kind == "exp-growth":
        return sp.exp(r) - 1, r
    if kind == "smoothed-exponential":
        return r + (sp.exp(r) - 1 - r) * sp.exp(-eps / r), r
    if kind == "sin":
        return sp.sin(r), r
    raise ValueError(kind)


@pytest.mark.parametrize("kind", ["flat", "hyperbolic", "polynomial-growth", "exp-growth", "sin"])
def test_values_and_jets_match_sympy(kind):
    assert_matches_sympy(kind, {})


# the three parametrised built-ins, at their defaults and at one other set
@pytest.mark.parametrize("kind, params", [
    ("sinh-perturbed", {}),
    ("sinh-perturbed", {"amplitude": 0.3}),
    ("smoothed-polynomial", {}),
    ("smoothed-polynomial", {"M": 2.5, "eps": 0.2}),
    ("smoothed-exponential", {}),
    ("smoothed-exponential", {"eps": 0.3}),
])
def test_parametrised_values_and_jets_match_sympy(kind, params):
    assert_matches_sympy(kind, params)


def assert_matches_sympy(kind, params):
    """Orders 0-4 at three radii, and values on an array, against sympy."""
    expr, r = sympy_profile(kind, **params)
    profile = metric_profile(kind, **params)
    for r0 in (0.3, 1.0, 2.7):
        jet = profile.jet(r0, 4)
        for j in range(5):
            want = float(sp.diff(expr, r, j).subs(r, r0))
            assert math.isclose(jet.derivative(j), want, rel_tol=1e-10, abs_tol=1e-12)
    rs = np.array([0.5, 1.5, 4.0])
    want = np.array([float(expr.subs(r, x)) for x in rs])
    assert np.allclose(profile(rs), want, rtol=1e-12)


def test_jet_eval_polynomial_first_derivative():
    # h(r) = r (1 + sqrt(r)), h'(r) = 1 + (3/2) sqrt(r); h'(1) = 5/2,
    # and for M=2, h'(1) = 6 by direct differentiation
    p1 = metric_profile("polynomial-growth", M=1.0)
    assert math.isclose(p1.jet(1.0, 1).derivative(1), 2.5, rel_tol=1e-12)
    p2 = metric_profile("polynomial-growth", M=2.0)
    r = sp.symbols("r", positive=True)
    want = float(sp.diff(r * (1 + sp.sqrt(r)) ** 2, r).subs(r, 1))
    assert want == 6.0
    assert math.isclose(p2.jet(1.0, 1).derivative(1), 6.0, rel_tol=1e-12)


def test_smoothed_profiles_are_smooth_at_zero():
    for kind in ("smoothed-polynomial", "smoothed-exponential", "sinh-perturbed"):
        profile = metric_profile(kind)
        jet = profile.jet(0.0, 4)
        assert jet.derivative(0) == 0.0
        assert math.isclose(jet.derivative(1), 1.0, rel_tol=1e-12)


def test_smoothed_exponential_tracks_exponential_at_infinity():
    smooth = metric_profile("smoothed-exponential")
    rs = np.array([20.0, 40.0])
    want = np.exp(rs) - 1.0
    # the cutoff factor is 1 - O(eps/r) at large r
    assert np.allclose(smooth(rs), want, rtol=1e-2)


def test_max_order_guard():
    profile = metric_profile("hyperbolic")
    with pytest.raises(OrderUnavailable):
        profile.jet(1.0, profile.max_order + 1)


def test_parse_expr_round_trip():
    # ["*", "r", ["exp", "r"]] is r * e^r
    expr = parse_expr(["*", "r", ["exp", "r"]])
    rs = np.array([0.5, 1.0, 2.0])
    assert np.allclose(expr.jet(rs, 0).value, rs * np.exp(rs), rtol=1e-14)
    jet = expr.jet(1.0, 2)
    assert math.isclose(jet.derivative(1), 2.0 * math.e, rel_tol=1e-12)


def test_parse_expr_rejects_garbage():
    with pytest.raises(DomainError):
        parse_expr(["nosuch", "r"])


def _readme_trees(heading):
    """{kind: tree} of the README table whose first column is heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split(f"| {heading} |", 1)[1].split("\n\n", 1)[0]
    return {kind: json.loads(tree) for kind, tree
            in re.findall(r"^\| `([a-z-]+)` \| [^|]* \| `(.+)` \|$", table, re.M)}


def test_readme_trees_are_the_built_in_profiles():
    # the trees README lists give every built-in's jets bit for bit
    metrics = _readme_trees("manifold `kind`")
    assert sorted(metrics) == sorted(ALL_KINDS)
    for kind, tree in metrics.items():
        want = metric_profile(kind)
        for r0 in (GRID, 1.7):
            got = parse_expr(tree).jet(r0, 8).taylor
            assert got.tobytes() == want.jet(r0, 8).taylor.tobytes(), kind
    targets = _readme_trees("target `kind`")
    assert sorted(targets) == ["flat", "hyperbolic", "sphere"]
    s = np.linspace(-2.0, 2.0, 41)
    for kind, tree in targets.items():
        got = parse_expr(tree).jet(s, 8).taylor
        assert got.tobytes() == target_profile(kind).jet(s, 8).taylor.tobytes(), kind


def test_custom_profile():
    custom = metric_profile("custom", expr=["*", "r", ["exp", "r"]])
    assert math.isclose(custom(1.0), math.e, rel_tol=1e-14)


# -- targets ------------------------------------------------------------------------


def test_values_evaluate_no_derivative_factor(monkeypatch):
    # an order-0 jet of sin or sinh needs neither cos nor cosh
    def forbidden(x):
        raise AssertionError("derivative factor evaluated for a value")

    s = np.linspace(-3.0, 3.0, 101)
    r = np.linspace(0.0, 5.0, 101)
    want_g, want_h = np.sin(s), np.sinh(r)
    monkeypatch.setattr(np, "cos", forbidden)
    monkeypatch.setattr(np, "cosh", forbidden)
    assert np.array_equal(target_profile("sphere")(s), want_g)
    assert np.array_equal(metric_profile("hyperbolic")(r), want_h)


def test_target_gg_prime():
    s = np.linspace(-1.0, 1.0, 9)
    assert np.allclose(target_profile("flat").gg_prime_fn(s, None), s)
    assert np.allclose(target_profile("sphere").gg_prime_fn(s, None), 0.5 * np.sin(2 * s))
    assert np.allclose(target_profile("hyperbolic").gg_prime_fn(s, None), 0.5 * np.sinh(2 * s))


def _below(radius, count=500_000, seed=0):
    """A dense sample of s with |s| < radius, both signs: uniform, log-uniform
    down to the smallest subnormal, and the edges (+-0, the subnormal
    extremes, the smallest normal, the largest float below radius)."""
    rng = np.random.default_rng(seed)
    tiny = np.finfo(float).smallest_subnormal
    edges = [0.0, tiny, np.finfo(float).smallest_normal - tiny,
             np.finfo(float).smallest_normal, np.nextafter(radius, 0.0)]
    mags = np.concatenate([rng.uniform(0.0, radius, count),
                           np.exp(rng.uniform(np.log(tiny), np.log(radius), count)),
                           edges])
    mags = mags[mags < radius]
    return np.concatenate([mags, -mags])


@pytest.mark.parametrize("kind, fn", [("sphere", np.sin), ("hyperbolic", np.sinh)])
def test_gg_prime_is_s_below_the_linear_radius(kind, fn):
    # the solver takes c s for c g g'(s) below this radius: on a libm that
    # rounds 0.5 sin(2s) or 0.5 sinh(2s) off s there, this must fail
    target = target_profile(kind)
    assert target.linear_radius == 2.0**-27
    s = _below(target.linear_radius)
    for got in (0.5 * fn(2.0 * s), target.gg_prime_fn(s, None)):
        bits_differ = got.view(np.int64) != s.view(np.int64)  # tells -0 from +0
        assert not bits_differ.any(), f"g g'(s) != s at s = {s[bits_differ][:5]}"


def test_linear_radius_of_each_target_is_derived():
    assert target_profile("flat").linear_radius == math.inf
    custom = target_profile("custom", expr=["sin", "r"])
    assert custom.linear_radius == 0.0  # its jet runs on every s
    with pytest.raises(AttributeError):
        custom.linear_radius = 1.0


@pytest.mark.parametrize("target", [target_profile("flat"), target_profile("sphere"),
                                    target_profile("hyperbolic"),
                                    target_profile("custom", expr=["sin", "r"])],
                         ids=["flat", "sphere", "hyperbolic", "custom"])
def test_gg_prime_into_a_buffer_has_the_same_bits(target):
    s = np.linspace(-1.0, 1.0, 101)
    out = np.empty_like(s)
    assert target.gg_prime_fn(s, out) is out
    assert np.array_equal(out, target.gg_prime_fn(s, None))


def test_custom_target_gg_prime_jet_fallback():
    tgt = target_profile("custom", expr=["sin", "r"])
    s = np.array([0.3, 0.8])
    assert np.allclose(tgt.gg_prime_fn(s, None), 0.5 * np.sin(2 * s), rtol=1e-12)


def test_sphere_domain_bound():
    assert target_profile("sphere").domain_bound == math.pi
    assert target_profile("sphere", domain_bound=2.0).domain_bound == 2.0


def test_gamma_reference_sphere():
    tgt = target_profile("sphere")
    lbar = 2.0
    s = np.array([1e-8, 1e-4, 0.01, 0.5, 1.5])
    got = gamma_reference(tgt, lbar, s)
    # closed form away from 0
    want = lbar * (0.5 * np.sin(2 * s) - s) / s**3
    assert np.allclose(got[2:], want[2:], rtol=1e-10)
    # Taylor limit -2 lbar / 3 at 0
    assert np.allclose(got[:2], -2.0 * lbar / 3.0, rtol=1e-6)


def test_gamma_reference_flat_is_zero():
    tgt = target_profile("flat")
    s = np.array([0.0, 1e-6, 0.1, 2.0])
    assert np.allclose(gamma_reference(tgt, 2.0, s), 0.0, atol=1e-12)


def test_gamma_reference_seam_continuity():
    tgt = target_profile("sphere")
    below, above = gamma_reference(tgt, 2.0, [0.999 * SEAM, 1.001 * SEAM])
    assert abs(below - above) < 1e-8
