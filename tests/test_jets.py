"""Taylor-mode derivatives against sympy oracles."""

import math

import numpy as np
import pytest
import sympy as sp

from equiwave.jets import COSH, EXP, SIN, SINH, SQRT, Jet


def sympy_derivs(expr, x, x0, order):
    return [float(sp.diff(expr, x, j).subs(x, x0)) for j in range(order + 1)]


def test_variable_and_constant():
    v = Jet.variable(2.0, 4)
    assert v.value == 2.0
    assert v.derivative(1) == 1.0
    assert v.derivative(2) == 0.0
    c = Jet.constant(7.0, 2.0, 4)
    assert c.value == 7.0
    assert c.derivative(1) == 0.0


def test_arithmetic_matches_sympy():
    x = sp.symbols("x")
    expr = (x**2 + 3 * x) * (x - 1) / (x**2 + 1)
    x0, order = 1.3, 6
    v = Jet.variable(x0, order)
    jet = (v * v + 3.0 * v) * (v - 1.0) / (v * v + 1.0)
    want = sympy_derivs(expr, x, x0, order)
    got = [jet.derivative(j) for j in range(order + 1)]
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_jets_at_one_nan_centre_combine():
    # two jets at the same NaN centre, scalar or batched, have one centre;
    # jets at different centres still refuse to combine
    x = Jet.variable(float("nan"), 2)
    assert np.isnan((x * (x + 1.0)).taylor).all()
    xs = Jet.variable(np.array([1.0, np.nan]), 2)
    assert (xs * (xs + 1.0)).value[0] == 2.0
    with pytest.raises(ValueError, match="jet centers differ"):
        x * Jet.variable(1.0, 2)


@pytest.mark.parametrize(
    "series,sp_fn",
    [(EXP, sp.exp), (SIN, sp.sin), (SINH, sp.sinh), (COSH, sp.cosh), (SQRT, sp.sqrt)],
    ids=[f"jet_{f}-{f}" for f in ("exp", "sin", "sinh", "cosh", "sqrt")],
)
def test_elementary_functions(series, sp_fn):
    x = sp.symbols("x")
    x0, order = 0.7, 7
    v = Jet.variable(x0, order)
    inner = v * v + 0.5 * v  # composite argument exercises the chain rule
    jet = inner.apply(series)
    expr = sp_fn(x**2 + 0.5 * x)
    want = sympy_derivs(expr, x, x0, order)
    got = [jet.derivative(j) for j in range(order + 1)]
    assert np.allclose(got, want, rtol=1e-10, atol=1e-10)


def test_integer_and_real_powers():
    x = sp.symbols("x")
    x0, order = 1.1, 6
    v = Jet.variable(x0, order)
    for p in (3, -2, 0.5, 2.75):
        jet = (v + 1.0) ** p
        want = sympy_derivs((x + 1) ** p, x, x0, order)
        got = [jet.derivative(j) for j in range(order + 1)]
        assert np.allclose(got, want, rtol=1e-10)


def test_reciprocal_requires_nonzero():
    v = Jet.variable(0.0, 3)
    with pytest.raises(Exception):
        v.reciprocal()


def test_deriv_drops_order():
    v = Jet.variable(0.5, 5)
    jet = v.apply(SIN)
    d = jet.deriv()
    assert d.order == 4
    assert math.isclose(d.value, math.cos(0.5), rel_tol=1e-14)


def test_shift_down():
    # f(r) = r^3 (1 + r) shifted down by 3 leaves 1 + r
    jet = Jet(0.0, np.array([0.0, 0.0, 0.0, 1.0, 1.0]))
    down = jet.shift_down(3)
    assert np.allclose(down.taylor, [1.0, 1.0])


def test_shift_down_rejects_nonvanishing():
    jet = Jet(0.0, np.array([0.5, 0.0, 1.0]))
    with pytest.raises(Exception):
        jet.shift_down(2)

