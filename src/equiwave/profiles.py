"""Closed-form radial profiles for base and target metrics.

Profiles are small expression trees over a fixed elementary basis
(polynomials, sqrt, exp, sinh, cosh, rationals, the smooth cutoff
exp(-eps/r)), closed under +, *, / and composition.  Every profile can be
evaluated on arrays and differentiated to any requested finite order
through jet arithmetic, at one radius or on a whole grid in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, OrderUnavailable
from .jets import Jet, jet_cosh, jet_exp, jet_sin, jet_sinh, jet_sqrt

# Below this radius quantities with removable singularities are evaluated
# by series expansion at the origin instead of direct formulas.
SERIES_RADIUS = 1e-3


# -- expression nodes ---------------------------------------------------------


class Expr:
    def values(self, r):
        raise NotImplementedError

    def jet(self, r0, order: int) -> Jet:
        """Jet at r0, a number or an array of centres (a batched jet)."""
        raise NotImplementedError


class Var(Expr):
    def values(self, r):
        return np.asarray(r, dtype=float)

    def jet(self, r0, order):
        return Jet.variable(r0, order)


class Const(Expr):
    def __init__(self, c):
        self.c = float(c)

    def values(self, r):
        return np.full_like(np.asarray(r, dtype=float), self.c)

    def jet(self, r0, order):
        return Jet.constant(self.c, r0, order)


class Add(Expr):
    def __init__(self, *terms):
        self.terms = terms

    def values(self, r):
        out = self.terms[0].values(r)
        for t in self.terms[1:]:
            out = out + t.values(r)
        return out

    def jet(self, r0, order):
        j = self.terms[0].jet(r0, order)
        for t in self.terms[1:]:
            j = j + t.jet(r0, order)
        return j


class Mul(Expr):
    def __init__(self, *factors):
        self.factors = factors

    def values(self, r):
        out = self.factors[0].values(r)
        for f in self.factors[1:]:
            out = out * f.values(r)
        return out

    def jet(self, r0, order):
        j = self.factors[0].jet(r0, order)
        for f in self.factors[1:]:
            j = j * f.jet(r0, order)
        return j


class Div(Expr):
    def __init__(self, num, den):
        self.num, self.den = num, den

    def values(self, r):
        return self.num.values(r) / self.den.values(r)

    def jet(self, r0, order):
        return self.num.jet(r0, order) / self.den.jet(r0, order)


class Pow(Expr):
    """child**p; integer p works for any sign of the base, real p needs
    a positive base."""

    def __init__(self, child, p):
        self.child = child
        self.p = p

    def values(self, r):
        return self.child.values(r) ** self.p

    def jet(self, r0, order):
        return self.child.jet(r0, order) ** self.p


class _Unary(Expr):
    _np_fn = None
    _jet_fn = None

    def __init__(self, child):
        self.child = child

    def values(self, r):
        return type(self)._np_fn(self.child.values(r))

    def jet(self, r0, order):
        return type(self)._jet_fn(self.child.jet(r0, order))


class Exp(_Unary):
    _np_fn = staticmethod(np.exp)
    _jet_fn = staticmethod(jet_exp)


class Sin(_Unary):
    _np_fn = staticmethod(np.sin)
    _jet_fn = staticmethod(jet_sin)


class Sinh(_Unary):
    _np_fn = staticmethod(np.sinh)
    _jet_fn = staticmethod(jet_sinh)


class Cosh(_Unary):
    _np_fn = staticmethod(np.cosh)
    _jet_fn = staticmethod(jet_cosh)


class Sqrt(_Unary):
    _np_fn = staticmethod(np.sqrt)
    _jet_fn = staticmethod(jet_sqrt)


class Cutoff(Expr):
    """The smooth cutoff exp(-eps/r), extended by 0 at r = 0.

    All derivatives vanish at the origin; the jet is exactly zero once
    exp(-eps/r0) underflows.
    """

    UNDERFLOW = 700.0

    def __init__(self, eps):
        self.eps = float(eps)

    def values(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        pos = r > 0
        out[pos] = np.exp(-self.eps / r[pos])
        return out

    def jet(self, r0, order):
        return _cutoff_jet(r0, order, self.eps, lambda x: jet_exp(-self.eps / x))


def _cutoff_jet(r0, order, eps, build) -> Jet:
    """build(x) for x the variable at r0; the zero jet where the cutoff is 0."""
    r0 = np.asarray(r0, dtype=float)
    with np.errstate(divide="ignore"):
        zero = (r0 <= 0) | (eps / r0 > Cutoff.UNDERFLOW)
    t = build(Jet.variable(np.where(zero, 1.0, r0), order)).taylor
    return Jet(r0, np.where(zero, 0.0, t))


class SqrtCutoff(Expr):
    """sqrt(r) * exp(-eps/r); smooth at the origin thanks to the cutoff."""

    def __init__(self, eps):
        self.eps = float(eps)
        self._cut = Cutoff(eps)

    def values(self, r):
        r = np.asarray(r, dtype=float)
        return np.sqrt(np.maximum(r, 0.0)) * self._cut.values(r)

    def jet(self, r0, order):
        return _cutoff_jet(
            r0, order, self.eps, lambda x: jet_sqrt(x) * jet_exp(-self.eps / x)
        )


# -- expression parsing (scenario files) --------------------------------------

_UNARY = {"exp": Exp, "sin": Sin, "sinh": Sinh, "cosh": Cosh, "sqrt": Sqrt}


def parse_expr(spec) -> Expr:
    """Build an Expr from the nested-list grammar used in scenario files.

    Examples: "r", 2.5, ["+", a, b], ["*", a, b], ["/", a, b],
    ["pow", a, p], ["exp", a], ["cutoff", eps], ["sqrt_cutoff", eps].
    """
    if isinstance(spec, str):
        if spec == "r":
            return Var()
        raise DomainError(f"unknown expression symbol {spec!r}")
    if isinstance(spec, (int, float)):
        return Const(spec)
    if not isinstance(spec, (list, tuple)) or not spec:
        raise DomainError(f"bad expression node {spec!r}")
    op, *args = spec
    if op == "+":
        return Add(*[parse_expr(a) for a in args])
    if op == "*":
        return Mul(*[parse_expr(a) for a in args])
    if op == "/":
        return Div(parse_expr(args[0]), parse_expr(args[1]))
    if op == "pow":
        return Pow(parse_expr(args[0]), args[1])
    if op == "cutoff":
        return Cutoff(args[0])
    if op == "sqrt_cutoff":
        return SqrtCutoff(args[0])
    if op in _UNARY:
        return _UNARY[op](parse_expr(args[0]))
    raise DomainError(f"unknown expression operator {op!r}")


# -- metric profiles -----------------------------------------------------------


@dataclass(frozen=True)
class MetricProfile:
    """Radial component h(r) of a rotationally symmetric metric."""

    kind: str
    expr: Expr
    params: dict = field(default_factory=dict)
    max_order: int = 12
    smooth_at_zero: bool = True

    def __call__(self, r):
        return self.expr.values(r)

    def jet(self, r0, order: int) -> Jet:
        """Jet of h at a radius, or at every radius of an array."""
        if order > self.max_order:
            raise OrderUnavailable(
                f"order {order} exceeds max_order {self.max_order}"
            )
        r0 = np.asarray(r0, dtype=float)
        if np.any(r0 < 0):
            raise DomainError("radius must be nonnegative")
        if not self.smooth_at_zero and np.any(r0 == 0):
            raise DomainError(f"profile {self.kind!r} has no jet at r=0")
        return self.expr.jet(r0, order)

    def spec(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}


def metric_profile(kind: str, **params) -> MetricProfile:
    """Factory for the built-in metric families."""
    if kind == "flat":
        return MetricProfile("flat", Var())
    if kind == "hyperbolic":
        return MetricProfile("hyperbolic", Sinh(Var()))
    if kind == "sinh-perturbed":
        # sinh(r) + a r^3 / (1+r^2)^3: odd, mu'(0)=0, decays like r^-3
        a = params.get("amplitude", 0.01)
        mu = Div(Mul(Const(a), Pow(Var(), 3)), Pow(Add(Const(1.0), Pow(Var(), 2)), 3))
        return MetricProfile("sinh-perturbed", Add(Sinh(Var()), mu), {"amplitude": a})
    if kind == "polynomial-growth":
        M = params.get("M", 1.0)
        expr = Mul(Var(), Pow(Add(Const(1.0), Sqrt(Var())), M))
        return MetricProfile(
            "polynomial-growth", expr, {"M": M}, smooth_at_zero=False
        )
    if kind == "smoothed-polynomial":
        M = params.get("M", 1.0)
        eps = params.get("eps", 0.05)
        expr = Mul(Var(), Pow(Add(Const(1.0), SqrtCutoff(eps)), M))
        return MetricProfile("smoothed-polynomial", expr, {"M": M, "eps": eps})
    if kind == "exp-growth":
        return MetricProfile(
            "exp-growth", Add(Exp(Var()), Const(-1.0)), smooth_at_zero=False
        )
    if kind == "smoothed-exponential":
        eps = params.get("eps", 0.05)
        # r + (e^r - 1 - r) * exp(-eps/r): flattened near the origin
        corr = Add(Exp(Var()), Const(-1.0), Mul(Const(-1.0), Var()))
        expr = Add(Var(), Mul(corr, Cutoff(eps)))
        return MetricProfile("smoothed-exponential", expr, {"eps": eps})
    if kind == "sin":
        return MetricProfile("sin", Sin(Var()))
    if kind == "custom":
        return MetricProfile("custom", parse_expr(params["expr"]), dict(params))
    raise DomainError(f"unknown metric profile kind {kind!r}")


def check_normalization(profile: MetricProfile, tol: float = 1e-8) -> bool:
    """h(0) = 0 and h'(0) = 1, evaluated by jets (or a near-zero limit for
    profiles that are singular at the origin)."""
    if profile.smooth_at_zero:
        j = profile.jet(0.0, 1)
        return abs(j.value) <= tol and abs(j.derivative(1) - 1.0) <= tol
    r = 1e-8
    j = profile.jet(r, 1)
    return abs(j.value / r - 1.0) <= 1e-3 and abs(j.derivative(1) - 1.0) <= 1e-3


# -- target profiles -----------------------------------------------------------


@dataclass(frozen=True)
class TargetProfile:
    """Radial component g(phi) of a rotationally symmetric target metric."""

    kind: str
    expr: Expr
    domain_bound: float = math.inf  # g > 0 on (0, A)
    max_order: int = 12

    def __call__(self, s):
        return self.expr.values(s)

    def jet(self, s0, order: int) -> Jet:
        if order > self.max_order:
            raise OrderUnavailable(
                f"order {order} exceeds max_order {self.max_order}"
            )
        return self.expr.jet(s0, order)

    def gg_prime(self, s):
        """g(s) g'(s) evaluated on arrays (the wave-map nonlinearity)."""
        s = np.asarray(s, dtype=float)
        # closed forms for the built-in targets, else one jet over all of s
        if self.kind == "flat":
            return s.copy()
        if self.kind == "sphere":
            return 0.5 * np.sin(2.0 * s)
        if self.kind == "hyperbolic":
            return 0.5 * np.sinh(2.0 * s)
        j = self.expr.jet(s, 1)
        return j.value * j.derivative(1)

    def spec(self) -> dict:
        return {"kind": self.kind}


def target_profile(kind: str, domain_bound: Optional[float] = None, **params) -> TargetProfile:
    if kind == "flat":
        return TargetProfile("flat", Var(), domain_bound or math.inf)
    if kind == "sphere":
        return TargetProfile("sphere", Sin(Var()), domain_bound or math.pi)
    if kind == "hyperbolic":
        return TargetProfile("hyperbolic", Sinh(Var()), domain_bound or math.inf)
    if kind == "custom":
        return TargetProfile(
            "custom", parse_expr(params["expr"]), domain_bound or math.inf
        )
    raise DomainError(f"unknown target profile kind {kind!r}")


# -- cubic decomposition of the nonlinearity ---------------------------------


def _gamma_series(target: TargetProfile, lbar: float, order: int = 9) -> np.ndarray:
    """Taylor coefficients of Gamma(s) at s=0, highest degree first (the
    order np.polyval takes), where lbar*g(s)*g'(s) = lbar*s + s^3 * Gamma(s)."""
    g = target.jet(0.0, order)
    gg = g * g.deriv()  # order drops by one
    t = lbar * gg.taylor
    t[1] -= lbar
    j = Jet(0.0, t).shift_down(3, tol=1e-12)
    return j.taylor[::-1]


def gamma_decompose(target: TargetProfile, lbar: float, s, *, series=None):
    """Gamma(s) = (lbar*g(s)*g'(s) - lbar*s) / s^3, with the removable
    singularity at s=0 filled by the Taylor limit.

    A caller that evaluates Gamma at every time step passes
    ``series=_gamma_series(target, lbar)``, built once; without it the
    series is built on each call that needs it."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    a = np.abs(s)
    if (a >= target.domain_bound).any():
        raise DomainError("argument outside target domain")
    out = np.empty_like(s)
    small = a < SERIES_RADIUS
    big = ~small
    if big.any():
        sb = s[big]
        out[big] = (lbar * target.gg_prime(sb) - lbar * sb) / (sb * sb * sb)
    if small.any():
        if series is None:
            series = _gamma_series(target, lbar)
        # np.polyval's Horner recurrence, run in place
        x = s[small]
        y = np.full_like(x, series[0])
        for c in series[1:]:
            y *= x
            y += c
        out[small] = y
    return float(out[0]) if scalar else out
