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
from typing import ClassVar, Optional

import numpy as np

from .errors import DomainError, OrderUnavailable
from .jets import Jet, jet_cosh, jet_exp, jet_sin, jet_sinh, jet_sqrt

# Below this radius compute_V, whose brackets have removable
# singularities at the origin, evaluates them by their series there.
SERIES_RADIUS = 1e-3


# -- expression nodes ---------------------------------------------------------


class Expr:
    def jet(self, r0, order: int) -> Jet:
        """Jet at r0, a number or an array of centres (a batched jet)."""
        raise NotImplementedError


class Var(Expr):
    def jet(self, r0, order):
        return Jet.variable(r0, order)


class Const(Expr):
    def __init__(self, c):
        self.c = float(c)

    def jet(self, r0, order):
        return Jet.constant(self.c, r0, order)


class Add(Expr):
    def __init__(self, *terms):
        self.terms = terms

    def jet(self, r0, order):
        j = self.terms[0].jet(r0, order)
        for t in self.terms[1:]:
            j = j + t.jet(r0, order)
        return j


class Mul(Expr):
    def __init__(self, *factors):
        self.factors = factors

    def jet(self, r0, order):
        j = self.factors[0].jet(r0, order)
        for f in self.factors[1:]:
            j = j * f.jet(r0, order)
        return j


class Div(Expr):
    def __init__(self, num, den):
        self.num, self.den = num, den

    def jet(self, r0, order):
        return self.num.jet(r0, order) / self.den.jet(r0, order)


class Pow(Expr):
    """child**p; integer p works for any sign of the base, real p needs
    a positive base."""

    def __init__(self, child, p):
        if not isinstance(p, (int, float)):
            raise DomainError(f"pow exponent must be a number, got {p!r}")
        self.child = child
        self.p = p

    def jet(self, r0, order):
        return self.child.jet(r0, order) ** self.p


class _Unary(Expr):
    _jet_fn = None

    def __init__(self, child):
        self.child = child

    def jet(self, r0, order):
        return type(self)._jet_fn(self.child.jet(r0, order))


class Exp(_Unary):
    _jet_fn = staticmethod(jet_exp)


class Sin(_Unary):
    _jet_fn = staticmethod(jet_sin)


class Sinh(_Unary):
    _jet_fn = staticmethod(jet_sinh)


class Cosh(_Unary):
    _jet_fn = staticmethod(jet_cosh)


class Sqrt(_Unary):
    _jet_fn = staticmethod(jet_sqrt)


class Cutoff(Expr):
    """The smooth cutoff exp(-eps/r), extended by 0 at r = 0.

    All derivatives vanish at the origin; the jet is exactly zero once
    exp(-eps/r0) underflows.
    """

    UNDERFLOW = 700.0

    def __init__(self, eps):
        self.eps = float(eps)

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

    def jet(self, r0, order):
        return _cutoff_jet(
            r0, order, self.eps, lambda x: jet_sqrt(x) * jet_exp(-self.eps / x)
        )


# -- expression parsing (scenario files) --------------------------------------

# each operator: the least and the most operands, and its node built
# from them (pow's exponent and the cutoff eps are numbers)
_OPERATORS = {
    "+": (1, math.inf, lambda *a: Add(*map(parse_expr, a))),
    "*": (1, math.inf, lambda *a: Mul(*map(parse_expr, a))),
    "/": (2, 2, lambda a, b: Div(parse_expr(a), parse_expr(b))),
    "pow": (2, 2, lambda a, p: Pow(parse_expr(a), p)),
    "exp": (1, 1, lambda a: Exp(parse_expr(a))),
    "sin": (1, 1, lambda a: Sin(parse_expr(a))),
    "sinh": (1, 1, lambda a: Sinh(parse_expr(a))),
    "cosh": (1, 1, lambda a: Cosh(parse_expr(a))),
    "sqrt": (1, 1, lambda a: Sqrt(parse_expr(a))),
    "cutoff": (1, 1, Cutoff),
    "sqrt_cutoff": (1, 1, SqrtCutoff),
}


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
    if not isinstance(op, str) or op not in _OPERATORS:
        raise DomainError(f"unknown expression operator {op!r}")
    least, most, build = _OPERATORS[op]
    if not least <= len(args) <= most:
        count = least if least == most else f"at least {least}"
        raise DomainError(f"operator {op!r} takes {count} operand(s), got {len(args)}")
    return build(*args)


# -- metric profiles -----------------------------------------------------------


@dataclass(frozen=True)
class MetricProfile:
    """Radial component h(r) of a rotationally symmetric metric."""

    kind: str
    expr: Expr
    params: dict = field(default_factory=dict)
    smooth_at_zero: bool = True
    max_order: ClassVar[int] = 12

    def __call__(self, r):
        """h(r), the value of its order-0 jet: NaN on an array where h
        has no jet, an exception at a single radius."""
        return self.expr.jet(np.asarray(r, dtype=float), 0).value

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


def check_normalization(profile: MetricProfile) -> bool:
    """h(0) = 0 and h'(0) = 1 within 1e-8 by jets (within 1e-3 by a
    near-zero limit for profiles that are singular at the origin)."""
    if profile.smooth_at_zero:
        j = profile.jet(0.0, 1)
        return abs(j.value) <= 1e-8 and abs(j.derivative(1) - 1.0) <= 1e-8
    r = 1e-8
    j = profile.jet(r, 1)
    return abs(j.value / r - 1.0) <= 1e-3 and abs(j.derivative(1) - 1.0) <= 1e-3


# -- target profiles -----------------------------------------------------------

# TargetProfile.linear_radius of the built-in targets
_LINEAR_RADIUS = {"flat": math.inf, "sphere": 2.0**-27, "hyperbolic": 2.0**-27}


@dataclass(frozen=True)
class TargetProfile:
    """Radial component g(phi) of a rotationally symmetric target metric."""

    kind: str
    expr: Expr
    domain_bound: float = math.inf  # g > 0 on (0, A)
    max_order: ClassVar[int] = 12

    def __call__(self, s):
        """g(s), the value of its order-0 jet."""
        return self.expr.jet(np.asarray(s, dtype=float), 0).value

    def jet(self, s0, order: int) -> Jet:
        if order > self.max_order:
            raise OrderUnavailable(
                f"order {order} exceeds max_order {self.max_order}"
            )
        return self.expr.jet(s0, order)

    @property
    def linear_radius(self) -> float:
        """The radius below which g(s) g'(s) rounds to s.  0.5 sin(2s) and
        0.5 sinh(2s) are s bit for bit when |s| < 2^-27, where their cubic
        term 2 s^3 / 3 is below half an ulp of s (the first inexact s is
        near 1.07e-8); flat g g' is s itself; a custom target gets 0, so
        its jet runs on every s."""
        return _LINEAR_RADIUS.get(self.kind, 0.0)

    def gg_prime(self, s, out=None):
        """g(s) g'(s) evaluated on arrays (the wave-map nonlinearity),
        written into out, an array of s's shape, when given."""
        s = np.asarray(s, dtype=float)
        # closed forms for the built-in targets, else one jet over all of s
        if self.kind == "flat":
            return np.positive(s, out=out)
        if self.kind in ("sphere", "hyperbolic"):
            fn = np.sin if self.kind == "sphere" else np.sinh
            return np.multiply(0.5, fn(np.multiply(2.0, s, out=out), out=out), out=out)
        j = self.expr.jet(s, 1)
        return np.multiply(j.value, j.derivative(1), out=out)


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


def _gamma_series(target: TargetProfile, lbar: float) -> np.ndarray:
    """Taylor coefficients of Gamma(s) at s=0 up to degree 5, highest
    degree first (the order np.polyval takes), where
    lbar*g(s)*g'(s) = lbar*s + s^3 * Gamma(s)."""
    g = target.jet(0.0, 9)
    gg = g * g.deriv()  # order drops by one
    t = lbar * gg.taylor
    t[1] -= lbar
    j = Jet(0.0, t).shift_down(3, tol=1e-12)
    return j.taylor[::-1]

