"""Closed-form radial profiles for base and target metrics.

Every profile, built-in or custom, is a tree of the scenario grammar
over a fixed elementary basis (polynomials, sqrt, exp, sinh, cosh,
rationals, the smooth cutoff exp(-eps/r)), closed under +, *, / and
composition.  Every profile can be evaluated on arrays and
differentiated to any requested finite order through jet arithmetic, at
one radius or on a whole grid in one pass.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from .errors import DomainError, OrderUnavailable
from .jets import Jet, jet_cosh, jet_exp, jet_sin, jet_sinh, jet_sqrt

# Below this radius compute_V, whose brackets have removable
# singularities at the origin, evaluates them by their series there.
SERIES_RADIUS = 1e-3

# exp(-eps/r) is taken as exactly 0 where eps/r exceeds this
UNDERFLOW = 700.0


# -- the expression grammar ---------------------------------------------------


class Expr:
    """A node of the grammar: fn applied to the jets of its operands, or
    fn(r0, order) for a leaf, which has none; and rule, its order-1 rule
    (Expr.bind)."""

    def __init__(self, fn, rule, *operands):
        self.fn, self.rule, self.operands = fn, rule, operands

    def jet(self, r0, order: int) -> Jet:
        """Jet at r0, a number or an array of centres (a batched jet)."""
        if not self.operands:
            return self.fn(r0, order)
        return self.fn(*(a.jet(r0, order) for a in self.operands))

    def bind(self, x: np.ndarray, steps: list):
        """The node's order-1 pair (value, slope) at the centres that the
        array x holds, in buffers of x's shape: the steps of its operands,
        then its own, are appended to steps, and running them in order,
        under np.errstate(all="ignore"), fills the pair with the bits of
        the rows of the batched jet self.jet(x, 1) (NaN at a 0-d x where
        the scalar jet raises)."""
        pair, step = self.rule(x, *(a.bind(x, steps) for a in self.operands))
        if step is not None:
            steps.append(step)
        return pair


def _cutoff(sqrt: bool, eps, r0, order) -> Jet:
    """The smooth cutoff exp(-eps/r), times sqrt(r) if sqrt (smooth at
    the origin thanks to the cutoff), extended by 0 at r <= 0: all its
    derivatives vanish at the origin, and the jet is exactly zero once
    exp(-eps/r0) underflows."""
    r0 = np.asarray(r0, dtype=float)
    with np.errstate(divide="ignore"):
        zero = (r0 <= 0) | (eps / r0 > UNDERFLOW)
    x = Jet.variable(np.where(zero, 1.0, r0), order)
    t = jet_exp(-eps / x)
    if sqrt:
        t = jet_sqrt(x) * t
    return Jet(r0, np.where(zero, 0.0, t.taylor))


def _fold(op):
    return lambda *jets: functools.reduce(op, jets)


# -- order-1 rules ----------------------------------------------------------------
#
# A node's rule takes the buffer x of the centres and its operands' pairs
# and returns its own pair and the step (None for none) that fills it
# (Expr.bind).  A pair is a tuple of arrays of x's shape, (value, slope),
# and a node's own has a third, its scratch.  Each step repeats the
# arithmetic of the node's order-1 jet in jets.py, in its order, so
# every bit of the pair is the jet's.


def _triple(x):
    """A node's own buffers: value, slope and scratch."""
    return tuple(np.empty_like(x) for _ in range(3))


def _variable_rule(x):
    return (x, np.ones_like(x)), None  # Jet.variable


def _constant_rule(c, x):
    return (np.full_like(x, c), np.zeros_like(x)), None  # Jet.constant


def _add(a, b, out):
    np.add(a[0], b[0], out=out[0])
    np.add(a[1], b[1], out=out[1])


def _mul(a, b, out):
    """(a0 b0, a0 b1 + a1 b0), as _mul_trunc; out may be a or b."""
    np.multiply(a[1], b[0], out=out[2])
    np.multiply(a[0], b[1], out=out[1])
    np.add(out[1], out[2], out=out[1])
    np.multiply(a[0], b[0], out=out[0])


def _reciprocal(b, out):
    """(1/b0', -(0 + b1 (1/b0')) / b0'), b0' = b0 but NaN where b0 == 0, as
    Jet.reciprocal (whose np.sum over one row adds it to +0)."""
    np.copyto(out[2], b[0])
    np.copyto(out[2], np.nan, where=b[0] == 0.0)
    np.divide(1.0, out[2], out=out[0])
    np.multiply(b[1], out[0], out=out[1])
    np.add(0.0, out[1], out=out[1])
    np.negative(out[1], out=out[1])
    np.divide(out[1], out[2], out=out[1])


def _compose(series, a, out, ok):
    """Compose a into the function whose order-1 series at a0, written by
    series(a0, out) into out[0] and out[1] (with out[2] as scratch), is
    (o0, o1): both NaN where o0 is not finite (Jet.apply), then the one
    Horner step of compose_outer, (o1 0 + o0, o1 a1 + 0 0)."""
    series(a[0], out)
    if not np.isfinite(out[0], out=ok).all():
        np.invert(ok, out=ok)
        np.copyto(out[0], np.nan, where=ok)
        np.copyto(out[1], np.nan, where=ok)
    np.multiply(out[1], 0.0, out=out[2])
    np.add(out[2], out[0], out=out[0])
    np.multiply(out[1], a[1], out=out[1])
    np.add(out[1], 0.0, out=out[1])


def _cyclic_outer(f0, f1):
    """The order-1 series (f0(v), f1(v)) of _cyclic, whose factors
    sign^0 / 0! and sign^0 / 1! (exp: sign^1 = 1) are exact."""
    def series(v, out):
        f0(v, out=out[0])
        f1(v, out=out[1])

    return series


def _power_outer(p):
    """The order-1 series of _power_series(p): v' = v where v > 0, else
    NaN, and (v'^p, v'^p p / v'), v'^p by the dispatch of v' ** p."""
    def series(v, out):
        np.copyto(out[2], v)
        np.copyto(out[2], np.nan, where=v <= 0)
        np.copyto(out[0], out[2])
        operator.ipow(out[0], p)
        np.multiply(out[0], p, out=out[1])
        np.divide(out[1], out[2], out=out[1])

    return series


_EXP, _SQRT = _cyclic_outer(np.exp, np.exp), _power_outer(0.5)


def _fold_rule(step):
    """The rule of a left fold by step(a, b, out), which may write into a."""
    def rule(x, first, *rest):
        if not rest:  # functools.reduce returns the one operand itself
            return first, None
        out = _triple(x)

        def fold():
            step(first, rest[0], out)
            for b in rest[1:]:
                step(out, b, out)

        return out, fold

    return rule


def _compose_rule(series):
    """The rule of composing the operand into an elementary function."""
    def rule(x, a):
        out, ok = _triple(x), np.empty(x.shape, dtype=bool)
        return out, lambda: _compose(series, a, out, ok)

    return rule


def _pow_rule(p, x, a):
    """j**p: p products from the constant (1, 0) for a natural p, else the
    composition with v^p (Jet.__pow__)."""
    if not (isinstance(p, int) and p >= 0):
        return _compose_rule(_power_outer(p))(x, a)
    out = _triple(x)

    def power():
        out[0].fill(1.0)
        out[1].fill(0.0)
        for _ in range(p):
            _mul(out, a, out)

    return out, power


def _quotient_rule(x, a, b):
    out, recip = _triple(x), _triple(x)

    def quotient():
        _reciprocal(b, recip)
        _mul(a, recip, out)

    return out, quotient


def _cutoff_rule(sqrt: bool, eps, x):
    """_cutoff step by step: the variable at y = 1 where masked, else x,
    its reciprocal times -eps (Jet.__mul__ by a number), exp of that,
    times sqrt(y) if sqrt, and 0 where masked."""
    zero, ok = np.empty(x.shape, dtype=bool), np.empty(x.shape, dtype=bool)
    y = (np.empty_like(x), np.ones_like(x))
    recip, scaled, t, root = _triple(x), _triple(x), _triple(x), _triple(x)

    def cutoff():
        np.logical_or(x <= 0, eps / x > UNDERFLOW, out=zero)
        np.copyto(y[0], x)
        np.copyto(y[0], 1.0, where=zero)
        _reciprocal(y, recip)
        np.multiply(recip[0], -eps, out=scaled[0])
        np.multiply(recip[1], -eps, out=scaled[1])
        _compose(_EXP, scaled, t, ok)
        if sqrt:
            _compose(_SQRT, y, root, ok)
            _mul(root, t, t)
        np.copyto(t[0], 0.0, where=zero)
        np.copyto(t[1], 0.0, where=zero)

    return t, cutoff


# each operator: the least and the most operands, its node's jet function
# and its order-1 rule (Expr.bind).  pow's exponent and the cutoffs' eps
# are numbers, bound into both first, so a cutoff is a leaf.
_OPERATORS = {
    "+": (1, math.inf, _fold(operator.add), _fold_rule(_add)),
    "*": (1, math.inf, _fold(operator.mul), _fold_rule(_mul)),
    "/": (2, 2, operator.truediv, _quotient_rule),
    "pow": (2, 2, lambda p, j: j**p, _pow_rule),
    "exp": (1, 1, jet_exp, _compose_rule(_EXP)),
    "sin": (1, 1, jet_sin, _compose_rule(_cyclic_outer(np.sin, np.cos))),
    "sinh": (1, 1, jet_sinh, _compose_rule(_cyclic_outer(np.sinh, np.cosh))),
    "cosh": (1, 1, jet_cosh, _compose_rule(_cyclic_outer(np.cosh, np.sinh))),
    "sqrt": (1, 1, jet_sqrt, _compose_rule(_SQRT)),
    "cutoff": (1, 1, functools.partial(_cutoff, False), functools.partial(_cutoff_rule, False)),
    "sqrt_cutoff": (1, 1, functools.partial(_cutoff, True),
                    functools.partial(_cutoff_rule, True)),
}
# the operators whose last operand is a number, and what it is
_NUMBERS = {"pow": "exponent", "cutoff": "eps", "sqrt_cutoff": "eps"}
# the most levels of an expression tree: Expr.jet recurses once a level
# (a 500-deep tree ran out of Python's stack), and the built-in trees are
# at most 6 deep
MAX_EXPR_DEPTH = 100


def _is_number(x) -> bool:
    """A real number in the range of a float: no JSON boolean, NaN,
    Infinity, or integer that no float holds.  A rational is compared
    exactly, any other real (a numpy float32, say) as a float64."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    return abs(x if isinstance(x, numbers.Rational) else float(x)) <= sys.float_info.max


def parse_expr(spec) -> Expr:
    """Build an Expr from the nested-list grammar used in scenario files.

    Examples: "r", 2.5, ["+", a, b], ["*", a, b], ["/", a, b],
    ["pow", a, p], ["exp", a], ["cutoff", eps], ["sqrt_cutoff", eps].
    A number is finite, and a JSON boolean is none.  A tree is at most
    MAX_EXPR_DEPTH levels deep.
    """
    def parse(spec, depth: int) -> Expr:
        if depth > MAX_EXPR_DEPTH:
            raise DomainError(f"expression is deeper than {MAX_EXPR_DEPTH} levels")
        if isinstance(spec, str):
            if spec == "r":
                return Expr(Jet.variable, _variable_rule)
            raise DomainError(f"unknown expression symbol {spec!r}")
        if _is_number(spec):
            return Expr(functools.partial(Jet.constant, float(spec)),
                        functools.partial(_constant_rule, float(spec)))
        if not isinstance(spec, (list, tuple)) or not spec:
            raise DomainError(f"bad expression node {spec!r}")
        op, *args = spec
        if not isinstance(op, str) or op not in _OPERATORS:
            raise DomainError(f"unknown expression operator {op!r}")
        least, most, fn, rule = _OPERATORS[op]
        if not least <= len(args) <= most:
            raise DomainError(f"operator {op!r} takes {'' if least == most else 'at least '}"
                              f"{least} operand(s), got {len(args)}")
        if op in _NUMBERS:
            *args, x = args
            if not _is_number(x):
                raise DomainError(f"{op} {_NUMBERS[op]} must be a finite number, got {x!r}")
            fn, rule = functools.partial(fn, x), functools.partial(rule, x)
        return Expr(fn, rule, *(parse(arg, depth + 1) for arg in args))

    return parse(spec, 1)


def _built_in(table: dict, what: str, kind, params: dict):
    """The parameters of a built-in kind (its defaults updated by params,
    which may name no other key) and the rest of its table entry."""
    if not isinstance(kind, str) or kind not in table:
        raise DomainError(f"unknown {what} profile kind {kind!r}")
    defaults, *entry = table[kind]
    for key in params:
        if key not in defaults:
            raise DomainError(f"{what} profile {kind!r} has no parameter {key!r}")
    return {**defaults, **params}, *entry


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


# each built-in metric: its parameters with their defaults, its grammar
# tree, and whether it is smooth at r = 0
_METRICS = {
    "flat": ({}, lambda: "r", True),
    "hyperbolic": ({}, lambda: ["sinh", "r"], True),
    # sinh(r) + a r^3 / (1+r^2)^3: odd, mu'(0)=0, decays like r^-3
    "sinh-perturbed": ({"amplitude": 0.01}, lambda amplitude: [
        "+", ["sinh", "r"],
        ["/", ["*", amplitude, ["pow", "r", 3]], ["pow", ["+", 1.0, ["pow", "r", 2]], 3]],
    ], True),
    "polynomial-growth": ({"M": 1.0}, lambda M: [
        "*", "r", ["pow", ["+", 1.0, ["sqrt", "r"]], M]], False),
    "smoothed-polynomial": ({"M": 1.0, "eps": 0.05}, lambda M, eps: [
        "*", "r", ["pow", ["+", 1.0, ["sqrt_cutoff", eps]], M]], True),
    "exp-growth": ({}, lambda: ["+", ["exp", "r"], -1.0], False),
    # r + (e^r - 1 - r) * exp(-eps/r): flattened near the origin
    "smoothed-exponential": ({"eps": 0.05}, lambda eps: [
        "+", "r", ["*", ["+", ["exp", "r"], -1.0, ["*", -1.0, "r"]], ["cutoff", eps]]], True),
    "sin": ({}, lambda: ["sin", "r"], True),
    "custom": ({"expr": None}, lambda expr: expr, True),
}


def metric_profile(kind: str, **params) -> MetricProfile:
    """A built-in metric family, or a custom one from its "expr" tree."""
    params, tree, smooth = _built_in(_METRICS, "metric", kind, params)
    return MetricProfile(kind, parse_expr(tree(**params)), params, smooth)


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
        its g g' runs on every s."""
        return _LINEAR_RADIUS.get(self.kind, 0.0)

    @property
    def gg_prime_fn(self):
        """g(s) g'(s), the wave-map nonlinearity, as the one function f(s, out)
        that evaluates it on a float64 array s, into out (an array of s's shape,
        or None): a built-in kind's closed form, else a new function bound to
        the custom tree (_bound_gg_prime)."""
        return _GG_PRIME.get(self.kind) or _bound_gg_prime(self.expr)


def _gg_circular(fn):
    """g g'(s) = 0.5 fn(2s), for g = sin (fn = sin) and g = sinh (fn = sinh)."""
    multiply, half, two = np.multiply, np.array(0.5), np.array(2.0)

    def gg_prime(s, out):
        return multiply(half, fn(multiply(two, s, out=out), out=out), out=out)

    return gg_prime


def _bound_gg_prime(expr: Expr):
    """g g' of the tree expr, as f(s, out) of gg_prime_fn.  The first call
    with s of a shape walks the tree once (Expr.bind) into buffers of that
    shape, which f keeps until a call with s of another shape; each call
    then copies s into them, runs the steps and writes value * slope into
    out, with the bits of expr.jet(s, 1).value * expr.jet(s, 1).derivative(1)
    on an array s, NaN where the tree has no jet, under one
    np.errstate(all="ignore")."""
    shape, x, steps, pair = None, None, [], None

    def gg_prime(s, out):
        nonlocal shape, x, steps, pair
        if np.shape(s) != shape:
            shape, steps = np.shape(s), []
            x = np.empty(shape)
            pair = expr.bind(x, steps)
        with np.errstate(all="ignore"):
            np.copyto(x, s)
            for step in steps:
                step()
            return np.multiply(pair[0], pair[1], out=out)

    return gg_prime


# TargetProfile.gg_prime_fn of the built-in targets, by kind
_GG_PRIME = {"flat": lambda s, out: np.positive(s, out=out),
             "sphere": _gg_circular(np.sin), "hyperbolic": _gg_circular(np.sinh)}


# each built-in target: its parameters with their defaults, its grammar
# tree, and its default domain bound
_TARGETS = {
    "flat": ({}, lambda: "r", math.inf),
    "sphere": ({}, lambda: ["sin", "r"], math.pi),
    "hyperbolic": ({}, lambda: ["sinh", "r"], math.inf),
    "custom": ({"expr": None}, lambda expr: expr, math.inf),
}


def target_profile(kind: str, domain_bound: Optional[float] = None, **params) -> TargetProfile:
    """A built-in target family, or a custom one from its "expr" tree;
    a domain_bound given replaces the kind's own and must be positive."""
    params, tree, bound = _built_in(_TARGETS, "target", kind, params)
    if domain_bound is not None:
        if not domain_bound > 0:
            raise DomainError(f"target domain_bound must be positive, got {domain_bound}")
        bound = domain_bound
    return TargetProfile(kind, parse_expr(tree(**params)), bound)


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

