"""Closed-form radial profiles for base and target metrics.

Every profile, built-in or custom, is a tree of the scenario grammar
over a fixed elementary basis (polynomials, sqrt, exp, sinh, cosh,
rationals, the smooth cutoff exp(-eps/r)), closed under +, *, / and
composition.  Every profile can be evaluated on arrays and
differentiated to any requested finite order through jet arithmetic, at
one radius or on a whole grid in one pass.  A tree binds the jet kernels
of jets.py once to buffers of one shape (Expr.bind): a one-shot jet runs
them once, and a custom target's g g' binds them at order 1 and runs
them on every call, so one arithmetic serves every order and both uses.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from .errors import DomainError, OrderUnavailable
from .jets import COSH, EXP, SIN, SINH, SQRT, Jet, apply_into, mul_into, power, reciprocal_into

# Below this radius compute_V, whose brackets have removable
# singularities at the origin, evaluates them by their series there.
SERIES_RADIUS = 1e-3

# exp(-eps/r) is taken as exactly 0 where eps/r exceeds this
UNDERFLOW = 700.0


# -- the expression grammar ---------------------------------------------------


class Expr:
    """A node of the grammar: node(tape, *rows), which binds the jet
    kernels of its operator (jets.py) to the Taylor rows of its operands
    on the tape (Expr.bind), and its operands; a leaf has none."""

    def __init__(self, node, *operands):
        self.node, self.operands = node, operands

    def jet(self, r0, order: int) -> Jet:
        """Jet at r0, a number or an array of centres (a batched jet): the
        tree bound to buffers of r0's shape on a one-shot tape."""
        r = Jet.variable(r0, order)
        with np.errstate(all="ignore"):
            rows = self.bind(_Tape(r.taylor, keep=False))
        return Jet(r.center, rows)

    def bind(self, tape: "_Tape") -> np.ndarray:
        """The buffer, of the shape of tape.r, of the node's Taylor rows:
        the steps of its operands, then its own, are recorded on the
        tape, and they fill the buffer with the rows of the jet at the
        centres that tape.r[0] holds when they run."""
        return self.node(tape, *(a.bind(tape) for a in self.operands))


class _Tape:
    """A tree bound to buffers of one shape: r, the Taylor rows of the
    variable (Jet.variable), whose value row the caller sets, and the
    steps that fill every other buffer from it, in order.  A kept tape
    holds its steps, which run() repeats; a one-shot tape runs each step
    as it is recorded, so a buffer that no later step reads is freed.  A
    constant's buffer is filled when it is bound, and a step writes only
    buffers of its own node.  Steps run under np.errstate(all="ignore")."""

    def __init__(self, r: np.ndarray, keep: bool):
        self.r, self.steps = r, [] if keep else None

    def add(self, step):
        if self.steps is None:
            step()
        else:
            self.steps.append(step)

    def buffers(self, k: int) -> list:
        """k new buffers of r's shape, each its own allocation."""
        return [np.empty_like(self.r) for _ in range(k)]

    def record(self, kernel, *rows) -> np.ndarray:
        """A new buffer of r's shape, out, that the step kernel(*rows, out)
        fills."""
        out = np.empty_like(self.r)
        self.add(functools.partial(kernel, *rows, out))
        return out

    def run(self):
        for step in self.steps:
            step()


def _variable(tape):
    return tape.r


def _constant(c, tape):
    rows = np.zeros(tape.r.shape)  # Jet.constant
    rows[0] = c
    return rows


def _fold(kernel):
    """A left fold of the operands by kernel (functools.reduce: one
    operand is itself)."""
    def node(tape, rows, *rest):
        for b in rest:
            rows = tape.record(kernel, rows, b)
        return rows

    return node


def _quotient(tape, a, b):
    return tape.record(mul_into, a, tape.record(reciprocal_into, b))


def _apply(series):
    """The node of the operand composed into the function of series."""
    return lambda tape, a: tape.record(apply_into, series, tape.buffers(3), a)


def _pow(p, tape, a):
    """a**p: p products from the constant 1 for a natural p, else the
    composition with v^p (Jet.__pow__)."""
    if not (isinstance(p, int) and p >= 0):
        return _apply(power(p))(tape, a)
    one, acc = _constant(1.0, tape), tape.buffers(2)

    def products():
        rows = one
        for i in range(p):
            mul_into(rows, a, acc[i % 2])
            rows = acc[i % 2]

    tape.add(products)
    return acc[(p - 1) % 2] if p else one


def _cutoff(sqrt: bool, eps, tape):
    """The smooth cutoff exp(-eps/r), times sqrt(r) if sqrt (smooth at
    the origin thanks to the cutoff), extended by 0 at r <= 0: all its
    derivatives vanish at the origin, and the rows are exactly zero once
    exp(-eps/r) underflows.  Where they are zero the kernels run at the
    variable y = 1, elsewhere y = r."""
    r = tape.r
    y, zero = r.copy(), np.empty(r.shape[1:], dtype=bool)

    def mask():
        np.logical_or(r[0] <= 0, eps / r[0] > UNDERFLOW, out=zero)
        y[0] = np.where(zero, 1.0, r[0])

    tape.add(mask)
    t = _apply(EXP)(tape, tape.record(np.multiply, tape.record(reciprocal_into, y), -eps))
    if sqrt:
        t = tape.record(mul_into, _apply(SQRT)(tape, y), t)
    return tape.record(lambda t, out: np.copyto(out, np.where(zero, 0.0, t)), t)


# each operator: the least and the most operands, and its node, the one
# arithmetic of every order for a one-shot jet and a bound run alike
# (Expr.bind).  pow's exponent and the cutoffs' eps are numbers, bound
# into the node first, so a cutoff is a leaf.
_OPERATORS = {
    "+": (1, math.inf, _fold(np.add)),
    "*": (1, math.inf, _fold(mul_into)),
    "/": (2, 2, _quotient),
    "pow": (2, 2, _pow),
    "exp": (1, 1, _apply(EXP)),
    "sin": (1, 1, _apply(SIN)),
    "sinh": (1, 1, _apply(SINH)),
    "cosh": (1, 1, _apply(COSH)),
    "sqrt": (1, 1, _apply(SQRT)),
    "cutoff": (1, 1, functools.partial(_cutoff, False)),
    "sqrt_cutoff": (1, 1, functools.partial(_cutoff, True)),
}
# the operators whose last operand is a number, and what it is
_NUMBERS = {"pow": "exponent", "cutoff": "eps", "sqrt_cutoff": "eps"}
# the most levels of an expression tree: Expr.bind recurses once a level
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
                return Expr(_variable)
            raise DomainError(f"unknown expression symbol {spec!r}")
        if _is_number(spec):
            return Expr(functools.partial(_constant, float(spec)))
        if not isinstance(spec, (list, tuple)) or not spec:
            raise DomainError(f"bad expression node {spec!r}")
        op, *args = spec
        if not isinstance(op, str) or op not in _OPERATORS:
            raise DomainError(f"unknown expression operator {op!r}")
        least, most, node = _OPERATORS[op]
        if not least <= len(args) <= most:
            raise DomainError(f"operator {op!r} takes {'' if least == most else 'at least '}"
                              f"{least} operand(s), got {len(args)}")
        if op in _NUMBERS:
            *args, x = args
            if not _is_number(x):
                raise DomainError(f"{op} {_NUMBERS[op]} must be a finite number, got {x!r}")
            node = functools.partial(node, x)
        return Expr(node, *(parse(arg, depth + 1) for arg in args))

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
    with s of a shape binds the tree at order 1 (Expr.bind) to a tape of
    buffers of that shape, which f keeps until a call with s of another
    shape; each call then copies s into the variable's value row, runs
    the tape and writes value * slope into out, with the bits of
    expr.jet(s, 1).value * expr.jet(s, 1).derivative(1), NaN where the
    tree has no jet (a 0-d s raises as a scalar jet does), under one
    np.errstate(all="ignore")."""
    shape, tape, rows = None, None, None

    def gg_prime(s, out):
        nonlocal shape, tape, rows
        if np.shape(s) != shape:
            shape = np.shape(s)
            tape = _Tape(Jet.variable(np.zeros(shape), 1).taylor, keep=True)
            rows = expr.bind(tape)
        with np.errstate(all="ignore"):
            np.copyto(tape.r[0, ...], s)
            tape.run()
            return np.multiply(rows[0], rows[1], out=out)

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

