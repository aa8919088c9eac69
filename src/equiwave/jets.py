"""Truncated Taylor-series (jet) arithmetic.

A jet stores the Taylor coefficients of a function at a point, up to a
finite order.  Sums, products, quotients and compositions with
elementary functions propagate the coefficients exactly (up to floating
point roundoff), which gives machine-precision derivatives of composite
closed-form profiles without symbolic algebra or finite differences.

A jet may hold a whole array of centres: its coefficients then have
shape (order+1, *batch), every operation acts along axis 0, and one pass
evaluates a radius grid (Griewank & Walther, *Evaluating Derivatives*,
2nd ed., SIAM 2008, ch. 13).  Where a function has no value a scalar jet
raises and a batched jet is NaN at that point only, without warnings.

The arithmetic is written once, as kernels that fill the Taylor rows,
shape (order+1, *shape), of a buffer ``out``, their last argument:
``np.add`` (the sum is row by row), ``mul_into``, ``reciprocal_into``
and ``apply_into``, the Horner composition with an outer series
(``EXP``, ``SIN``, ``SINH``, ``COSH``, ``SQRT``, ``power(p)``) in
``work``, three scratch buffers of out's shape.  A kernel reads its
operands and writes only ``out`` and ``work``, which share no memory
with an operand; rows of shape () are a scalar jet.  Jet's operators
run the kernels on fresh buffers, and profiles.Expr.bind binds them
once to the buffers of a whole tree.  The kernels set no floating-point
error state: Jet's operators and the runs of a bound tree ignore every
error.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError


def _factorials(n: int) -> np.ndarray:
    return np.array([math.factorial(j) for j in range(n + 1)], dtype=float)


def _scalar_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


# -- kernels -------------------------------------------------------------------


def mul_into(a, b, out):
    """The Cauchy product of a and b, each of out's shape, truncated: row
    k is a0 bk + a1 b(k-1) + ... + ak b0, added left to right."""
    n = len(out) - 1
    np.multiply(a[0], b, out=out)
    for i in range(1, n + 1):
        rows = out[i:]
        np.add(rows, a[i] * b[: n + 1 - i], out=rows)


def reciprocal_into(a, out):
    """1 / a: where a's value is 0 a scalar jet raises and a batch is NaN."""
    zero = a[0] == 0.0
    if a.ndim == 1 and zero:
        raise ZeroDivisionError("jet value is zero")
    a0 = np.where(zero, np.nan, a[0])
    out[0] = 1.0 / a0
    for j in range(1, len(out)):
        out[j] = -np.sum(a[1 : j + 1] * out[j - 1 :: -1], axis=0) / a0


def _compose_into(outer, a, out, du, acc):
    """a composed into the outer series whose Taylor rows at a's value are
    outer: Horner evaluation in the fluctuation du = a - a0, truncated,
    with acc as scratch."""
    n = len(out) - 1
    np.copyto(du, a)
    du[0] = 0.0
    bufs = (out, acc)  # alternate, so that the last product lands in out
    cur = bufs[n % 2]
    cur.fill(0.0)
    cur[0] = outer[n]
    for j in range(n - 1, -1, -1):
        nxt = bufs[j % 2]
        mul_into(cur, du, nxt)
        value = nxt[0, ...]
        np.add(value, outer[j], out=value)
        cur = nxt


def apply_into(series, work, a, out):
    """a composed with the function whose Taylor rows at v the call
    series(v, rows) writes.  Where the function value is not finite a
    batch is NaN; a scalar jet raises OverflowError if v is finite."""
    v, (outer, du, acc) = a[0], work
    series(v, outer)
    if not np.isfinite(outer[0]).all():
        bad = ~np.isfinite(outer[0])
        if outer.ndim > 1:
            outer[:, bad] = np.nan
        elif np.isfinite(v):
            raise OverflowError(f"elementary function overflows at {v}")
    _compose_into(outer, a, out, du, acc)


# -- outer series of the elementary functions ---------------------------------
#
# series(v, rows) writes the Taylor coefficients of the function at v (a
# number or an array) into rows, shape (order+1, *v.shape).


def _positive(v, what: str):
    """v where v > 0; elsewhere a scalar raises and an array is NaN."""
    bad = v <= 0
    if np.ndim(v) == 0:
        if bad:
            raise DomainError(f"{what} of non-positive value {v}")
        return v
    return np.where(bad, np.nan, v)


def _cyclic(names, sign: float = 1.0):
    """The series whose derivatives at v cycle through the numpy functions
    names: the j-th is that of names[j % p], p = len(names) <= 2, times
    sign once per completed cycle.  A function is evaluated only if the
    order reaches it."""
    p = len(names)

    def series(v, rows):
        for j in range(len(rows)):
            if j < p:  # sign^0 / j! = 1: the row is the value
                getattr(np, names[j])(v, out=rows[j, ...])
            else:
                np.multiply(rows[j % p], sign ** (j // p), out=rows[j, ...])
                np.divide(rows[j, ...], math.factorial(j), out=rows[j, ...])

    return series


def power(p):
    """The series of v^p: where v <= 0 a scalar raises, a batch is NaN."""
    def series(v, rows):
        v = _positive(v, "real power")
        c = v**p
        rows[0] = c
        for j in range(len(rows) - 1):
            c = c * (p - j) / v
            rows[j + 1] = c / math.factorial(j + 1)

    return series


EXP, SIN, SQRT = _cyclic(("exp",)), _cyclic(("sin", "cos"), -1.0), power(0.5)
SINH, COSH = _cyclic(("sinh", "cosh")), _cyclic(("cosh", "sinh"))


class Jet:
    """Taylor expansion of a function at ``center`` up to a finite order.

    ``taylor[j]`` is the coefficient of (r - center)^j, i.e.
    f^(j)(center) / j!.  ``center`` is a float, or an array of centres
    for a batched jet whose ``taylor`` has shape (order+1, *center.shape);
    ``taylor.T`` puts the degree last, where per-degree factors broadcast.
    """

    __slots__ = ("center", "taylor")

    def __init__(self, center, taylor):
        c = np.asarray(center, dtype=float)
        self.center = c if c.ndim else float(c)
        self.taylor = np.asarray(taylor, dtype=float)

    # -- constructors --------------------------------------------------

    @classmethod
    def variable(cls, center, order: int) -> "Jet":
        t = np.zeros((order + 1,) + np.shape(center))
        t[0] = center
        if order >= 1:
            t[1] = 1.0
        return cls(center, t)

    @classmethod
    def constant(cls, value, center, order: int) -> "Jet":
        t = np.zeros((order + 1,) + np.shape(center))
        t[0] = value
        return cls(center, t)

    # -- accessors -----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.taylor) - 1

    @property
    def value(self):
        """f(center): a float for a scalar jet, an array for a batch."""
        return _scalar_or_array(self.taylor[0])

    @np.errstate(all="ignore")
    def derivative(self, j: int):
        if j > self.order:
            raise IndexError(f"jet holds derivatives up to order {self.order}")
        return _scalar_or_array(self.taylor[j] * math.factorial(j))

    @property
    @np.errstate(all="ignore")
    def coeffs(self) -> np.ndarray:
        """Derivative values f(r0), f'(r0), ..., f^(J)(r0) along axis 0."""
        return (self.taylor.T * _factorials(self.order)).T

    def __repr__(self):
        return f"Jet(center={self.center}, derivs={self.coeffs.tolist()})"

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            # the jets of one expression share the centre array itself
            if other.center is not self.center and not np.array_equal(
                    other.center, self.center, equal_nan=True):
                raise ValueError("jet centers differ")
            return other
        return Jet.constant(other, self.center, self.order)

    def _run(self, kernel, *operands) -> "Jet":
        """The jet that kernel(*operands, out) writes into a fresh buffer,
        the operands cut to the lowest order among them."""
        n = min(len(a) for a in operands) - 1
        operands = [a[: n + 1] for a in operands]
        out = np.empty_like(operands[0])
        kernel(*operands, out)
        return Jet(self.center, out)

    @np.errstate(all="ignore")
    def __add__(self, other):
        return self._run(np.add, self.taylor, self._coerce(other).taylor)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.center, -self.taylor)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    @np.errstate(all="ignore")
    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Jet(self.center, self.taylor * other)
        return self._run(mul_into, self.taylor, self._coerce(other).taylor)

    __rmul__ = __mul__

    @np.errstate(all="ignore")
    def reciprocal(self) -> "Jet":
        return self._run(reciprocal_into, self.taylor)

    @np.errstate(all="ignore")
    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Jet(self.center, self.taylor / other)
        return self * self._coerce(other).reciprocal()

    def __pow__(self, p):
        if isinstance(p, int) and p >= 0:
            out = Jet.constant(1.0, self.center, self.order)
            for _ in range(p):
                out = out * self
            return out
        return self.apply(power(p))

    @np.errstate(all="ignore")
    def apply(self, series) -> "Jet":
        """Compose with the function whose outer series is series
        (apply_into)."""
        work = [np.empty_like(self.taylor) for _ in range(3)]
        return self._run(functools.partial(apply_into, series, work), self.taylor)

    def deriv(self) -> "Jet":
        """Jet of f' (order drops by one)."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(self.center, (self.taylor[1:].T * np.arange(1, self.order + 1)).T)

    def shift_down(self, k: int, tol: float = 1e-9) -> "Jet":
        """Divide by (r - center)^k; the first k Taylor coefficients must
        vanish (relative to the largest coefficient)."""
        scale = np.max(np.abs(self.taylor), axis=0)
        scale = np.where(scale == 0, 1.0, scale)
        if np.any(np.abs(self.taylor[:k]) > tol * scale):
            raise ValueError("leading Taylor coefficients do not vanish")
        return Jet(self.center, self.taylor[k:])

