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
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def _factorials(n: int) -> np.ndarray:
    return np.array([math.factorial(j) for j in range(n + 1)], dtype=float)


def _scalar_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


def _mul_trunc(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Cauchy product along axis 0, truncated after degree ``order``."""
    a, b = a[: order + 1], b[: order + 1]
    out = a[0] * b
    for i in range(1, order + 1):
        out[i:] += a[i] * b[: order + 1 - i]
    return out


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
            if other.center is not self.center and not np.array_equal(other.center, self.center):
                raise ValueError("jet centers differ")
            return other
        return Jet.constant(other, self.center, self.order)

    @np.errstate(all="ignore")
    def __add__(self, other):
        o = self._coerce(other)
        n = min(self.order, o.order)
        return Jet(self.center, self.taylor[: n + 1] + o.taylor[: n + 1])

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.center, -self.taylor)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    @np.errstate(all="ignore")
    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Jet(self.center, self.taylor * other)
        o = self._coerce(other)
        return Jet(self.center, _mul_trunc(self.taylor, o.taylor, min(self.order, o.order)))

    __rmul__ = __mul__

    @np.errstate(all="ignore")
    def reciprocal(self) -> "Jet":
        a = self.taylor
        zero = a[0] == 0.0
        if a.ndim == 1 and zero:
            raise ZeroDivisionError("jet value is zero")
        a0 = np.where(zero, np.nan, a[0])  # a batch is NaN where it is 0
        out = np.empty_like(a)
        out[0] = 1.0 / a0
        for j in range(1, self.order + 1):
            out[j] = -np.sum(a[1 : j + 1] * out[j - 1 :: -1], axis=0) / a0
        return Jet(self.center, out)

    @np.errstate(all="ignore")
    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Jet(self.center, self.taylor / other)
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, int) and p >= 0:
            out = Jet.constant(1.0, self.center, self.order)
            for _ in range(p):
                out = out * self
            return out
        return self.apply(_power_series(p))

    # -- composition with elementary functions ---------------------------

    @np.errstate(all="ignore")
    def compose_outer(self, outer_taylor: np.ndarray) -> "Jet":
        """Compose self into an outer series given by Taylor coefficients
        around ``self.value`` (Horner evaluation, truncated)."""
        n = self.order
        du = self.taylor.copy()
        du[0] = 0.0  # fluctuation part
        acc = np.zeros_like(du)
        acc[0] = outer_taylor[-1]
        for g in outer_taylor[-2::-1]:
            acc = _mul_trunc(acc, du, n)
            acc[0] += g
        return Jet(self.center, acc)

    @np.errstate(all="ignore")
    def apply(self, series_fn) -> "Jet":
        """Compose with the function whose Taylor series at v is
        ``series_fn(v, order)``.  A batch is NaN where the function value
        is not finite; a scalar jet raises OverflowError if v is finite."""
        v = self.taylor[0]
        outer = series_fn(v, self.order)
        bad = ~np.isfinite(outer[0])
        if bad.any():
            if outer.ndim > 1:
                outer[:, bad] = np.nan
            elif np.isfinite(v):
                raise OverflowError(f"elementary function overflows at {v}")
        if self.order == 0:  # the Horner loop is empty: the outer value is the jet
            return Jet(self.center, outer)
        return self.compose_outer(outer)

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


# -- elementary functions ----------------------------------------------------
#
# ``apply`` takes the Taylor series of the outer function at the values v
# (a number or an array): coefficients of shape (n+1, *v.shape).


def _positive(v, what: str):
    """v where v > 0; elsewhere a scalar raises and an array is NaN."""
    bad = v <= 0
    if np.ndim(v) == 0:
        if bad:
            raise DomainError(f"{what} of non-positive value {v}")
        return v
    return np.where(bad, np.nan, v)


def _cyclic(n: int, v, fns, sign: float = 1.0):
    """Series whose derivatives at v cycle through fns: the j-th is
    fns[j % len(fns)](v), times ``sign`` once per completed cycle.  A
    function is evaluated only if the order reaches it."""
    p = len(fns)
    vals = [f(v) for f in fns[: n + 1]]
    return np.array([sign ** (j // p) * vals[j % p] / math.factorial(j) for j in range(n + 1)])


def _power_series(p):
    def series(v, n):
        v = _positive(v, "real power")
        c = v**p
        out = [c]
        for j in range(n):
            c = c * (p - j) / v
            out.append(c / math.factorial(j + 1))
        return np.array(out)

    return series


def jet_exp(x: Jet) -> Jet:
    return x.apply(lambda v, n: _cyclic(n, v, [np.exp]))


def jet_sin(x: Jet) -> Jet:
    return x.apply(lambda v, n: _cyclic(n, v, [np.sin, np.cos], -1.0))


def jet_sinh(x: Jet) -> Jet:
    return x.apply(lambda v, n: _cyclic(n, v, [np.sinh, np.cosh]))


def jet_cosh(x: Jet) -> Jet:
    return x.apply(lambda v, n: _cyclic(n, v, [np.cosh, np.sinh]))


def jet_sqrt(x: Jet) -> Jet:
    return x.apply(_power_series(0.5))
