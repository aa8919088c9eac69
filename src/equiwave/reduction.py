"""Change of variables from the equivariant wave map to a radial wave
equation on a higher-dimensional flat space.

The angular mode phi(t,r) of equivariance degree k on an n-dimensional
rotationally symmetric base is written phi = w(r) psi with
w = r^(k+(n-1)/2) / h^((n-1)/2).  The function psi then solves a radial
semilinear wave equation on R^m, m = n+2k, with potential V(r) that is
smooth at the origin.  This module provides w, V, W = V - h_inf and
the exact rational Strichartz indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .admissibility import estimate_h_infinity
from .errors import DomainError
from .jets import Jet
from .profiles import SERIES_RADIUS, MetricProfile


def weight_w(profile: MetricProfile, n: int, k: int, r):
    """w(r) = r^(k+(n-1)/2) / h(r)^((n-1)/2), as r^k (r/h)^((n-1)/2).

    The ratio form is stable near the origin where h(r) ~ r."""
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if np.any(r < 0):
        raise DomainError("radius must be nonnegative")
    out = np.zeros_like(r)
    pos = r > 0
    h = profile(r[pos])
    out[pos] = r[pos] ** k * (r[pos] / h) ** ((n - 1) / 2)
    # w(0) = 0 for k >= 1, 1 for k = 0 (h'(0) = 1)
    out[~pos] = 0.0 if k >= 1 else 1.0
    return float(out[0]) if scalar else out


def _origin_jets(profile: MetricProfile):
    """Jets at 0 of the three smooth brackets entering V, built from
    h(r) = r + r^3 h1(r):

      A = h''/h, B = h'^2/h^2 - 1/r^2, C = 1/h^2 - 1/r^2.
    """
    J = profile.max_order
    hj = profile.jet(0.0, J)
    rv = Jet.variable(0.0, J)
    h1 = (hj - rv).shift_down(3)          # order J-3
    o = h1.order - 2
    h1p = h1.deriv()
    h1pp = h1p.deriv()                    # order J-5
    h1, h1p = Jet(0.0, h1.taylor[: o + 1]), Jet(0.0, h1p.taylor[: o + 1])
    r = Jet.variable(0.0, o)
    den = 1.0 + r * r * h1
    A = (6.0 * h1 + 6.0 * r * h1p + r * r * h1pp) / den
    B = (2.0 * h1 + r * h1p) * (2.0 + 4.0 * r * r * h1 + r * r * r * h1p) / (den * den)
    C = -(2.0 * h1 + r * r * h1 * h1) / (den * den)
    return A, B, C


def _poly(jet: Jet, r):
    return np.polyval(jet.taylor[::-1], r)


def compute_V(profile: MetricProfile, n: int, k: int, r):
    """Potential of the reduced radial equation,

      V = (n-1)/2 [h''/h + (n-3)/2 (h'^2/h^2 - 1/r^2)]
          + k(k+n-2) (1/h^2 - 1/r^2),

    smooth at the origin; evaluated by series below SERIES_RADIUS."""
    if n < 3 or k < 0:
        raise DomainError("need n >= 3 and k >= 0")
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r).astype(float)
    if np.any(r < 0):
        raise DomainError("radius must be nonnegative")
    out = np.empty_like(r)
    lbar = k * (k + n - 2)
    small = r < SERIES_RADIUS
    if np.any(~small):
        rb = r[~small]
        j = profile.jet(rb, 2)
        h, h1v, h2v = j.value, j.derivative(1), j.derivative(2)
        with np.errstate(over="ignore", invalid="ignore"):
            d1, d0 = h1v**2 / h**2, 1.0 / h**2
        # h^2 overflows on exponentially growing bases (sinh r past
        # r ~ 355); only there square the ratios h'/h and 1/h instead,
        # so every finite value keeps its bits
        big = ~np.isfinite(d1)
        d1[big] = (h1v[big] / h[big]) ** 2
        d0[big] = (1.0 / h[big]) ** 2
        out[~small] = (n - 1) / 2 * (
            h2v / h + (n - 3) / 2 * (d1 - 1.0 / rb**2)
        ) + lbar * (d0 - 1.0 / rb**2)
    if np.any(small):
        A, B, C = _origin_jets(profile)
        rs = r[small]
        out[small] = (n - 1) / 2 * (_poly(A, rs) + (n - 3) / 2 * _poly(B, rs)) \
            + lbar * _poly(C, rs)
    return float(out[0]) if scalar else out


def indices(n: int, k: int) -> dict:
    """Exact rational Strichartz indices of the reduced problem on R^m."""
    if n < 3 or k < 1:
        raise DomainError("need n >= 3 and k >= 1")
    m = n + 2 * k
    p = Fraction(4 * (m + 1), m + 3)
    q = Fraction(4 * m * (m + 1), 2 * m * m - m - 5)
    a = Fraction(2 * (m + 1), m - 1)
    a_prime = Fraction(2 * (m + 1), m + 3)
    b = q
    # exact rational sanity: the diagonal pair (a, a) sits on the wave
    # admissibility line, and (p, q) satisfies the extended range
    # 1/q <= 1/2 - 2/((m-1) p); (p, q) is on the line itself only at m=5
    assert Fraction(2, 1) / a + Fraction(m - 1, 1) / a == Fraction(m - 1, 2)
    assert Fraction(1, 1) / q <= Fraction(1, 2) - Fraction(2, m - 1) / p
    assert 2 * a_prime == p and b == q
    assert 2 < p and 2 <= q < Fraction(2 * (m - 1), m - 3)
    return {"m": m, "p": p, "q": q, "a": a, "a_prime": a_prime, "b": b}


@dataclass
class ReducedProblem:
    """Data of the reduced radial equation on R^m."""

    profile: MetricProfile
    n: int
    k: int
    h_infinity: float
    indices: dict

    @property
    def m(self) -> int:
        return self.n + 2 * self.k

    def V(self, r):
        return compute_V(self.profile, self.n, self.k, r)

    def W(self, r):
        return self.V(r) - self.h_infinity

    def summary(self) -> dict:
        idx = {key: [v.numerator, v.denominator] if isinstance(v, Fraction) else v
               for key, v in self.indices.items()}
        return {
            "profile": self.profile.spec(),
            "n": self.n,
            "k": self.k,
            "m": self.m,
            "h_infinity": self.h_infinity,
            "indices": idx,
        }


def reduce_problem(
    profile: MetricProfile, n: int, k: int, h_infinity: Optional[float] = None
) -> ReducedProblem:
    if h_infinity is None:
        h_infinity, _ = estimate_h_infinity(profile, n)
    return ReducedProblem(profile, n, k, h_infinity, indices(n, k))
