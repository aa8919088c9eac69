"""The cubic remainder Gamma of the wave-map nonlinearity, the reference
that the solver's forces are tested against.  The package never
evaluates Gamma: both forces take g g'(s) - s as written, by the exact
identity lbar g(s) g'(s) = lbar s + s^3 Gamma(s)."""

import numpy as np

from equiwave.jets import Jet

# below this |s|, Gamma by its Taylor series at 0, where the closed form
# cancels
SEAM = 1e-3


def gamma_reference(target, lbar, s):
    """Gamma(s) = (lbar g(s) g'(s) - lbar s) / s^3: the masked closed
    form, and the Taylor series rebuilt through jets on every call and
    evaluated by np.polyval."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    g = target.jet(0.0, 9)
    t = lbar * (g * g.deriv()).taylor
    t[1] -= lbar
    coeffs = Jet(0.0, t).shift_down(3, tol=1e-12).taylor
    out = np.empty_like(s)
    small = np.abs(s) < SEAM
    sb = s[~small]
    out[~small] = (lbar * target.gg_prime(sb) - lbar * sb) / (sb * sb * sb)
    out[small] = np.polyval(coeffs[::-1], s[small])
    return out
