"""The dense eigen-calculus of a DiscreteRadialOperator: the exact
reference that the contour powers, the Chebyshev flow and the solver are
tested against.  The package applies functions of the operator without
an eigenbasis; here one full eigendecomposition per operator gives them
modewise.  Every function takes the operator as its first argument and
a grid function of shape (N,) or a column stack of shape (N, k)."""

import math

import numpy as np
import scipy.linalg

from equiwave.errors import DomainError, NegativeEigenvalue
from equiwave.spectral import EIG_TOL, _power_base

# id(op) -> (op, eigenvalues, eigenvectors), for the last few operators:
# the operator is held with its basis, so its id is not reused while the
# entry lives
_BASES: dict = {}
_MAX_BASES = 4


def _eigh(op) -> tuple:
    """(eigenvalues, eigenvectors) of one eigh_tridiagonal call on op,
    computed once.  The reference pairs the basis with its own eigenvalues:
    op.eigenvalues come from a separate eigvalsh_tridiagonal, whose lowest
    (7.7e-4, on the free R_max = 40, N = 800 operator shifted by a
    constant) is 3.5e-10 off in relative terms, where this one is 3e-11."""
    if id(op) not in _BASES:
        if len(_BASES) == _MAX_BASES:
            del _BASES[next(iter(_BASES))]
        _BASES[id(op)] = (op, *scipy.linalg.eigh_tridiagonal(*op.tridiagonal))
    return _BASES[id(op)][1:]


def eigenvalues(op) -> np.ndarray:
    """The eigenvalues of op, ascending, paired with eigenvectors(op)."""
    return _eigh(op)[0]


def eigenvectors(op) -> np.ndarray:
    """The (N, N) orthonormal eigenvectors of op in the symmetrized
    variable, columns in the order of eigenvalues(op)."""
    return _eigh(op)[1]


def coefficients(op, v) -> np.ndarray:
    return eigenvectors(op).T @ op.symmetrize(v)


def from_coefficients(op, c) -> np.ndarray:
    return op.unsymmetrize(eigenvectors(op) @ np.asarray(c))


def powered(op, s: float, shift: str) -> np.ndarray:
    """Eigenvalue multiplier (b + lambda)^s of the power H^s or (1+H)^s,
    b of spectral._power_base."""
    return (_power_base(op, shift) + eigenvalues(op)) ** s


def evolve_linear(op, f, g, nu: float, t: float, return_velocity: bool = False):
    """u(t) = cos(t sqrt(nu+H)) f + sin(t sqrt(nu+H)) (nu+H)^(-1/2) g."""
    if nu < 0:
        raise DomainError("nu must be nonnegative")
    lam = eigenvalues(op) + nu
    if np.min(lam) < -EIG_TOL:
        raise NegativeEigenvalue(f"nu + lambda_min = {np.min(lam)}")
    om = np.sqrt(np.maximum(lam, 0.0))
    cf = coefficients(op, f)
    cg = coefficients(op, g)
    # sin(t om)/om, continuous at om = 0
    sinc = t * np.sinc(t * om / math.pi)
    u = from_coefficients(op, np.cos(t * om) * cf + sinc * cg)
    if not return_velocity:
        return u
    ut = from_coefficients(op, -om * np.sin(t * om) * cf + np.cos(t * om) * cg)
    return u, ut
