"""Radial discretization of -Delta + W on R^m and its functional calculus.

Radial functions v(r) are sampled on a cell-centered grid.  The operator
acts on the symmetrized variable vtilde = r^((m-1)/2) v, where it becomes
a symmetric tridiagonal matrix: a finite-volume divergence-form stencil
for (r^(m-1) v')' / r^(m-1), conjugated by r^((m-1)/2).  The flux through
the r=0 face vanishes identically (regularity) and the outer boundary is
a zero Dirichlet value at R_max.  The eigendecomposition then gives exact
discrete calculus for |D|^s, <D>^s, e^(it sqrt(nu+H)) and resolvents.

The stencil is defined once, by _Stencil, from face weights and cell
averages; with the weight h^(n-1) of the base manifold the same stencil
serves the manifold form of the resolvent and the nonlinear solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

import numpy as np
import scipy.linalg

from .errors import (
    DimensionError,
    DomainError,
    NegativeEigenvalue,
    SingularSystem,
    TruncationTooSmall,
)

EIG_TOL = 1e-8  # below -EIG_TOL an eigenvalue is treated as a real failure


@dataclass(frozen=True)
class RadialGrid:
    """Cell-centered grid on [0, R_max]: r_j = (j+1/2) dr, dr = R_max/N."""

    R_max: float
    N: int

    def __post_init__(self):
        if self.R_max <= 0 or self.N < 2:
            raise DomainError("need R_max > 0 and N >= 2")

    @property
    def dr(self) -> float:
        return self.R_max / self.N

    @cached_property
    def nodes(self) -> np.ndarray:
        return (np.arange(self.N) + 0.5) * self.dr

    @cached_property
    def faces(self) -> np.ndarray:
        return np.arange(self.N + 1) * self.dr

    def surface_constant(self, m: int) -> float:
        """Area of the unit sphere in R^m."""
        return 2.0 * math.pi ** (m / 2) / math.gamma(m / 2)

    def volume_weights(self, m: int) -> np.ndarray:
        """Quadrature weights for integrals over R^m of radial functions."""
        return self.surface_constant(m) * self.nodes ** (m - 1) * self.dr

    def l2_norm(self, v, m: int) -> float:
        v = np.asarray(v)
        return float(np.sqrt(np.sum(np.abs(v) ** 2 * self.volume_weights(m)).real))


class _Stencil:
    """Finite-volume divergence form (F u')'/rho on the cell grid, from
    face weights F and cell averages rho of the volume weight, with zero
    flux through r=0 and a zero Dirichlet value beyond R_max.

    rho must hold cell averages, not midpoint values: the averages keep
    the stencil second order in the first cell at r=0.
    """

    def __init__(self, grid: RadialGrid, F: np.ndarray, rho: np.ndarray):
        self.grid = grid
        self.F = F
        self.rho = rho
        self._scale = 1.0 / (grid.dr**2 * rho)

    @classmethod
    def flat(cls, grid: RadialGrid, m: int) -> "_Stencil":
        """F = r^(m-1) with exact cell averages of r^(m-1)."""
        f = grid.faces
        return cls(grid, f ** (m - 1), (f[1:] ** m - f[:-1] ** m) / (m * grid.dr))

    @classmethod
    def manifold(cls, grid: RadialGrid, profile, n: int) -> "_Stencil":
        """F = h^(n-1) with Simpson cell averages of h^(n-1).

        F[0] = 0 is the zero flux through r=0 that h(0) = 0 gives; h is
        not evaluated there, where a profile may have no jet."""
        F = np.zeros(grid.N + 1)
        F[1:] = profile(grid.faces[1:]) ** (n - 1)
        rho = (F[:-1] + 4.0 * profile(grid.nodes) ** (n - 1) + F[1:]) / 6.0
        return cls(grid, F, rho)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """(F u')'/rho in flux form, for real or complex u."""
        # out= saves three temporaries per call; the solver calls this every step
        flux = np.empty(self.grid.N + 1, dtype=np.result_type(u, 0.0))
        flux[0] = 0.0
        inner = np.subtract(u[1:], u[:-1], out=flux[1:-1])
        inner *= self.F[1:-1]
        flux[-1] = -self.F[-1] * u[-1]
        out = np.subtract(flux[1:], flux[:-1])
        out *= self._scale
        return out

    def quadratic_form(self, u: np.ndarray) -> float:
        """sum over faces of F (du/dr)^2, the discrete gradient energy
        (times dr it approximates the integral of F u'^2)."""
        du2 = np.diff(u) ** 2
        edge = u[-1] ** 2
        return float(
            (np.sum(self.F[1:-1] * du2) + self.F[-1] * edge) / self.grid.dr**2
        )

    def tridiagonal(self):
        """Diagonal and off-diagonal of -(F u')'/rho conjugated by rho^(1/2)."""
        dr2 = self.grid.dr**2
        diag = (self.F[:-1] + self.F[1:]) / (dr2 * self.rho)
        off = -self.F[1:-1] / (dr2 * np.sqrt(self.rho[:-1] * self.rho[1:]))
        return diag, off


@dataclass
class DiscreteRadialOperator:
    """H = -Delta + W on radial functions of R^m, symmetrized."""

    grid: RadialGrid
    m: int
    W_samples: np.ndarray
    stencil: _Stencil = field(repr=False)

    @cached_property
    def _eig(self):
        diag, off = self.stencil.tridiagonal()
        lam, vec = scipy.linalg.eigh_tridiagonal(diag + self.W_samples, off)
        return lam, vec

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eig[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eig[1]

    @property
    def lambda_floor(self) -> float:
        # infrared cutoff imposed by truncation to [0, R_max]
        return (math.pi / (2.0 * self.grid.R_max)) ** 2

    @property
    def rho_cells(self) -> np.ndarray:
        return self.stencil.rho

    # The transforms below take one grid function, shape (N,), or a stack
    # of them as the columns of an (N, k) array; a stack is transformed by
    # one matrix product.

    def symmetrize(self, v) -> np.ndarray:
        v = np.asarray(v)
        return v * _down_rows(np.sqrt(self.rho_cells), v)

    def unsymmetrize(self, vt) -> np.ndarray:
        vt = np.asarray(vt)
        return vt / _down_rows(np.sqrt(self.rho_cells), vt)

    def apply(self, v) -> np.ndarray:
        """H v for a radial grid function v."""
        v = np.asarray(v)
        return self.W_samples * v - self.stencil.apply(v)

    def coefficients(self, v) -> np.ndarray:
        return self.eigenvectors.T @ self.symmetrize(v)

    def from_coefficients(self, c) -> np.ndarray:
        return self.unsymmetrize(self.eigenvectors @ np.asarray(c))


def _down_rows(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The (N,) vector w shaped to scale each row of v, (N,) or (N, k)."""
    return w.reshape(w.shape + (1,) * (v.ndim - 1))


def build_operator(
    grid: RadialGrid, m: int, W: Optional[np.ndarray] = None
) -> DiscreteRadialOperator:
    """Second-order symmetric tridiagonal discretization of -Delta + W,
    with W sampled at the grid nodes."""
    if m < 5:
        raise DimensionError(f"radial reduction requires m >= 5, got {m}")
    if W is None:
        Ws = np.zeros(grid.N)
    else:
        Ws = np.asarray(W, dtype=float)
        if Ws.shape != (grid.N,):
            raise DomainError("W sample length does not match the grid")
    return DiscreteRadialOperator(grid, m, Ws, _Stencil.flat(grid, m))


def _powered(op: DiscreteRadialOperator, s: float, shift: str) -> np.ndarray:
    """Eigenvalue multiplier of H^s ("homogeneous", floored at the infrared
    cutoff when s < 0) or of (1+H)^s ("inhomogeneous")."""
    lam = op.eigenvalues
    if np.min(lam) < -EIG_TOL:
        raise NegativeEigenvalue(f"eigenvalue {np.min(lam)} below -{EIG_TOL}")
    if shift == "inhomogeneous":
        base = 1.0 + np.maximum(lam, 0.0)
    elif shift == "homogeneous":
        base = np.maximum(lam, op.lambda_floor if s < 0 else 0.0)
    else:
        raise DomainError(f"unknown shift {shift!r}")
    return base**s


def frac_norm(
    op: DiscreteRadialOperator, s: float, v, shift: str = "homogeneous"
) -> Union[float, np.ndarray]:
    """|| H^(s/2) v ||_{L^2(R^m)} (or <H>^(s/2)) via eigen-calculus: a
    float for v of shape (N,), one norm per column for an (N, k) stack."""
    c = op.coefficients(v)
    p = _powered(op, s, shift)
    scale = op.grid.surface_constant(op.m) * op.grid.dr
    norms = np.sqrt(scale * np.sum(_down_rows(p, c) * np.abs(c) ** 2, axis=0))
    return float(norms) if c.ndim == 1 else norms


def evolve_linear(
    op: DiscreteRadialOperator,
    f,
    g,
    nu: float,
    t: float,
    return_velocity: bool = False,
):
    """u(t) = cos(t sqrt(nu+H)) f + sin(t sqrt(nu+H)) (nu+H)^(-1/2) g."""
    if nu < 0:
        raise DomainError("nu must be nonnegative")
    lam = op.eigenvalues + nu
    if np.min(lam) < -EIG_TOL:
        raise NegativeEigenvalue(f"nu + lambda_min = {np.min(lam)}")
    om = np.sqrt(np.maximum(lam, 0.0))
    cf = op.coefficients(f)
    cg = op.coefficients(g)
    # sin(t om)/om, continuous at om = 0
    sinc = t * np.sinc(t * om / math.pi)
    u = op.from_coefficients(np.cos(t * om) * cf + sinc * cg)
    if not return_velocity:
        return u
    ut = op.from_coefficients(-om * np.sin(t * om) * cf + np.cos(t * om) * cg)
    return u, ut


def resolve(
    kappa: complex,
    f,
    grid: RadialGrid,
    m: Optional[int] = None,
    W: Optional[np.ndarray] = None,
    profile=None,
    n: Optional[int] = None,
    h_infinity: float = 0.0,
) -> np.ndarray:
    """Solve the truncated radial Helmholtz problem

      u'' + (m-1)/r u' + kappa^2 u - W u = f        (flat R^m form), or
      u'' + (n-1) h'/h u' + kappa^2 u = f           (manifold form),

    with regularity at 0 and zero value at R_max.  Valid when the decay
    rate Im sqrt(kappa^2 - h_infinity) times R_max is at least 5.
    """
    kappa = complex(kappa)
    if kappa.imag <= 0:
        raise DomainError("resolvent frequency needs Im kappa > 0")
    kdec = np.emath.sqrt(kappa**2 - h_infinity)
    if kdec.imag < 0:
        kdec = -kdec
    if kdec.imag * grid.R_max < 5.0:
        raise TruncationTooSmall(
            f"Im sqrt(kappa^2 - h_inf) * R_max = {kdec.imag * grid.R_max:.3f} < 5"
        )
    if profile is not None:
        if n is None or n < 3:
            raise DomainError("manifold form needs n >= 3")
        stencil = _Stencil.manifold(grid, profile, n)
    else:
        if m is None or m < 3:
            raise DomainError("flat form needs m >= 3")
        stencil = _Stencil.flat(grid, m)
    diag, off = stencil.tridiagonal()
    if profile is None and W is not None:
        diag = diag + np.asarray(W)
    rho_half = np.sqrt(stencil.rho)
    f = np.asarray(f)
    ft = rho_half * f
    # (kappa^2 I - A) u~ = f~ with A = -(rho u')'/rho (+W), symmetrized
    ab = np.zeros((3, grid.N), dtype=complex)
    ab[0, 1:] = -off
    ab[1, :] = kappa**2 - diag
    ab[2, :-1] = -off
    try:
        ut = scipy.linalg.solve_banded((1, 1), ab, ft)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SingularSystem(str(exc)) from exc
    if not np.all(np.isfinite(ut)):
        raise SingularSystem("non-finite resolvent solution")
    return ut / rho_half
