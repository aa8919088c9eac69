"""Radial discretization of -Delta + W on R^m and its functional calculus.

Radial functions v(r) are sampled on a cell-centered grid.  The operator
acts on the symmetrized variable vtilde = r^((m-1)/2) v, where it becomes
a symmetric tridiagonal matrix: a finite-volume divergence-form stencil
for (r^(m-1) v')' / r^(m-1), conjugated by r^((m-1)/2).  The flux through
the r=0 face vanishes identically (regularity) and the outer boundary is
a zero Dirichlet value at R_max.

Functions of the operator are applied without an eigenbasis, in O(N)
memory per vector.  One shifted solve, (z - H) y = x by a complex
tridiagonal LAPACK call, serves the resolvent and the fractional powers,
contour quadratures of the resolvent with one solve per node; the wave
propagator cos(t sqrt(nu+H)) is a Chebyshev series in H.  The dense
eigendecomposition (eigenvectors, coefficients, from_coefficients,
evolve_linear) is kept as the exact reference for tests and demos.

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
        """(F u')'/rho in flux form, for real or complex u of shape (N,)
        or a column stack of shape (N, k)."""
        # out= saves three temporaries per call; the solver calls this every step
        F, scale, order = self.F[1:-1], self._scale, "C"
        if u.ndim > 1:
            F, scale = F[:, None], scale[:, None]
            # a column-major stack keeps its layout: whole columns per inner loop
            order = "F" if u.flags.f_contiguous else "C"
        flux = np.empty((self.grid.N + 1,) + u.shape[1:], dtype=np.result_type(u, 0.0),
                        order=order)
        flux[0] = 0.0
        inner = np.subtract(u[1:], u[:-1], out=flux[1:-1])
        inner *= F
        flux[-1] = -self.F[-1] * u[-1]
        out = np.subtract(flux[1:], flux[:-1])
        out *= scale
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
    W_samples: Optional[np.ndarray]  # W at the nodes; None for W = 0
    stencil: _Stencil = field(repr=False)
    # eigenpairs below a cut, by cut: _modes_below computes each once
    _below: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        N = self.grid.N
        W = np.zeros(N) if self.W_samples is None else np.asarray(self.W_samples, float)
        if W.shape != (N,):
            raise DomainError("W sample length does not match the grid")
        bad = np.flatnonzero(~np.isfinite(W))
        if bad.size:
            raise DomainError(f"potential W is not finite at r = {self.grid.nodes[bad[0]]:.6g}")
        self.W_samples = W

    @cached_property
    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of H in the symmetrized variable."""
        diag, off = self.stencil.tridiagonal()
        return diag + self.W_samples, off

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """All N eigenvalues, ascending, without eigenvectors."""
        return scipy.linalg.eigvalsh_tridiagonal(*self.tridiagonal)

    @cached_property
    def spectral_bounds(self) -> tuple[float, float]:
        """(lowest eigenvalue, upper bound of the spectrum): the first by
        bisection, the second by Gershgorin's theorem."""
        diag, off = self.tridiagonal
        lo = scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i",
                                               select_range=(0, 0))[0]
        radius = np.zeros_like(diag)
        radius[:-1] += np.abs(off)
        radius[1:] += np.abs(off)
        return float(lo), float(np.max(diag + radius))

    def _modes_below(self, cut: float) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues up to ``cut`` and their eigenvectors in the
        symmetrized variable, as (p,) and (N, p) arrays; usually p = 0."""
        if cut not in self._below:
            lo = self.spectral_bounds[0]
            if lo > cut:
                self._below[cut] = (np.empty(0), np.empty((self.grid.N, 0)))
            else:
                self._below[cut] = scipy.linalg.eigh_tridiagonal(
                    *self.tridiagonal, select="v",
                    select_range=(lo - 1.0 - abs(lo), cut))
        return self._below[cut]

    # the dense eigenbasis: the exact reference for tests and demos

    @cached_property
    def _eig(self):
        return scipy.linalg.eigh_tridiagonal(*self.tridiagonal)

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
        return _down_rows(self.W_samples, v) * v - self.stencil.apply(v)

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
    return DiscreteRadialOperator(grid, m, W, _Stencil.flat(grid, m))


def _power_base(op: DiscreteRadialOperator, s: float, shift: str) -> tuple[float, float]:
    """(b, c) such that the calculus raises b + max(lambda, c) to the
    power s: H^s ("homogeneous", floored at the infrared cutoff when
    s < 0) or (1+H)^s ("inhomogeneous")."""
    lam_min = op.spectral_bounds[0]
    if lam_min < -EIG_TOL:
        raise NegativeEigenvalue(f"eigenvalue {lam_min} below -{EIG_TOL}")
    if shift == "inhomogeneous":
        return 1.0, 0.0
    if shift == "homogeneous":
        return 0.0, (op.lambda_floor if s < 0 else 0.0)
    raise DomainError(f"unknown shift {shift!r}")


def _powered(op: DiscreteRadialOperator, s: float, shift: str) -> np.ndarray:
    """Eigenvalue multiplier of the power in _power_base: the dense
    reference for _fractional_power."""
    b, c = _power_base(op, s, shift)
    return (b + np.maximum(op.eigenvalues, c)) ** s


# relative accuracy each contour quadrature is sized for
_CONTOUR_TOL = 1e-15


def _ellipk(kp: float) -> float:
    """Complete elliptic integral K of the modulus with complement kp,
    pi / (2 AGM(1, kp))."""
    a, b = 1.0, kp
    while a - b > 1e-15 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _ellipj(u: np.ndarray, k: float):
    """Jacobi sn, cn, dn of real u and modulus 0 < k < 1, by the
    descending AGM (Abramowitz & Stegun 16.4)."""
    a, c = [1.0], [k]
    b = math.sqrt((1.0 - k) * (1.0 + k))
    while c[-1] > 2.0**-53 * a[-1]:
        a_n = a[-1]
        a.append(0.5 * (a_n + b))
        c.append(0.5 * (a_n - b))
        b = math.sqrt(a_n * b)
    phi = 2.0 ** (len(a) - 1) * a[-1] * u
    for j in range(len(a) - 1, 0, -1):
        prev = phi
        phi = 0.5 * (phi + np.arcsin(c[j] / a[j] * np.sin(phi)))
    return np.sin(phi), np.cos(phi), np.cos(phi) / np.cos(prev - phi)


def _contour_rule(alpha: float, lo: float, hi: float):
    """Nodes z and weights c with A^alpha x = sum_j Im(c_j (z_j - A)^(-1) x),
    sized for relative accuracy _CONTOUR_TOL, for real x, symmetric A
    with spectrum in [lo, hi], 0 < lo, and -1 <= alpha < 0.

    Method 2 of Hale, Higham & Trefethen (SIAM J. Numer. Anal. 46, 2008):
    the Cauchy integral of z^alpha (z - A)^(-1) is taken in w = sqrt(z),
    on a circle around [sqrt(lo), sqrt(hi)] in Re w > 0.  Jacobi's sn maps
    a line of its period rectangle onto that circle, the midpoint rule on
    the line converges geometrically at a rate set by hi/lo alone, and the
    lower half circle is the conjugate of the upper one."""
    hi = max(hi, 2.0 * lo)
    r = (hi / lo) ** 0.25
    k = (r - 1.0) / (r + 1.0)
    K, Kp = _ellipk(2.0 * math.sqrt(r) / (r + 1.0)), _ellipk(k)
    n = math.ceil(2.0 * K * math.log(1.0 / _CONTOUR_TOL) / (math.pi * Kp))
    s, c, d = _ellipj(-K + (np.arange(n) + 0.5) * (2.0 * K / n), k)
    # sn, cn, dn at those points + i K'/2, by the addition theorems
    den = 1.0 + k * s * s
    sn = (s * (1.0 + k) + 1j * c * d) / (math.sqrt(k) * den)
    cn_dn = ((1.0 + k) * (c - 1j * s * d) * (d - 1j * k * s * c)
             / (math.sqrt(k) * den * den))
    g = (lo * hi) ** 0.25
    w = g * (1.0 / k + sn) / (1.0 / k - sn)
    dw = (2.0 * g / k) * cn_dn / (1.0 / k - sn) ** 2
    return w * w, -(4.0 * K / (math.pi * n)) * w ** (2.0 * alpha + 1.0) * dw


def _shifted_solve(diag, off, z: complex, x: np.ndarray) -> np.ndarray:
    """y with (z - A) y = x for the symmetric tridiagonal A = (diag, off), x
    of shape (N,) or (N, k): one zgtsv, for the resolvent and each contour node."""
    sub = -off.astype(complex)
    *_, y, info = scipy.linalg.lapack.zgtsv(sub, z - diag, sub, x.astype(complex),
                                             overwrite_b=1)
    if info != 0:
        raise SingularSystem(f"shift {z} hit the spectrum (info {info})")
    return y


def _contour_power(diag, off, alpha: float, x: np.ndarray, lo: float, hi: float):
    """A^alpha x for the symmetric tridiagonal A = (diag, off), spectrum
    in [lo, hi], -1 <= alpha < 0, and x of shape (N, k): one complex
    tridiagonal solve per node of _contour_rule."""
    if np.iscomplexobj(x):
        return (_contour_power(diag, off, alpha, x.real, lo, hi)
                + 1j * _contour_power(diag, off, alpha, x.imag, lo, hi))
    z, c = _contour_rule(alpha, lo, hi)
    x = np.asfortranarray(x)  # LAPACK's layout, kept by every array below
    out = np.zeros_like(x)
    tmp = np.empty_like(x)
    for zj, cj in zip(z, c):
        y = _shifted_solve(diag, off, zj, x)
        out += np.multiply(cj.real, y.imag, out=tmp)
        out += np.multiply(cj.imag, y.real, out=tmp)
    return out


def _fractional_power(
    op: DiscreteRadialOperator, s: float, v, shift: str = "homogeneous"
) -> np.ndarray:
    """The power of _power_base applied to v, (N,) or an (N, k) stack,
    without an eigenbasis.  A power s = j + beta, j an integer and
    -1 < beta <= 0, is beta by contour quadrature, then j products with
    the operator (or -j contours of power -1).  Eigenpairs below the
    clip (at most a few, none on an operator without a negative
    potential) are taken out and powered exactly."""
    b, c = _power_base(op, s, shift)
    v = np.asarray(v)
    if s == 0:
        return v.astype(np.result_type(v, 0.0))
    cut = op.lambda_floor if shift == "homogeneous" else 0.0
    mu, Q = op._modes_below(cut)
    x = op.symmetrize(v)
    if x.ndim == 1:
        x = x[:, None]
    if len(mu):
        below = Q.T @ x
        x = x - Q @ below
    diag, off = op.tridiagonal
    diag = diag + b
    lam_lo, lam_hi = op.spectral_bounds
    lo, hi = b + max(lam_lo, cut), b + lam_hi
    j = math.ceil(s)
    if s != j:
        x = _contour_power(diag, off, s - j, x, lo, hi)
    for _ in range(-j):
        x = _contour_power(diag, off, -1.0, x, lo, hi)
    u = op.unsymmetrize(x)
    for _ in range(j):
        u = op.apply(u) + b * u
    if len(mu):
        y = op.symmetrize(u)
        y += Q @ (_down_rows((b + np.maximum(mu, c)) ** s, below) * below - Q.T @ y)
        u = op.unsymmetrize(y)
    return u if v.ndim > 1 else u[:, 0]


def frac_norm(
    op: DiscreteRadialOperator, s: float, v, shift: str = "homogeneous"
) -> Union[float, np.ndarray]:
    """|| H^(s/2) v ||_{L^2(R^m)} (or <H>^(s/2)), as the square root of
    the quadratic form of _fractional_power(op, s): a float for v of
    shape (N,), one norm per column for an (N, k) stack."""
    v = np.asarray(v)
    u = _fractional_power(op, s, v, shift)
    scale = op.grid.surface_constant(op.m) * op.grid.dr
    form = np.sum(_down_rows(op.rho_cells, v) * np.conj(v) * u, axis=0).real
    norms = np.sqrt(scale * np.maximum(form, 0.0))
    return float(norms) if v.ndim == 1 else norms


def _cosine_flow(op: DiscreteRadialOperator, nu: float, f, dt: float, n_t: int):
    """Yield cos(j dt sqrt(nu+H)) f for j = 0, ..., n_t - 1, one array of
    the shape of f, (N,) or (N, k), at a time.  Modes with nu + lambda < 0
    are held at frequency 0, as evolve_linear holds them.

    One step C = cos(dt sqrt(nu+H)) is a Chebyshev series in H (Tal-Ezer &
    Kosloff, J. Chem. Phys. 81, 1984), applied by Clenshaw's recurrence
    with the stencil; the times follow from u_(j+1) = 2 C u_j - u_(j-1),
    exact for the cosine.  Memory is a few arrays of the shape of f."""
    if n_t < 1:
        return
    f = np.asfortranarray(f, dtype=float)
    mu, Q = op._modes_below(-nu)
    held = np.zeros_like(f)
    if len(mu):
        held = op.unsymmetrize(Q @ (Q.T @ op.symmetrize(f)))

    def project(u):
        # drop what rounding leaves of the held modes
        if len(mu):
            u -= op.unsymmetrize(Q @ (Q.T @ op.symmetrize(u)))
        return u

    lam_lo, lam_hi = op.spectral_bounds
    a = max(lam_lo, -nu)
    b = max(lam_hi, a + 1.0)
    # the phase dt * omega carries a rounding error of eps * dt * omega
    tol = 16.0 * np.finfo(float).eps * (1.0 + dt * math.sqrt(nu + b))
    coef = _chebyshev_coefficients(
        lambda lam: np.cos(dt * np.sqrt(np.maximum(nu + lam, 0.0))), a, b, tol)
    s1, s0 = 4.0 / (b - a), 2.0 * (a + b) / (b - a)

    def step(u):
        # sum_n coef_n T_n(X) u with X = (2H - a - b) / (b - a), by Clenshaw
        b1, b2 = coef[-1] * u, np.zeros_like(u)
        tmp = np.empty_like(u)
        for n in range(len(coef) - 2, -1, -1):
            half = 0.5 if n == 0 else 1.0  # the last step is X b1 - b2 + c_0/2 u
            t = op.apply(b1)
            t *= half * s1
            t -= np.multiply(half * s0, b1, out=tmp)
            t -= b2
            t += np.multiply(half * coef[n], u, out=tmp)
            b1, b2 = t, b1
        return project(b1)

    prev = project(f - held)
    yield prev + held
    if n_t > 1:
        cur = step(prev)
        yield cur + held
        for _ in range(n_t - 2):
            nxt = step(cur)
            nxt *= 2.0
            nxt -= prev
            prev, cur = cur, nxt
            yield cur + held


def _chebyshev_coefficients(g, a: float, b: float, tol: float) -> np.ndarray:
    """Coefficients c_n with g(lam) = c_0 / 2 + sum_n c_n T_n(x) on [a, b],
    x = (2 lam - a - b) / (b - a), from g at M Chebyshev points by a DCT
    (an FFT of length 2M).  The series stops before the first run of 8
    coefficients below tol; M doubles until that run starts before M/2."""
    M = 64
    while True:
        theta = math.pi * (np.arange(M) + 0.5) / M
        vals = g(0.5 * (a + b) + 0.5 * (b - a) * np.cos(theta))
        spec = np.fft.fft(np.concatenate([vals, vals[::-1]]))[:M]
        coef = (np.exp(-0.5j * math.pi * np.arange(M) / M) * spec).real / M
        small = np.abs(coef) < tol
        runs = np.convolve(small, np.ones(8, dtype=int), mode="valid") == 8
        first = int(np.argmax(runs)) if runs.any() else M
        if first < M // 2:
            return coef[: max(first, 2)]
        M *= 2


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

    with regularity at 0 and zero value at R_max, for f of shape (N,) or a
    column stack (N, k).  Valid when the decay rate
    Im sqrt(kappa^2 - h_infinity) times R_max is at least 5.
    """
    kappa = complex(kappa)
    if kappa.imag <= 0:
        raise DomainError("resolvent frequency needs Im kappa > 0")
    decay = abs(np.emath.sqrt(kappa**2 - h_infinity).imag) * grid.R_max
    if decay < 5.0:
        raise TruncationTooSmall(f"Im sqrt(kappa^2 - h_inf) * R_max = {decay:.3f} < 5")
    if profile is not None:
        if n is None or n < 3:
            raise DomainError("manifold form needs n >= 3")
        op = DiscreteRadialOperator(grid, n, None, _Stencil.manifold(grid, profile, n))
    else:
        if m is None or m < 3:
            raise DomainError("flat form needs m >= 3")
        op = DiscreteRadialOperator(grid, m, W, _Stencil.flat(grid, m))
    # (kappa^2 - H) u~ = f~ in the symmetrized variable
    ut = _shifted_solve(*op.tridiagonal, kappa**2, op.symmetrize(f))
    if not np.all(np.isfinite(ut)):
        raise SingularSystem("non-finite resolvent solution")
    return op.unsymmetrize(ut)
