"""Radial discretization of -Delta + W on R^m and its functional calculus.

Radial functions v(r) are sampled on a cell-centered grid.  The operator
acts on the symmetrized variable vtilde = r^((m-1)/2) v, where it becomes
a symmetric tridiagonal matrix: a finite-volume divergence-form stencil
for (r^(m-1) v')' / r^(m-1), conjugated by r^((m-1)/2).  The flux through
the r=0 face vanishes identically (regularity) and the outer boundary is
a zero Dirichlet value at the ghost node R_max + dr/2.

Functions of the operator are applied without an eigenbasis, in O(N)
memory per vector.  Two tridiagonal LAPACK solves serve them.  The
complex shifted solve, (z - H) y = x, serves the resolvent and the
contour quadratures of the resolvent behind the fractional powers, one
solve per node.  The real positive definite solve, (H + p) y = x,
serves the square roots H^(1/2) and (1+H)^(1/2) of the snapshot norms
and the Strichartz norms: Zolotarev's rational approximation of
lambda^(-1/2), one solve per real pole.  The wave propagator
cos(t sqrt(nu+H)) is a Chebyshev series in H.  No full
eigendecomposition is made: the spectrum (eigenvalues only), the lowest
eigenvalue by bisection and the few eigenpairs below a cut are the only
eigensolves.  LAPACK (scipy.linalg) is imported on the first solve, not
with the module, so a process that never solves does not pay for its
import.

One class, DiscreteRadialOperator, holds the stencil: face weights and
cell averages of the volume weight, and the three row bands of H built
from them once.  Every product with H is one band product
(_band_product, bound once to its buffers), in apply, in the Chebyshev
step and in the nonlinear solver; with the weight h^(n-1) of the base manifold the same operator
serves the manifold form of the resolvent and the solver's phi form.
Every sum over the weights (energies, L^2 and L^q norms, the trapezoid
in time) is written here, and a column of a stack has the bits of its
1-D call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    NegativeEigenvalue,
    SingularSystem,
    TruncationTooSmall,
)

EIG_TOL = 1e-8  # below -EIG_TOL an eigenvalue is treated as a real failure


def _linalg():
    """scipy.linalg, imported on the first solve: the import takes about
    0.4 s on a 2-core VM, and admissibility, the closed forms and the
    nonlinear flow never solve.  Callers look each routine up on the
    module at call time."""
    import scipy.linalg

    return scipy.linalg


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

    def l2_norm(self, v, m: int) -> Union[float, np.ndarray]:
        """L^2(R^m) norm of v: a float for v of shape (N,), one norm per
        column for an (N, k) stack, each with the bits of its 1-D call."""
        v = np.asarray(v)
        vw = _down_rows(self.volume_weights(m), v)
        norms = np.sqrt(_column_sums(np.abs(v) ** 2 * vw).real)
        return float(norms) if v.ndim == 1 else norms


@dataclass
class DiscreteRadialOperator:
    """H = -Delta + W on radial functions as -(F u')'/rho + W u in finite
    volume divergence form: face weights F, cell averages rho of the
    volume weight, zero flux through r=0 and a zero Dirichlet value
    beyond R_max.  H is stored, and applied, as its three row bands.

    rho must hold cell averages, not midpoint values: the averages keep
    the stencil second order in the first cell at r=0.
    """

    grid: RadialGrid
    m: int
    W_samples: Optional[np.ndarray]  # W at the nodes; None for W = 0
    F: np.ndarray = field(repr=False)
    rho: np.ndarray = field(repr=False)
    bands: tuple = field(init=False, repr=False, compare=False)  # (diag, upper, lower)

    def __post_init__(self):
        N = self.grid.N
        W = np.zeros(N) if self.W_samples is None else np.asarray(self.W_samples, float)
        if W.shape != (N,):
            raise DomainError("W sample length does not match the grid")
        _require_finite("potential W", W, self.grid.nodes)
        self.W_samples = W
        F, dr2 = self.F, self.grid.dr**2
        scale = 1.0 / (dr2 * self.rho)
        self.bands = ((F[:-1] + F[1:]) / (dr2 * self.rho) + W,
                      -F[1:-1] * scale[:-1], -F[1:-1] * scale[1:])
        # upper_j is in row j and lower_j in row j + 1
        _require_finite("operator band", np.concatenate(self.bands),
                        self.grid.nodes[np.r_[0:N, 0:N - 1, 1:N]])

    @classmethod
    def flat(cls, grid: RadialGrid, m: int, W) -> "DiscreteRadialOperator":
        """-Delta + W on R^m (W None for 0): F = r^(m-1), exact cell averages."""
        f = grid.faces
        return cls(grid, m, W, f ** (m - 1), (f[1:] ** m - f[:-1] ** m) / (m * grid.dr))

    @classmethod
    def manifold(cls, grid: RadialGrid, profile, n: int) -> "DiscreteRadialOperator":
        """-Delta_h on the base manifold: F = h^(n-1) with Simpson cell
        averages of h^(n-1); dataclasses.replace with W_samples adds a
        potential.

        F[0] = 0 is the zero flux through r=0 that h(0) = 0 gives; h is
        not evaluated there, where a profile may have no jet."""
        F = np.zeros(grid.N + 1)
        F[1:] = profile(grid.faces[1:]) ** (n - 1)
        rho = (F[:-1] + 4.0 * profile(grid.nodes) ** (n - 1) + F[1:]) / 6.0
        return cls(grid, n, None, F, rho)

    def energy(self, u, u_t, pot, radius: float = math.inf) -> float:
        """1/2 int (u_t^2 + u_r^2 + pot) dV over the ball r < radius, in
        the weights of the stencil: rho on the cells, the gradient
        F (du/dr)^2 on the faces, and on the face at R_max against the
        zero Dirichlet value beyond it.  u, u_t and pot are (N,)."""
        grid, dr = self.grid, self.grid.dr
        cells = np.searchsorted(grid.nodes, radius)  # the cells r_j < radius
        faces = np.searchsorted(grid.faces[1:-1], radius)  # the inner faces
        rho = self.rho[:cells]
        grad = np.sum(self.F[1 : faces + 1] * np.diff(u[: faces + 1]) ** 2)
        if grid.R_max < radius:
            grad += self.F[-1] * u[-1] ** 2
        val = np.sum(rho * u_t[:cells] ** 2) + np.sum(rho * pot[:cells]) + grad / dr**2
        return float(0.5 * dr * val)

    @cached_property
    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of H conjugated by rho^(1/2)."""
        with np.errstate(divide="ignore", over="ignore"):  # checked below
            rho2 = self.rho[:-1] * self.rho[1:]
            off = -self.F[1:-1] / (self.grid.dr**2 * np.sqrt(rho2))
        _require_finite("symmetrized stencil", np.concatenate([off, rho2]),
                        np.tile(self.grid.faces[1:-1], 2))
        return self.bands[0], off

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """All N eigenvalues, ascending, without eigenvectors."""
        return _linalg().eigvalsh_tridiagonal(*self.tridiagonal)

    @cached_property
    def spectral_bounds(self) -> tuple[float, float]:
        """(lowest eigenvalue, upper bound of the spectrum): the first by
        bisection, the second by Gershgorin's theorem."""
        diag, off = self.tridiagonal
        lo = _linalg().eigvalsh_tridiagonal(diag, off, select="i",
                                            select_range=(0, 0))[0]
        radius = np.zeros_like(diag)
        radius[:-1] += np.abs(off)
        radius[1:] += np.abs(off)
        return float(lo), float(np.max(diag + radius))

    def _modes_below(self, cut: float) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues up to ``cut`` and their eigenvectors in the
        symmetrized variable, as (p,) and (N, p) arrays; usually p = 0."""
        lo = self.spectral_bounds[0]
        if lo > cut:
            return np.empty(0), np.empty((self.grid.N, 0))
        return _linalg().eigh_tridiagonal(*self.tridiagonal, select="v",
                                          select_range=(lo - 1.0 - abs(lo), cut))

    @property
    def lambda_floor(self) -> float:
        # infrared cutoff imposed by truncation to [0, R_max]
        return (math.pi / (2.0 * self.grid.R_max)) ** 2

    # The maps below take one grid function, shape (N,), or a stack of
    # them as the columns of an (N, k) array.

    def symmetrize(self, v) -> np.ndarray:
        v = np.asarray(v)
        return v * _down_rows(np.sqrt(self.rho), v)

    def unsymmetrize(self, vt) -> np.ndarray:
        vt = np.asarray(vt)
        return vt / _down_rows(np.sqrt(self.rho), vt)

    def apply(self, v) -> np.ndarray:
        """H v for a radial grid function v."""
        v = np.asarray(v)
        bands = [_down_rows(b, v) for b in self.bands]
        out, tmp = (np.empty_like(v, dtype=np.result_type(bands[0], v)) for _ in range(2))
        return _band_product(*bands, v, out, tmp)()


def _require_finite(what: str, values: np.ndarray, radii: np.ndarray) -> None:
    """Raise DomainError at the least of radii where values is not finite,
    as where the weights r^(m-1) or h^(n-1) overflow (the bands are NaN),
    or rho_j rho_(j+1) underflows or overflows (the off-diagonal is -inf or -0)."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise DomainError(f"{what} is not finite at r = {radii[bad].min():.6g}")


def _band_product(diag, upper, lower, u, out, tmp):
    """The product of a band matrix with the buffer u, bound to it once:
    a function of no arguments that writes the rows lower_j u_(j-1) +
    diag_j u_j + upper_j u_(j+1) of what u holds into out, with tmp as
    scratch, and returns out.  u, out and tmp have one shape, (N,) or
    (N, k), the bands that of one row of it; every view is made here, so
    a call makes five ufunc calls and nothing else."""
    multiply, add = np.multiply, np.add
    u_next, u_prev = u[1:], u[:-1]
    out_head, out_tail, tmp_head, tmp_tail = out[:-1], out[1:], tmp[:-1], tmp[1:]

    def product():
        multiply(diag, u, out=out)
        add(out_head, multiply(upper, u_next, out=tmp_head), out=out_head)
        add(out_tail, multiply(lower, u_prev, out=tmp_tail), out=out_tail)
        return out

    return product


def _down_rows(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The (N,) vector w shaped to scale each row of v, (N,) or (N, k)."""
    return w.reshape(w.shape + (1,) * (v.ndim - 1))


def _column_sums(x: np.ndarray):
    """The sum of x, (N,), or of each column of an (N, k) stack.  Every
    column is summed on its own, pairwise, as numpy sums a 1-D array
    (it sums a C-ordered stack row by row), so a column has the bits of
    its 1-D call whatever the width and layout of its stack."""
    return np.sum(np.asfortranarray(x), axis=0)


def build_operator(
    grid: RadialGrid, m: int, W: Optional[np.ndarray] = None
) -> DiscreteRadialOperator:
    """Second-order symmetric tridiagonal discretization of -Delta + W,
    with W sampled at the grid nodes."""
    if m < 5:
        raise DimensionError(f"radial reduction requires m >= 5, got {m}")
    return DiscreteRadialOperator.flat(grid, m, W)


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


# relative accuracy each contour quadrature and pole rule is sized for
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


def _sc(f: np.ndarray, kp: float) -> np.ndarray:
    """Jacobi sc(f K) = sn/cn of the modulus with complement kp <= 2^(-1/2),
    K = _ellipk(kp), for 0 < f < 1, to a few ulps.

    By the theta series of the complementary nome q = exp(-pi K/K'),
    which is at most exp(-pi): sc(u) = -i sn(iu) of the modulus kp, a
    ratio of sums of sinh and cosh whose terms fall off as q^(j^2) for
    u <= K/2, and sc(K - u) = 1 / (kp sc(u)) past it.  The descending AGM
    of _ellipj loses about 500 ulps near K/2 when kp is small (its
    arcsin works next to 1)."""
    K, Kp = _ellipk(kp), _ellipk(math.sqrt((1.0 - kp) * (1.0 + kp)))
    t = math.pi * K / Kp  # q = exp(-t)
    tv = t * np.minimum(f, 1.0 - f)  # pi u / K' for u = min(f, 1 - f) K
    j = np.arange(4)[:, None]  # term 4 is below q^14 < 1e-19 of the sum
    sign, q = (-1.0) ** j, np.exp(-t * j**2)
    theta4 = np.sum(np.where(j > 0, 2.0, 1.0) * sign * q * np.cosh(j * tv), axis=0)
    theta3 = 1.0 + 2.0 * np.sum(q[1:])
    r = np.exp(-t * (j + 0.5) ** 2)  # theta1(i pi u/(2 K')) / i and theta2, halved
    theta1 = np.sum(sign * r * np.sinh((j + 0.5) * tv), axis=0)
    sc = theta3 * theta1 / (np.sum(r) * theta4)
    return np.where(f < 0.5, sc, 1.0 / (kp * sc))


def _zolotarev_rule(lo: float, hi: float):
    """Poles p > 0, weights a > 0 and d > 0 with
    A^(-1/2) x = d x + sum_j a_j (A + p_j)^(-1) x, sized for relative
    accuracy _CONTOUR_TOL, for symmetric A with spectrum in [lo, hi],
    0 < lo.

    Zolotarev's best uniform relative approximation of lambda^(-1/2) on
    [lo, hi] of type (n, n) (van den Eshof et al., Comput. Phys. Commun.
    146, 2002): with c_l = sc^2(l K/(2n+1)) of the modulus with
    complement kp = (lo/hi)^(1/2), it is
    d prod_l (lambda + lo c_(2l)) / (lambda + lo c_(2l-1)).  Its relative
    error equioscillates with extremes of opposite sign at lo and hi,
    which d centres, and is about 4 exp(-(2n+1) pi K'/K), where
    pi K'/K is about pi^2 / ln(16 hi/lo): n is the least that takes this
    estimate below _CONTOUR_TOL."""
    hi = max(hi, 2.0 * lo)
    kappa = hi / lo
    n = math.ceil((math.log(4.0 / _CONTOUR_TOL) * math.log(16.0 * kappa) / math.pi**2 - 1.0)
                  / 2.0)
    c = lo * _sc(np.arange(1, 2 * n + 1) / (2 * n + 1), math.sqrt(1.0 / kappa)) ** 2
    p, z = c[0::2], c[1::2]
    d = 2.0 / sum(math.sqrt(x) * np.prod((x + z) / (x + p)) for x in (lo, hi))
    # residue at -p_j: d (z_j - p_j) prod_(l != j) (z_l - p_j) / (p_l - p_j),
    # a product of ratios near 1 that neither overflows nor underflows
    ratios = z[None, :] - p[:, None]
    den = p[None, :] - p[:, None]
    np.fill_diagonal(den, 1.0)
    return p, d * np.prod(ratios / den, axis=1), d


def _shifted_solve(diag, off, z: complex, x: np.ndarray) -> np.ndarray:
    """y with (z - A) y = x for the symmetric tridiagonal A = (diag, off), x
    of shape (N,) or (N, k): one zgtsv, for the resolvent and each contour node."""
    sub = -off.astype(complex)
    *_, y, info = _linalg().lapack.zgtsv(sub, z - diag, sub, x.astype(complex),
                                         overwrite_b=1)
    if info != 0:
        raise SingularSystem(f"shift {z} hit the spectrum (info {info})")
    return y


def _spd_solve(diag, off, p: float, x: np.ndarray) -> np.ndarray:
    """y with (A + p) y = x for the symmetric tridiagonal A = (diag, off),
    A + p positive definite, and real x of shape (N, k): one dptsv, for
    each pole of _zolotarev_rule."""
    *_, y, info = _linalg().lapack.dptsv(diag + p, off, x)
    if info != 0:
        raise SingularSystem(f"shift {p} leaves the operator not positive definite "
                             f"(info {info})")
    return y


def _inverse_sqrt(diag, off, x: np.ndarray, lo: float, hi: float):
    """A^(-1/2) x for the symmetric tridiagonal A = (diag, off), positive
    definite with spectrum in [lo, hi], and x of shape (N, k): one real
    positive definite solve per pole of _zolotarev_rule."""
    if np.iscomplexobj(x):
        return (_inverse_sqrt(diag, off, x.real, lo, hi)
                + 1j * _inverse_sqrt(diag, off, x.imag, lo, hi))
    p, a, d = _zolotarev_rule(lo, hi)
    x = np.asfortranarray(x)  # LAPACK's layout, kept by every array below
    out = np.multiply(d, x)
    tmp = np.empty_like(x)
    for pj, aj in zip(p, a):
        out += np.multiply(aj, _spd_solve(diag, off, pj, x), out=tmp)
    return out


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


def _fractional_power(op: DiscreteRadialOperator, s: float, v, shift: str) -> np.ndarray:
    """The power of _power_base applied to v, (N,) or an (N, k) stack,
    without an eigenbasis.  A power s = j + beta, j an integer and
    -1 < beta <= 0, is beta first, then j products with the operator (or
    -j contours of power -1).  beta = -1/2 takes the real poles of
    _zolotarev_rule, whose shifted operators are positive definite when
    the operator is (it may not be only under the homogeneous shift,
    with its lowest eigenvalue within EIG_TOL below 0); every other beta,
    and that case, takes the contour.  Eigenpairs below the clip (at
    most a few, none on an operator without a negative potential) are
    taken out and powered exactly."""
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
    if s - j == -0.5 and b + lam_lo > 0:
        x = _inverse_sqrt(diag, off, x, lo, hi)
    elif s != j:
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
    shape (N,), one norm per column for an (N, k) stack, each with the
    bits of its 1-D call."""
    v = np.asarray(v)
    u = _fractional_power(op, s, v, shift)
    scale = op.grid.surface_constant(op.m) * op.grid.dr
    form = _column_sums(_down_rows(op.rho, v) * np.conj(v) * u).real
    norms = np.sqrt(scale * np.maximum(form, 0.0))
    return float(norms) if v.ndim == 1 else norms


def _lq_norms(op: DiscreteRadialOperator, s: float, v, shift: str, q: float) -> np.ndarray:
    """|| A^s v ||_{L^q(R^m)} of v, (N,), or of each column of an (N, k)
    stack, A the base of _power_base (H or 1+H), by the volume weights
    of R^m."""
    g = _fractional_power(op, s, v, shift)
    vol = _down_rows(op.grid.volume_weights(op.m), g)
    # np.power, not **, which takes libm's pow for the numpy scalar of a
    # 1-D call where numpy's vector pow takes every column of a stack
    return np.power(_column_sums(vol * np.abs(g) ** q), 1.0 / q)


def _lp_partials(y: np.ndarray, times: np.ndarray, p: float) -> np.ndarray:
    """(int_(t_0)^(t_j) y^p dt)^(1/p) at every time t_j, by the trapezoid
    rule along the last axis of y; 0 at t_0."""
    y = y**p
    steps = np.cumsum(np.diff(times) * 0.5 * (y[..., 1:] + y[..., :-1]), axis=-1)
    return np.concatenate([np.zeros(y.shape[:-1] + (1,)), steps], axis=-1) ** (1.0 / p)


def _cosine_flow(op: DiscreteRadialOperator, nu: float, f, dt: float, n_t: int):
    """Yield cos(j dt sqrt(nu+H)) f for j = 0, ..., n_t - 1, one array of
    the shape of f, (N,) or (N, k), at a time.  Modes with nu + lambda < 0
    are held at frequency 0: they keep their share of f.

    One step C = cos(dt sqrt(nu+H)) is a Chebyshev series in H (Tal-Ezer &
    Kosloff, J. Chem. Phys. 81, 1984), applied by Clenshaw's recurrence
    with the three bands of H; the times follow from u_(j+1) = 2 C u_j -
    u_(j-1), exact for the cosine.  Memory is a few arrays of the shape
    of f."""
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
    # 2X = s1 H - s0 for X = (2H - a - b) / (b - a): the bands of H,
    # scaled and shifted once per call
    s1, s0 = 4.0 / (b - a), 2.0 * (a + b) / (b - a)
    diag, upper, lower = op.bands
    bands = [_down_rows(x, f) for x in (s1 * diag - s0, s1 * upper, s1 * lower)]

    def step(u):
        # sum_n coef_n T_n(X) u by Clenshaw, every term written into the
        # same four buffers; (b1, b2, t) rotate with period 3, so three
        # bound products X b1 -> t serve every term
        b1, b2, t, tmp = (np.empty_like(u) for _ in range(4))
        products = [_band_product(*bands, x, y, tmp) for x, y in ((b1, t), (t, b2), (b2, b1))]
        np.multiply(coef[-1], u, out=b1)
        b2.fill(0.0)
        for i, n in enumerate(range(len(coef) - 2, -1, -1)):
            products[i % 3]()
            if n == 0:
                t *= 0.5  # the last step is X b1 - b2 + c_0/2 u
            t -= b2
            t += np.multiply(0.5 * coef[0] if n == 0 else coef[n], u, out=tmp)
            b1, b2, t = t, b1, b2
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


def resolve(
    kappa: complex, f, op: DiscreteRadialOperator, h_infinity: float = 0.0
) -> np.ndarray:
    """Solve the truncated radial Helmholtz problem (kappa^2 - H) u = f
    for the operator H of op, which is

      u'' + (m-1)/r u' + kappa^2 u - W u = f   (DiscreteRadialOperator.flat), or
      u'' + (n-1) h'/h u' + kappa^2 u = f      (DiscreteRadialOperator.manifold),

    with regularity at 0 and zero value at the ghost node R_max + dr/2 (as
    the operator puts it), for f of shape (N,) or a column stack (N, k).
    Valid when the decay rate
    Im sqrt(kappa^2 - h_infinity) times R_max is at least 5.
    """
    kappa = complex(kappa)
    if kappa.imag <= 0:
        raise DomainError("resolvent frequency needs Im kappa > 0")
    decay = abs(np.emath.sqrt(kappa**2 - h_infinity).imag) * op.grid.R_max
    if decay < 5.0:
        raise TruncationTooSmall(f"Im sqrt(kappa^2 - h_inf) * R_max = {decay:.3f} < 5")
    # (kappa^2 - H) u~ = f~ in the symmetrized variable
    ut = _shifted_solve(*op.tridiagonal, kappa**2, op.symmetrize(f))
    if not np.all(np.isfinite(ut)):
        raise SingularSystem("non-finite resolvent solution")
    return op.unsymmetrize(ut)
