"""Numerical verification of the weighted Hardy, resolvent smoothing,
Strichartz, and dimension-shift inequalities at p = 2 desk scale.

Every check evaluates an inequality LHS <= C * RHS over a seeded test
family and reports the sample ratios LHS/RHS.  Where the source estimate
carries an explicit constant (Hardy's 4, smoothing's 4/delta0) the
verdict compares against it; implicit constants are recorded as
regression numbers with no absolute claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BetaDiverges,
    DomainError,
    HypothesisFail,
    NotAdmissible,
)
from .profiles import MetricProfile
from .reduction import compute_V
from .spectral import (
    DiscreteRadialOperator,
    RadialGrid,
    _cosine_flow,
    _lp_partials,
    _lq_norms,
    frac_norm,
    resolve,
)


# -- reports -------------------------------------------------------------------


@dataclass
class RatioReport:
    name: str
    family: str
    sample_ids: list
    ratios: list
    bound: Optional[float]
    tol: float = 0.1
    detail: dict = field(default_factory=dict)

    @property
    def sup_ratio(self) -> float:
        finite = [x for x in self.ratios if math.isfinite(x)]
        return max(finite) if finite else math.inf if self.ratios else 0.0

    @property
    def passed(self) -> bool:
        if not all(math.isfinite(x) for x in self.ratios):
            return False
        if self.bound is None:
            return True
        return self.sup_ratio <= self.bound * (1.0 + self.tol)

    def to_json(self):
        return {
            "name": self.name,
            "family": self.family,
            "samples": [
                {"id": sid, "ratio": r}
                for sid, r in zip(self.sample_ids, self.ratios)
            ],
            "sup_ratio": self.sup_ratio,
            "bound": self.bound,
            "tol": self.tol,
            "verdict": "PASS" if self.passed else "FAIL",
            "detail": self.detail,
        }

    def csv_rows(self):
        return list(zip(self.sample_ids, self.ratios))


# -- seeded test families --------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """A radial test function with an analytic derivative."""

    id: str
    fn: Callable
    dfn: Callable


def gaussian_family(count: int, seed: int, r_power: int) -> list[TestFunction]:
    """Seeded bumps amp * r^p * exp(-(r-c)^2 / sig^2), c in [0, 8)."""
    rng = np.random.default_rng(seed)
    fam = []
    for i in range(count):
        c = float(rng.uniform(0.0, 8.0))
        sig = float(rng.uniform(0.3, 2.0))
        amp = float(rng.uniform(0.5, 2.0))
        p = r_power

        def fn(r, c=c, sig=sig, amp=amp, p=p):
            r = np.asarray(r, dtype=float)
            return amp * r**p * np.exp(-((r - c) ** 2) / sig**2)

        def dfn(r, c=c, sig=sig, amp=amp, p=p):
            r = np.asarray(r, dtype=float)
            e = amp * np.exp(-((r - c) ** 2) / sig**2)
            return e * (p * r ** (p - 1) - 2.0 * (r - c) / sig**2 * r**p)

        fam.append(TestFunction(f"gauss-{seed}-{i}", fn, dfn))
    return fam


def hardy_probe_family(count: int, seed: int) -> list[TestFunction]:
    """Near-extremal probes amp * r^(1/2+eps) * e^(-r)."""
    rng = np.random.default_rng(seed)
    fam = []
    for i in range(count):
        eps = float(rng.uniform(0.02, 0.3))
        amp = float(rng.uniform(0.5, 2.0))

        def fn(r, eps=eps, amp=amp):
            r = np.asarray(r, dtype=float)
            return amp * r ** (0.5 + eps) * np.exp(-r)

        def dfn(r, eps=eps, amp=amp):
            r = np.asarray(r, dtype=float)
            return amp * np.exp(-r) * ((0.5 + eps) * r ** (eps - 0.5) - r ** (0.5 + eps))

        fam.append(TestFunction(f"probe-{seed}-{i}", fn, dfn))
    return fam


# -- weighted Hardy ---------------------------------------------------------------

# the midpoint quadrature of the Hardy and dimension-shift checks: Nq
# cells on [0, QUAD_R]
QUAD_R = 40.0
QUAD_NQ = 20000


def hardy_check(
    alpha: Callable,
    n: int,
    family: Sequence[TestFunction],
    Nq: int = QUAD_NQ,
) -> RatioReport:
    """Ratio of the two sides of the weighted Hardy inequality

      int |u|^2 beta^-2 alpha dV <= 4 int |u'|^2 alpha dV,

    beta(r) = alpha r^(n-1) int_0^r ds / (alpha s^(n-1))."""
    i1, i2 = 10, 100  # the beta slope at 0 is read between these points
    if Nq <= i2:
        raise DomainError(f"hardy_check needs Nq > {i2}, got {Nq}")
    rs, dr = RadialGrid(QUAD_R, Nq).nodes, QUAD_R / Nq
    a = np.asarray(alpha(rs), dtype=float)
    if np.any(a <= 0):
        raise DomainError("alpha must be positive")
    g = 1.0 / (a * rs ** (n - 1))
    # the beta integral must converge at 0: reject log-slope <= -1 there
    slope = (math.log(g[i2]) - math.log(g[i1])) / (math.log(rs[i2]) - math.log(rs[i1]))
    if slope <= -0.99:
        raise BetaDiverges(
            f"integrand of beta behaves like r^{slope:.2f} near 0"
        )
    I = np.cumsum(g) * dr - g * dr / 2.0
    beta = a * rs ** (n - 1) * I
    ids, ratios = [], []
    for tf in family:
        u = tf.fn(rs)
        du = tf.dfn(rs)
        lhs = np.sum(np.abs(u) ** 2 / beta**2 * a * rs ** (n - 1)) * dr
        rhs = 4.0 * np.sum(np.abs(du) ** 2 * a * rs ** (n - 1)) * dr
        ids.append(tf.id)
        ratios.append(0.0 if rhs == 0.0 else float(lhs / rhs))
    return RatioReport(
        "hardy", f"{len(family)} radial test functions", ids, ratios,
        bound=1.0, tol=0.0,
        detail={"n": n, "R": QUAD_R, "Nq": Nq, "beta_slope": slope},
    )


def hardy2_check(
    zeta,
    epsilon: float,
    n: int,
    family: Sequence[TestFunction],
) -> RatioReport:
    """Hardy with the concave-weight choice alpha =
    (zeta' + 2 eps zeta) e^(-2 eps r) r^(1-n); zeta must satisfy
    zeta >= 0, zeta' > 0, zeta'' <= 0 (checked by one jet on 80 radii).
    zeta enters only through its batched jets: zeta and zeta' on the
    quadrature grid are one first-order jet."""
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    j = zeta.jet(np.geomspace(1e-3, QUAD_R, 80), 2)
    zv, z1, z2 = j.value, j.derivative(1), j.derivative(2)
    if np.any(zv < -1e-12) or np.any(z1 <= 0) or np.any(z2 > 1e-12):
        raise HypothesisFail("zeta must satisfy zeta>=0, zeta'>0, zeta''<=0")
    rs, dr = RadialGrid(QUAD_R, QUAD_NQ).nodes, QUAD_R / QUAD_NQ
    j = zeta.jet(rs, 1)
    z, zp = j.value, j.derivative(1)
    wt = (zp + 2.0 * epsilon * z) * np.exp(-2.0 * epsilon * rs)
    ids, ratios = [], []
    for tf in family:
        u, du = tf.fn(rs), tf.dfn(rs)
        lhs = np.sum(wt * np.abs(u) ** 2 / rs**2) * dr
        rhs = 4.0 * np.sum(wt * np.abs(du) ** 2) * dr
        ids.append(tf.id)
        ratios.append(0.0 if rhs == 0.0 else float(lhs / rhs))
    return RatioReport(
        "hardy-concave", f"{len(family)} radial test functions", ids, ratios,
        bound=1.0, tol=0.0,
        detail={"n": n, "epsilon": epsilon, "R": QUAD_R, "Nq": QUAD_NQ},
    )


# -- resolvent smoothing -----------------------------------------------------------


def smoothing_check(
    profile: MetricProfile,
    n: int,
    k: int,
    delta0: float,
    lambda_grid: Sequence[complex],
    family: Sequence[TestFunction],
    h_infinity: float,
    R_max: float,
    N: int,
) -> RatioReport:
    """Resolvent smoothing ratio || u/r || / || r f || against 4/delta0,
    for the reduced radial Helmholtz equation on R^m at each frequency
    of lambda_grid."""
    if not 0 < delta0 < 1:
        raise DomainError("delta0 must lie in (0,1)")
    m = n + 2 * k
    grid = RadialGrid(R_max, N)
    r = grid.nodes
    op = DiscreteRadialOperator.flat(grid, m, compute_V(profile, n, k, r))
    fs = [tf.fn(r) for tf in family]
    rhs = np.array([grid.l2_norm(r * f, m) for f in fs])
    live = np.flatnonzero(rhs)  # the others have ratio 0
    stack = np.stack([fs[i] for i in live], axis=1) if live.size else None
    ids, ratios = [], []
    for lam in lambda_grid:
        ratio = np.zeros(len(family))
        if live.size:  # the whole family in one stacked solve
            u = resolve(lam, stack, op, h_infinity)
            ratio[live] = grid.l2_norm(u / r[:, None], m) / rhs[live]
        ids += [f"{tf.id}@{lam}" for tf in family]
        ratios += ratio.tolist()
    return RatioReport(
        "smoothing", f"{len(family)} bumps x {len(lambda_grid)} frequencies",
        ids, ratios, bound=4.0 / delta0, tol=0.1,
        detail={
            "profile": profile.kind, "n": n, "k": k, "m": m,
            "delta0": delta0, "h_infinity": h_infinity,
            "R_max": R_max, "N": N,
            "lambda_grid": [str(z) for z in lambda_grid],
        },
    )


# -- Strichartz --------------------------------------------------------------------


def validate_wave_pair(p: Fraction, q: Fraction, m: int) -> None:
    p, q = Fraction(p), Fraction(q)
    on_line = Fraction(2, 1) / p + Fraction(m - 1, 1) / q == Fraction(m - 1, 2)
    if not on_line:
        raise NotAdmissible(f"(p,q)=({p},{q}) is not wave admissible for m={m}")
    if not (2 < p and 2 <= q < Fraction(2 * (m - 1), m - 3)):
        raise NotAdmissible(f"(p,q)=({p},{q}) outside the admissible range")


def strichartz_monitor(
    op: DiscreteRadialOperator,
    nu: float,
    pq: tuple,
    family: Sequence[np.ndarray],
    T: float = 20.0,
    n_t: int = 80,
    *,
    free_op: DiscreteRadialOperator,
) -> RatioReport:
    """Discrete space-time norm of the linear flow against the initial
    Sobolev norm, taken with ``free_op``, the free operator on the same
    grid, over n_t >= 2 times in [0, T], T > 0.  The constant is implicit
    in the source estimate, so the sup ratio is a regression number, not
    a bound."""
    if not (T > 0 and n_t >= 2):
        raise DomainError(f"need T > 0 and n_t >= 2, got T = {T}, n_t = {n_t}")
    p, q = Fraction(pq[0]), Fraction(pq[1])
    validate_wave_pair(p, q, op.m)
    s0 = float(Fraction(1, 1) / q - Fraction(1, 1) / p)
    pf, qf = float(p), float(q)
    shift = "inhomogeneous" if nu > 0 else "homogeneous"
    ids = [f"f{i}" for i in range(len(family))]
    ratios = []
    if len(family):
        data = np.stack(family, axis=1)
        rhs = frac_norm(free_op, 0.5, data, shift)
        # the flow of every member, one time at a time: L^q norms only
        lq = np.stack([_lq_norms(free_op, s0 / 2.0, u, shift, qf)
                       for u in _cosine_flow(op, nu, data, T / (n_t - 1), n_t)], axis=1)
        lhs = _lp_partials(lq, np.linspace(0.0, T, n_t), pf)[:, -1]
        ratios = [0.0 if rhs[i] == 0.0 else float(lhs[i] / rhs[i])
                  for i in range(len(family))]
    return RatioReport(
        "strichartz", f"{len(family)} band-limited data", ids, ratios,
        bound=None,
        detail={
            "m": op.m, "nu": nu, "p": [p.numerator, p.denominator],
            "q": [q.numerator, q.denominator], "T": T, "n_t": n_t,
            "N": op.grid.N, "R_max": op.grid.R_max,
        },
    )


# -- dimension shift ----------------------------------------------------------------


def dimshift_check(
    n: int,
    k: int,
    s: float,
    family: Sequence[TestFunction],
) -> RatioReport:
    """Ratio of || r^k v ||_{Hdot^s(R^n)} to || v ||_{Hdot^s(R^(n+2k))}
    (1-D radial integrals, no angular constants).  s=0 is an exact
    identity of measures; s=1 uses the analytic radial gradients."""
    if s not in (0.0, 1.0, 0, 1):
        raise DomainError("only s in {0, 1} supported by quadrature")
    m = n + 2 * k
    rs, dr = RadialGrid(QUAD_R, QUAD_NQ).nodes, QUAD_R / QUAD_NQ
    ids, ratios = [], []
    for tf in family:
        v = tf.fn(rs)
        if s == 0:
            lhs = np.sum(np.abs(rs**k * v) ** 2 * rs ** (n - 1)) * dr
            rhs = np.sum(np.abs(v) ** 2 * rs ** (m - 1)) * dr
        else:
            dv = tf.dfn(rs)
            du = k * rs ** (k - 1) * v + rs**k * dv
            lhs = np.sum(np.abs(du) ** 2 * rs ** (n - 1)) * dr
            rhs = np.sum(np.abs(dv) ** 2 * rs ** (m - 1)) * dr
        ids.append(tf.id)
        ratios.append(0.0 if rhs == 0.0 else float(np.sqrt(lhs / rhs)))
    finite = [x for x in ratios if x > 0]
    spread = math.log(max(finite) / min(finite)) if finite else 0.0
    return RatioReport(
        "dimension-shift", f"{len(family)} radial test functions", ids, ratios,
        bound=None,
        detail={"n": n, "k": k, "m": m, "s": s, "log_ratio_spread": spread},
    )
