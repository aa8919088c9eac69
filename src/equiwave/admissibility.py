"""Admissibility of rotationally symmetric base metrics.

Checks the three defining conditions on the profile h(r): existence of the
curvature limit of H(r) = h^((1-n)/2) (h^((n-1)/2))'' at infinity,
derivative decay at infinity, and the sign/monotonicity condition on
P(r) = r(H - h_inf) + (1-delta0)/(4r).  Also implements the three
perturbation criteria (general / exponential-growth / polynomial-growth)
under which perturbations of admissible metrics stay admissible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, InconsistentFormulas, ModeMismatch, NoLimit
from .jets import Jet
from .profiles import MetricProfile

# the radii of the admissibility and perturbation checks, read-only
# because every check shares them
GRID = np.geomspace(1e-3, 1e3, 600)
GRID.flags.writeable = False

# the windows [R1, 4 R1] of the fit of H(r) = h_inf + c/r^2
H_INFINITY_WINDOWS = (20.0, 40.0, 80.0)

# the largest perturbation size that check_perturbation certifies
EPS_MAX = 0.1

# why a record that needs h_inf is not run when h has no curvature limit
_NO_LIMIT = "no curvature limit h_inf"


def H_jet(profile: MetricProfile, n: int, r, order: int = 0) -> Jet:
    """Jet of H(r) = (n-1)/2 * h''/h + (n-1)(n-3)/4 * (h'/h)^2 at r > 0,
    or at every radius of an array r."""
    hj = profile.jet(r, order + 2)
    h1 = hj.deriv()
    h2 = h1.deriv()
    return ((n - 1) / 2) * (h2 / hj) + ((n - 1) * (n - 3) / 4) * (h1 / hj) ** 2


def compute_H(profile: MetricProfile, n: int, r: float, tol: float = 1e-10) -> float:
    """H(r) computed by both equivalent formulas; returns the stable
    ratio form and raises if the pair disagrees (a jet bug)."""
    if n < 3:
        raise DomainError("base dimension must be >= 3")
    if r <= 0:
        raise DomainError("H(r) requires r > 0")
    hj = profile.jet(r, 2)
    if hj.value <= 0:
        raise DomainError(f"h({r}) <= 0")
    stable = H_jet(profile, n, r).value
    p = (n - 1) / 2
    hp = hj**p
    definition = hp.derivative(2) / hp.value
    scale = max(abs(stable), abs(definition), 1e-30)
    if abs(definition - stable) > tol * scale:
        raise InconsistentFormulas(
            f"H formulas disagree at r={r}: {definition} vs {stable}"
        )
    return stable


def estimate_h_infinity(profile: MetricProfile, n: int) -> tuple[float, float]:
    """Fit H(r) = h_inf + c/r^2 on r in [R1, 4*R1] for increasing R1,
    then Richardson-extrapolate the window intercepts.

    Returns (h_inf, sup of |H - h_inf| * r^2 over the largest window).
    Raises NoLimit when the fitted residual does not decay like r^-2.
    """
    fits = []
    # one batched jet over every window, split back: each radius keeps its bits
    windows = [np.linspace(R1, 4 * R1, 60) for R1 in H_INFINITY_WINDOWS]
    H_all = H_jet(profile, n, np.concatenate(windows)).value  # NaN where h = 0 or it overflows
    for R1, rs, H in zip(H_INFINITY_WINDOWS, windows, np.split(H_all, len(windows))):
        ok = np.isfinite(H)
        if ok.sum() < 10:
            continue
        rs, H = rs[ok], H[ok]
        A = np.column_stack([np.ones_like(rs), rs**-2.0])
        (a, c), *_ = np.linalg.lstsq(A, H, rcond=None)
        resid = float(np.max(np.abs(H - a - c * rs**-2.0)))
        fits.append((R1, a, c, resid, rs, H))
    if not fits:
        raise NoLimit("no finite samples of H at large r")
    # Richardson step on the last two window intercepts: with window
    # doubling and residual bias ~ R1^-2, bias cancels in a + (a2-a1)/3.
    est = fits[-1][1]
    if len(fits) >= 2:
        est = est + (fits[-1][1] - fits[-2][1]) / 3.0
    # estimates across windows must agree, and the deviation from the
    # limit must be O(r^-2): check sup |H - h_inf| r^2 stays bounded.
    spreads = [float(abs(f[1] - est)) for f in fits]
    if max(spreads) > max(1e-6, 1e-3 * max(abs(est), 1.0)):
        raise NoLimit(f"window estimates of h_inf do not converge: {spreads}")
    sups = []
    for _, a, _, _, rs, H in fits:
        sups.append(float(np.max(np.abs(H - est) * rs**2)))
    if sups[-1] > 10.0 * max(sups[0], 1e-12) and sups[-1] > 1e-6:
        raise NoLimit("residual of the r^-2 fit does not decay")
    if est < 0:
        # clamp fit bias of order residual / R1^2; a truly negative
        # limit is not a curvature limit
        bias = max(1e-8, sups[-1] / H_INFINITY_WINDOWS[-1] ** 2)
        if est < -bias:
            raise NoLimit(f"curvature limit is negative: {est}")
        est = 0.0
    return float(est), sups[-1]


def compute_P(profile: MetricProfile, n: int, delta0: float, r, h_infinity: float):
    """P(r) = r*H(r) - r*h_inf + (1-delta0)/(4r) and its derivative,
    both from jets, at a radius or at every radius of an array, for the
    caller's h_inf (which estimate_h_infinity fits)."""
    if not 0 < delta0 < 1:
        raise DomainError("delta0 must lie in (0,1)")
    Hj = H_jet(profile, n, r, order=1)
    return _P_and_slope(r, Hj.value, Hj.derivative(1), h_infinity, delta0)


def _P_and_slope(r, H, H1, h_infinity, delta0):
    """P = r(H - h_inf) + (1-delta0)/(4r) and P' from H and H' at r."""
    P = r * (H - h_infinity) + (1 - delta0) / (4 * r)
    P1 = (H - h_infinity) + r * H1 - (1 - delta0) / (4 * r**2)
    return P, P1


# -- report types -------------------------------------------------------------


def _verdict(reason: Optional[str]) -> dict:
    """The record of a verdict that was checked: PASS if reason is None,
    else FAIL with the reason, what broke and its witness.  A record has
    at most one of "reason" and "not_run" (_not_run), and only if it fails."""
    return {"verdict": "PASS"} if reason is None else {"verdict": "FAIL", "reason": reason}


def _not_run(why: str) -> dict:
    """The record of a verdict that could not be checked: it fails, and says why."""
    return {"verdict": "FAIL", "not_run": why}


@dataclass
class ConditionVerdict:
    """One admissibility condition: it passes unless it has a reason or not_run."""

    name: str
    witness_r: Optional[float] = None
    margin: Optional[float] = None
    detail: dict = field(default_factory=dict)
    reason: Optional[str] = None
    not_run: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.reason is None and self.not_run is None

    def to_json(self):
        return {
            "name": self.name,
            "witness_r": self.witness_r,
            "margin": self.margin,
            "detail": self.detail,
            **(_verdict(self.reason) if self.not_run is None else _not_run(self.not_run)),
        }


@dataclass
class AdmissibilityReport:
    profile_kind: str
    n: int
    h_infinity: Optional[float]
    h_infinity_residual: Optional[float]
    delta0: Optional[float]
    cond_i: ConditionVerdict
    cond_ii: ConditionVerdict
    cond_iii: ConditionVerdict
    linear_lower_bound: Optional[float]  # empirical inf of h(r)/r
    rP_bound: Optional[float]
    grid_spec: dict

    @property
    def admissible(self) -> bool:
        return self.cond_i.passed and self.cond_ii.passed and self.cond_iii.passed

    def to_json(self):
        return {
            "profile": self.profile_kind,
            "n": self.n,
            "h_infinity": self.h_infinity,
            "h_infinity_residual": self.h_infinity_residual,
            "delta0": self.delta0,
            "admissible": self.admissible,
            "verdict": "PASS" if self.admissible else "FAIL",
            "conditions": [
                self.cond_i.to_json(),
                self.cond_ii.to_json(),
                self.cond_iii.to_json(),
            ],
            "linear_lower_bound": self.linear_lower_bound,
            "rP_bound": self.rP_bound,
            "grid": self.grid_spec,
        }


DELTA0_GRID = np.round(np.arange(0.95, 0.049, -0.05), 2)


def check_admissibility(profile: MetricProfile, n: int) -> AdmissibilityReport:
    """Evaluate the three admissibility conditions on the geometric grid GRID.

    Failures are verdicts with witness points, never exceptions.
    """
    if n < 3:
        raise DomainError("base dimension must be >= 3")
    rs = GRID
    grid_spec = {"r_min": float(rs[0]), "r_max": float(rs[-1]), "points": len(rs)}

    h = profile(rs)  # NaN past an overflow
    ratio = h / rs
    finite_h = np.isfinite(h)

    # h(r) >= c r with c > 0 (part of condition iii)
    with np.errstate(invalid="ignore"):
        bad = np.where(finite_h & (ratio <= 0))[0]
    if bad.size:
        i = bad[0]
        cond_iii = ConditionVerdict("iii", float(rs[i]), float(ratio[i]),
                                    reason="h(r) >= c r fails")
        cond_i, h_inf, resid = _check_cond_i(profile, n)
        cond_ii = ConditionVerdict("ii", not_run="h <= 0")
        return AdmissibilityReport(
            profile.kind, n, h_inf, resid, None, cond_i, cond_ii, cond_iii,
            float(np.nanmin(np.where(finite_h, ratio, np.nan))), None, grid_spec,
        )
    c_lower = float(np.min(ratio[finite_h]))

    cond_i, h_inf, resid = _check_cond_i(profile, n)
    cond_ii = _check_cond_ii(profile, n, rs)

    # condition (iii): delta0 grid search, largest passing value
    Hj = H_jet(profile, n, rs, order=1)
    H, H1 = Hj.value, Hj.derivative(1)
    ok = np.isfinite(H) & np.isfinite(H1)
    delta0 = None
    rP_bound = None
    witness = None
    if h_inf is not None and ok.any():
        r_ok, H_ok, H1_ok = rs[ok], H[ok], H1[ok]
        for d0 in DELTA0_GRID:
            P, P1 = _P_and_slope(r_ok, H_ok, H1_ok, h_inf, d0)
            scale = np.max(np.abs(P)) + 1e-30
            if np.min(P) >= -1e-10 * scale and np.max(P1) <= 1e-10 * scale:
                delta0 = float(d0)
                rP_bound = float(np.max(r_ok * P))
                break
            # remember the most promising failure as witness
            i = int(np.argmin(P)) if np.min(P) < 0 else int(np.argmax(P1))
            witness = (float(r_ok[i]), float(min(np.min(P), -np.max(P1))))
    if h_inf is None:
        cond_iii = ConditionVerdict("iii", not_run=_NO_LIMIT)
    elif delta0 is not None:
        cond_iii = ConditionVerdict("iii", None, c_lower, {
            "delta0": delta0, "P_nonneg_Pprime_nonpos": True, "rP_bounded": True,
            "rP_bound": rP_bound})
    else:
        wr, wm = witness if witness else (None, None)
        cond_iii = ConditionVerdict("iii", wr, wm, reason="no delta0 in the search grid works")

    return AdmissibilityReport(
        profile.kind, n, h_inf, resid, delta0, cond_i, cond_ii, cond_iii,
        c_lower, rP_bound, grid_spec,
    )


def _check_cond_i(profile, n):
    try:
        h_inf, resid = estimate_h_infinity(profile, n)
        return ConditionVerdict("i", None, resid, {"h_infinity": h_inf}), h_inf, resid
    except NoLimit as exc:
        return ConditionVerdict("i", reason=str(exc)), None, None


def _check_cond_ii(profile, n, rs):
    """r |H^(j)| and r^(1/2+j) |(h^(-1/2))^(j)| bounded at large r:
    the sampled sup must be finite and non-increasing over dyadic blocks."""
    jmax = (n - 1) // 2
    large = rs[(rs >= 10.0)]
    # coefficient j of a jet reads only coefficients 0..j: one jet serves all j
    hj = profile.jet(large, jmax)
    dH = H_jet(profile, n, large, order=jmax).coeffs
    d_inv_sqrt = (hj**-0.5).coeffs
    worst = None
    for j in range(1, jmax + 1):
        a = large * np.abs(dH[j])
        b = large ** (0.5 + j) * np.abs(d_inv_sqrt[j])
        # Python's max(a, b): a unless b > a, also where either is NaN.
        # h^(-1/2) has no jet where h <= 0, and no sample is taken there.
        q = np.where(hj.value <= 0, np.nan, np.where(b > a, b, a))
        ok = np.isfinite(q)
        if ok.sum() < 8:
            return ConditionVerdict("ii", reason=f"too few finite samples at j={j}")
        r_ok, q_ok = large[ok], q[ok]
        # dyadic block sups
        edges = 10.0 * 2.0 ** np.arange(0, 14)
        sups = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = (r_ok >= lo) & (r_ok < hi)
            if sel.any():
                sups.append(float(np.max(q_ok[sel])))
        for b in range(1, len(sups)):
            if sups[b] > 1.1 * sups[b - 1] + 1e-9:
                return ConditionVerdict(
                    "ii", float(edges[b]), sups[b], {"sups": sups},
                    reason=f"block sup increases at j={j}",
                )
        worst = max(worst or 0.0, sups[0] if sups else 0.0)
    return ConditionVerdict("ii", None, worst, {"jmax": jmax})


# -- perturbation criteria -----------------------------------------------------


@dataclass
class PerturbationReport:
    epsilon: float  # smallest epsilon making the small-epsilon items hold
    passed: bool
    items: list


def check_perturbation(
    base: MetricProfile,
    perturbed: MetricProfile,
    mode: str,
    n: int,
) -> PerturbationReport:
    """Evaluation on GRID of the perturbation criterion for the given
    growth class; returns the smallest epsilon for which the smallness
    items hold together with large-r boundedness verdicts, and passes
    when that epsilon is at most EPS_MAX."""
    if mode not in ("general", "exponential", "polynomial"):
        raise DomainError(f"unknown perturbation mode {mode!r}")
    rs = GRID
    jmax_large = (n - 1) // 2 + 2

    with np.errstate(over="ignore", invalid="ignore"):
        h = base(rs)
        he = perturbed(rs)
        finite = np.isfinite(h) & np.isfinite(he) & (h > 0) & (he > 0)
    rs, h, he = rs[finite], h[finite], he[finite]

    mu_sup = float(np.max(np.abs(he - h)))
    if mu_sup == 0.0:
        # identical profiles: trivially admissible together
        return PerturbationReport(0.0, True, [{"name": "identical", "sup": 0.0}])

    if mode == "exponential":
        # requires super-polynomial growth of the base: h / (r + r^n)
        # bounded below at large r
        rho = h / (rs + rs**n)
        r1 = rho[np.argmin(np.abs(rs - 1.0))]
        if rho[-1] < 0.1 * r1:
            raise ModeMismatch("base metric does not have exponential-class growth")

    items = []
    eps = 0.0
    large = rs >= 10.0

    if mode == "general":
        # h_eps > cr for all r; |H - H_eps| <= eps/r^2 and
        # |H' - H_eps'| <= eps/r^3 for all r; H^(j) - H_eps^(j) = O(1/r)
        # and (h_eps^(-1/2))^(j) = O(r^(-1/2-j)) at large r
        c_low = float(np.min(he / rs))
        items.append({"name": "h_eps >= c r", "sup": c_low, "bounded": c_low > 0})
        # one jet serves every derivative order (see _check_cond_ii)
        jmax = (n - 1) // 2
        Hb = H_jet(base, n, rs, max(jmax, 1)).coeffs
        Hp = H_jet(perturbed, n, rs, max(jmax, 1)).coeffs
        e0 = float(np.nanmax(rs**2 * np.abs(Hb[0] - Hp[0])))
        e1 = float(np.nanmax(rs**3 * np.abs(Hb[1] - Hp[1])))
        eps = max(e0, e1)
        items += [
            {"name": "|H-H_eps| r^2", "sup": e0, "small": True},
            {"name": "|H'-H_eps'| r^3", "sup": e1, "small": True},
        ]
        rl = rs[large]
        d_inv_sqrt = (perturbed.jet(rl, jmax) ** -0.5).coeffs
        for j in range(1, jmax + 1):
            sup = float(np.nanmax(rl * np.abs(Hb[j] - Hp[j])[large]))
            items.append(
                {"name": f"r|H^({j})-H_eps^({j})| large r", "sup": sup,
                 "bounded": math.isfinite(sup)}
            )
            sup2 = float(np.nanmax(rl ** (0.5 + j) * np.abs(d_inv_sqrt[j])))
            items.append(
                {"name": f"r^(1/2+{j})|(h_eps^(-1/2))^({j})|", "sup": sup2,
                 "bounded": math.isfinite(sup2)}
            )
    else:
        # shared structure of the exponential / polynomial criteria:
        # growth floor, derivative-to-profile ratios, relative smallness
        if mode == "exponential":
            items.append({"name": "h_eps >= c(r + r^n)",
                          "sup": float(np.min(he / (rs + rs**n))), "bounded": True})
            # <r>^3 at large r; near the origin the criterion only uses
            # smoothness of the odd profiles, so switch to the r^j weight
            # there (the statement explicitly tolerates a singularity at 0)
            weight_small = (1.0 + rs**2) ** 1.5
        else:
            items.append({"name": "h_eps >= c r",
                          "sup": float(np.min(he / rs)), "bounded": True})
            weight_small = None  # per-j weight r^j below
        # one jet serves every derivative order (see _check_cond_ii)
        order = max(jmax_large, 3)
        dh = perturbed.jet(rs, order).coeffs
        mu = dh - base.jet(rs, order).coeffs
        for j in range(1, jmax_large + 1):
            w = np.ones_like(rs) if mode == "exponential" else rs**j
            sup = float(np.nanmax((w * np.abs(dh[j]) / he)[large]))
            items.append(
                {"name": f"|h_eps^({j})| w_{j} / h_eps large r", "sup": sup,
                 "bounded": math.isfinite(sup)}
            )
        for j in range(0, 4):
            if weight_small is not None:
                w = np.where(rs < 1.0, rs**j, weight_small)
            else:
                w = rs**j
            val = float(np.nanmax(w * np.abs(mu[j]) / h))
            eps = max(eps, val)
            items.append({"name": f"|mu^({j})| smallness", "sup": val, "small": True})
        for j in range(1, jmax_large + 1):
            sup = float(np.nanmax((rs * np.abs(mu[j]) / h)[large]))
            items.append(
                {"name": f"r|mu^({j})|/h large r", "sup": sup,
                 "bounded": math.isfinite(sup)}
            )

    bounded_ok = all(it.get("bounded", True) for it in items)
    passed = bounded_ok and eps <= EPS_MAX
    return PerturbationReport(eps, passed, items)
