"""Nonlinear time integration of the equivariant wave-map equation.

Two formulations of the same flow are integrated with an explicit
velocity-Verlet (leapfrog) scheme:

  phi-form on the base manifold:
      phi_tt = Delta_h phi - lbar g(phi) g'(phi) / h^2,
  psi-form on flat R^m (phi = w psi):
      psi_tt = Delta_m psi - V psi - (r^(m-1)/h^(n+1)) psi^3 Gamma(w psi).

The phi form integrates the force as written; only the psi form builds
the Taylor series of the cubic remainder Gamma, the reduced nonlinearity.
Both spatial operators are the spectral module's finite-volume stencil,
so the linear flat case reproduces the spectral propagator to second
order.  The scheme is time-symmetric; reversal and energy drift double
as correctness tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import BlowUp, CFLViolation, DomainError
from .profiles import _gamma_series, gamma_decompose
from .reduction import compute_V, gamma_weights, indices, weight_w
from .scenario import Scenario
from .spectral import _fractional_power, _Stencil, frac_norm

BLOWUP_FACTOR = 1e3  # ceiling = BLOWUP_FACTOR * sup of the initial field
# snapshots per stack of _reduced_blocks, which feeds the H^(1/2) norms of
# integrate and strichartz_trace: each contour node solves on a complex
# copy of one (N, 128) stack, 8 MB at N = 4000
SNAPSHOT_BLOCK = 128


@dataclass
class WaveState:
    t: float
    field: np.ndarray
    velocity: np.ndarray
    formulation: str  # "phi" or "psi"

    def __post_init__(self):
        if self.formulation not in ("phi", "psi"):
            raise DomainError(f"unknown formulation {self.formulation!r}")


@dataclass
class Trajectory:
    times: np.ndarray
    energies: np.ndarray
    sup_norms: np.ndarray
    h_half_norms: np.ndarray
    local_energies: np.ndarray
    states: list
    formulation: str
    meta: dict = field(default_factory=dict)

    @property
    def final_state(self) -> WaveState:
        return self.states[-1]

    @property
    def energy_drift(self) -> np.ndarray:
        """|E(t) - E(0)| / E(0) per snapshot; zeros when E(0) <= 0."""
        e0 = self.energies[0]
        dev = np.abs(self.energies - e0)
        return dev / e0 if e0 > 0 else np.zeros_like(dev)

    def csv_rows(self, strichartz_partials=None):
        rows = []
        for i, t in enumerate(self.times):
            part = "" if strichartz_partials is None else strichartz_partials[i]
            rows.append(
                (t, self.energies[i], self.sup_norms[i],
                 self.h_half_norms[i], part)
            )
        return rows


class _Discretization:
    """Everything precomputable for one scenario and formulation."""

    def __init__(self, scenario: Scenario, formulation: str):
        self.scenario = scenario
        self.formulation = formulation
        self.grid = scenario.radial_grid
        self.profile = scenario.profile()
        self.target = scenario.target_profile()
        n, k = scenario.n, scenario.k
        self.n, self.k = n, k
        self.m = n + 2 * k
        self.lbar = k * (k + n - 2)
        r = self.grid.nodes
        self.h_nodes = self.profile(r)
        self.w_nodes = weight_w(self.profile, n, k, r)
        if formulation == "phi":
            self.op = _Stencil.manifold(self.grid, self.profile, n)
            self.c = self.lbar / self.h_nodes**2  # weight of g g' in the force
        elif formulation == "psi":
            self.op = _Stencil.flat(self.grid, self.m)
            self.V = compute_V(self.profile, n, k, r)
            self.pref, _ = gamma_weights(self.profile, n, k, r)
            # Taylor coefficients of Gamma at 0, for the cubic remainder
            self.gamma_series = _gamma_series(self.target, self.lbar)
        else:
            raise DomainError(f"unknown formulation {formulation!r}")

    @cached_property
    def D(self) -> np.ndarray:
        """phi form only, built on first use: a psi-form run reads its
        phi-form discretization only for the local energy.

        The linear part lbar*phi/h^2 of the force c*g(phi)g'(phi) is
        singular at the origin and must cancel the FV Laplacian
        discretely, not just in the continuum.  Below r = 1 the diagonal
        c + D therefore comes from the regular mode w, through the exact
        identity (Delta_h - lbar/h^2) w = -V w; from r = 1 on D is 0,
        which agrees with it to second order and avoids boundary
        pollution."""
        r = self.grid.nodes
        V = compute_V(self.profile, self.n, self.k, r)
        balanced = self.op.apply(self.w_nodes) / self.w_nodes + V - self.c
        return np.where(r < 1.0, balanced, 0.0)

    def acceleration(self, u: np.ndarray) -> np.ndarray:
        if self.formulation == "phi":
            return self.op.apply(u) - self.D * u - self.c * self.target.gg_prime(u)
        gam = gamma_decompose(self.target, self.lbar, self.w_nodes * u,
                              series=self.gamma_series)
        # u * u * u, not u**3: numpy sends any power but 2 through libm pow
        return self.op.apply(u) - self.V * u - self.pref * (u * u * u) * gam

    def to_phi(self, u: np.ndarray) -> np.ndarray:
        return u if self.formulation == "phi" else self.w_nodes * u

    def initial_state(self) -> WaveState:
        phi0, phi1 = self.scenario.initial_data(self.grid.nodes)
        if self.formulation == "psi":
            return WaveState(0.0, phi0 / self.w_nodes, phi1 / self.w_nodes, "psi")
        return WaveState(0.0, phi0, phi1, "phi")


def energy(state: WaveState, scenario: Scenario) -> float:
    """Discrete conserved energy of the phi-form flow,

      E = 1/2 integral (phi_t^2 + phi_r^2 + lbar g(phi)^2/h^2) h^(n-1) dr,

    evaluated with the same finite-volume weights as the stencil so the
    semidiscrete flow conserves it exactly.  psi-form states are
    transformed to the phi-form first."""
    disc = _Discretization(scenario, "phi")
    if state.formulation == "psi":
        phi = disc.w_nodes * state.field
        phi_t = disc.w_nodes * state.velocity
    else:
        phi = state.field
        phi_t = state.velocity
    return _phi_form_energy(disc, phi, phi_t)


def _phi_form_energy(disc: "_Discretization", phi, phi_t) -> float:
    """FV quadrature of the phi-form energy, with the potential term the
    exact antiderivative of the discrete force (so the semidiscrete flow
    conserves it and the leapfrog drift is pure O(dt^2))."""
    g = disc.target(phi)
    rho = disc.op.rho
    pot = disc.D * phi**2 + disc.c * g**2
    val = np.sum(rho * phi_t**2) + np.sum(rho * pot)
    val += disc.op.quadratic_form(phi)
    return 0.5 * disc.grid.dr * val


def _psi_form_energy(disc: "_Discretization", psi, psi_t) -> float:
    """Discrete energy conserved by the semidiscrete psi-form flow; it
    agrees with the phi-form energy in the continuum limit."""
    rho = disc.op.rho
    w, h = disc.w_nodes, disc.h_nodes
    s = w * psi
    g = disc.target(s)
    pot = disc.V * psi**2 + disc.lbar * (g**2 - s**2) / (h * w) ** 2
    val = np.sum(rho * psi_t**2) + np.sum(rho * pot)
    val += disc.op.quadratic_form(psi)
    return 0.5 * disc.grid.dr * val


def _local_energy(disc: _Discretization, phi, phi_t, radius: float) -> float:
    """Energy density integrated over the ball r < radius."""
    mask = disc.grid.nodes < radius
    rho = disc.op.rho[mask]
    g = disc.target(phi[mask])
    dens = rho * (phi_t[mask] ** 2 + disc.c[mask] * g**2)
    du = np.diff(phi) / disc.grid.dr
    fmask = disc.grid.faces[1:-1] < radius
    grad = np.sum(disc.op.F[1:-1][fmask] * du[fmask] ** 2)
    return 0.5 * disc.grid.dr * (np.sum(dens) + grad)


def _reduced_blocks(states: list, w: np.ndarray):
    """The reduced fields w^(-1) phi of the states, (N, <= SNAPSHOT_BLOCK) at a time."""
    for j in range(0, len(states), SNAPSHOT_BLOCK):
        yield np.stack([st.field if st.formulation == "psi" else st.field / w
                        for st in states[j : j + SNAPSHOT_BLOCK]], axis=1)


def integrate(
    scenario: Scenario,
    formulation: str = "phi",
    initial_state: Optional[WaveState] = None,
    spectral_diagnostics: bool = True,
    ceiling: Optional[float] = None,
) -> Trajectory:
    """Velocity-Verlet integration of the scenario to time T with
    snapshots every snap_every.  Raises BlowUp when the field exceeds
    BLOWUP_FACTOR times its initial sup or becomes non-finite."""
    disc = _Discretization(scenario, formulation)
    grid = disc.grid
    dt_factor = float(scenario.time["dt_factor"])
    if dt_factor > 0.5:
        raise CFLViolation(f"dt_factor {dt_factor} exceeds 0.5")
    n_steps, dt, snap_stride = scenario.stepping

    state = initial_state or disc.initial_state()
    if state.formulation != formulation:
        raise DomainError("initial state formulation does not match")
    u = np.array(state.field, dtype=float)
    v = np.array(state.velocity, dtype=float)
    t0 = state.t

    sup0 = float(np.max(np.abs(disc.to_phi(u))))
    if ceiling is None:
        ceiling = BLOWUP_FACTOR * sup0 if sup0 > 0 else 1.0
    ball = grid.R_max / 3.0

    states = []
    work = np.empty_like(u)

    def check(t, uu):
        # |phi| into one buffer and one max: a NaN makes the max NaN and
        # fails `< inf`, which also catches inf under ceiling = inf
        phi = uu if formulation == "phi" else np.multiply(disc.w_nodes, uu, out=work)
        a = np.abs(phi, out=work)
        top = a.max()
        if disc.target.domain_bound <= top < math.inf:
            raise DomainError(f"field {top:.6g} left the target domain at t={t:.6g}")
        if not top < math.inf or top > ceiling:
            bad = np.argmax(np.where(np.isfinite(a), a, np.inf))
            raise BlowUp(t, grid.nodes[bad])

    check(t0, u)
    states.append(WaveState(t0, u.copy(), v.copy(), formulation))
    a = disc.acceleration(u)
    half_dt = 0.5 * dt
    incr = np.empty_like(u)  # the Verlet increments, in place of temporaries
    for step in range(1, n_steps + 1):
        v += np.multiply(half_dt, a, out=incr)
        u += np.multiply(dt, v, out=incr)
        a = disc.acceleration(u)
        v += np.multiply(half_dt, a, out=incr)
        t = t0 + step * dt
        check(t, u)
        if step % snap_stride == 0 or step == n_steps:
            states.append(WaveState(t, u.copy(), v.copy(), formulation))

    # the snapshot diagnostics, from the stored states; the local energy
    # always lives on the phi-form discretization
    phi_disc = _Discretization(scenario, "phi") if formulation == "psi" else disc
    energies, sups, locals_ = [], [], []
    form_energy = _psi_form_energy if formulation == "psi" else _phi_form_energy
    for st in states:
        phi, phi_t = disc.to_phi(st.field), disc.to_phi(st.velocity)
        energies.append(form_energy(disc, st.field, st.velocity))
        sups.append(float(np.max(np.abs(phi))))
        locals_.append(_local_energy(phi_disc, phi, phi_t, ball))
    halves = [math.nan] * len(states)
    if spectral_diagnostics:
        halves = [x for psi in _reduced_blocks(states, disc.w_nodes)
                  for x in frac_norm(scenario.free_operator, 0.5, psi).tolist()]

    return Trajectory(
        times=np.array([st.t for st in states]),
        energies=np.array(energies),
        sup_norms=np.array(sups),
        h_half_norms=np.array(halves),
        local_energies=np.array(locals_),
        states=states,
        formulation=formulation,
        meta={
            "dt": dt,
            "cfl_ratio": dt / grid.dr,
            "n_steps": n_steps,
            "ceiling": ceiling,
            "ball_radius": ball,
            "energy_functional": formulation,
            "scenario": scenario.to_json(),
        },
    )


def consistency_check(scenario: Scenario) -> dict:
    """Integrate both formulations on the same data and report the max
    over snapshots of || w psi - phi ||_inf."""
    traj_phi = integrate(scenario, "phi", spectral_diagnostics=False)
    traj_psi = integrate(scenario, "psi", spectral_diagnostics=False)
    w = weight_w(scenario.profile(), scenario.n, scenario.k, scenario.radial_grid.nodes)
    per = []
    for sp, sq in zip(traj_phi.states, traj_psi.states):
        per.append(float(np.max(np.abs(sp.field - w * sq.field))))
    return {
        "mismatch": max(per) if per else 0.0,
        "per_snapshot": per,
        "times": traj_phi.times.tolist(),
        "N": int(scenario.grid["N"]),
    }


def strichartz_trace(
    trajectory: Trajectory, scenario: Scenario, return_partials: bool = False
):
    """Discrete L^p_t H^((n-1)/2)_q norm of the run: the reduced field
    w^(-1) phi is measured with the free-operator fractional calculus on
    R^m, L^q by radial quadrature, then L^p in time by the trapezoid
    rule over the stored snapshots."""
    if not trajectory.states:
        raise DomainError("trajectory carries no stored states")
    sc = scenario
    idx = indices(sc.n, sc.k)
    p, q = float(idx["p"]), float(idx["q"])
    op = sc.free_operator
    s = (sc.n - 1) / 2
    w = weight_w(sc.profile(), sc.n, sc.k, op.grid.nodes)
    wq = op.grid.volume_weights(idx["m"])[:, None]
    lq = []
    for psi in _reduced_blocks(trajectory.states, w):
        g = _fractional_power(op, s / 2, psi, "inhomogeneous")
        lq.extend(np.sum(wq * np.abs(g) ** q, axis=0) ** (1.0 / q))
    lq = np.array(lq)
    partials = np.zeros_like(lq)
    if len(lq) > 1:
        cum = np.concatenate(
            [[0.0], np.cumsum(np.diff(trajectory.times) * 0.5 * (lq[1:] ** p + lq[:-1] ** p))]
        )
        partials = cum ** (1.0 / p)
    total = float(partials[-1])
    if return_partials:
        return total, partials
    return total
