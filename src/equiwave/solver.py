"""Nonlinear time integration of the equivariant wave-map equation.

Two formulations of the same flow are integrated with an explicit
velocity-Verlet (leapfrog) scheme:

  phi-form on the base manifold:
      phi_tt = Delta_h phi - lbar g(phi) g'(phi) / h^2,
  psi-form on flat R^m (phi = w psi):
      psi_tt = Delta_m psi - V psi - (r^(m-1)/h^(n+1)) psi^3 Gamma(w psi).

Both forms take one force, -H u - a (g g'(s) - s): a linear radial wave
operator H and the cubic remainder of the nonlinearity.  With
c = lbar/h^2, the phi form has s = phi, a = c and H = -Delta_h + P, P = c
from r = 1 on, which makes the force the phi force as written there;
below r = 1, P is balanced against the finite-volume Laplacian.  The psi
form has s = w psi, a = c/w and H = -Delta_m + V, by the exact identity
(r^(m-1)/h^(n+1)) psi^3 Gamma(s) = (c/w) (g(s) g'(s) - s), so neither
form evaluates Gamma.  H is a spectral DiscreteRadialOperator, so the
linear flat case reproduces the spectral propagator to second order.
The scheme is time-symmetric; reversal and energy drift double as
correctness tests.

One step loop, `_Run.snapshots`, serves every run: it records the
energy, sup and local energy at each snapshot and yields, and the caller
keeps what it needs of the state there; `integrate` keeps every state.
A step does only work that can change a bit.  It takes |s| of the new
field once, checks its max, and only then the force, which evaluates
g g' in the window of cells from the first to the last with
|s| >= TargetProfile.linear_radius: outside it g g'(s) rounds to s, so
the remainder is 0.  Everything a step touches is bound once per run:
its arrays, the force at the run's field (`_Discretization.bind`, whose
band product has its neighbour views made once), the ufuncs, dt and dt/2
as 0-d arrays and the target's g g' function (`gg_prime_fn`).  A step
makes its numpy calls and slices only the g g' window, and the half kick
that ends a step is the product that starts the next, so a run has the
bits of the textbook velocity-Verlet loop with g g' on every cell.

`forked` is the one way the package uses a second core: it runs a
generator in one forked child process and hands its values to the caller
through a one-way pipe.  consistency_check runs the psi form in the
child while the caller runs the phi form.  `_phi_fields` is the child of
the CLI's evolve stage.  It writes the field of each snapshot into a
column of an (N, S) array on a shared mapping made before the fork
(`_shared_columns`), keeps no state, makes no spectral solve, and sends
through the pipe only the end of each block of SNAPSHOT_BLOCK columns,
then the trajectory without states.  The caller measures each block as
soon as its end arrives (`_measure_phi_fields`), with the per-block code
of h_half_norms and strichartz_trace, so every bit is that of an
in-process run.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import BlowUp, CFLViolation, DomainError, EquiwaveError
from .reduction import compute_V, indices, weight_w
from .scenario import Scenario
from .spectral import DiscreteRadialOperator, _band_product, _lp_partials, _lq_norms, frac_norm

BLOWUP_FACTOR = 1e3  # ceiling = BLOWUP_FACTOR * sup of the initial field
# snapshots per stack of _reduced_blocks, which feeds h_half_norms and
# strichartz_trace, and per block of the evolve child's fields.  Every
# column is solved and summed on its own, so the width moves no bit; the
# transient of frac_norm is about 34 N bytes per column (2.2 MB for 16
# columns at N = 4000).  At N = 4000 the H^(1/2) norm and the Strichartz
# L^q norm of a column cost about 2.2 ms together in stacks of 8, 16 or
# 32 and 2.4 ms at 101: 16 stays, as fast as 32 in half its working set
# (one BLAS thread, 2-core VM)
SNAPSHOT_BLOCK = 16


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
        V = compute_V(self.profile, n, k, r)
        self.c = self.lbar / self.h_nodes**2
        # -Delta_h, whose weights also give the local energy
        self.manifold_op = DiscreteRadialOperator.manifold(self.grid, self.profile, n)
        # the operator H, s = b u, and the weight a of g g'(s) - s
        if formulation == "phi":
            # P = c, but below r = 1 the singular c u must cancel the FV
            # Laplacian discretely: there P comes from the regular mode w by
            # the exact identity (Delta_h - c) w = -V w
            P = np.where(r < 1.0, V - self.manifold_op.apply(self.w_nodes) / self.w_nodes,
                         self.c)
            self.op = replace(self.manifold_op, W_samples=P)
            self.a, self.b = self.c, 1.0
        elif formulation == "psi":
            self.op = DiscreteRadialOperator.flat(self.grid, self.m, V)
            self.a, self.b = self.c / self.w_nodes, self.w_nodes
        else:
            raise DomainError(f"unknown formulation {formulation!r}")

        # g g'(s) rounds to s below the target's linear radius, so there
        # a (g g'(s) - s) is a * (+0) = +0, which leaves the force as it is
        # when a >= 0; an a negative or NaN somewhere gets g g' on every cell
        self.linear_radius = self.target.linear_radius
        if not np.all(self.a >= 0):
            self.linear_radius = 0.0
        # every array of a step, made once: the force and the scratch of its
        # band product, s = w u, |s|, the nonlinear term, and the flags of
        # |s| >= the radius on a bytearray, whose find and rfind give the
        # window's ends at memchr speed (an argmax of the flags and of their
        # reversed view left the phi/psi consistency check at N = 2000
        # about 8% slower on a 2-core VM)
        N = self.grid.N
        self._force, self._row, self._s, self._abs, self._nl = np.empty((5, N))
        self._flags = bytearray(N)
        self._measured = None  # [u, s, i0, i1] of the last measure of a bound field
        # -H u from the negated bands: negation is exact, so the bits of -(H u)
        self._neg_bands = tuple(-b for b in self.op.bands)

    def bind(self, u: np.ndarray):
        """The force at the field buffer u, bound to it once for a loop
        that steps u in place: (measure, force), two functions of no
        arguments.  measure() writes |s| of what u holds (s = u in the
        phi form, w u in the psi form) into a buffer of this
        discretization, returns it, and keeps the window [i0, i1) from
        the first to the last cell with |s| >= the linear radius, (0, 0)
        when there is none, in self._measured = [u, s, i0, i1].  force()
        writes -H u - a (g g'(s) - s) into a buffer that the next call
        overwrites and returns it; the remainder is taken in the window of
        the last measure(), outside which it is exactly 0."""
        multiply, subtract, absolute, at_least = np.multiply, np.subtract, np.abs, np.greater_equal
        phi_form = self.formulation == "phi"
        s, w, mag, nl, a = u if phi_form else self._s, self.w_nodes, self._abs, self._nl, self.a
        radius, find, rfind = np.array(self.linear_radius), self._flags.find, self._flags.rfind
        flags = np.frombuffer(self._flags, dtype=bool)
        measured = self._measured = [u, s, 0, 0]
        product = _band_product(*self._neg_bands, u, self._force, self._row)
        gg_prime = self.target.gg_prime_fn

        def measure():
            if not phi_form:
                multiply(w, u, out=s)
            absolute(s, out=mag)
            at_least(mag, radius, out=flags)
            measured[2] = max(find(1), 0)
            measured[3] = rfind(1) + 1
            return mag

        def force():
            out = product()
            _, _, i0, i1 = measured
            s_in, nl_in, out_in = s[i0:i1], nl[i0:i1], out[i0:i1]
            gg_prime(s_in, nl_in)
            subtract(nl_in, s_in, out=nl_in)
            multiply(nl_in, a[i0:i1], out=nl_in)
            subtract(out_in, nl_in, out=out_in)
            return out

        return measure, force

    def measure(self, u: np.ndarray) -> np.ndarray:
        """|s| of the field u, and its window in self._measured: the
        measure() of bind(u)."""
        return self.bind(u)[0]()

    def acceleration(self, u: np.ndarray) -> np.ndarray:
        """The force -H u - a (g g'(s) - s) at the field u, in a buffer of
        this discretization that the next call overwrites: u measured and
        then the force() of bind(u)."""
        measure, force = self.bind(u)
        measure()
        return force()

    def energy(self, u: np.ndarray, u_t: np.ndarray) -> float:
        """Discrete energy conserved by the semidiscrete flow of this form,
        the potential term the exact antiderivative of the discrete force
        (so the leapfrog drift is pure O(dt^2)); the psi-form energy
        agrees with the phi-form one in the continuum limit."""
        s = self.to_phi(u)
        pot = self.op.W_samples * u**2 + self.a / self.b * (self.target(s) ** 2 - s**2)
        return self.op.energy(u, u_t, pot)

    def to_phi(self, u: np.ndarray) -> np.ndarray:
        return self.b * u

    def initial_state(self) -> WaveState:
        phi0, phi1 = self.scenario.initial_data(self.grid.nodes)
        return WaveState(0.0, phi0 / self.b, phi1 / self.b, self.formulation)


def _reduced_blocks(states: list, scenario: Scenario):
    """The reduced fields w^(-1) phi of the states, (N, <= SNAPSHOT_BLOCK) at a time."""
    w = weight_w(scenario.profile(), scenario.n, scenario.k, scenario.radial_grid.nodes)
    for j in range(0, len(states), SNAPSHOT_BLOCK):
        yield np.stack([st.field if st.formulation == "psi" else st.field / w
                        for st in states[j : j + SNAPSHOT_BLOCK]], axis=1)


def _strichartz_lq(psi: np.ndarray, scenario: Scenario) -> np.ndarray:
    """The L^q norm of <H>^((n-1)/4) psi of each column of a block of
    reduced fields, H the free operator of R^m: the integrand in time
    of the Strichartz trace."""
    q = float(indices(scenario.n, scenario.k)["q"])
    return _lq_norms(scenario.free_operator, (scenario.n - 1) / 4, psi, "inhomogeneous", q)


def _strichartz_partials(lq: np.ndarray, times: np.ndarray, scenario: Scenario) -> np.ndarray:
    """The L^p norm in time of the _strichartz_lq of every snapshot, up
    to each snapshot."""
    return _lp_partials(lq, times, float(indices(scenario.n, scenario.k)["p"]))


def h_half_norms(states: list, scenario: Scenario) -> np.ndarray:
    """The H^(1/2) norm of the reduced field w^(-1) phi of each state,
    under the free operator of R^m."""
    return np.concatenate([frac_norm(scenario.free_operator, 0.5, psi)
                           for psi in _reduced_blocks(states, scenario)])


class _Run:
    """One velocity-Verlet run of a scenario to time T, with snapshots
    every snap_every.  `snapshots` steps it; at each snapshot the state
    is in u and v, the run's own buffers (copy what must outlive the
    next step), and its time and diagnostics are appended to the lists
    that `trajectory` returns as arrays."""

    def __init__(self, scenario: Scenario, formulation: str,
                 initial_state: Optional[WaveState] = None, ceiling: Optional[float] = None):
        disc = _Discretization(scenario, formulation)
        dt_factor = float(scenario.time["dt_factor"])
        if dt_factor > 0.5:
            raise CFLViolation(f"dt_factor {dt_factor} exceeds 0.5")
        state = initial_state or disc.initial_state()
        if state.formulation != formulation:
            raise DomainError("initial state formulation does not match")
        self.disc = disc
        self.t0 = state.t
        self.u = np.array(state.field, dtype=float)
        self.v = np.array(state.velocity, dtype=float)
        sup0 = float(np.max(np.abs(disc.to_phi(self.u))))
        if ceiling is None:
            ceiling = BLOWUP_FACTOR * sup0 if sup0 > 0 else 1.0
        self.ceiling = ceiling
        self.ball = disc.grid.R_max / 3.0
        self.times, self.energies, self.sups, self.locals = [], [], [], []

    def _record(self, t: float) -> float:
        """Append t and the energy, sup |phi| and local energy of (u, v)."""
        disc = self.disc
        phi, phi_t = disc.to_phi(self.u), disc.to_phi(self.v)
        self.times.append(t)
        self.energies.append(disc.energy(self.u, self.v))
        self.sups.append(float(np.max(np.abs(phi))))
        self.locals.append(disc.manifold_op.energy(phi, phi_t, disc.c * disc.target(phi) ** 2,
                                                self.ball))
        return t

    def snapshots(self):
        """Step to T; yield the time of each snapshot, t0 first.  Raises
        BlowUp when the field exceeds the ceiling or becomes non-finite,
        DomainError when it leaves the domain of the target."""
        disc, u, v, t0, ceiling = self.disc, self.u, self.v, self.t0, self.ceiling
        n_steps, dt, snap_stride = disc.scenario.stepping
        bound = disc.target.domain_bound
        # everything a step touches, bound once: the force at u, the ufuncs,
        # the buffers and the factors dt and dt/2 as 0-d arrays (a Python
        # float is converted on every call); the half kick ending a step is
        # the one starting the next: one product, added twice
        measure, force = disc.bind(u)
        add, multiply, top_of = np.add, np.multiply, np.maximum.reduce
        kick, drift = np.empty_like(u), np.empty_like(u)
        step_dt, half_dt = np.array(dt), np.array(0.5 * dt)

        # |s|, which the force to come reuses, and its max, before any force
        # of it: a max that is NaN, inf or past a bound fails the test (top
        # < bound keeps top < inf when the bound is inf), and _check raises
        top = top_of(measure())
        if not (top < bound and top <= ceiling):
            self._check(t0)
        multiply(half_dt, force(), out=kick)
        yield self._record(t0)
        for step in range(1, n_steps + 1):
            add(v, kick, out=v)
            add(u, multiply(step_dt, v, out=drift), out=u)
            top = top_of(measure())
            if not (top < bound and top <= ceiling):
                self._check(t0 + step * dt)
            multiply(half_dt, force(), out=kick)
            add(v, kick, out=v)
            if step % snap_stride == 0 or step == n_steps:
                yield self._record(t0 + step * dt)

    def _check(self, t: float):
        """Raise for the field last measured, at time t, when it is past
        a bound: DomainError when its max is finite and at or past the
        target's domain bound, BlowUp when it is not finite or exceeds the
        ceiling.  snapshots calls it only when its own test of the max
        fails."""
        disc = self.disc
        a, nodes = disc._abs, disc.grid.nodes
        top = a.max()
        if disc.target.domain_bound <= top < math.inf:
            raise DomainError(f"field {top:.6g} left the target domain at t={t:.6g}, "
                              f"r={nodes[np.argmax(a)]:.6g}")
        if not top < math.inf or top > self.ceiling:
            raise BlowUp(t, nodes[np.argmax(np.where(np.isfinite(a), a, np.inf))])

    def trajectory(self, states: list, h_half_norms: np.ndarray) -> Trajectory:
        """The run up to its last snapshot, with the given states and norms."""
        disc = self.disc
        n_steps, dt, _ = disc.scenario.stepping
        return Trajectory(
            times=np.array(self.times),
            energies=np.array(self.energies),
            sup_norms=np.array(self.sups),
            h_half_norms=h_half_norms,
            local_energies=np.array(self.locals),
            states=states,
            formulation=disc.formulation,
            meta={
                "dt": dt,
                "cfl_ratio": dt / disc.grid.dr,
                "n_steps": n_steps,
                "ceiling": self.ceiling,
                "ball_radius": self.ball,
                "energy_functional": disc.formulation,
                "scenario": disc.scenario.to_json(),
            },
        )


def integrate(
    scenario: Scenario,
    formulation: str = "phi",
    initial_state: Optional[WaveState] = None,
    spectral_diagnostics: bool = True,
    ceiling: Optional[float] = None,
) -> Trajectory:
    """Velocity-Verlet integration of the scenario to time T with
    snapshots every snap_every, each state kept.  Raises BlowUp when the
    field exceeds BLOWUP_FACTOR times its initial sup or becomes
    non-finite."""
    run = _Run(scenario, formulation, initial_state, ceiling)
    states = [WaveState(t, run.u.copy(), run.v.copy(), formulation)
              for t in run.snapshots()]
    halves = (h_half_norms(states, scenario) if spectral_diagnostics
              else np.full(len(states), math.nan))
    return run.trajectory(states, halves)


def _send_all(conn, generator, args) -> None:
    """The body of the child of `forked`: send each value of
    generator(*args), or the exception that stopped it, and close.  An
    exception that cannot be pickled goes as an EquiwaveError that
    carries its type name and message."""
    try:
        for value in generator(*args):
            conn.send(value)
    except Exception as exc:  # raised again by the parent
        try:
            conn.send(exc)
        except Exception:  # pickling fails before a byte is written
            conn.send(EquiwaveError(f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


@contextmanager
def forked(generator, *args):
    """Run generator(*args) in one forked child process; the block gets
    an iterator over its values, in order, through a one-way pipe.

    An exception of the child arrives as its next value and is raised
    there; one that cannot be pickled arrives as an EquiwaveError
    "<type name>: <message>".  A child that ends without sending the
    next value (killed, out of memory) raises EquiwaveError naming its
    exit code.  When the block ends, by an exception or not, the child
    is terminated (a no-op once it has sent everything), joined, and the
    pipe closed, so the child never outlives the block."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_all, args=(send, generator, args))
    child.start()
    send.close()

    def values():
        while True:
            try:
                value = recv.recv()
            except EOFError:
                child.join()
                raise EquiwaveError(f"the forked child ended with exit code "
                                    f"{child.exitcode} before sending a value") from None
            if isinstance(value, Exception):
                raise value
            yield value

    try:
        yield values()
    finally:
        child.terminate()
        child.join()
        recv.close()


def _psi_run(scenario: Scenario):
    yield integrate(scenario, "psi", spectral_diagnostics=False)


def consistency_check(scenario: Scenario) -> dict:
    """Integrate both formulations on the same data and report the max
    over snapshots of || w psi - phi ||_inf.

    The psi run goes to a forked child process while this one runs phi,
    so the two halves take two cores.  An error of the phi run is raised
    first, then one of the psi run, with its type and fields; the child
    never outlives the call."""
    with forked(_psi_run, scenario) as psi:
        traj_phi = integrate(scenario, "phi", spectral_diagnostics=False)
        traj_psi = next(psi)
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


def _shared_columns(rows: int, cols: int) -> np.ndarray:
    """A zeroed (rows, cols) F-ordered float64 array on an anonymous
    shared mapping: what a child forked after this call writes into it,
    the caller reads, without a copy through a pipe."""
    import mmap

    return np.ndarray((rows, cols), dtype=float, buffer=mmap.mmap(-1, 8 * rows * cols),
                      order="F")


def _phi_fields(scenario: Scenario, fields: np.ndarray):
    """The phi run of the CLI's evolve stage, in a child of `forked`.
    Writes the field of snapshot j into column j of the shared (N, S)
    array fields, keeps no state, and yields the end of each block of
    SNAPSHOT_BLOCK columns, and of the last, as soon as it is written;
    then the trajectory, without states or H^(1/2) norms.  Makes no
    spectral solve."""
    run = _Run(scenario, "phi")
    count = fields.shape[1]
    for j, _ in enumerate(run.snapshots()):
        fields[:, j] = run.u
        if (j + 1) % SNAPSHOT_BLOCK == 0 or j + 1 == count:
            yield j + 1
    yield run.trajectory([], np.full(count, math.nan))


def _measure_phi_fields(scenario: Scenario, fields: np.ndarray, values):
    """The trajectory from `values`, those of a forked _phi_fields, with
    its H^(1/2) norms, and the Strichartz partials of strichartz_trace.
    Each block of fields is reduced and measured as soon as its end
    arrives, while the child steps on; every column has the bits of an
    in-process integrate and strichartz_trace."""
    w = weight_w(scenario.profile(), scenario.n, scenario.k, scenario.radial_grid.nodes)
    halves, lq, start = [], [], 0
    while isinstance(end := next(values), int):
        psi = fields[:, start:end] / w[:, None]
        halves.append(frac_norm(scenario.free_operator, 0.5, psi))
        lq.append(_strichartz_lq(psi, scenario))
        start = end
    trajectory = end
    trajectory.h_half_norms = np.concatenate(halves)
    return trajectory, _strichartz_partials(np.concatenate(lq), trajectory.times, scenario)


def strichartz_trace(
    trajectory: Trajectory, scenario: Scenario, return_partials: bool = False
):
    """Discrete L^p_t H^((n-1)/2)_q norm of the run: the reduced field
    w^(-1) phi is measured with the free-operator fractional calculus on
    R^m, L^q by radial quadrature, then L^p in time by the trapezoid
    rule over the stored snapshots."""
    if not trajectory.states:
        raise DomainError("trajectory carries no stored states")
    lq = np.concatenate([_strichartz_lq(psi, scenario)
                         for psi in _reduced_blocks(trajectory.states, scenario)])
    partials = _strichartz_partials(lq, trajectory.times, scenario)
    total = float(partials[-1])
    if return_partials:
        return total, partials
    return total
