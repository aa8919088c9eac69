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

One step loop, `_Run.snapshots`, makes every run and stores its
snapshots in one layout: the field of snapshot j goes into column j of
an F-ordered (N, S) array, and the velocity into a second one when the
caller passes it.  At each snapshot it also records the energy, sup and
local energy, and it yields the end of each block of SNAPSHOT_BLOCK
columns as soon as the block is written, then the trajectory.
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

`integrate` runs it on arrays of its own.  `_forked_run` is the one way
the package uses a second core: it makes the (N, S) array on an
anonymous shared mapping, forks one child that runs the formulation
into it, and hands the caller the array and, through a one-way pipe,
the block ends and the trajectory.  The child keeps no velocities and
makes no spectral solve.  consistency_check runs the psi form so while
it runs the phi form; the CLI's evolve stage runs the phi form so while
it runs the other stages.  `_reduced_blocks` turns the fields into
reduced fields a block at a time, as the ends arrive, for the H^(1/2)
norms of `integrate` and of the CLI and for `strichartz_trace`, so the
CLI's artifacts have every bit of an in-process run.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import BlowUp, CFLViolation, DomainError, EquiwaveError
from .reduction import compute_V, indices, weight_w
from .scenario import Scenario
from .spectral import DiscreteRadialOperator, _band_product, _lp_partials, _lq_norms, frac_norm

BLOWUP_FACTOR = 1e3  # ceiling = BLOWUP_FACTOR * sup of the initial field
# snapshots per block of a run's fields, each reduced and measured as a
# stack (_reduced_blocks).  Every column is solved and summed on its
# own, so the width moves no bit; the transient of frac_norm is about
# 34 N bytes per column (2.2 MB for 16 columns at N = 4000).  At N = 4000 the H^(1/2) norm and the Strichartz
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
    """A run's diagnostics at its S snapshots, and its fields and
    velocities as (N, S) arrays whose column j is the state at times[j]
    (None in the trajectory that _Run.snapshots yields)."""

    times: np.ndarray
    energies: np.ndarray
    sup_norms: np.ndarray
    h_half_norms: np.ndarray
    local_energies: np.ndarray
    fields: Optional[np.ndarray]
    velocities: Optional[np.ndarray]
    formulation: str
    meta: dict

    @property
    def final_state(self) -> WaveState:
        return WaveState(float(self.times[-1]), self.fields[:, -1], self.velocities[:, -1],
                         self.formulation)

    @property
    def energy_drift(self) -> np.ndarray:
        """|E(t) - E(0)| / E(0) per snapshot; zeros when E(0) <= 0."""
        e0 = self.energies[0]
        dev = np.abs(self.energies - e0)
        return dev / e0 if e0 > 0 else np.zeros_like(dev)


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


def _reduced_blocks(fields: np.ndarray, ends, scenario: Scenario, formulation: str):
    """The reduced fields w^(-1) phi of the (N, S) fields of a run of the
    formulation (in the psi form, the fields themselves), a block of
    columns at a time: from the end of the last block to the next value
    of the iterator ends, until column S.  Takes no value of ends past
    the end of column S."""
    w = weight_w(scenario.profile(), scenario.n, scenario.k, scenario.radial_grid.nodes)
    start = 0
    while start < fields.shape[1]:
        end = next(ends)
        block = fields[:, start:end]
        yield block if formulation == "psi" else block / w[:, None]
        start = end


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


class _Run:
    """One velocity-Verlet run of a scenario to time T, with snapshots
    every snap_every: `snapshots` steps it."""

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

    def _record(self, t: float) -> None:
        """Append t and the energy, sup |phi| and local energy of (u, v)."""
        disc = self.disc
        phi, phi_t = disc.to_phi(self.u), disc.to_phi(self.v)
        self.times.append(t)
        self.energies.append(disc.energy(self.u, self.v))
        self.sups.append(float(np.max(np.abs(phi))))
        self.locals.append(disc.manifold_op.energy(phi, phi_t, disc.c * disc.target(phi) ** 2,
                                                self.ball))

    def snapshots(self, fields: np.ndarray, velocities: Optional[np.ndarray]):
        """Step to T.  At snapshot j write the field into column j of the
        (N, S) array fields, and the velocity into velocities unless it
        is None, and record the diagnostics; yield j + 1 when column j ends
        a block of SNAPSHOT_BLOCK columns or the run.  Then yield the
        trajectory, without fields or velocities and with NaN for its
        H^(1/2) norms.  Raises BlowUp when the field exceeds the ceiling
        or becomes non-finite, DomainError when it leaves the domain of
        the target."""
        disc, u, v, t0, ceiling = self.disc, self.u, self.v, self.t0, self.ceiling
        n_steps, dt, snap_stride = disc.scenario.stepping
        count = disc.scenario.snapshot_count
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
        last = 0  # the step of the last snapshot
        for j in range(count):
            # snapshot j is at step j * snap_stride, the last one at n_steps
            first, last = last + 1, min(j * snap_stride, n_steps)
            for step in range(first, last + 1):
                add(v, kick, out=v)
                add(u, multiply(step_dt, v, out=drift), out=u)
                top = top_of(measure())
                if not (top < bound and top <= ceiling):
                    self._check(t0 + step * dt)
                multiply(half_dt, force(), out=kick)
                add(v, kick, out=v)
            fields[:, j] = u
            if velocities is not None:
                velocities[:, j] = v
            self._record(t0 + last * dt)
            if (j + 1) % SNAPSHOT_BLOCK == 0 or j + 1 == count:
                yield j + 1
        yield Trajectory(
            times=np.array(self.times),
            energies=np.array(self.energies),
            sup_norms=np.array(self.sups),
            h_half_norms=np.full(count, math.nan),
            local_energies=np.array(self.locals),
            fields=None,
            velocities=None,
            formulation=disc.formulation,
            meta={
                "dt": dt,
                "cfl_ratio": dt / disc.grid.dr,
                "n_steps": n_steps,
                "ceiling": self.ceiling,
                "ball_radius": self.ball,
            },
        )

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


def integrate(
    scenario: Scenario,
    formulation: str,
    initial_state: Optional[WaveState] = None,
    spectral_diagnostics: bool = True,
    ceiling: Optional[float] = None,
) -> Trajectory:
    """Velocity-Verlet integration of the scenario to time T with
    snapshots every snap_every, the field and velocity of each kept.
    Raises BlowUp when the field exceeds BLOWUP_FACTOR times its initial
    sup or becomes non-finite."""
    run = _Run(scenario, formulation, initial_state, ceiling)
    shape = (scenario.radial_grid.N, scenario.snapshot_count)
    fields, velocities = np.empty(shape, order="F"), np.empty(shape, order="F")
    values = run.snapshots(fields, velocities)
    # each block is measured as soon as it is written
    blocks = _reduced_blocks(fields, values, scenario, formulation) if spectral_diagnostics else ()
    halves = [frac_norm(scenario.free_operator, 0.5, psi) for psi in blocks]
    *_, trajectory = values
    if halves:
        trajectory.h_half_norms = np.concatenate(halves)
    trajectory.fields, trajectory.velocities = fields, velocities
    return trajectory


def _send_all(conn, scenario: Scenario, formulation: str, fields: np.ndarray) -> None:
    """The body of the child of `_forked_run`: send each value of the
    run's snapshots into fields, or the exception that stopped it, and
    close.  An exception that cannot be pickled goes as an EquiwaveError
    that carries its type name and message."""
    try:
        for value in _Run(scenario, formulation).snapshots(fields, None):
            conn.send(value)
    except Exception as exc:  # raised again by the parent
        try:
            conn.send(exc)
        except Exception:  # pickling fails before a byte is written
            conn.send(EquiwaveError(f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


@contextmanager
def _forked_run(scenario: Scenario, formulation: str):
    """Run the formulation in one forked child process.  The block gets
    (fields, values): fields a zeroed (N, S) F-ordered array on an
    anonymous shared mapping, made before the fork, into whose column j
    the child writes the field of snapshot j; values an iterator over
    the values of the child's _Run.snapshots, in order, through a
    one-way pipe: the end of each block of columns as soon as it is
    written, then the trajectory, where it stops.

    An exception of the child arrives as its next value and is raised
    there; one that cannot be pickled arrives as an EquiwaveError
    "<type name>: <message>".  A child that ends without sending the
    next value (killed, out of memory) raises EquiwaveError naming its
    exit code.  When the block ends, by an exception or not, the child
    is terminated (a no-op once it has sent everything), joined, and the
    pipe closed, so the child never outlives the block."""
    import mmap
    import multiprocessing

    rows, cols = scenario.radial_grid.N, scenario.snapshot_count
    fields = np.ndarray((rows, cols), dtype=float, buffer=mmap.mmap(-1, 8 * rows * cols),
                        order="F")
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_all, args=(send, scenario, formulation, fields))
    child.start()
    send.close()

    def values():
        value = None
        while not isinstance(value, Trajectory):
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
        yield fields, values()
    finally:
        child.terminate()
        child.join()
        recv.close()


def consistency_check(scenario: Scenario) -> dict:
    """Integrate both formulations on the same data and report the max
    over snapshots of || w psi - phi ||_inf.

    The psi run goes to a forked child process while this one runs phi,
    so the two halves take two cores.  An error of the phi run is raised
    first, then one of the psi run, with its type and fields; the child
    never outlives the call."""
    with _forked_run(scenario, "psi") as (psi, values):
        phi = integrate(scenario, "phi", spectral_diagnostics=False)
        for _ in values:  # up to the trajectory: every column is written
            pass
    w = weight_w(scenario.profile(), scenario.n, scenario.k, scenario.radial_grid.nodes)
    per = np.max(np.abs(phi.fields - w[:, None] * psi), axis=0).tolist()
    return {
        "mismatch": max(per),
        "per_snapshot": per,
        "times": phi.times.tolist(),
        "N": int(scenario.grid["N"]),
    }


def strichartz_trace(
    trajectory: Trajectory, scenario: Scenario, return_partials: bool = False
):
    """Discrete L^p_t H^((n-1)/2)_q norm of the run: the reduced field
    w^(-1) phi is measured with the free-operator fractional calculus on
    R^m, L^q by radial quadrature, then L^p in time by the trapezoid
    rule over the stored snapshots."""
    count = trajectory.fields.shape[1]
    ends = iter([*range(SNAPSHOT_BLOCK, count, SNAPSHOT_BLOCK), count])
    blocks = _reduced_blocks(trajectory.fields, ends, scenario, trajectory.formulation)
    lq = np.concatenate([_strichartz_lq(psi, scenario) for psi in blocks])
    partials = _strichartz_partials(lq, trajectory.times, scenario)
    total = float(partials[-1])
    if return_partials:
        return total, partials
    return total
