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
its arrays, the force at the run's field (`_Run.bind`, whose
band product has its neighbour views made once), the ufuncs, dt and dt/2
as 0-d arrays and the target's g g' function (`gg_prime_fn`: a built-in
target's closed form, or a custom tree's order-1 rules bound to buffers
of their own, with the bits of its order-1 jet).  A step makes its numpy
calls and slices only the g g' window, and the half kick that ends a
step is the product that starts the next, so a run has the bits of the
textbook velocity-Verlet loop with g g' on every cell.  A custom tree is
NaN where it has no jet: a g g' that is not finite at the field raises
DomainError, at the one cost of a finiteness test of the window.

`integrate` runs it on arrays of its own.  `_forked_run` is the one way
the package uses a second core: it makes the (N, S) array on an
anonymous shared mapping, forks one child that runs the formulation
into it, and hands the caller the array and, through a one-way pipe,
the block ends and the trajectory.  The child keeps no velocities and
makes no spectral solve.  A block's columns are valid until the caller
takes the next value: then the whole pages below the block's end are
freed, so the caller holds the blocks the child has written and it has
not yet measured, not all S columns.  consistency_check runs the psi
form so while it runs the phi form, and takes the mismatch of each block
as it arrives; the CLI's evolve stage runs the phi form so while it runs
the other stages.  `_measured` is the one measurement of a run's
snapshots: it reduces and measures the fields a block at a time, as the
ends arrive, into the H^(1/2) norms and the Strichartz partials of the
trajectory, for `integrate` and for the CLI alike, so the CLI's
artifacts have every bit of an in-process run.  `integrate`'s own
arrays are never freed.
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
# stack (_measured).  Every column is solved and summed on its own, so
# the width moves no bit; the transient of frac_norm is about 34 N bytes
# per column (2.2 MB for 16 columns at N = 4000).  At N = 4000 the
# H^(1/2) norm and the Strichartz L^q norm of a column cost about 2.2 ms
# together in stacks of 8, 16 or 32 and 2.4 ms at 101: 16 stays, as fast
# as 32 in half its working set (one BLAS thread, 2-core VM)
SNAPSHOT_BLOCK = 16


class _NotFinite(Exception):
    """g g' of a custom target is not finite at the field value s, at the
    radius r: args (s, r).  _Run.snapshots raises it as a DomainError
    that names the time."""


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
    (None in the trajectory that _Run.snapshots yields).  h_half_norms
    and strichartz_partials are NaN in a run that is not measured
    (_measured)."""

    times: np.ndarray
    energies: np.ndarray
    sup_norms: np.ndarray
    h_half_norms: np.ndarray
    strichartz_partials: np.ndarray
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


class _Run:
    """One velocity-Verlet run of a scenario and formulation to time T,
    with snapshots every snap_every: the operator H, the weights a, b and
    c, the buffers of a step, the state and the recorded diagnostics.
    `snapshots` steps it."""

    def __init__(self, scenario: Scenario, formulation: str,
                 initial_state: Optional[WaveState], ceiling: Optional[float]):
        self.scenario = scenario
        self.formulation = formulation
        self.grid = scenario.radial_grid
        profile = scenario.profile()
        self.target = scenario.target_profile()
        n, k = scenario.n, scenario.k
        lbar = k * (k + n - 2)
        r = self.grid.nodes
        h_nodes = profile(r)
        self.w_nodes = weight_w(profile, n, k, r)
        V = compute_V(profile, n, k, r)
        # -Delta_h, whose weights also give the local energy
        self.manifold_op = DiscreteRadialOperator.manifold(self.grid, profile, n)
        # h^2 overflows only where h^(n-1) does (n >= 3), and the operator
        # has raised where its weights are not finite
        with np.errstate(over="ignore"):
            self.c = lbar / h_nodes**2
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
            self.op = DiscreteRadialOperator.flat(self.grid, n + 2 * k, V)
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
        # -H u from the negated bands: negation is exact, so the bits of -(H u)
        self._neg_bands = tuple(-b for b in self.op.bands)

        dt_factor = float(scenario.time["dt_factor"])
        if dt_factor > 0.5:
            raise CFLViolation(f"dt_factor {dt_factor} exceeds 0.5")
        if initial_state is None:
            phi0, phi1 = scenario.initial_data(r)
            initial_state = WaveState(0.0, phi0 / self.b, phi1 / self.b, formulation)
        if initial_state.formulation != formulation:
            raise DomainError("initial state formulation does not match")
        self.t0 = initial_state.t
        self.u = np.array(initial_state.field, dtype=float)
        self.v = np.array(initial_state.velocity, dtype=float)
        sup0 = float(np.max(np.abs(self.b * self.u)))
        if ceiling is None:
            ceiling = BLOWUP_FACTOR * sup0 if sup0 > 0 else 1.0
        self.ceiling = ceiling
        self.ball = self.grid.R_max / 3.0
        self.times, self.energies, self.sups, self.locals = [], [], [], []

    def bind(self, u: np.ndarray):
        """The force at the field buffer u, bound to it once for a loop
        that steps u in place: (measure, force), two functions of no
        arguments.  measure() writes |s| of what u holds (s = u in the
        phi form, w u in the psi form) into a buffer of this run, returns
        it, and keeps the window [i0, i1) from the first to the last cell
        with |s| >= the linear radius, (0, 0) when there is none.  force()
        writes -H u - a (g g'(s) - s) into a buffer that the next call
        overwrites and returns it; the remainder is taken in the window of
        the last measure(), outside which it is exactly 0.  For a custom
        target, force() raises _NotFinite where g g' is not finite."""
        multiply, subtract, absolute, at_least = np.multiply, np.subtract, np.abs, np.greater_equal
        phi_form = self.formulation == "phi"
        s, w, mag, nl, a = u if phi_form else self._s, self.w_nodes, self._abs, self._nl, self.a
        radius, find, rfind = np.array(self.linear_radius), self._flags.find, self._flags.rfind
        flags = np.frombuffer(self._flags, dtype=bool)
        window = [0, 0]  # [i0, i1] of the last measure()
        product = _band_product(*self._neg_bands, u, self._force, self._row)
        gg_prime = self.target.gg_prime_fn
        if self.target.kind == "custom":  # its tree is NaN outside its domain
            tree_gg, finite, nodes = gg_prime, np.isfinite, self.grid.nodes

            def gg_prime(s_in, nl_in):
                tree_gg(s_in, nl_in)
                ok = finite(nl_in)
                if not ok.all():
                    i = int(np.argmin(ok))
                    raise _NotFinite(float(s_in[i]), float(nodes[window[0] + i]))

        def measure():
            if not phi_form:
                multiply(w, u, out=s)
            absolute(s, out=mag)
            at_least(mag, radius, out=flags)
            window[0] = max(find(1), 0)
            window[1] = rfind(1) + 1
            return mag

        def force():
            out = product()
            i0, i1 = window
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
        s = self.b * u
        pot = self.op.W_samples * u**2 + self.a / self.b * (self.target(s) ** 2 - s**2)
        return self.op.energy(u, u_t, pot)

    def _record(self, t: float) -> None:
        """Append t and the energy, sup |phi| and local energy of (u, v)."""
        phi, phi_t = self.b * self.u, self.b * self.v
        self.times.append(t)
        self.energies.append(self.energy(self.u, self.v))
        self.sups.append(float(np.max(np.abs(phi))))
        self.locals.append(self.manifold_op.energy(phi, phi_t, self.c * self.target(phi) ** 2,
                                                   self.ball))

    def snapshots(self, fields: np.ndarray, velocities: Optional[np.ndarray]):
        """Step to T.  At snapshot j write the field into column j of the
        (N, S) array fields, and the velocity into velocities unless it
        is None, and record the diagnostics; yield j + 1 when column j ends
        a block of SNAPSHOT_BLOCK columns or the run.  Then yield the
        trajectory, without fields or velocities and with NaN for its
        H^(1/2) norms and Strichartz partials.  Raises BlowUp when the
        field exceeds the ceiling or becomes non-finite, DomainError when
        it leaves the domain of the target, or when g g' of a custom
        target is not finite at it."""
        u, v, t0, ceiling = self.u, self.v, self.t0, self.ceiling
        n_steps, dt, snap_stride = self.scenario.stepping
        count = self.scenario.snapshot_count
        bound = self.target.domain_bound
        # everything a step touches, bound once: the force at u, the ufuncs,
        # the buffers and the factors dt and dt/2 as 0-d arrays (a Python
        # float is converted on every call); the half kick ending a step is
        # the one starting the next: one product, added twice
        measure, force = self.bind(u)
        add, multiply, top_of = np.add, np.multiply, np.maximum.reduce
        kick, drift = np.empty_like(u), np.empty_like(u)
        step_dt, half_dt = np.array(dt), np.array(0.5 * dt)

        # |s|, which the force to come reuses, and its max, before any force
        # of it: a max that is NaN, inf or past a bound fails the test (top
        # < bound keeps top < inf when the bound is inf), and _check raises
        step = 0  # the field that the force takes is at t0 + step * dt
        try:
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
        except _NotFinite as exc:
            s, r = exc.args
            raise DomainError(f"field {s:.6g} left the domain of the custom target at "
                              f"t={t0 + step * dt:.6g}, r={r:.6g}: g g' is not finite "
                              f"there") from None
        yield Trajectory(
            times=np.array(self.times),
            energies=np.array(self.energies),
            sup_norms=np.array(self.sups),
            h_half_norms=np.full(count, math.nan),
            strichartz_partials=np.full(count, math.nan),
            local_energies=np.array(self.locals),
            fields=None,
            velocities=None,
            formulation=self.formulation,
            meta={
                "dt": dt,
                "cfl_ratio": dt / self.grid.dr,
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
        a, nodes = self._abs, self.grid.nodes
        top = a.max()
        if self.target.domain_bound <= top < math.inf:
            raise DomainError(f"field {top:.6g} left the target domain at t={t:.6g}, "
                              f"r={nodes[np.argmax(a)]:.6g}")
        if not top < math.inf or top > self.ceiling:
            raise BlowUp(t, nodes[np.argmax(np.where(np.isfinite(a), a, np.inf))])


def _measured(fields: np.ndarray, values, scenario: Scenario, formulation: str) -> Trajectory:
    """The trajectory of a run of the formulation, from the (N, S) fields
    and the values of its _Run.snapshots, with its H^(1/2) norms and its
    Strichartz partials, the L^p_t H^((n-1)/2)_q norm up to each
    snapshot.  As each block ends, its reduced fields w^(-1) phi (in the
    psi form, the fields themselves) are measured with the free operator
    of R^m: the H^(1/2) norm, and the L^q norm of <H>^((n-1)/4) by radial
    quadrature, whose L^p norm in time is the trapezoid rule over the
    snapshots.  A block is read only before the next value is taken, so
    the values of a _forked_run may free it then."""
    n, k = scenario.n, scenario.k
    idx = indices(n, k)
    w = weight_w(scenario.profile(), n, k, scenario.radial_grid.nodes)
    halves, lq, start = [], [], 0
    while start < fields.shape[1]:
        end = next(values)  # an error of the run comes before one of the free operator
        psi = fields[:, start:end] if formulation == "psi" else fields[:, start:end] / w[:, None]
        free = scenario.free_operator
        halves.append(frac_norm(free, 0.5, psi))
        lq.append(_lq_norms(free, (n - 1) / 4, psi, "inhomogeneous", float(idx["q"])))
        start = end
    trajectory = next(values)
    trajectory.h_half_norms = np.concatenate(halves)
    trajectory.strichartz_partials = _lp_partials(np.concatenate(lq), trajectory.times,
                                                  float(idx["p"]))
    return trajectory


def integrate(
    scenario: Scenario,
    formulation: str,
    initial_state: Optional[WaveState] = None,
    spectral_diagnostics: bool = True,
    ceiling: Optional[float] = None,
) -> Trajectory:
    """Velocity-Verlet integration of the scenario to time T with
    snapshots every snap_every, the field and velocity of each kept,
    measured (_measured) when spectral_diagnostics is set.  Raises
    BlowUp when the field exceeds BLOWUP_FACTOR times its initial sup or
    becomes non-finite."""
    run = _Run(scenario, formulation, initial_state, ceiling)
    shape = (scenario.radial_grid.N, scenario.snapshot_count)
    fields, velocities = np.empty(shape, order="F"), np.empty(shape, order="F")
    values = run.snapshots(fields, velocities)
    if spectral_diagnostics:
        trajectory = _measured(fields, values, scenario, formulation)
    else:
        *_, trajectory = values
    trajectory.fields, trajectory.velocities = fields, velocities
    return trajectory


def _send_all(conn, scenario: Scenario, formulation: str, fields: np.ndarray) -> None:
    """The body of the child of `_forked_run`: send each value of the
    run's snapshots into fields, or the exception that stopped it, and
    close.  An exception that cannot be pickled goes as an EquiwaveError
    that carries its type name and message."""
    try:
        for value in _Run(scenario, formulation, None, None).snapshots(fields, None):
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
    written, then the trajectory, where it stops.  The columns of a block
    are valid until the caller takes the next value: taking it frees the
    whole pages of the mapping below the block's end (madvise
    MADV_REMOVE, where mmap has it), which then read 0.0, so the mapping
    holds only the blocks not yet measured.

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
    shared = mmap.mmap(-1, 8 * rows * cols)
    fields = np.ndarray((rows, cols), dtype=float, buffer=shared, order="F")
    # bound here, so that no other function names mmap or madvise
    free, remove, page = shared.madvise, getattr(mmap, "MADV_REMOVE", None), mmap.PAGESIZE
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_all, args=(send, scenario, formulation, fields))
    child.start()
    send.close()

    def values():
        value, freed = None, 0  # the pages below byte `freed` are freed
        while not isinstance(value, Trajectory):
            if isinstance(value, int) and remove is not None:
                # the consumer took the next value, so the block that ended
                # at `value` is measured: free its whole pages
                top = 8 * rows * value // page * page
                if top > freed:
                    free(remove, freed, top - freed)
                    freed = top
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
    so the two halves take two cores; the mismatch of each psi block is
    taken as its end arrives, before the block is freed.  An error of the
    phi run is raised first, then one of the psi run, with its type and
    fields; the child never outlives the call."""
    with _forked_run(scenario, "psi") as (psi, values):
        phi = integrate(scenario, "phi", spectral_diagnostics=False)
        w = weight_w(scenario.profile(), scenario.n, scenario.k, scenario.radial_grid.nodes)
        per, start = [], 0
        while start < psi.shape[1]:
            end = next(values)
            per += np.max(np.abs(phi.fields[:, start:end] - w[:, None] * psi[:, start:end]),
                          axis=0).tolist()
            start = end
        next(values)  # the trajectory, which frees the last block
    return {
        "mismatch": max(per),
        "per_snapshot": per,
        "times": phi.times.tolist(),
        "N": int(scenario.grid["N"]),
    }

