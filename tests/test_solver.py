"""Nonlinear integrator: cross-module oracles, symmetry diagnostics,
formulation consistency, and blow-up detection."""

import dataclasses
import json
import math
import mmap
import multiprocessing
import signal
import time
import tracemalloc

import numpy as np
import pytest

import equiwave.profiles
import equiwave.solver
from _baselines import REGRESSION_WINDOW, SOLVER_TRACE
from _dense import coefficients, evolve_linear, from_coefficients, powered
from _gamma import gamma_reference
from equiwave.cli import main
from equiwave.errors import BlowUp, CFLViolation, DomainError, EquiwaveError
from equiwave.reduction import compute_V, indices, weight_w
from equiwave.scenario import Scenario
from equiwave.solver import (
    WaveState,
    _Run,
    _forked_run,
    _measured,
    consistency_check,
    integrate,
)
from equiwave.spectral import DiscreteRadialOperator, RadialGrid, _linalg, build_operator


def make_scenario(
    manifold="flat",
    target="sphere",
    n=3,
    k=1,
    R=30.0,
    N=500,
    T=10.0,
    dtf=0.1,
    snap=1.0,
    data=None,
):
    return Scenario(
        "test", {"kind": manifold},
        target if isinstance(target, dict) else {"kind": target}, n, k, 0.5,
        {"R_max": R, "N": N},
        {"T": T, "dt_factor": dtf, "snap_every": snap},
        data or {"shape": "gaussian", "amplitude": 0.05, "width": 1.0, "center": 0.0},
    )


def test_zero_data_zero_trajectory():
    s = make_scenario(data={"shape": "zero"})
    for form in ("phi", "psi"):
        tr = integrate(s, form, spectral_diagnostics=False)
        assert np.max(tr.sup_norms) == 0.0
        assert np.max(tr.energies) == 0.0
        assert np.max(np.abs(tr.final_state.field)) == 0.0


def test_linear_flat_matches_spectral_propagator():
    # flat base and flat target: the psi equation is the free flow on R^5
    errs = []
    for N in (500, 1000):
        s = make_scenario(target="flat", N=N, T=8.0, dtf=0.25)
        tr = integrate(s, "psi", spectral_diagnostics=False)
        grid = RadialGrid(30.0, N)
        op = build_operator(grid, 5)
        phi0, phi1 = s.initial_data(grid.nodes)
        ref = evolve_linear(op, phi0 / grid.nodes, phi1 / grid.nodes, 0.0, tr.times[-1])
        errs.append(np.max(np.abs(tr.final_state.field - ref)))
    assert errs[0] < 1e-5
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


def test_energy_conservation_and_reversal():
    for manifold in ("flat", "hyperbolic"):
        s = make_scenario(manifold=manifold, N=800, T=12.0, snap=0.5)
        tr = integrate(s, "phi", spectral_diagnostics=False)
        drift = np.max(np.abs(tr.energies - tr.energies[0])) / tr.energies[0]
        assert drift < 5e-5
        fs = tr.final_state
        back = WaveState(0.0, fs.field.copy(), -fs.velocity, "phi")
        tr2 = integrate(s, "phi", initial_state=back,
                        spectral_diagnostics=False, ceiling=math.inf)
        phi0, phi1 = s.initial_data(RadialGrid(30.0, 800).nodes)
        rev = max(
            np.max(np.abs(tr2.final_state.field - phi0)),
            np.max(np.abs(-tr2.final_state.velocity - phi1)),
        )
        assert rev < 1e-8


def test_small_data_boundedness():
    for manifold in ("flat", "hyperbolic", "smoothed-polynomial", "smoothed-exponential",
                     "polynomial-growth", "exp-growth", "sinh-perturbed"):
        s = make_scenario(manifold=manifold, N=500, T=10.0)
        tr = integrate(s, "phi", spectral_diagnostics=False)
        assert tr.sup_norms.max() <= 2.0 * tr.sup_norms[0]


def test_energy_of_psi_state_agrees():
    s = make_scenario(N=800, T=2.0)
    tp = integrate(s, "phi", spectral_diagnostics=False)
    tq = integrate(s, "psi", spectral_diagnostics=False)
    # the two discrete functionals agree to quadrature order, O(dr^2)
    assert math.isclose(tp.energies[0], tq.energies[0], rel_tol=1e-3)
    phi = _Run(s, "phi", None, None)
    u, v = tq.fields[:, 0], tq.velocities[:, 0]
    assert math.isclose(phi.energy(phi.w_nodes * u, phi.w_nodes * v),
                        tp.energies[0], rel_tol=1e-12)


def test_consistency_check_second_order():
    reps = [consistency_check(make_scenario(manifold="hyperbolic", N=N, T=6.0))
            for N in (400, 800)]
    assert reps[0]["mismatch"] / reps[1]["mismatch"] == pytest.approx(4.0, rel=0.2)
    assert reps[1]["mismatch"] < 1e-4


def test_consistency_zero_data_exact():
    rep = consistency_check(make_scenario(data={"shape": "zero"}, N=300, T=3.0))
    assert rep["mismatch"] == 0.0


def test_consistency_check_equals_two_direct_runs():
    # 43 snapshots: three blocks, each compared as it arrives
    s = make_scenario(manifold="hyperbolic", N=400, T=4.0, snap=0.1)
    phi = integrate(s, "phi", spectral_diagnostics=False)
    psi = integrate(s, "psi", spectral_diagnostics=False)
    w = weight_w(s.profile(), s.n, s.k, s.radial_grid.nodes)
    per = [float(np.max(np.abs(a - w * b))) for a, b in zip(phi.fields.T, psi.fields.T)]
    want = {"mismatch": max(per), "per_snapshot": per, "times": phi.times.tolist(),
            "N": 400}
    assert consistency_check(s) == want
    assert multiprocessing.active_children() == []


FAILURES = {"blowup": BlowUp(1.5, 2.25), "domain": DomainError("left the domain")}


@pytest.mark.parametrize("failing", [("phi",), ("psi",), ("phi", "psi")],
                         ids=["phi", "psi", "both"])
@pytest.mark.parametrize("kind", sorted(FAILURES))
def test_consistency_check_raises_either_half(monkeypatch, kind, failing):
    # the forked psi half inherits the patch; the phi half's error comes first
    real = _Run.snapshots

    def snapshots_or_fail(run, *args):
        if run.formulation in failing:
            raise FAILURES[kind]
        if run.formulation == "psi":  # a psi half that outlasts the phi error
            time.sleep(60.0)
        return (yield from real(run, *args))

    monkeypatch.setattr(_Run, "snapshots", snapshots_or_fail)
    t0 = time.monotonic()
    with pytest.raises(type(FAILURES[kind])) as exc:
        consistency_check(make_scenario(N=300, T=3.0))
    assert time.monotonic() - t0 < 30.0  # the sleeping child was terminated
    # an error of the psi half crossed the pipe: an equal copy, not the object
    assert (exc.value is FAILURES[kind]) == (failing[0] == "phi")
    assert str(exc.value) == str(FAILURES[kind])
    assert vars(exc.value) == vars(FAILURES[kind])
    assert multiprocessing.active_children() == []


def test_consistency_check_raises_when_the_child_dies(child_killed_at_the_fourth_snapshot):
    # the psi child dies at its fourth snapshot and sends nothing
    with pytest.raises(EquiwaveError, match=f"exit code {-signal.SIGKILL} "):
        consistency_check(make_scenario(N=300, T=3.0))
    assert multiprocessing.active_children() == []


def test_blowup_detection():
    # ceiling forced to a tiny value trips the detector immediately
    s = make_scenario(N=300, T=5.0)
    with pytest.raises(BlowUp) as exc:
        integrate(s, "phi", spectral_diagnostics=False, ceiling=1e-6)
    assert exc.value.t >= 0.0
    assert exc.value.r >= 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("form", ["phi", "psi"])
def test_blowup_on_nonfinite_field_with_infinite_ceiling(form, bad):
    # inf <= inf holds, so the check must catch inf apart from the ceiling
    s = make_scenario(N=300, T=2.0)
    run = _Run(s, form, None, None)
    st = WaveState(0.0, run.u.copy(), run.v.copy(), form)
    st.field[17] = bad
    with pytest.raises(BlowUp) as exc:
        integrate(s, form, initial_state=st, spectral_diagnostics=False,
                  ceiling=math.inf)
    assert exc.value.t == 0.0
    assert exc.value.r == run.grid.nodes[17]


def test_no_form_builds_a_gamma_series_during_integrate(monkeypatch):
    # both forces evaluate g g' as written: neither builds the Taylor series
    # of Gamma (the package has no function that evaluates Gamma itself)
    calls = []
    real = equiwave.profiles._gamma_series

    def counted(*args, **kwargs):
        calls.append(real.__name__)
        return real(*args, **kwargs)

    monkeypatch.setattr(equiwave.profiles, "_gamma_series", counted)
    s = make_scenario(N=300, T=3.0)
    for form in ("phi", "psi"):
        tr = integrate(s, form, spectral_diagnostics=False)
        assert tr.meta["n_steps"] > 100
    assert calls == []


def _force(run, u):
    """The force of run at the field u, in run's buffer: u measured,
    then the force of bind(u)."""
    measure, force = run.bind(u)
    measure()
    return force()


def _gamma_split_phi_force(s, run, u):
    """The phi-form force of the scenario s as first written: the linear
    part lbar*u/h^2 on a diagonal balanced against the stencil below
    r = 1, plus the cubic remainder Gamma(u) u^3 / h^2.  Returns the force
    and its linear term."""
    r, profile, lbar = run.grid.nodes, s.profile(), s.k * (s.k + s.n - 2)
    h = profile(r)
    V = compute_V(profile, s.n, s.k, r)
    # the bare stencil, -Delta_h without a potential
    bare = DiscreteRadialOperator.manifold(run.grid, profile, s.n)
    balanced = -bare.apply(run.w_nodes) / run.w_nodes + V
    lin_diag = np.where(r < 1.0, balanced, lbar / h**2)
    gam = gamma_reference(run.target, lbar, u)
    cubic = gam * u * (u / h) ** 2
    return -bare.apply(u) - lin_diag * u - cubic, lin_diag * u


@pytest.mark.parametrize("manifold", ["flat", "hyperbolic", "sinh-perturbed"])
@pytest.mark.parametrize("target", ["sphere", "hyperbolic",
                                    {"kind": "custom", "expr": ["sin", "r"]}],
                         ids=["sphere", "hyperbolic", "custom-sin"])
def test_phi_force_matches_gamma_split(manifold, target):
    for amp in (1e-4, 0.05, 0.5):
        data = {"shape": "gaussian", "amplitude": amp, "width": 1.0, "center": 0.0}
        s = make_scenario(manifold, target, N=500, data=data)
        run = _Run(s, "phi", None, None)
        u = run.u.copy()
        want, linear = _gamma_split_phi_force(s, run, u)
        err = np.max(np.abs(_force(run, u) - want))
        assert err <= 1e-14 * np.max(np.abs(linear))


@pytest.mark.parametrize("manifold", ["flat", "hyperbolic", "sinh-perturbed"])
@pytest.mark.parametrize("target", ["sphere", "hyperbolic",
                                    {"kind": "custom", "expr": ["sin", "r"]}, "flat"],
                         ids=["sphere", "hyperbolic", "custom-sin", "flat"])
def test_psi_force_matches_gamma_split(manifold, target):
    # the psi force as first written: -H u minus the cubic remainder
    # (r^(m-1)/h^(n+1)) u^3 Gamma(w u), Gamma with its Taylor series near 0
    for amp in (1e-4, 0.05, 0.5):
        data = {"shape": "gaussian", "amplitude": amp, "width": 1.0, "center": 0.0}
        s = make_scenario(manifold, target, N=500, data=data)
        run = _Run(s, "psi", None, None)
        u = run.u.copy()
        r = run.grid.nodes
        linear = run.op.apply(u)
        gam = gamma_reference(run.target, s.k * (s.k + s.n - 2), run.w_nodes * u)
        want = -linear - r ** (s.n + 2 * s.k - 1) / s.profile()(r) ** (s.n + 1) * u**3 * gam
        err = np.max(np.abs(_force(run, u) - want))
        assert err <= 1e-13 * np.max(np.abs(linear))
        if target == "flat":  # g g'(s) - s and Gamma are exactly 0
            assert err == 0.0


def test_trajectory_energy_drift_and_cfl_ratio():
    s = make_scenario(N=400, T=4.0, snap=1.0)
    tr = integrate(s, "phi", spectral_diagnostics=False)
    e = tr.energies
    assert np.array_equal(tr.energy_drift, np.abs(e - e[0]) / e[0])
    # the largest per-snapshot drift is bit for bit max(|E - E0|) / E0
    assert tr.energy_drift.max() == np.max(np.abs(e - e[0])) / e[0]
    dr = s.radial_grid.dr
    assert tr.meta["cfl_ratio"] == tr.meta["dt"] / dr
    assert 0.099 < tr.meta["cfl_ratio"] <= 0.1
    zero = integrate(make_scenario(N=300, T=2.0, data={"shape": "zero"}), "phi",
                     spectral_diagnostics=False)
    assert np.array_equal(zero.energy_drift, np.zeros(len(zero.times)))


def test_cfl_guard():
    s = make_scenario()
    s.time = dict(s.time, dt_factor=0.7)
    with pytest.raises(CFLViolation):
        integrate(s, "phi")


def test_sphere_domain_exit_raises():
    # data far beyond the target domain bound trips the per-step check,
    # which reports the domain exit before a blow-up past the ceiling
    s = make_scenario(N=300, T=5.0,
                      data={"shape": "gaussian", "amplitude": 50.0, "width": 1.0,
                            "center": 0.0})
    for form in ("phi", "psi"):
        for ceiling in (math.inf, 1.0):
            with pytest.raises(DomainError):
                integrate(s, form, spectral_diagnostics=False, ceiling=ceiling)


def test_custom_target_outside_its_tree_domain_raises(tmp_path, capsys):
    # g = s sqrt(1 - s^2) has no jet where |s| > 1, so g g' is NaN there
    # from t = 0: a field outside the target's domain, not a blow-up
    target = {"kind": "custom",
              "expr": ["*", "r", ["sqrt", ["+", 1, ["*", -1, ["pow", "r", 2]]]]]}
    data = {"shape": "gaussian", "amplitude": 3.0, "width": 1.0, "center": 0.0}
    s = make_scenario("hyperbolic", target, R=25.0, N=300, T=2.0, data=data)
    for form in ("phi", "psi"):
        with pytest.raises(DomainError, match=r"field 1\.\d+ left the domain of the custom "
                                              r"target at t=0, r=0\.\d+"):
            integrate(s, form, spectral_diagnostics=False, ceiling=math.inf)
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"manifold": {"kind": "hyperbolic"}, "target": target,
                                "n": 3, "k": 1, "grid": {"R_max": 25.0, "N": 300},
                                "time": {"T": 2.0, "dt_factor": 0.1, "snap_every": 0.5},
                                "data": data}))
    assert main(["evolve", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "numerical error (DomainError): field 1." in capsys.readouterr().err


def test_trajectory_diagnostics_shape():
    s = make_scenario(N=400, T=4.0, snap=1.0)
    tr = integrate(s, "phi")
    assert np.all(np.diff(tr.times) > 0)
    count = len(tr.times)
    assert len(tr.energies) == len(tr.h_half_norms) == count
    assert tr.fields.shape == tr.velocities.shape == (400, count)
    assert np.all(np.isfinite(tr.h_half_norms))
    assert np.all(tr.local_energies >= 0)


def test_strichartz_trace_baseline_and_monotonicity():
    s = make_scenario(N=1000, T=15.0, snap=0.5)
    partials = integrate(s, "phi").strichartz_partials
    total = partials[-1]
    assert total == pytest.approx(SOLVER_TRACE, rel=REGRESSION_WINDOW)
    assert np.all(np.diff(partials) >= -1e-15)
    # the trace of the run to its tenth snapshot, t = 4.5
    assert partials[9] <= total


@pytest.mark.parametrize("n", [3, 4, 5])
def test_strichartz_trace_matches_dense_reference(n):
    # (1+H)^((n-1)/4) of the snapshots without an eigenbasis, against the
    # eigenbasis: n = 3 takes the real poles of the square root, n = 4 the
    # contour (beta = -1/4), n = 5 one product with H
    s = make_scenario(manifold="hyperbolic", n=n, N=400, T=6.0, snap=0.5)
    tr = integrate(s, "phi")
    partials = tr.strichartz_partials
    idx = indices(s.n, s.k)
    p, q = float(idx["p"]), float(idx["q"])
    op = s.free_operator
    w = weight_w(s.profile(), s.n, s.k, op.grid.nodes)
    psi = tr.fields / w[:, None]
    mult = powered(op, (s.n - 1) / 4, "inhomogeneous")[:, None]
    g = from_coefficients(op, mult * coefficients(op, psi))
    lq = np.sum(op.grid.volume_weights(idx["m"])[:, None] * np.abs(g) ** q,
                axis=0) ** (1.0 / q)
    steps = np.diff(tr.times) * 0.5 * (lq[1:] ** p + lq[:-1] ** p)
    want = np.concatenate([[0.0], np.cumsum(steps)]) ** (1.0 / p)
    assert partials == pytest.approx(want, rel=1e-10)


def test_strichartz_trace_zero_trajectory():
    s = make_scenario(N=300, T=3.0, data={"shape": "zero"})
    assert integrate(s, "phi").strichartz_partials[-1] == 0.0


def test_spectral_operator_and_solver_share_one_stencil():
    # the solver's linear force is -H u for the spectral operator itself:
    # -Delta_m + V in the psi form, -Delta_h + P in the phi form, with P
    # the lbar/h^2 of the phi force from r = 1 on
    s = make_scenario(manifold="hyperbolic")
    psi = _Run(s, "psi", None, None)
    phi = _Run(s, "phi", None, None)
    r = psi.grid.nodes
    v = r * np.exp(-((r - 2.0) ** 2))
    V = psi.op.W_samples
    assert np.array_equal(V, compute_V(s.profile(), s.n, s.k, r))
    assert np.array_equal(psi.op.apply(v), build_operator(psi.grid, s.n + 2 * s.k, V).apply(v))
    P = phi.op.W_samples
    assert np.array_equal(P[r >= 1.0], phi.c[r >= 1.0])
    bare = DiscreteRadialOperator.manifold(phi.grid, s.profile(), s.n)
    want = dataclasses.replace(bare, W_samples=P).apply(v)
    assert np.array_equal(phi.op.apply(v), want)


def test_psi_local_energy_is_that_of_the_phi_discretization():
    # a psi run builds only the weights of the phi-form local energy, not
    # a phi-form discretization: the energies keep their bits
    s = make_scenario(manifold="sinh-perturbed", N=600, T=2.0, snap=0.5)
    tr = integrate(s, "psi", spectral_diagnostics=False)
    phi = _Run(s, "phi", None, None)
    want = [phi.op.energy(phi.w_nodes * u, phi.w_nodes * v,
                          phi.c * phi.target(phi.w_nodes * u) ** 2, tr.meta["ball_radius"])
            for u, v in zip(tr.fields.T, tr.velocities.T)]
    assert np.array_equal(tr.local_energies, want)


@pytest.mark.parametrize("form, n", [("phi", 3), ("psi", 3), ("phi", 5)])
def test_snapshot_blocking_moves_no_bit(monkeypatch, form, n):
    # 33 snapshots: blocks of 16 leave a last block of one column, which
    # numpy sums pairwise where it sums a wider C-ordered stack row by row;
    # at n = 5 the Strichartz power is one product with H, without a contour
    s = make_scenario(manifold="hyperbolic", n=n, N=400, T=3.1, snap=0.1)
    runs = []
    for block in (1, 16, 33):
        monkeypatch.setattr(equiwave.solver, "SNAPSHOT_BLOCK", block)
        tr = integrate(s, form)
        assert tr.fields.shape[1] == 33
        runs.append((tr.h_half_norms, tr.strichartz_partials))
    for halves, partials in runs[1:]:
        assert np.array_equal(halves, runs[0][0])
        assert np.array_equal(partials, runs[0][1])


@pytest.mark.parametrize("T, snap, count", [
    (2.0, 5.0, 2),    # a stride beyond the 200 steps: t = 0 and T
    (2.0, 0.7, 4),    # a stride of 70 leaves 60 steps to the last snapshot
    (0.0, 1.0, 1),    # T = 0: the initial state alone
    (3.1, 0.1, 32),   # two full blocks of SNAPSHOT_BLOCK
], ids=["stride-beyond-T", "remainder", "T0", "two-blocks"])
def test_snapshot_count_is_that_of_a_run(T, snap, count):
    s = make_scenario(N=300, T=T, snap=snap)
    tr = integrate(s, "phi", spectral_diagnostics=False)
    assert s.snapshot_count == len(tr.times) == count
    # the run of a forked child, in this process, without velocities:
    # each field in its column, the end of every block and of the last
    # yielded, then the trajectory without fields
    fields = np.zeros((300, count), order="F")
    *ends, last = _Run(s, "phi", None, None).snapshots(fields, None)
    assert ends == [*range(16, count, 16), count]
    assert np.array_equal(fields, tr.fields)
    assert last.fields is None and last.velocities is None
    assert np.all(np.isnan(last.h_half_norms))
    assert np.all(np.isnan(last.strichartz_partials))
    for name in ("times", "energies", "sup_norms", "local_energies"):
        assert np.array_equal(getattr(last, name), getattr(tr, name))
    assert last.meta == tr.meta


@pytest.mark.skipif(not hasattr(mmap, "MADV_REMOVE"), reason="mmap has no MADV_REMOVE")
def test_a_forked_run_frees_each_block_once_it_is_measured():
    # 34 snapshots of N = 300: three blocks whose ends fall mid-page, so a
    # page that straddles an end is freed only after the next block
    s = make_scenario(manifold="hyperbolic", N=300, T=3.3, snap=0.1)
    with _forked_run(s, "phi") as (fields, values):
        tr = _measured(fields, values, s, "phi")
        whole = (fields.nbytes - 1) // mmap.PAGESIZE * mmap.PAGESIZE // 8
        assert whole > 0 and np.all(fields.ravel(order="F")[:whole] == 0.0)
    want = integrate(s, "phi")
    assert np.array_equal(tr.h_half_norms, want.h_half_norms)
    assert np.array_equal(tr.strichartz_partials, want.strichartz_partials)
    assert multiprocessing.active_children() == []


def test_snapshot_diagnostics_transient_does_not_grow_with_snapshots():
    # the H^(1/2) norms work on blocks of SNAPSHOT_BLOCK snapshots, so the
    # traced peak beyond the stored fields and velocities (16 N bytes a
    # snapshot) is the same for 42 and 163 snapshots
    _linalg()  # its import is not the diagnostics' memory
    N = 2000
    for snap, count in ((0.1, 42), (0.025, 163)):
        s = make_scenario(manifold="hyperbolic", N=N, T=4.11, snap=snap)
        tracemalloc.start()
        try:
            tr = integrate(s, "phi")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tr.times) == count
        assert peak - 16 * N * count <= 4 * 2**20


def _textbook_verlet(s, form, st):
    """Velocity Verlet as written from the state st, on the full grid, with
    no window: -H u minus a (g g'(s) - s), s = u in the phi form and w u in
    the psi form.  Returns the states, energies, sups and local energies at
    the snapshots."""
    run = _Run(s, form, None, None)
    n_steps, dt, stride = s.stepping
    local_op = DiscreteRadialOperator.manifold(run.grid, s.profile(), s.n)

    def force(u):
        s = run.b * u
        return -run.op.apply(u) - run.a * (run.target.gg_prime_fn(s, None) - s)

    def record(u, v):
        phi, phi_t = run.b * u, run.b * v
        return (u, v, run.energy(u, v), float(np.max(np.abs(phi))),
                local_op.energy(phi, phi_t, run.c * run.target(phi) ** 2, s.grid["R_max"] / 3))

    u, v = st.field, st.velocity
    a = force(u)
    rows = [record(u, v)]
    for step in range(1, n_steps + 1):
        v = v + 0.5 * dt * a
        u = u + dt * v
        a = force(u)
        v = v + 0.5 * dt * a
        if step % stride == 0 or step == n_steps:
            rows.append(record(u, v))
    return rows


# amplitude and width of data a r e^(-(r/width)^2) whose window of
# |phi| >= 2^-27 at t = 0 is empty, part of the grid and all of it (a width
# the scenario's causality budget would not admit)
WINDOWS = {"empty": (1e-9, 1.0), "partial": (0.05, 1.0), "full": (0.2, 10.0)}


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("form", ["phi", "psi"])
@pytest.mark.parametrize("target", ["sphere", "hyperbolic", "flat",
                                    {"kind": "custom", "expr": ["sin", "r"]}],
                         ids=["sphere", "hyperbolic", "flat", "custom-sin"])
def test_integrate_is_the_textbook_verlet_loop_bit_for_bit(target, form, window):
    amp, width = WINDOWS[window]
    s = make_scenario("hyperbolic", target, N=300, T=3.0, snap=0.5)
    run = _Run(s, form, None, None)
    r = run.grid.nodes
    u0 = amp * r * np.exp(-((r / width) ** 2))
    st = WaveState(0.0, u0 if form == "phi" else u0 / run.w_nodes, np.zeros_like(r), form)
    rows = _textbook_verlet(s, form, st)
    tr = integrate(s, form, initial_state=st, spectral_diagnostics=False)
    assert tr.meta["n_steps"] == 300
    if target in ("sphere", "hyperbolic"):
        # the cells of the data with |s| >= the linear radius
        (cells,) = np.nonzero(np.abs(run.b * st.field) >= run.target.linear_radius)
        i0, i1 = (cells[0], cells[-1] + 1) if len(cells) else (0, 0)
        assert {"empty": i1 == i0, "partial": 0 < i1 - i0 < 300,
                "full": (i0, i1) == (0, 300)}[window]
    assert len(tr.times) == len(rows)
    for j, (u, v, _, _, _) in enumerate(rows):
        assert np.array_equal(tr.fields[:, j], u) and np.array_equal(tr.velocities[:, j], v)
    for i, name in enumerate(("energies", "sup_norms", "local_energies"), start=2):
        assert np.array_equal(getattr(tr, name), [row[i] for row in rows])


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("form", ["phi", "psi"])
@pytest.mark.parametrize("target", ["sphere", "hyperbolic", "flat",
                                    {"kind": "custom", "expr": ["sin", "r"]}],
                         ids=["sphere", "hyperbolic", "flat", "custom-sin"])
def test_force_is_the_textbook_force_bit_for_bit(target, form, window):
    # the force as written, g g' on every cell: the window, the negated
    # bands and the bound buffers move no bit
    amp, width = WINDOWS[window]
    run = _Run(make_scenario("hyperbolic", target, N=300), form, None, None)
    r = run.grid.nodes
    u = amp * r * np.exp(-((r / width) ** 2)) / run.b
    s = run.b * u
    want = -run.op.apply(u) - run.a * (run.target.gg_prime_fn(s, None) - s)
    assert np.array_equal(_force(run, u.copy()), want)


@pytest.mark.parametrize("form", ["phi", "psi"])
def test_steps_allocate_no_grid_array(form):
    # 500 steps at N = 2000, traced from the end of the first snapshot to
    # the entry of the last one: every buffer of a step is made before the
    # first
    N = 2000
    s = make_scenario("hyperbolic", N=N, T=0.75, snap=10.0)
    assert s.stepping[0] == 500
    run = _Run(s, form, None, None)
    peaks, record = [], run._record

    def traced_record(t):
        if tracemalloc.is_tracing():
            peaks.append(tracemalloc.get_traced_memory()[1])
        record(t)
        tracemalloc.start()

    run._record = traced_record
    fields, velocities = np.empty((N, 2), order="F"), np.empty((N, 2), order="F")
    try:
        *ends, _ = run.snapshots(fields, velocities)
    finally:
        tracemalloc.stop()
    assert ends == [2] and run.times == [0.0, 0.75]
    assert peaks[0] < 8 * N
