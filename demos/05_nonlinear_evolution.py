"""Nonlinear evolution: integrate a small equivariant wave map into the
sphere, watch energy conservation and dispersion, reverse time back to
the initial data, and cross-check the two formulations."""

import math

import numpy as np

from equiwave import (
    RadialGrid,
    Scenario,
    WaveState,
    consistency_check,
    integrate,
)


def scenario(manifold, N=1000, T=20.0):
    return Scenario(
        "demo", {"kind": manifold}, {"kind": "sphere"}, 3, 1, 0.5,
        {"R_max": 30.0, "N": N},
        {"T": T, "dt_factor": 0.1, "snap_every": 2.0},
        {"shape": "gaussian", "amplitude": 0.05, "width": 1.0, "center": 0.0},
    )


for manifold in ("flat", "hyperbolic"):
    s = scenario(manifold)
    tr = integrate(s, "phi")
    drift = np.max(np.abs(tr.energies - tr.energies[0])) / tr.energies[0]
    trace = tr.strichartz_partials[-1]  # the L^p_t H^((n-1)/2)_q norm up to T
    print(f"{manifold}: sup |phi| {tr.sup_norms[0]:.4f} -> {tr.sup_norms[-1]:.4f}, "
          f"energy drift {drift:.1e}, Strichartz trace {trace:.4f}")

    # run the final state backward: velocity-Verlet is time reversible
    fs = tr.final_state
    back = WaveState(0.0, fs.field.copy(), -fs.velocity, "phi")
    tr2 = integrate(s, "phi", initial_state=back,
                    spectral_diagnostics=False, ceiling=math.inf)
    phi0, _ = s.initial_data(RadialGrid(30.0, 1000).nodes)
    rev = np.max(np.abs(tr2.final_state.field - phi0))
    print(f"  time reversal recovers the data to {rev:.1e}")

# the phi and psi formulations agree to second order in dr
print("\nformulation consistency (hyperbolic base):")
for N in (500, 1000):
    rep = consistency_check(scenario("hyperbolic", N=N, T=8.0))
    print(f"  N = {N:4d}: max |phi - w psi| = {rep['mismatch']:.3e}")
print("the mismatch drops by 4x per refinement, as it should.")
print("\nthe same pipeline runs from the command line:")
print("  equiwave all --scenario scenario.json --out results/")
