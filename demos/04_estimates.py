"""Dispersive estimate monitors: Hardy ratios, local smoothing on a
complex frequency grid, Strichartz quotients against the free flow,
and the dimension shift identity for fractional norms."""

import numpy as np

from equiwave import (
    RadialGrid,
    build_operator,
    compute_V,
    dimshift_check,
    gaussian_family,
    hardy_check,
    hardy_probe_family,
    metric_profile,
    smoothing_check,
    strichartz_monitor,
)

n, k = 3, 1

# Hardy: sup over a random suite stays below the sharp constant 1, and
# scaled probes push the ratio toward 1 from below
fam = gaussian_family(30, seed=0, r_power=1)
rep = hardy_check(lambda r: r ** (1.0 - n), n, fam)
probes = hardy_check(lambda r: r ** (1.0 - n), n, hardy_probe_family(10, 1))
print(f"Hardy (n={n}): sup ratio {rep.sup_ratio:.4f} over 30 gaussians, "
      f"{probes.sup_ratio:.4f} over sharpness probes (bound 1)")

# local smoothing: resolvent quotients over Re in [0,5], Im in (0,5]
lam_grid = [complex(re, im) for re in (0.0, 2.5, 5.0) for im in (0.2, 2.6, 5.0)]
bumps = gaussian_family(6, seed=0, r_power=1)
for kind, h_inf, d0 in (("flat", 0.0, 0.5), ("hyperbolic", 1.0, 0.95)):
    rep = smoothing_check(metric_profile(kind), n, k, d0, lam_grid, bumps,
                          h_infinity=h_inf, R_max=60.0, N=1500)
    print(f"smoothing ({kind}, delta0={d0}): sup ratio {rep.sup_ratio:.4f} "
          f"<= {4.0 / d0 * 1.1:.2f} -> {'PASS' if rep.passed else 'FAIL'}")

# Strichartz quotients on the diagonal admissible pair (3, 3) at m = 5
grid = RadialGrid(60.0, 2000)
free = build_operator(grid, 5)
vecs = [tf.fn(grid.nodes) for tf in gaussian_family(10, seed=0, r_power=2)]
rows = [("free", free, 0.0)]
for label, kind, h_inf in (("flat reduced", "flat", 0.0),
                           ("hyperbolic KG", "hyperbolic", 1.0)):
    W = compute_V(metric_profile(kind), n, k, grid.nodes) - h_inf
    rows.append((label, build_operator(grid, 5, W), h_inf))
print("\nStrichartz monitor, pair (p, q) = (3, 3) on R^5:")
for label, op, nu in rows:
    rep = strichartz_monitor(op, nu, (3, 3), vecs, free_op=free)
    print(f"  {label:14s} sup quotient {rep.sup_ratio:.4f}")

# dimension shift: s = 0 is an exact identity, s = 1 stays in a bracket
fam = gaussian_family(30, seed=0, r_power=1)
rep0 = dimshift_check(n, k, 0.0, fam)
rep1 = dimshift_check(n, k, 1.0, fam)
print(f"\ndimension shift (n={n}, k={k}):")
print(f"  s = 0: max |ratio - 1| = {np.max(np.abs(np.array(rep0.ratios) - 1.0)):.1e}")
print(f"  s = 1: ratios in [{min(rep1.ratios):.4f}, {max(rep1.ratios):.4f}], "
      f"log spread {rep1.detail['log_ratio_spread']:.3f}")
