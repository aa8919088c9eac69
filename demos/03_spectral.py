"""Discrete radial operator on R^m and the functional calculus the
pipelines use: second order convergence of the resolvent, fractional
norms by Zolotarev's real-pole rational approximation against a closed
form, and the linear flow as a Chebyshev series inside the Strichartz
monitor."""

import math

import numpy as np

from equiwave import (
    DiscreteRadialOperator,
    RadialGrid,
    build_operator,
    compute_V,
    frac_norm,
    gaussian_family,
    metric_profile,
    resolve,
    strichartz_monitor,
)

m = 5
grid = RadialGrid(40.0, 800)
op = build_operator(grid, m)

print(f"operator on R^{m}, N = {grid.N}, dr = {grid.dr}")
print(f"lowest eigenvalues: {op.eigenvalues[:4]}")

# resolvent with a manufactured solution u = e^(-r^2)
kappa = 1.0 + 1.0j
print("\nresolvent convergence (manufactured u = e^(-r^2), kappa = 1+1j):")
errs = []
for N in (500, 1000, 2000):
    g = RadialGrid(30.0, N)
    r = g.nodes
    u = np.exp(-(r**2))
    f = (4.0 * r**2 - 2.0 * m) * u + kappa**2 * u
    errs.append(np.max(np.abs(resolve(kappa, f, build_operator(g, m)) - u)))
    ratio = "" if len(errs) == 1 else f"  ratio {errs[-2] / errs[-1]:.2f}"
    print(f"  N = {N:5d}  max error {errs[-1]:.3e}{ratio}")

# the same resolver takes an operator of the manifold form of the equation
hyp = metric_profile("hyperbolic")
g = RadialGrid(30.0, 1000)
r = g.nodes
u = np.exp(-(r**2))
f = (4.0 * r**2 - 2.0) * u - 4.0 * r * u / np.tanh(r) + kappa**2 * u
got = resolve(kappa, f, DiscreteRadialOperator.manifold(g, hyp, 3), h_infinity=1.0)
print(f"manifold form (h = sinh r) max error: {np.max(np.abs(got - u)):.3e}")

# || H^(1/2) e^(-r^2) ||^2 = || grad e^(-r^2) ||^2 on R^m, in closed form
exact = math.sqrt(grid.surface_constant(m) * 4.0
                  * math.gamma((m + 2) / 2) / (2.0 * 2.0 ** ((m + 2) / 2)))
print(f"\n|| H^(1/2) e^(-r^2) || by Zolotarev's real poles (exact {exact:.8f}):")
errs = []
for N in (400, 800, 1600):
    g = RadialGrid(20.0, N)
    got = frac_norm(build_operator(g, m), 1.0, np.exp(-(g.nodes**2)))
    errs.append(abs(got - exact))
    ratio = "" if len(errs) == 1 else f"  ratio {errs[-2] / errs[-1]:.2f}"
    print(f"  N = {N:5d}  {got:.8f}  error {errs[-1]:.3e}{ratio}")
assert all(3.5 <= a / b <= 4.5 for a, b in zip(errs, errs[1:])), errs

# fractional norms through the spectral calculus
v = grid.nodes * np.exp(-(grid.nodes**2))
print("\nfractional norms of r e^(-r^2):")
for s in (-0.5, 0.0, 0.5, 1.0):
    print(f"  s = {s:+.1f}: {frac_norm(op, s, v):.6f}")

# the reduced hyperbolic operator stays positive; the Strichartz monitor
# steps its Klein-Gordon flow cos(t sqrt(1+H)) by a Chebyshev series
op_red = build_operator(grid, m, compute_V(hyp, 3, 1, grid.nodes) - 1.0)
print(f"\nreduced hyperbolic operator: lowest eigenvalue {op_red.eigenvalues[0]:.4f}")
fam = [tf.fn(grid.nodes) for tf in gaussian_family(4, 0, r_power=2)]
rep = strichartz_monitor(op_red, 1.0, (3, 3), fam, free_op=op)
print("Strichartz quotients of the Klein-Gordon flow, t in [0, 20]:")
for sid, ratio in zip(rep.sample_ids, rep.ratios):
    print(f"  {sid}: {ratio:.6f}")
