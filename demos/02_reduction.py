"""Reduction walkthrough: the conjugating weight w, the induced
potential V, the exact rational index pairs, and the round trip between
the geometric field and the reduced one."""

import numpy as np

from equiwave import (
    compute_V,
    indices,
    metric_profile,
    weight_w,
)

n, k = 3, 1
hyp = metric_profile("hyperbolic")
r = np.array([0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0])

print("weight and potential for the hyperbolic base (n=3, k=1):")
w = weight_w(hyp, n, k, r)
V = compute_V(hyp, n, k, r)
print(f"{'r':>6s} {'w(r)':>12s} {'V(r)':>12s}")
for ri, wi, Vi in zip(r, w, V):
    print(f"{ri:6.2f} {wi:12.6f} {Vi:12.8f}")
print("V is smooth through r = 0 (series branch below the seam) and")
print("tends to the constant h_inf = 1, so W = V - h_inf decays.\n")

print("exact rational indices of the reduced problem on R^m, m = n + 2k:")
print(f"{'(n,k)':>6s} {'m':>3s} {'p':>8s} {'q':>8s} {'a':>8s}")
for nn, kk in ((3, 1), (4, 1), (3, 2), (5, 3)):
    idx = indices(nn, kk)
    print(f"({nn},{kk})  {idx['m']:3d} {str(idx['p']):>8s} {str(idx['q']):>8s} "
          f"{str(idx['a']):>8s}")
print("(a, a) always sits on the wave admissibility line 2/a + (m-1)/a")
print("= (m-1)/2, while (p, q) satisfies the extended range inequality")
print("1/q <= 1/2 - 2/((m-1) p), with equality only at m = 5.\n")

W = compute_V(hyp, n, k, np.array([10.0])) - 1.0
print(f"reduced problem: m = {n + 2 * k}, W(10) = {float(W[0]):.2e}")

# round trip phi -> psi -> phi
rr = np.linspace(0.05, 20.0, 400)
phi = rr * np.exp(-((rr - 3.0) ** 2))
wr = weight_w(hyp, n, k, rr)
psi = phi / wr
back = psi * wr
print(f"transform round trip max error: {np.max(np.abs(back - phi)):.2e}")
