"""Spherically smoothed stochastic gradients.

The oracle evaluates the weak gradient at x + r*zeta with zeta drawn from
the compact kernel, which makes it unbiased for the gradient of the smoothed
potential.  On the quadratic the smoothed gradient equals the plain one, so
bias and variance are known exactly; on the Hoelder-type potential the demo
compares the Monte Carlo mean with a quadrature of the smoothed gradient.
"""

import numpy as np

from mollmc.mollifier import density
from mollmc.potentials import FiniteSumPotential, builtin
from mollmc.samplers import FiniteSumSpherical, SphericalSmoothed, ss_gradient_batch

rng = np.random.default_rng(5)

print("=== quadratic: known bias and variance ===")
q = builtin("quadratic", 1)
x = np.array([2.0])
for r, nb in ((0.5, 1), (0.5, 4), (1.0, 16)):
    orc = SphericalSmoothed(q, r=r, n_batch=nb)
    draws = ss_gradient_batch(orc, x, 100_000, rng)
    var_exact = r * r * 1 / ((1 + 8) * nb)
    print(
        f"  r={r:3.1f} n_batch={nb:2d}: mean = {draws.mean():+.5f} (exact +2), "
        f"var = {draws.var(ddof=1):.6f} (exact {var_exact:.6f})"
    )

print("\n=== hoelder_mix: Monte Carlo vs quadrature of the smoothed gradient ===")
hm = builtin("hoelder_mix", 1, alpha=0.5)
r = 0.3
orc = SphericalSmoothed(hm, r=r, n_batch=2)
nodes, weights = np.polynomial.legendre.leggauss(200)
kern = density(nodes[:, None], 1)
for x0 in (-1.0, 0.0, 0.7):
    quad = float(np.sum(weights * kern * hm.weak_grad(np.array([x0]) + r * nodes[:, None])[:, 0]))
    draws = ss_gradient_batch(orc, np.array([x0]), 60_000, rng)[:, 0]
    se = draws.std(ddof=1) / np.sqrt(len(draws))
    print(f"  x={x0:+.1f}: quadrature = {quad:+.6f}, MC = {draws.mean():+.6f} +- {se:.6f}")

print("\n=== finite sum: mini-batch estimator stays unbiased ===")
fs = FiniteSumPotential.equal_split(hm, 10)
fso = FiniteSumSpherical(fs, r=r, n_batch=4)
draws = ss_gradient_batch(fso, np.array([0.7]), 60_000, rng)[:, 0]
se = draws.std(ddof=1) / np.sqrt(len(draws))
print(f"  10 components, batch 4 at x=0.7: MC = {draws.mean():+.6f} +- {se:.6f}")
