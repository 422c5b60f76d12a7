"""A tour of the compact polynomial smoothing kernel.

Shows the closed-form density and gradient values, checks normalization by
quadrature, and demonstrates the exact sampler: draws factor into a uniform
sphere direction and a Beta-distributed squared radius.
"""

import numpy as np

from mollmc.mollifier import density, grad_density, grad_l1_norm, sample


def gauss_legendre_integral(f, d, n_nodes):
    """Integral of ``f`` over [-1, 1]^d by tensor-product Gauss-Legendre."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    pts = np.stack(np.meshgrid(*[x] * d, indexing="ij"), axis=-1).reshape(-1, d)
    weights = np.prod(np.meshgrid(*[w] * d, indexing="ij"), axis=0).ravel()
    return float(np.sum(weights * f(pts)))


rng = np.random.default_rng(7)

print("=== density values (d=1, r=1) ===")
for x in (0.0, 0.5, 1.0, 2.0):
    print(f"  rho({x:3.1f}) = {density(x, 1):.8f}")
print(f"  peak 35/32 = {35 / 32:.8f}")
print(f"  grad at 0.5 = {grad_density(0.5, 1)[0]:+.9f}  (closed form -1.845703125)")

print("\n=== normalization by tensor quadrature ===")
for d in (1, 2, 3):
    val = gauss_legendre_integral(lambda p: density(p, d), d, 120)
    print(f"  d={d}: integral = {val:.9f}")

print("\n=== gradient L1 norm: closed form vs bounds d <= . <= d+4 ===")
for d in (1, 2, 3, 10, 100):
    g = grad_l1_norm(d)
    print(f"  d={d:3d}: {g:10.6f}   in [{d}, {d + 4}]")

print("\n=== sampler moments (1e5 draws) ===")
for d in (1, 3, 10):
    z = sample(d, rng, size=100_000)
    sq = np.sum(z * z, axis=1)
    print(
        f"  d={d:2d}: E|z|^2 = {sq.mean():.5f}  (exact d/(d+8) = {d / (d + 8):.5f}), "
        f"max |z| = {np.sqrt(sq.max()):.5f}"
    )
