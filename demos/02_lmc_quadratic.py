"""Plain Langevin Monte Carlo on the quadratic potential.

For U = |x|^2 / 2 every iterate is exactly Gaussian and the stationary
per-coordinate variance of the discretised chain is 2 / (beta (2 - eta)),
slightly above the target 1/beta.   The demo runs a single long chain and an
ensemble, and compares both against the closed form.
"""

import numpy as np

from mollmc.metrics import moment_report
from mollmc.potentials import builtin
from mollmc.samplers import ChainConfig, ExactGradient, derive_seed, run

beta, eta = 1.0, 0.05
p = builtin("quadratic", 1)
oracle = ExactGradient(p)

(trace,) = run(oracle, ChainConfig(beta=beta, eta=eta, k=200_000), [11])
rep = moment_report(trace, m=p.m)
exact = 2.0 / (beta * (2.0 - eta))
print("single chain, k = 2e5:")
print(f"  post-burn-in second moment = {rep['second_moment']:.5f} +- {rep['second_moment_se']:.5f}")
print(f"  discretised stationary value = {exact:.5f},  continuum value = {1.0 / beta:.5f}")
print(f"  max |Y| over the run = {rep['max_norm']:.3f}")

seeds = [derive_seed(3, i) for i in range(800)]
ensemble = run(oracle, ChainConfig(beta=beta, eta=eta, k=2000), seeds)
steps, paths = ensemble[0].steps, np.stack([t.iterates for t in ensemble])
v_end = paths[:, -1, :].var(axis=0, ddof=1)[0]
print("\nensemble of 800 chains, k = 2000:")
print(f"  cross-chain variance at the last step = {v_end:.5f} (target {exact:.5f})")

# the exact per-step variance recursion v' = (1-eta)^2 v + 2 eta / beta
v = 1.0
marks = {10, 100, 1000}
for i in range(1, 2001):
    v = (1 - eta) ** 2 * v + 2 * eta / beta
    if i in marks:
        idx = int(np.searchsorted(steps, i))
        emp = paths[:, idx, :].var(axis=0, ddof=1)[0]
        print(f"  step {i:5d}: recursion v = {v:.5f}, ensemble = {emp:.5f}")
