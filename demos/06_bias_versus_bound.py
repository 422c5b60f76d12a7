"""LMC's stationary bias, measured exactly, against the error envelope.

On a separable potential the law of the chain is a product of identical 1-D
laws, which ``law_w2`` propagates on a grid, so W2(Law(Y_k), pi) is measured
without sampling noise.  Run long enough to forget its start (k eta = 15),
the chain is left with its stationary bias, which shrinks like a power of
eta; ``theorem_bound`` on the same configs is orders of magnitude above it.
Then the planner's schedule for epsilon = 0.5 is run to its last step.
"""

import math

import numpy as np

from mollmc.bounds import eta_max, inputs_from, theorem_bound
from mollmc.metrics import law_w2
from mollmc.planner import PlanRequest, plan_lmc, verify_plan
from mollmc.potentials import builtin
from mollmc.samplers import ChainConfig, ExactGradient

BETA, R = 1.0, 0.1  # R is the analysis radius of the envelope, not a chain parameter
ETAS = (0.005, 0.01, 0.02, 0.05, 0.1)


def last_w2(oracle, eta, k):
    return float(law_w2(oracle, ChainConfig(BETA, eta, k, record_stride=k))[-1])


print("=== stationary bias of LMC on hoelder_mix, d = 1, beta = 1 (k eta = 15) ===")
print("  eta          " + "".join(f"{eta:>11g}" for eta in ETAS))
for alpha in (0.35, 0.5, 0.75, 1.0):
    oracle = ExactGradient(builtin("hoelder_mix", 1, alpha=alpha))
    inputs = inputs_from(oracle, BETA, R)
    bias, bound = [], []
    for eta in ETAS:
        k = math.ceil(15.0 / eta)
        bias.append(last_w2(oracle, eta, k))
        ok = eta < eta_max(inputs)
        bound.append(f"{theorem_bound(inputs, eta, k).w2_bound:11.4g}" if ok else f"{'-':>11}")
    slope = np.polyfit(np.log(ETAS), np.log(bias), 1)[0]
    print(f"  alpha = {alpha:<4g} W2 " + "".join(f"{b:11.4e}" for b in bias)
          + f"   ~ eta^{slope:.3f}")
    print(f"      envelope   " + "".join(bound) + f"   (eta_max = {eta_max(inputs):.4g})")

print("\n=== the planner's promise: plan --epsilon 0.5 --d 1 --alpha 1 ===")
req = PlanRequest(epsilon=0.5, d=1, alpha=1.0)
plan = plan_lmc(req)
eta = float(plan.eta)
print(f"  k = {plan.k}, eta = {eta:.6g}, verification passed: {verify_plan(plan, req).passed}")
for name, params in (("quadratic", {}), ("hoelder_mix", {"alpha": 1.0})):
    w2 = last_w2(ExactGradient(builtin(name, 1, **params)), eta, plan.k)
    print(f"  {name:12s} W2(Law(Y_k), pi) = {w2:.4e}   against epsilon = {req.epsilon}")
