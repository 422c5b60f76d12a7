"""Parameter schedules and the explicit error envelope.

The planners reproduce the complexity formulas verbatim.  With the envelope
constant at its formula-shape default C = 1 the schedules are tiny toy
numbers; with realistic constants they are astronomical, and the planner
reports them honestly (log10 of the step count) instead of overflowing.
"""

import json

from mollmc.bounds import inputs_from, theorem_bound
from mollmc.planner import PlanRequest, plan_lmc, plan_ss_sg_lmc, verify_plan
from mollmc.potentials import builtin
from mollmc.samplers import ExactGradient

print("=== exact-gradient schedule at alpha = 1 (Lipschitz gradient) ===")
req = PlanRequest(epsilon=1.0, d=1, c_const=1.0, alpha=1.0)
plan = plan_lmc(req)
print(json.dumps(plan.to_dict(), indent=2))
report = verify_plan(plan, req)
print(f"verification passed: {report.passed}")
for item in report.items:
    print(f"  {item.name:26s} margin {str(item.margin)[:22]}")

print("\n=== mini-batch smoothed schedule (no smoothness exponent needed) ===")
plan2 = plan_ss_sg_lmc(PlanRequest(epsilon=1.0, d=1, c_const=1.0))
print(json.dumps(plan2.to_dict(), indent=2))

print("\n=== the same schedules at realistic targets are astronomical ===")
for eps, alpha, d in ((0.1, 0.5, 2), (0.25, 0.4, 3)):
    p = plan_lmc(PlanRequest(epsilon=eps, d=d, c_const=1.0, alpha=alpha))
    print(f"  lmc eps={eps} alpha={alpha} d={d}: log10(k) = {p.to_dict()['log10_k']}")

print("\n=== assembled envelope for a concrete quadratic run ===")
q = builtin("quadratic", 1)
inputs = inputs_from(ExactGradient(q), beta=1.0, r=0.1)
tb = theorem_bound(inputs, eta=0.01, k=100_000)
for key, val in tb.to_dict().items():
    print(f"  {key:14s} {val}")
print("  (the envelope is faithful, not tight: functional-inequality")
print("   constants carry exponential factors)")
