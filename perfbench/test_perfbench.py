"""Tests of the benchmark's own references, statistics and tracing.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import checks
import run
import traced_cli


def ar1(rho: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / math.sqrt(1.0 - rho * rho)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + e[i]
    return x


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_batch_means_ess_of_ar1(rho):
    # an AR(1) series has integrated autocorrelation time (1 + rho) / (1 - rho)
    n = 400_000
    want = n * (1.0 - rho) / (1.0 + rho)
    _, se, ess = checks.batch_means(ar1(rho, n, seed=3))
    assert ess == pytest.approx(want, rel=0.1)
    # the stationary variance is 1 / (1 - rho^2), so the mean's SE follows
    assert se == pytest.approx(math.sqrt(1.0 / (1.0 - rho * rho) / want), rel=0.1)


def test_pooled_sums_ess_and_averages_means():
    a, b = ar1(0.5, 40_000, 1), ar1(0.5, 40_000, 2) + 1.0
    mean, se, ess = checks.pooled([a, b])
    ma, sa, ea = checks.batch_means(a)
    mb, sb, eb = checks.batch_means(b)
    assert mean == pytest.approx(0.5 * (ma + mb))
    assert se == pytest.approx(0.5 * math.hypot(sa, sb))
    assert ess == pytest.approx(ea + eb)


@pytest.mark.parametrize("beta", [0.5, 1.0, 4.0])
def test_quadrature_matches_gaussian_closed_form(beta):
    ref = checks.marginal_moments(checks.phi_quadratic, beta)
    assert ref["mean"] == pytest.approx(0.0, abs=1e-14)
    assert ref["second"] == pytest.approx(1.0 / beta, rel=1e-12)
    assert ref["abs"] == pytest.approx(math.sqrt(2.0 / (math.pi * beta)), rel=1e-12)


def test_quadrature_of_kinked_targets_matches_a_fine_trapezoid():
    u = np.linspace(-12.0, 12.0, 2_400_001)  # 0 is a grid point, so the kink is on an edge
    for phi in (checks.phi_hoelder(0.5), checks.phi_logistic(0.1, 1.0)):
        a = checks.marginal_moments(phi, 1.0)
        p = np.exp(-phi(u))
        z = np.trapezoid(p, u)
        assert a["mean"] == pytest.approx(np.trapezoid(p * u, u) / z, rel=1e-8, abs=1e-12)
        assert a["second"] == pytest.approx(np.trapezoid(p * u * u, u) / z, rel=1e-8)


def test_kernel_coordinate_moments_match_beta_radius_draws():
    # zeta = direction * sqrt(B), B ~ Beta(d/2, 4): E zeta_1^2 = E B / d
    d = 10
    assert checks.kernel_coord_moment(d, 2.0) == pytest.approx((0.5 * d / (0.5 * d + 4)) / d)
    assert checks.kernel_coord_moment(d, 0.0) == pytest.approx(1.0)


def test_quadratic_variance_recursion_reaches_discrete_stationary_value():
    beta, eta = 2.0, 0.05
    v = checks.quadratic_variances(beta, eta, 2000)
    assert v[0] == 1.0
    assert v[1] == pytest.approx((1 - eta) ** 2 + 2 * eta / beta)
    assert v[-1] == pytest.approx(2.0 / (beta * (2.0 - eta)), rel=1e-12)


def test_envelope_on_hand_computed_schedules():
    # d = C = r = n_batch = 1, k = 4, eta = 1/4: every inner sum is 2.25,
    # so the first term is sqrt(1.5) and the decay term exp(-1/e)
    want = math.sqrt(1.5) + math.exp(-1.0 / math.e)
    assert float(checks.envelope("ss_sg_lmc", 1, 1, 4, 0.25, r=1, n_batch=1)) == pytest.approx(want)
    assert float(checks.envelope("lmc", 1, 1, 4, 0.25, r=1, alpha=0.5)) == pytest.approx(want)
    # alpha = 1, k = 16, eta = 1/4: (k eta^2)^{1/4} = 1, decay exp(-4/e)
    assert float(checks.envelope("lmc", 1, 1, 16, 0.25, alpha=1.0)) == pytest.approx(
        1.0 + math.exp(-4.0 / math.e))


# `mollmc plan --epsilon 0.5 --d 10 --alpha 1.0`, as printed.  By hand:
# 10 * (k eta^2)^{1/4} = 0.25 = eps / 2, and the decay exponent is
# k eta / (10^3 e^10) ~ 3.7e3, so the envelope is 0.25 to many digits.
PRINTED_PLAN = {
    "plan": {"algorithm": "lmc", "k": 16901238503447511219360997174,
             "eta": "4.8075161533654427e-18", "r": None, "n_batch": None},
    "verification": {"passed": True},
}


def test_plan_check_on_hand_checked_plan():
    env = checks.envelope("lmc", 0.5, 10, PRINTED_PLAN["plan"]["k"],
                          PRINTED_PLAN["plan"]["eta"], alpha=1.0)
    assert float(env) == pytest.approx(0.25, rel=1e-15)
    assert all(c["ok"] for c in checks.plan_checks(PRINTED_PLAN, 0.5, 10, 1.0))
    # eta 16 times larger quadruples the first term past epsilon
    bad = json.loads(json.dumps(PRINTED_PLAN))
    bad["plan"]["eta"] = mp.nstr(mp.mpf(bad["plan"]["eta"]) * 16, 17)
    assert not all(c["ok"] for c in checks.plan_checks(bad, 0.5, 10, 1.0))


def test_bound_checks():
    out = {"w2_bound": 3.0, "first_term": 2.0, "exp_term": 1.0}
    assert all(c["ok"] for c in checks.bound_checks(out, w2_floor=0.5))
    assert not all(c["ok"] for c in checks.bound_checks(out, w2_floor=3.5))
    assert not all(c["ok"] for c in checks.bound_checks(dict(out, w2_bound=2.5)))
    assert not all(c["ok"] for c in checks.bound_checks(dict(out, w2_bound=math.inf)))


def test_layer_metrics_self_time_and_counts(tmp_path):
    spans = traced_cli.Spans()
    weak_grad = spans.wrap("potentials.weak_grad", lambda f, x: f(x), traced_cli._points)
    grad_at = spans.wrap("samplers.grad_at", lambda x: weak_grad(lambda y: y, x))
    chain = spans.wrap("samplers.run", lambda n: [grad_at(np.zeros((16, 2))) for _ in range(n)])
    chain(5)
    weak_grad(lambda y: y, np.zeros(2))  # outside run: not a chain gradient evaluation
    path = tmp_path / "spans.npz"
    spans.save(path, import_s=0.5, exit_code=0)
    m = run.layer_metrics([path])
    assert m["samplers.chain_steps"] == 5
    assert m["potentials.weak_grad.calls"] == 6
    assert m["samplers.grad_evals"] == 5 * 16
    assert m["cli.import_s"] == 0.5
    assert m["samplers.step_loop.self_us_per_step"] > 0.0
    assert m["planner.plan_lmc.us"] == 0.0


def test_sample_output_independent_of_worker_count(tmp_path):
    cfg = run.sample_config("ss_lmc_hoelder", 11)
    cfg["chain"]["k"] = 3000
    path = run.write_json(tmp_path / "cfg.json", cfg)
    outputs = {}
    for workers in (1, None):
        out = tmp_path / f"out_{workers}"
        proc = subprocess.run(
            [sys.executable, "-m", "mollmc.cli", "sample", "--config", str(path),
             "--out", str(out)],
            env=run.environment(workers), cwd=run.ROOT, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((out / "summary.json").read_text())
        for rep in summary["replicas"]:
            rep.pop("elapsed_s")  # wall time of the replica, the one field that varies
        outputs[workers] = (run.csv_digests(out, cfg["replicas"]), summary)
    assert outputs[1] == outputs[None]


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
