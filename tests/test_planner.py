import math

import mpmath as mp
import numpy as np
import pytest

from mollmc.planner import (
    Plan,
    PlanRequest,
    UnsupportedRegimeError,
    plan_lmc,
    plan_ss_sg_lmc,
    verify_plan,
)

GRID_EPS = (0.5, 1.0)
GRID_ALPHA = (0.4, 0.7, 1.0)
GRID_D = (1, 2)
AMBIENT_DPS = (5, 15, 100)


class TestLmcAlphaOne:
    def test_pinned_plan(self):
        plan = plan_lmc(PlanRequest(epsilon=1.0, d=1, c_const=1.0, alpha=1.0))
        assert plan.k == 57
        assert float(plan.eta) == pytest.approx(math.sqrt(1.0 / 912.0), rel=1e-15)
        assert plan.r is None and plan.n_batch is None
        # independent arithmetic for the k floor: 16 e^2 log(2)^2
        with mp.workdps(40):
            assert plan.k == int(mp.ceil(16 * mp.e**2 * mp.log(2) ** 2))
        # a numpy integer is a dimension too; mpmath refused np.int64
        assert plan_lmc(PlanRequest(epsilon=1.0, d=np.int64(1), c_const=1.0, alpha=1.0)) == plan

    def test_envelope_below_target(self):
        req = PlanRequest(epsilon=1.0, d=1, c_const=1.0, alpha=1.0)
        plan = plan_lmc(req)
        assert float(plan.predicted_envelope) <= 1.0


class TestLmcFractionalAlpha:
    def test_half_alpha_k_floor(self):
        # (3a+1)/(3a-1) = 5 and 2/(3a-1) = 4 at alpha = 1/2, so the floor is
        # (e log 2)^5 * 48^4, about 1.26e8
        plan = plan_lmc(PlanRequest(epsilon=1.0, d=1, c_const=1.0, alpha=0.5))
        with mp.workdps(40):
            expect = int(mp.ceil((mp.e * mp.log(2)) ** 5 * mp.mpf(48) ** 4))
        assert plan.k == expect
        assert 1.2e8 < plan.k < 1.3e8

    @pytest.mark.parametrize("alpha", [0.4, 0.5, 0.6])
    @pytest.mark.parametrize("eps", GRID_EPS)
    @pytest.mark.parametrize("d", GRID_D)
    def test_step_term_balanced_exactly(self, alpha, eps, d):
        req = PlanRequest(epsilon=eps, d=d, c_const=1.0, alpha=alpha)
        plan = plan_lmc(req)
        assert not plan.eta_capped
        with mp.workdps(60):
            a = mp.mpf(alpha)
            lhs = mp.mpf(d) ** 2 * plan.r ** (a - 1) * plan.k * plan.eta**2
            rhs = mp.mpf(eps) ** 4 / (48 * mp.mpf(d) ** 2)
            assert abs(lhs - rhs) / rhs < mp.mpf("1e-40")

    def test_regime_guard(self):
        with pytest.raises(UnsupportedRegimeError):
            plan_lmc(PlanRequest(epsilon=1.0, d=1, alpha=1.0 / 3.0))
        with pytest.raises(UnsupportedRegimeError):
            plan_lmc(PlanRequest(epsilon=1.0, d=1, alpha=0.2))

    def test_alpha_required(self):
        with pytest.raises(ValueError):
            plan_lmc(PlanRequest(epsilon=1.0, d=1))

    def test_branch_consistency_at_two_thirds(self):
        lo = plan_lmc(PlanRequest(epsilon=1.0, d=1, c_const=1.0, alpha=2.0 / 3.0 - 1e-9))
        hi = plan_lmc(PlanRequest(epsilon=1.0, d=1, c_const=1.0, alpha=2.0 / 3.0 + 1e-9))
        # the extra floor of the upper branch is dominated at these inputs,
        # so the two branches agree up to the alpha perturbation itself
        assert abs(lo.k - hi.k) / hi.k < 1e-6


class TestSsSgLmc:
    def test_pinned_plan(self):
        plan = plan_ss_sg_lmc(PlanRequest(epsilon=1.0, d=1, c_const=1.0))
        with mp.workdps(40):
            expect = int(mp.ceil(mp.mpf(48) ** 4 * mp.e**2 * mp.log(2) ** 2))
        assert plan.k == expect == 18_845_378
        assert float(plan.r) == pytest.approx(1.0 / 48.0, rel=1e-15)
        assert plan.n_batch >= 1

    def test_r_always_in_unit_interval(self):
        for eps in (0.1, 0.5, 1.0):
            for d in (1, 2, 5):
                plan = plan_ss_sg_lmc(PlanRequest(epsilon=eps, d=d, c_const=2.0))
                assert 0.0 < float(plan.r) <= 1.0 / 48.0

    def test_envelope_terms_bounded(self):
        # the three summands under the fourth root are each at most
        # eps^4 / (48 C^4 d^2), so their sum is within a factor 3 of it
        req = PlanRequest(epsilon=1.0, d=1, c_const=1.0)
        plan = plan_ss_sg_lmc(req)
        with mp.workdps(60):
            q = mp.mpf(1) / 48
            t1 = plan.k * plan.eta**2 / plan.r
            t2 = plan.k * plan.eta / plan.n_batch
            t3 = plan.r
            assert t1 <= q * (1 + mp.mpf("1e-30"))
            assert t2 <= q * (1 + mp.mpf("1e-30"))
            assert t3 <= q * (1 + mp.mpf("1e-30"))
            assert t1 + t2 + t3 <= 3 * q * (1 + mp.mpf("1e-30"))

    def test_alpha_refused(self):
        # the schedule never reads alpha; a request that gives one was planned as if not
        with pytest.raises(ValueError, match=r"ss_sg_lmc schedule takes no alpha .*got 0\.5"):
            plan_ss_sg_lmc(PlanRequest(epsilon=0.5, d=10, alpha=0.5))


class TestVerifyPlan:
    @pytest.mark.parametrize("eps", GRID_EPS)
    @pytest.mark.parametrize("alpha", GRID_ALPHA)
    @pytest.mark.parametrize("d", GRID_D)
    def test_lmc_grid_all_inequalities(self, eps, alpha, d):
        req = PlanRequest(epsilon=eps, d=d, c_const=1.0, alpha=alpha)
        report = verify_plan(plan_lmc(req), req)
        assert report.passed, [item.name for item in report.failures()]

    @pytest.mark.parametrize("eps", GRID_EPS)
    @pytest.mark.parametrize("d", GRID_D)
    def test_ss_grid_all_inequalities(self, eps, d):
        req = PlanRequest(epsilon=eps, d=d, c_const=1.0)
        report = verify_plan(plan_ss_sg_lmc(req), req)
        assert report.passed, [item.name for item in report.failures()]

    @pytest.mark.parametrize("eps", (0.3, 0.5, 1.0))
    @pytest.mark.parametrize("alpha", (None, 0.4, 0.5, 0.7, 1.0))
    @pytest.mark.parametrize("d", (1, 2, 5, 10))
    def test_printed_envelope_is_the_verified_total(self, eps, alpha, d):
        # the planner's envelope and the total that verify_plan checks were
        # once two copies of the formula, which differed at 60 digits
        req = PlanRequest(epsilon=eps, d=d, alpha=alpha)
        plan = (plan_ss_sg_lmc if alpha is None else plan_lmc)(req)
        total = verify_plan(plan, req).items[-1]
        assert total.name == "total_le_eps"
        assert plan.predicted_envelope == total.lhs

    def test_halved_k_breaks_exponential_term(self):
        req = PlanRequest(epsilon=1.0, d=1, c_const=1.0, alpha=1.0)
        plan = plan_lmc(req)
        crippled = Plan(
            algorithm=plan.algorithm,
            k=plan.k // 2,
            eta=plan.eta,
            r=plan.r,
            n_batch=plan.n_batch,
            eta_capped=plan.eta_capped,
            predicted_envelope=plan.predicted_envelope,
        )
        report = verify_plan(crippled, req)
        assert not report.passed
        assert any(item.name == "exp_term_le_half_eps" for item in report.failures())

    def test_an_unknown_algorithm_is_refused(self):
        req = PlanRequest(epsilon=1.0, d=1, c_const=1.0, alpha=1.0)
        with pytest.raises(ValueError, match="unknown plan algorithm 'foo'"):
            verify_plan(plan_lmc(req)._replace(algorithm="foo"), req)

    def test_report_serializes(self):
        req = PlanRequest(epsilon=1.0, d=1, c_const=1.0, alpha=1.0)
        d = verify_plan(plan_lmc(req), req).to_dict()
        assert d["passed"] and all("margin" in item for item in d["items"])


def _verify_at_each_ambient_precision(plan, req):
    """Verdict, failure names and serialized report, read under each of the
    caller precisions in ``AMBIENT_DPS``."""
    readings = []
    for dps in AMBIENT_DPS:
        with mp.workdps(dps):
            report = verify_plan(plan, req)
            readings.append(
                (report.passed, [item.name for item in report.failures()], report.to_dict())
            )
    return readings


class TestAmbientPrecision:
    # items that meet their bound with equality by construction once failed at
    # the default 15 digits because the comparison ran at the caller's precision
    @pytest.mark.parametrize(
        "planner, req",
        [
            (plan_lmc, PlanRequest(epsilon=0.5, d=1, c_const=1.0, alpha=0.4)),
            (plan_ss_sg_lmc, PlanRequest(epsilon=0.5, d=1, c_const=1.0)),
        ],
        ids=["lmc-alpha-0.4", "ss_sg_lmc"],
    )
    def test_verdict_independent_of_ambient_precision(self, planner, req):
        readings = _verify_at_each_ambient_precision(planner(req), req)
        for passed, failures, serialized in readings:
            assert passed and failures == [], failures
            assert serialized["passed"] and all(item["ok"] for item in serialized["items"])
        assert all(reading == readings[0] for reading in readings)

    def test_violated_inequality_fails_at_every_ambient_precision(self):
        req = PlanRequest(epsilon=1.0, d=1, c_const=1.0, alpha=1.0)
        plan = plan_lmc(req)
        crippled = plan._replace(k=plan.k // 2)
        readings = _verify_at_each_ambient_precision(crippled, req)
        for passed, failures, serialized in readings:
            assert not passed and not serialized["passed"]
            assert "exp_term_le_half_eps" in failures
            ok = {item["name"]: item["ok"] for item in serialized["items"]}
            assert ok["exp_term_le_half_eps"] is False
        assert all(reading == readings[0] for reading in readings)

    def test_plan_serialization_independent_of_ambient_precision(self):
        plan = plan_lmc(PlanRequest(epsilon=0.5, d=2, c_const=1.0, alpha=0.4))
        serialized = []
        for dps in AMBIENT_DPS:
            with mp.workdps(dps):
                serialized.append(plan.to_dict())
        assert serialized[0]["log10_k"] == "58.462154"
        assert all(s == serialized[0] for s in serialized)


class TestMonotonicity:
    def test_k_monotone_lmc(self):
        for d in (1, 2, 3):
            ks = [
                plan_lmc(PlanRequest(epsilon=e, d=d, c_const=1.0, alpha=0.5)).k
                for e in (0.25, 0.5, 1.0)
            ]
            assert ks[0] >= ks[1] >= ks[2]
        for eps in (0.25, 0.5, 1.0):
            ks = [
                plan_lmc(PlanRequest(epsilon=eps, d=d, c_const=1.0, alpha=0.5)).k
                for d in (1, 2, 3)
            ]
            assert ks[0] <= ks[1] <= ks[2]

    def test_k_monotone_ss(self):
        for d in (1, 2, 3):
            ks = [plan_ss_sg_lmc(PlanRequest(epsilon=e, d=d)).k for e in (0.25, 0.5, 1.0)]
            assert ks[0] >= ks[1] >= ks[2]
        for eps in (0.25, 0.5, 1.0):
            ks = [plan_ss_sg_lmc(PlanRequest(epsilon=eps, d=d)).k for d in (1, 2, 3)]
            assert ks[0] <= ks[1] <= ks[2]


class TestStepSizeCap:
    def test_cap_binds_for_stiff_modulus(self):
        req = PlanRequest(epsilon=1.0, d=1, c_const=1.0, alpha=1.0, m=1e-9, omega_one=10.0)
        plan = plan_lmc(req)
        assert plan.eta_capped
        assert float(plan.eta) == pytest.approx(1e-9 / 200.0)

    @pytest.mark.parametrize("omega_one", (1.0, 50.0))
    @pytest.mark.parametrize("m", (1.0, 1e-9))
    @pytest.mark.parametrize("alpha", (None, 0.34, 0.75, 1.0))
    @pytest.mark.parametrize("d", (1, 10))
    @pytest.mark.parametrize("eps", (0.05, 0.5))
    def test_capped_plans_pass_verification(self, eps, d, alpha, m, omega_one):
        # m = 1e-9 or omega_one = 50 makes the step-size cap bind; k must then
        # grow, or the exponential term (among others) misses its bound
        req = PlanRequest(epsilon=eps, d=d, alpha=alpha, m=m, omega_one=omega_one)
        report = verify_plan((plan_ss_sg_lmc if alpha is None else plan_lmc)(req), req)
        assert report.passed, [item.name for item in report.failures()]

    @pytest.mark.parametrize("alpha", (None, 0.5, 1.0))
    def test_binding_cap_keeps_k_eta(self, alpha):
        planner = plan_ss_sg_lmc if alpha is None else plan_lmc
        free = planner(PlanRequest(epsilon=0.5, d=1, alpha=alpha))
        capped = planner(PlanRequest(epsilon=0.5, d=1, alpha=alpha, m=1e-9, omega_one=50.0))
        assert capped.eta_capped and not free.eta_capped
        with mp.workdps(60):
            assert capped.k == int(mp.ceil(free.k * free.eta / capped.eta))
            assert capped.k * capped.eta >= free.k * free.eta


class TestRequestValidation:
    @pytest.mark.parametrize("field,value", [("epsilon", 0.0), ("epsilon", 1.5), ("d", 0),
                                             ("d", 2.0), ("d", 2.5)])
    def test_epsilon_range_and_integer_d(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must"):
            PlanRequest(**({"epsilon": 0.5, "d": 1} | {field: value}))

    def test_c_at_least_one(self):
        with pytest.raises(ValueError):
            PlanRequest(epsilon=0.5, d=1, c_const=0.5)

    @pytest.mark.parametrize("c,message", [
        (True, "c_const must be a finite real number, got True"),
        (math.nan, "c_const must be a finite real number, got nan"),
        (0.5, "c_const must be a finite envelope constant of at least 1, got 0.5"),
    ], ids=["bool", "nan", "below-one"])
    def test_c_follows_the_argument_rules(self, c, message):
        # c_const = True was taken as 1
        with pytest.raises(ValueError) as err:
            PlanRequest(epsilon=0.5, d=1, c_const=c, alpha=1.0)
        assert str(err.value) == message
