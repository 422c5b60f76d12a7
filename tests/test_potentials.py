import dataclasses
import math

import numpy as np
import pytest

from mollmc.continuity import ModulusSpec
from mollmc.potentials import (
    FiniteSumPotential,
    PotentialSpec,
    builtin,
    check_assumptions,
    check_finite_sum,
)
from mollmc.samplers import SphericalSmoothed, ss_gradient_batch

from conftest import scaled_quadratic_sum


class TestQuadratic:
    def test_gradient_and_dissipativity(self):
        p = builtin("quadratic", 2)
        x = np.array([1.0, 1.0])
        assert np.array_equal(p.weak_grad(x), x)
        assert x @ p.weak_grad(x) == pytest.approx(float(x @ x))
        assert (p.m, p.b) == (1.0, 0.0)

    def test_constants(self):
        p = builtin("quadratic", 3)
        assert p.u0 == 0.5
        assert p.grad_at_zero == 0.0
        assert p.modulus.eval(1.0) == 1.0

    def test_rejects_parameters(self):
        with pytest.raises(ValueError):
            builtin("quadratic", 1, c=2.0)


class TestBuiltinGradients:
    @pytest.mark.parametrize(
        "name,params,away",
        [
            ("quadratic", {}, 0.0),
            ("double_well", {"c": 1.5}, 0.0),
            ("hoelder_mix", {"alpha": 0.5}, 1e-3),
            ("elastic_net_logistic", {}, 1e-3),
        ],
    )
    def test_matches_finite_differences(self, name, params, away, rng):
        p = builtin(name, 2, **params)
        pts = rng.uniform(-2, 2, size=(100, 2))
        if away:
            s = np.sign(pts)
            s[s == 0] = 1.0
            pts = s * np.maximum(np.abs(pts), away + 1e-3)
        h = 1e-6
        for x in pts:
            g = np.asarray(p.weak_grad(x))
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = (float(p.value(x + e)) - float(p.value(x - e))) / (2 * h)
                assert abs(g[j] - fd) < 1e-5


class TestHoelderMix:
    def test_modulus_on_sampled_pairs(self):
        p = builtin("hoelder_mix", 1, alpha=0.5)
        r = np.random.default_rng(5)
        x = r.uniform(-30, 30, size=(10_000, 1))
        steps = r.uniform(1e-4, 3.0, size=10_000)
        y = x + steps[:, None] * r.choice([-1.0, 1.0], size=(10_000, 1))
        fluct = np.abs(p.weak_grad(x) - p.weak_grad(y))[:, 0]
        allowed = np.array([p.modulus.eval(s) for s in steps])
        assert np.all(fluct <= allowed)

    def test_quadratic_lower_bound_on_radial_grid(self):
        # the dissipativity constants (1, 0) imply U >= |x|^2 / 3
        p = builtin("hoelder_mix", 1, alpha=0.5)
        xs = np.linspace(-10, 10, 2001)[:, None]
        assert np.all(p.value(xs) >= p.m / 3.0 * xs[:, 0] ** 2 - 1e-12)

    def test_u0_matches_grid_maximum(self):
        for d in (1, 2, 3):
            p = builtin("hoelder_mix", d, alpha=0.5)
            rng = np.random.default_rng(d)
            dirs = rng.standard_normal((4000, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            radii = np.linspace(0.01, 1.0, 50)
            vals = p.value((radii[:, None, None] * dirs[None, :, :]).reshape(-1, d))
            assert vals.max() <= p.u0 + 1e-9
            assert vals.max() >= 0.9 * p.u0  # the declared sup is not wildly loose

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            builtin("hoelder_mix", 1, alpha=1.5)
        with pytest.raises(ValueError):
            builtin("hoelder_mix", 1, alpha=0.0)


class TestElasticNet:
    def test_sign_zero_convention(self):
        p = builtin("elastic_net_logistic", 2, lam1=0.3, lam2=1.0)
        g0 = np.asarray(p.weak_grad(np.zeros(2)))
        # at the origin the l1 term contributes nothing: sign(0) = 0
        assert np.allclose(g0, [-0.25, -0.25])

    def test_dissipativity_on_grid(self):
        p = builtin("elastic_net_logistic", 1, lam1=0.1, lam2=1.0)
        xs = np.linspace(-50, 50, 40_001)[:, None]
        inner = np.einsum("ij,ij->i", xs, p.weak_grad(xs))
        assert np.all(inner >= p.m * xs[:, 0] ** 2 - p.b - 1e-12)

    @pytest.mark.parametrize("d,want", [
        (1, [0.20109622504486496, 0.30962250448649375, 0.7481125224324687,
             1.2962250448649375, 109.82250448649376]),
        (10, [0.633551757078541, 0.7420780365201698, 1.1805680544661448,
              1.7286805768986135, 110.25496001852743]),
    ])
    def test_modulus_pinned(self, d, want):
        # 2 lam1 sqrt(d) + (lam2 + max|d sig_prod|) r, frozen from the
        # two-knot table that described it before
        m = builtin("elastic_net_logistic", d).modulus
        assert [m.eval(r) for r in (1e-3, 0.1, 0.5, 1.0, 100.0)] == want

    def test_value_nonnegative_and_u0(self):
        p = builtin("elastic_net_logistic", 2)
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((500, 2))
        assert np.all(p.value(pts) >= 0.0)
        ball = pts / np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1.0)
        assert np.all(p.value(ball) <= p.u0 + 1e-9)


class TestCheckAssumptions:
    @pytest.mark.parametrize("d", [1, 2, 5, 10])
    def test_quadratic_passes(self, d):
        rep = check_assumptions(builtin("quadratic", d), rng=np.random.default_rng(d))
        assert rep.passed
        assert all(item.margin >= -1e-9 for item in rep.items)

    def test_falsified_m_fails_dissipativity(self):
        good = builtin("quadratic", 2)
        bad = PotentialSpec(
            name="bad",
            dim=2,
            value=good.value,
            weak_grad=good.weak_grad,
            m=2.0,
            b=0.0,
            modulus=good.modulus,
            grad_at_zero=0.0,
            u0=0.5,
        )
        rep = check_assumptions(bad, rng=np.random.default_rng(0))
        item = next(i for i in rep.items if i.name == "dissipativity")
        assert not item.passed
        assert item.margin < 0

    def test_double_well_modulus_honestly_flagged(self):
        rep = check_assumptions(builtin("double_well", 2, c=1.0), rng=np.random.default_rng(1))
        item = next(i for i in rep.items if i.name == "gradient_modulus")
        assert not item.passed  # cubic growth defeats any global modulus
        for other in rep.items:
            if other.name != "gradient_modulus":
                assert other.passed

    def test_report_serializes(self):
        rep = check_assumptions(builtin("quadratic", 1), n_samples=100)
        d = rep.to_dict()
        assert d["passed"] and len(d["items"]) == 6

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    @pytest.mark.parametrize(
        "name,params",
        [("quadratic", {}), ("double_well", {"c": 1.0}), ("hoelder_mix", {"alpha": 0.5}),
         ("hoelder_mix", {"alpha": 0.35}), ("elastic_net_logistic", {})],
    )
    def test_builtins_declare_grad_at_zero_and_u0(self, name, params, d):
        rep = check_assumptions(builtin(name, d, **params), rng=np.random.default_rng(d))
        assert [item.name for item in rep.items][4:] == ["grad_at_zero", "u0"]
        assert all(item.passed for item in rep.items[4:]), rep.to_dict()

    @pytest.mark.parametrize(
        "p,failing",
        [
            (dataclasses.replace(builtin("hoelder_mix", 1, alpha=0.5),
                                 u0=0.5 * builtin("hoelder_mix", 1, alpha=0.5).u0), "u0"),
            (dataclasses.replace(builtin("elastic_net_logistic", 2), grad_at_zero=0.0),
             "grad_at_zero"),
        ],
        ids=["hoelder_mix-halved-u0", "elastic_net-zero-grad_at_zero"],
    )
    def test_understated_constant_fails_its_item(self, p, failing):
        rep = check_assumptions(p, rng=np.random.default_rng(0))
        assert [item.name for item in rep.items if not item.passed] == [failing]
        (item,) = [item for item in rep.items if item.name == failing]
        assert item.margin < 0

    @pytest.mark.parametrize("check,target", [
        (check_assumptions, builtin("quadratic", 1)),
        (check_finite_sum, FiniteSumPotential.equal_split(builtin("quadratic", 1), 2)),
    ], ids=["check_assumptions", "check_finite_sum"])
    def test_needs_a_sample(self, check, target):
        with pytest.raises(ValueError, match="n_samples"):
            check(target, n_samples=0)


class TestSmoothedGradientSymmetry:
    def test_quadratic_mollified_gradient_unbiased(self):
        # kernel symmetry: E grad U(x + r z) = grad U(x) for linear gradients
        p = builtin("quadratic", 2)
        orc = SphericalSmoothed(p, r=0.8, n_batch=1)
        x = np.array([0.3, -1.1])
        draws = ss_gradient_batch(orc, x, 50_000, np.random.default_rng(8))
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - x) <= 3 * se)


class TestFiniteSum:
    def test_equal_split_reconstructs_total(self, rng):
        p = builtin("hoelder_mix", 2, alpha=0.5)
        f = FiniteSumPotential.equal_split(p, 8)
        pts = rng.standard_normal((20, 2))
        assert np.allclose(f.total_value(pts), p.value(pts), rtol=1e-12)
        assert np.allclose(f.total_grad(pts), p.weak_grad(pts), rtol=1e-12)

    @pytest.mark.parametrize(
        "name,d,n,params",
        [("hoelder_mix", 1, 8, {"alpha": 0.5}), ("elastic_net_logistic", 10, 100, {})],
    )
    def test_split_passes_checks(self, name, d, n, params):
        f = FiniteSumPotential.equal_split(builtin(name, d, **params), n)
        rep = check_finite_sum(f, rng=np.random.default_rng(2))
        assert rep.passed, rep.to_dict()

    @pytest.mark.parametrize("seed", [None, 2])
    def test_double_well_split_fails_component_modulus(self, seed):
        # the cubic gradient growth shows only at large radii, so the pairs
        # must be drawn from the whole radial grid, as check_assumptions does
        f = FiniteSumPotential.equal_split(builtin("double_well", 2, c=1.0), 4)
        rng = None if seed is None else np.random.default_rng(seed)
        rep = check_finite_sum(f, rng=rng)
        assert [item.name for item in rep.items if not item.passed] == [
            "component_gradient_modulus"
        ]

    def test_distinct_components_totals(self, rng):
        f = scaled_quadratic_sum([0.5, 1.0, 2.5])
        pts = rng.standard_normal((20, 2))
        assert np.allclose(f.total_grad(pts), 4.0 * pts, rtol=1e-14)
        assert np.allclose(f.total_value(pts), 2.0 * np.sum(pts**2, axis=1), rtol=1e-14)
        assert np.allclose(f.total_grad(pts[0]), 4.0 * pts[0], rtol=1e-14)

    def test_component_modulus_checked_per_component(self):
        # omega_hat / n must cover the steepest component, not the average one
        f = scaled_quadratic_sum([0.5, 1.0, 2.5])
        assert check_finite_sum(f, rng=np.random.default_rng(3)).passed
        loose = dataclasses.replace(f, omega_hat=ModulusSpec.lipschitz(4.0))
        rep = check_finite_sum(loose, rng=np.random.default_rng(3))
        (item,) = [it for it in rep.items if it.name == "component_gradient_modulus"]
        assert not item.passed

    @pytest.mark.parametrize("n", [0, 2.5])
    def test_needs_positive_integer_count(self, n):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            FiniteSumPotential.equal_split(builtin("quadratic", 1), n)


@pytest.mark.parametrize(
    "make",
    [
        lambda: builtin("double_well", 2, c=math.nan),
        lambda: builtin("double_well", 2, c=math.inf),
        lambda: builtin("elastic_net_logistic", 2, lam1=math.nan),
        lambda: builtin("elastic_net_logistic", 2, lam2=math.nan),
        lambda: dataclasses.replace(builtin("quadratic", 2), m=math.nan),
        lambda: dataclasses.replace(builtin("quadratic", 2), b=math.inf),
    ],
    ids=["double_well-c-nan", "double_well-c-inf", "elastic_net-lam1-nan",
         "elastic_net-lam2-nan", "spec-m-nan", "spec-b-inf"],
)
def test_non_finite_constants_are_rejected(make):
    with pytest.raises(ValueError):
        make()


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin("mystery", 2)
