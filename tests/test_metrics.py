import math

import numpy as np
import pytest

from mollmc import metrics
from mollmc.metrics import law_w2, moment_report
from mollmc.potentials import FiniteSumPotential, builtin
from mollmc.samplers import ChainConfig, ExactGradient, FiniteSumSpherical, SphericalSmoothed, run

from conftest import scaled_quadratic_sum

HOELDER = builtin("hoelder_mix", 1, alpha=0.5)


def _grid_law(oracle, cfg):
    """The grid and the chain's 1-D density on it after ``cfg.k`` steps."""
    t, transition, _ = metrics._law_grid(oracle, cfg)
    law = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    for _ in range(cfg.k):
        law = transition @ law
    return t, law


class TestLawW2:
    @pytest.mark.parametrize("d", [1, 2])
    def test_quadratic_matches_the_variance_recursion(self, d):
        # Law(Y_k) = N(0, v_k I) with v_{k+1} = (1 - eta)^2 v_k + 2 eta / beta,
        # and W2 between centred isotropic Gaussians is sqrt(d) |sqrt(v) - sqrt(v')|
        beta, eta = 1.0, 0.05
        w2 = law_w2(ExactGradient(builtin("quadratic", d)),
                    ChainConfig(beta, eta, 1000, record_stride=10))
        assert len(w2) == 101
        v = 1.0
        for k in range(1, 1001):
            v = (1.0 - eta) ** 2 * v + 2.0 * eta / beta
            if k in (10, 100, 1000):
                exact = math.sqrt(d) * abs(math.sqrt(v) - 1.0 / math.sqrt(beta))
                assert w2[k // 10] == pytest.approx(exact, rel=1e-3)

    def test_hoelder_reference_values(self):
        # W2_1 of LMC on hoelder_mix at alpha = 0.5, beta = 1, eta = 0.05, from a
        # dense transition on a 4,001-point grid over [-10, 10]
        w2 = law_w2(ExactGradient(HOELDER), ChainConfig(1.0, 0.05, 400, record_stride=10))
        assert w2[[1, 5, 40]] == pytest.approx([0.0733, 0.0214, 0.0213], rel=0.02)

    def test_smoothed_quadratic_follows_its_variance_recursion(self):
        # on |x|^2/2 the oracle is Y + r zeta, and E zeta^2 = E Beta(1/2, 4) = 1/9
        # at d = 1, so v_{k+1} = (1 - eta)^2 v_k + (eta r)^2 / 9 + 2 eta / beta
        beta, eta, r = 1.0, 0.5, 1.0
        oracle = SphericalSmoothed(builtin("quadratic", 1), r=r)
        t, law = _grid_law(oracle, ChainConfig(beta, eta, 20))
        v = 1.0
        for _ in range(20):
            v = (1.0 - eta) ** 2 * v + (eta * r) ** 2 / 9.0 + 2.0 * eta / beta
        assert (t[1] - t[0]) * np.sum(t * t * law) == pytest.approx(v, rel=1e-10)

    def test_equal_split_has_the_smoothed_law(self):
        cfg = ChainConfig(1.0, 0.05, 30)
        split = FiniteSumSpherical(FiniteSumPotential.equal_split(HOELDER, 4), r=0.5)
        assert np.array_equal(law_w2(split, cfg), law_w2(SphericalSmoothed(HOELDER, r=0.5), cfg))

    @pytest.mark.parametrize("oracle", [ExactGradient(HOELDER), SphericalSmoothed(HOELDER, r=0.5)],
                             ids=["lmc", "ss_lmc"])
    def test_mass_is_conserved(self, oracle):
        t, law = _grid_law(oracle, ChainConfig(1.0, 0.05, 1000))
        assert abs((t[1] - t[0]) * law.sum() - 1.0) <= 1e-11

    @pytest.mark.parametrize(
        "oracle,refined",
        [
            (ExactGradient(HOELDER), {"LAW_SPACING": 0.5, "LAW_RESOLUTION": 0.5, "LAW_BOX": 1.5}),
            (SphericalSmoothed(HOELDER, r=0.5),
             {"LAW_SPACING": 0.5, "LAW_RESOLUTION": 0.5, "LAW_BOX": 1.5}),
            (SphericalSmoothed(HOELDER, r=0.5), {"LAW_NODES": 2}),
        ],
        ids=["lmc_grid", "ss_lmc_grid", "ss_lmc_nodes"],
    )
    def test_refinement_moves_w2_by_under_1e_3(self, oracle, refined, monkeypatch):
        # half the spacing and a 1.5 times wider box, or twice the nodes
        cfg = ChainConfig(1.0, 0.05, 50, record_stride=5)
        base = law_w2(oracle, cfg)
        for name, factor in refined.items():
            monkeypatch.setattr(metrics, name, getattr(metrics, name) * factor)
        assert law_w2(oracle, cfg) == pytest.approx(base, rel=1e-3)

    @pytest.mark.parametrize(
        "oracle",
        [ExactGradient(builtin("hoelder_mix", 2, alpha=0.5)), SphericalSmoothed(HOELDER, r=0.5)],
        ids=["lmc_d2", "ss_lmc_d1"],
    )
    def test_lockstep_ensemble_within_dkw_band(self, oracle):
        # every coordinate of every chain is an independent draw of the 1-D
        # law, so the empirical CDF of all of them is within the DKW band of
        # the grid's with probability 1 - 1e-3
        cfg = ChainConfig(1.0, 0.05, 20)
        t, law = _grid_law(oracle, cfg)
        traces = run(oracle, cfg, range(2000))
        x = np.sort(np.concatenate([tr.iterates[-1] for tr in traces]))
        band = math.sqrt(math.log(2.0 / 1e-3) / (2 * x.size))

        def ks(dens):
            cdf = np.interp(x, t, metrics._cdf(dens))
            upper = np.arange(1, x.size + 1) / x.size
            return max(np.max(upper - cdf), np.max(cdf - upper + 1.0 / x.size))

        assert ks(law) <= band
        assert ks(np.exp(-0.5 * t * t)) > band  # the test tells the start from step 20

    @pytest.mark.parametrize(
        "oracle,cfg",
        [
            (ExactGradient(builtin("double_well", 1)), ChainConfig(1.0, 0.05, 10)),
            (SphericalSmoothed(builtin("quadratic", 2), r=0.5), ChainConfig(1.0, 0.05, 10)),
            (SphericalSmoothed(HOELDER, r=0.5, n_batch=2), ChainConfig(1.0, 0.05, 10)),
            (ExactGradient(HOELDER), ChainConfig(1.0, 0.05, 10, x0=(0.0,))),
            (FiniteSumSpherical(scaled_quadratic_sum([1.0, 2.0], d=1), r=0.5),
             ChainConfig(1.0, 0.05, 10)),
            (ExactGradient(HOELDER), ChainConfig(1.0, 1e-5, 10)),
        ],
        ids=["double_well", "smoothed_d2", "n_batch_2", "point_x0", "distinct_sum", "big_grid"],
    )
    def test_no_reference_is_none(self, oracle, cfg):
        assert law_w2(oracle, cfg) is None


class TestMomentReport:
    def test_constant_trace(self):
        cfg = ChainConfig(beta=1.0, eta=0.1, k=10)
        (t,) = run(ExactGradient(builtin("quadratic", 1)), cfg, [0])
        t.iterates = np.zeros_like(t.iterates)
        rep = moment_report(t, burn_in=0)
        assert rep["second_moment"] == 0.0
        assert rep["max_norm"] == 0.0

    def test_quadratic_chain_moment(self):
        beta, eta = 1.0, 0.05
        cfg = ChainConfig(beta=beta, eta=eta, k=400_000)
        (t,) = run(ExactGradient(builtin("quadratic", 1)), cfg, [2])
        rep = moment_report(t, m=1.0)
        target = 2.0 / (beta * (2.0 - eta))
        # naive se understates autocorrelated error by ~sqrt(2/eta); use the
        # corrected scale for the 3-sigma band
        se = rep["second_moment_se"] * math.sqrt(2.0 / eta)
        assert abs(rep["second_moment"] - target) <= 3 * se
        assert rep["exp_moment_alpha"] == pytest.approx(0.25)
        assert math.isfinite(rep["exp_moment"])

    @pytest.mark.parametrize("burn_in", [11, -1, 0.5, 2.0, 2.5])
    def test_burn_in_bounds(self, burn_in):
        cfg = ChainConfig(beta=1.0, eta=0.1, k=10)
        (t,) = run(ExactGradient(builtin("quadratic", 1)), cfg, [0])
        assert t.n_recorded == 11
        with pytest.raises(ValueError, match="burn_in must be"):
            moment_report(t, burn_in=burn_in)

    @pytest.mark.parametrize("m", [math.nan, 0.0, -1.0])
    def test_m_must_be_positive(self, m):
        # min(1.0, nan) is 1.0, so an unchecked NaN would report an exponent of 1
        (t,) = run(ExactGradient(builtin("quadratic", 1)), ChainConfig(1.0, 0.1, 10), [0])
        with pytest.raises(ValueError, match="m must be finite and positive"):
            moment_report(t, m=m)
