import math

import numpy as np
import pytest
from scipy import stats

from mollmc import mollifier
from mollmc.mollifier import density, grad_density, grad_l1_norm, sample

from conftest import gl_tensor


class TestDensity:
    def test_peak_d1(self):
        # oracle: int_{-1}^{1} (1-x^2)^3 dx = 32/35 by polynomial quadrature
        poly_int = gl_interval_poly()
        assert abs(poly_int - 32.0 / 35.0) < 1e-14
        assert density(0.0, 1) == pytest.approx(35.0 / 32.0, abs=1e-12)

    def test_boundary_and_outside(self):
        assert density(1.0, 1) == 0.0
        assert density(2.0, 1) == 0.0
        assert density(-1.0, 1) == 0.0

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            density(math.nan, 1)
        with pytest.raises(ValueError):
            grad_density(math.inf, 1)

    @pytest.mark.parametrize("d,r", [(1, 1.0), (2, 1.0), (3, 1.0), (1, 0.5)],
                             ids=["1", "2", "3", "1-r0.5"])
    def test_normalization_quadrature(self, d, r):
        # rho_r(y) = rho(y / r) / r^d
        nodes = {1: 220, 2: 150, 3: 110}[d]
        val = gl_tensor(lambda p: density(p / r, d) / r**d, d, nodes)
        assert abs(val - 1.0) < 1e-6


class TestGradient:
    def test_zero_at_boundary_and_origin(self):
        assert grad_density(1.0, 1)[0] == 0.0
        assert grad_density(0.0, 1)[0] == 0.0

    def test_value_at_half(self):
        # closed form 35/32 * (-6) * (1 - 0.25)^2 * 0.5
        got = grad_density(0.5, 1)[0]
        assert got == pytest.approx(-1.845703125, abs=1e-12)
        # independent route: central finite difference of the density
        h = 1e-6
        fd = (density(0.5 + h, 1) - density(0.5 - h, 1)) / (2 * h)
        assert got == pytest.approx(fd, abs=1e-7)

    def test_matches_finite_differences(self, rng):
        # at radius r: rho_r(y) = rho(y / r) / r^d, grad rho_r(y) = grad rho(y / r) / r^(d+1)
        r = 0.9
        pts = rng.uniform(-0.5, 0.5, size=(100, 3))
        h = 1e-6
        for x in pts:
            g = grad_density(x / r, 3) / r**4
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd = (density((x + e) / r, 3) - density((x - e) / r, 3)) / r**3 / (2 * h)
                assert abs(g[j] - fd) < 1e-6

    def test_continuous_across_support_boundary(self):
        e = np.array([0.6, 0.8])
        inner = np.linalg.norm(grad_density((1 - 1e-9) * e, 2))
        outer = np.linalg.norm(grad_density((1 + 1e-9) * e, 2))
        assert abs(inner - outer) < 1e-8


class TestGradL1Norm:
    def test_closed_form_values(self):
        assert grad_l1_norm(1) == pytest.approx(105.0 / 48.0, abs=1e-15)
        assert grad_l1_norm(2) == pytest.approx(384.0 / 105.0, rel=1e-15)

    @pytest.mark.parametrize("d,nodes", [(1, 4000), (2, 150), (3, 110)])
    def test_quadrature_matches(self, d, nodes):
        val = gl_tensor(lambda p: np.linalg.norm(grad_density(p, d), axis=1), d, nodes)
        assert abs(val - grad_l1_norm(d)) < 1e-4

    def test_bounds_up_to_100(self):
        for d in range(1, 101):
            assert d <= grad_l1_norm(d) <= d + 4

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            grad_l1_norm(0)


class TestSampler:
    def test_support(self, rng):
        # draws at radius r are r times unit draws
        z = 0.7 * sample(3, rng, size=100_000)
        assert np.all(np.linalg.norm(z, axis=1) <= 0.7)

    def test_deterministic_given_seed(self):
        a = sample(4, np.random.default_rng(99), size=1000)
        b = sample(4, np.random.default_rng(99), size=1000)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_second_moment(self, d):
        z = sample(d, np.random.default_rng(500 + d), size=100_000)
        sq = np.sum(z * z, axis=1)
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - d / (d + 8)) <= 3 * se

    def test_squared_radius_is_beta(self):
        # the squared radius of a unit draw has the Beta(d/2, 4) law; the
        # regularized incomplete beta function is the CDF oracle
        z = sample(1, np.random.default_rng(7), size=100_000)
        res = stats.kstest(np.sum(z * z, axis=1), "beta", args=(0.5, 4.0))
        assert res.pvalue >= 0.01

    def test_single_draw_shape(self, rng):
        z = sample(5, rng)
        assert z.shape == (5,)

    @pytest.mark.parametrize("d", [1, 2, 3, 10, 17])
    @pytest.mark.parametrize("rows", [None, -1, 0, 1], ids=["single", "scratch-1", "scratch",
                                                           "scratch+1"])
    def test_in_place_draw_has_the_bits_of_the_formula(self, d, rows):
        # sample normalises and scales in place and squares its rows a scratch
        # array at a time; the reference is the whole-array formula it replaced,
        # scaled as the smoothing oracles scale draws to radius r
        size = None if rows is None else mollifier._NORM_ROWS + rows
        r = 0.3
        rng, replay = np.random.default_rng(1000 + d), np.random.default_rng(1000 + d)
        g = replay.standard_normal((1 if size is None else size, d))
        b = replay.beta(0.5 * d, 4.0, size=len(g))
        ref = r * (g / np.linalg.norm(g, axis=1)[:, None] * np.sqrt(b)[:, None])
        if size is None:
            ref = ref[0]
        z = r * sample(d, rng, size=size)
        assert z.shape == ref.shape and z.tobytes() == ref.tobytes()
        assert rng.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("d", [1, 2, 10])
    @pytest.mark.parametrize("size", [1, 7, 65_536])
    def test_out_has_the_bits_and_stream_of_the_allocating_draw(self, d, size):
        rng, replay = np.random.default_rng(2000 + d), np.random.default_rng(2000 + d)
        out = np.empty((size, d))
        assert sample(d, rng, size=size, out=out) is out
        assert out.tobytes() == sample(d, replay, size=size).tobytes()
        assert rng.standard_normal() == replay.standard_normal()

    @pytest.mark.parametrize("shape", [(6, 2), (7, 3), (14,), (7, 2, 1)])
    def test_out_of_the_wrong_shape_consumes_nothing(self, shape):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="out"):
            sample(2, rng, size=7, out=np.empty(shape))
        assert rng.bit_generator.state == state

    def test_numpy_rejects_other_out_arrays(self):
        rng = np.random.default_rng(3)
        with pytest.raises(TypeError):
            sample(2, rng, size=7, out=np.empty((7, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            sample(2, rng, size=7, out=np.empty((7, 4))[:, ::2])


def gl_interval_poly():
    x, w = np.polynomial.legendre.leggauss(16)
    return float(np.sum(w * (1 - x**2) ** 3))


class TestValidation:
    @pytest.mark.parametrize("d,size,name", [(0, 5, "d"), (1.5, 5, "d"), (2, 0, "size"),
                                             (2, 2.5, "size"), (2, 2.0, "size")])
    def test_counts_must_be_positive_integers(self, d, size, name):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            sample(d, rng, size=size)
        assert rng.bit_generator.state == state

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            density(np.array([1.0, 2.0, 3.0]), 2)
