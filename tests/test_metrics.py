import math
import sys

import numpy as np
import pytest

from mollmc.metrics import (
    SampleSet,
    moment_report,
    w2_1d,
    w2_exact,
    w2_sliced,
)
from mollmc.potentials import builtin
from mollmc.samplers import ChainConfig, ExactGradient, run

from conftest import w2_brute


def _sets(rng, n, d):
    return SampleSet(rng.standard_normal((n, d))), SampleSet(rng.standard_normal((n, d)))


class TestExact:
    def test_missing_scipy_names_the_extra(self, rng, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)
        a = SampleSet(rng.standard_normal((4, 2)))
        with pytest.raises(ImportError, match=r"mollmc\[exact\]"):
            w2_exact(a, a)

    def test_identity(self, rng):
        a = SampleSet(rng.standard_normal((16, 3)))
        assert w2_exact(a, a) == 0.0

    def test_two_point_example(self):
        a = SampleSet(np.array([[0.0], [1.0]]))
        b = SampleSet(np.array([[1.0], [2.0]]))
        # both 2-permutations enumerated: monotone matching wins with cost 1
        assert w2_exact(a, b) == pytest.approx(1.0, abs=1e-15)
        assert w2_brute(a.points, b.points) == pytest.approx(1.0, abs=1e-15)

    def test_against_enumeration(self, rng):
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 4))
            a, b = _sets(rng, n, d)
            worst = max(worst, abs(w2_exact(a, b) - w2_brute(a.points, b.points)))
        assert worst <= 1e-12

    def test_translation(self, rng):
        base = SampleSet(rng.standard_normal((4, 2)))
        for shift in (-1.5, 0.25, 3.0):
            c = np.array([shift, 0.0])
            val = w2_exact(base, SampleSet(base.points + c))
            assert val == pytest.approx(abs(shift), abs=1e-10)
            assert w2_brute(base.points, base.points + c) == pytest.approx(
                abs(shift), abs=1e-10
            )

    def test_symmetry_and_triangle(self, rng):
        for _ in range(20):
            a, b = _sets(rng, 6, 2)
            c = SampleSet(rng.standard_normal((6, 2)))
            dab, dba = w2_exact(a, b), w2_exact(b, a)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert w2_exact(a, c) <= dab + w2_exact(b, c) + 1e-12

    def test_scale_equivariance(self, rng):
        a, b = _sets(rng, 12, 3)
        base = w2_exact(a, b)
        for c in (0.5, 2.0, 7.0):
            scaled = w2_exact(SampleSet(c * a.points), SampleSet(c * b.points))
            assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_size_mismatch(self, rng):
        with pytest.raises(ValueError):
            w2_exact(SampleSet(rng.standard_normal((3, 1))), SampleSet(rng.standard_normal((4, 1))))

    def test_budget(self, rng):
        big = SampleSet(rng.standard_normal((600, 1)))
        with pytest.raises(ValueError):
            w2_exact(big, big)


class TestSorted1D:
    def test_matches_exact(self, rng):
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 9))
            a, b = _sets(rng, n, 1)
            worst = max(worst, abs(w2_1d(a, b) - w2_exact(a, b)))
        assert worst <= 1e-12

    def test_shuffle_invariance(self, rng):
        a = SampleSet(rng.standard_normal((50, 1)))
        shuffled = SampleSet(a.points[rng.permutation(50)])
        assert w2_1d(a, shuffled) == 0.0

    def test_requires_dimension_one(self, rng):
        a, b = _sets(rng, 8, 2)
        with pytest.raises(ValueError):
            w2_1d(a, b)


class TestSliced:
    def test_identity(self, rng):
        a = SampleSet(rng.standard_normal((100, 4)))
        assert w2_sliced(a, a, 16, rng) == 0.0

    def test_d1_reduces_to_sorted(self, rng):
        a, b = _sets(rng, 64, 1)
        val = w2_sliced(a, b, 1, np.random.default_rng(0))
        assert val == pytest.approx(w2_1d(a, b), abs=1e-12)

    def test_never_exceeds_exact(self, rng):
        for _ in range(10):
            a, b = _sets(rng, 32, 3)
            assert w2_sliced(a, b, 64, rng) <= w2_exact(a, b) + 1e-12

    def test_gaussian_scale_gap(self):
        # N(0, I) vs N(0, 4 I) in d=2: every projection is N(0,1) vs N(0,4),
        # whose 1-D distance is |sigma1 - sigma2| = 1 exactly
        rng = np.random.default_rng(21)
        a = SampleSet(rng.standard_normal((10_000, 2)))
        b = SampleSet(2.0 * rng.standard_normal((10_000, 2)))
        val = w2_sliced(a, b, 128, rng)
        assert abs(val - 1.0) <= 0.1


class TestMomentReport:
    def test_constant_trace(self):
        cfg = ChainConfig(beta=1.0, eta=0.1, k=10, seed=0)
        t = run(ExactGradient(builtin("quadratic", 1)), cfg)
        t.iterates = np.zeros_like(t.iterates)
        rep = moment_report(t, burn_in=0)
        assert rep["second_moment"] == 0.0
        assert rep["max_norm"] == 0.0

    def test_quadratic_chain_moment(self):
        beta, eta = 1.0, 0.05
        cfg = ChainConfig(beta=beta, eta=eta, k=400_000, seed=2)
        t = run(ExactGradient(builtin("quadratic", 1)), cfg)
        rep = moment_report(t, m=1.0)
        target = 2.0 / (beta * (2.0 - eta))
        # naive se understates autocorrelated error by ~sqrt(2/eta); use the
        # corrected scale for the 3-sigma band
        se = rep["second_moment_se"] * math.sqrt(2.0 / eta)
        assert abs(rep["second_moment"] - target) <= 3 * se
        assert rep["exp_moment_alpha"] == pytest.approx(0.25)
        assert math.isfinite(rep["exp_moment"])

    def test_burn_in_bounds(self):
        cfg = ChainConfig(beta=1.0, eta=0.1, k=10, seed=0)
        t = run(ExactGradient(builtin("quadratic", 1)), cfg)
        with pytest.raises(ValueError):
            moment_report(t, burn_in=t.n_recorded)


class TestSampleSet:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SampleSet(np.array([[math.nan]]))

    def test_from_trace_burn_in(self):
        cfg = ChainConfig(beta=1.0, eta=0.1, k=9, seed=0)
        t = run(ExactGradient(builtin("quadratic", 1)), cfg)
        s = SampleSet.from_trace(t)
        assert s.n == 5
        s_all = SampleSet.from_trace(t, burn_in=0)
        assert s_all.n == 10

    def test_one_dim_vector_promoted(self):
        s = SampleSet(np.array([1.0, 2.0, 3.0]))
        assert s.points.shape == (3, 1)
