import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mollmc.continuity import ModulusSpec
from mollmc.mollifier import density, sample

from conftest import gl_interval


class TestEval:
    def test_hoelder_examples(self):
        m = ModulusSpec.hoelder(2.0, 0.5)
        assert m.eval(0.25) == pytest.approx(1.0, abs=1e-15)
        assert m.eval(4.0) == pytest.approx(8.0, abs=1e-15)

    def test_lipschitz_example(self):
        assert ModulusSpec.lipschitz(3.0).eval(0.1) == pytest.approx(0.3, abs=1e-15)

    def test_jump_adds_at_every_scale(self):
        m = ModulusSpec.lipschitz(3.0, jump=0.5)
        assert m.eval(0.1) == pytest.approx(0.8, abs=1e-15)
        assert m.eval(1e-12) == pytest.approx(0.5, abs=1e-11)
        assert ModulusSpec.hoelder(2.0, 0.5, jump=1.0).eval(4.0) == pytest.approx(9.0, abs=1e-15)

    def test_invalid_argument(self):
        m = ModulusSpec.lipschitz(1.0)
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                m.eval(bad)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            ModulusSpec.hoelder(1.0, 0.0)
        with pytest.raises(ValueError):
            ModulusSpec.hoelder(1.0, 1.2)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ModulusSpec.hoelder(math.nan, 0.5),
            lambda: ModulusSpec.lipschitz(math.nan),
            lambda: ModulusSpec.lipschitz(math.inf),
            lambda: ModulusSpec.lipschitz(1.0, jump=-0.1),
            lambda: ModulusSpec.lipschitz(1.0, jump=math.nan),
            lambda: ModulusSpec.hoelder(1.0, 0.5, jump=math.inf),
        ],
        ids=["hoelder-nan", "lipschitz-nan", "lipschitz-inf", "jump-negative", "jump-nan",
             "jump-inf"],
    )
    def test_non_finite_constants_are_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize(
        "spec",
        [ModulusSpec.hoelder(2.0, 0.4), ModulusSpec.hoelder(1.0, 1.0), ModulusSpec.lipschitz(3.0),
         ModulusSpec.hoelder(0.5, 0.3, jump=2.0)],
    )
    def test_subadditive_scaling_grid(self, spec):
        # omega(t r) <= ceil(t) omega(r)
        for r in (0.1, 0.5, 1.0):
            for t in np.geomspace(0.01, 100.0, 41):
                assert spec.eval(t * r) <= math.ceil(t) * spec.eval(r) + 1e-12


@st.composite
def _specs(draw):
    """Hoelder moduli with a jump, which is often 0."""
    jump = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
    return ModulusSpec.hoelder(draw(st.floats(1e-3, 10.0)), draw(st.floats(0.01, 1.0)), jump)


_radii = st.floats(1e-6, 100.0)


class TestProperties:
    @given(_specs(), _radii, _radii)
    def test_nondecreasing(self, m, r, s):
        lo, hi = min(r, s), max(r, s)
        assert m.eval(lo) <= m.eval(hi)

    @given(_specs(), _radii, st.floats(1e-3, 1e3))
    def test_subadditive_scaling(self, m, r, t):
        # omega(t r) <= ceil(t) omega(r), up to the rounding of both sides
        assert m.eval(t * r) <= math.ceil(t) * m.eval(r) * (1.0 + 1e-12)


def test_linear_map_smoothing_is_exact():
    # a symmetric kernel leaves linear maps unchanged: |x*rho_r - x| -> 0
    draws = 0.5 * sample(1, np.random.default_rng(0), size=200_000)
    est = draws.mean()
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(est) <= 4 * se


def _convolved_sin(x, r, nodes=400):
    # (sin * rho_r)(x) by quadrature over the kernel support, with
    # rho_r(y) = rho(y / r) / r
    return gl_interval(
        lambda y: np.sin(x - y) * density(y[:, None] / r, 1) / r, -r, r, nodes
    )


class TestAgainstSine:
    """sin has |phi(0)| = 0 and a 1-Lipschitz derivative: a concrete function
    where every abstract bound can be checked numerically."""

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_smoothing_error_within_modulus(self, r):
        spec = ModulusSpec.lipschitz(1.0)
        grid = np.linspace(-3.0, 3.0, 61)
        worst = max(abs(_convolved_sin(x, r) - math.sin(x)) for x in grid)
        # the smoothing bias ExactGradient.delta declares is omega(r) itself
        assert worst <= spec.eval(r) + 1e-9

    def test_convolved_gradient_dominated(self):
        # the Lipschitz constant lambda = (d + 4) omega(r) / r of log_sobolev_bound
        r, d = 0.5, 1
        bound = (d + 4) * ModulusSpec.lipschitz(1.0).eval(r) / r
        grid = np.linspace(-3.0, 3.0, 31)
        h = 1e-5
        worst = max(
            abs(_convolved_sin(x + h, r) - _convolved_sin(x - h, r)) / (2 * h) for x in grid
        )
        assert worst <= bound
