import dataclasses
import itertools
import json
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import integrate, stats

from mollmc import bounds
from mollmc.bounds import (
    BoundInputs,
    c_zero,
    eta_max,
    exp_moment_bound,
    gaussian_kappa0,
    gaussian_log_p0_sup,
    inputs_from,
    kappa_inf,
    kl_discretization,
    kl_initial,
    log_sobolev_bound,
    poincare_bound,
    theorem_bound,
)
from mollmc.cli import build_chain_config, build_oracle, validate_config
from mollmc.continuity import ModulusSpec
from mollmc.potentials import BUILTIN_NAMES, FiniteSumPotential, builtin
from mollmc.samplers import ExactGradient, FiniteSumSpherical, SphericalSmoothed

from conftest import scaled_quadratic_sum
import test_golden

LIP1 = ModulusSpec.lipschitz(1.0)


def make_inputs(**kw):
    base = dict(
        d=1, beta=1.0, m=1.0, b=0.0, m_tilde=1.0, b_tilde=0.0,
        kappa0=1.0, p0_sup_log=0.0, grad_u_mnorm=0.0, g_tilde_mnorm=1.0,
        omega_grad_u=LIP1, omega_g_tilde_one=1.0, u0=0.0, r=0.5,
    )
    base.update(kw)
    return BoundInputs(**base)


@st.composite
def _admissible(draw):
    """Bound inputs in moderate ranges and a step size below their ``eta_max``."""
    inputs = BoundInputs(
        d=draw(st.integers(1, 10)),
        beta=draw(st.floats(0.5, 2.0)),
        m=draw(st.floats(0.5, 4.0)),
        b=draw(st.floats(0.0, 2.0)),
        m_tilde=draw(st.floats(0.1, 4.0)),
        b_tilde=draw(st.floats(0.0, 2.0)),
        kappa0=draw(st.floats(0.0, 5.0)),
        p0_sup_log=draw(st.floats(-1.0, 2.0)),
        grad_u_mnorm=draw(st.floats(0.0, 0.5)),
        g_tilde_mnorm=draw(st.floats(0.1, 2.0)),
        omega_grad_u=ModulusSpec.hoelder(draw(st.floats(0.1, 2.0)), draw(st.floats(0.1, 1.0))),
        omega_g_tilde_one=draw(st.floats(0.0, 2.0)),
        u0=draw(st.floats(0.0, 2.0)),
        r=1.0,
        delta=tuple(draw(st.floats(0.0, 1.0)) for _ in range(4)),
    )
    return inputs, draw(st.floats(1e-6, 0.99)) * eta_max(inputs)


def _raise_delta(inputs, axis, step):
    delta = list(inputs.delta)
    delta[axis] += step
    return replace(inputs, delta=tuple(delta))


class TestKappaInf:
    def test_pinned_example(self):
        assert kappa_inf(make_inputs(), 0.1) == pytest.approx(3.2, abs=1e-14)

    def test_monotone_in_each_input(self):
        base = kappa_inf(make_inputs(), 0.1)
        assert kappa_inf(make_inputs(b_tilde=0.5), 0.1) > base
        assert kappa_inf(make_inputs(), 0.2) > base
        assert kappa_inf(make_inputs(delta=(0, 0, 0.5, 0)), 0.1) > base
        assert kappa_inf(make_inputs(d=2), 0.1) > base

    @given(_admissible(), st.floats(1e-3, 0.5))
    def test_increasing_in_each_input(self, case, step):
        inputs, eta = case
        base = kappa_inf(inputs, eta)
        assert kappa_inf(replace(inputs, b_tilde=inputs.b_tilde + step), eta) > base
        assert kappa_inf(inputs, eta + step * (eta_max(inputs) - eta)) > base
        assert kappa_inf(replace(inputs, d=inputs.d + 1), eta) > base
        for axis in range(4):
            raised = _raise_delta(inputs, axis, step)
            if eta < eta_max(raised):
                # only delta_v0 enters the sum; the others may not lower it
                value = kappa_inf(raised, eta)
                assert value > base if axis == 2 else value >= base

    def test_lever_factor(self):
        hi = make_inputs(m_tilde=2.0)
        lo = make_inputs(m_tilde=0.5)
        # (1 or 1/m_tilde) is 1 for m_tilde = 2 and 2 for m_tilde = 1/2
        assert kappa_inf(hi, 0.1) == pytest.approx(1.0 + 2.0 * 1.1)
        assert kappa_inf(lo, 0.1) == pytest.approx(1.0 + 4.0 * 1.1)

    def test_eta_out_of_range(self):
        inputs = make_inputs()
        assert eta_max(inputs) == 0.5
        with pytest.raises(ValueError):
            kappa_inf(inputs, 0.5)
        with pytest.raises(ValueError):
            kappa_inf(inputs, -0.1)


class TestPoincare:
    def test_pinned_18(self):
        assert poincare_bound(make_inputs()) == 18.0

    def test_doubling_a_doubles_second_summand(self):
        first = 2.0  # 4 / (m beta (d + (b+m) beta)) with the defaults
        base = poincare_bound(make_inputs())
        doubled = poincare_bound(make_inputs(a_abs=2.0))
        assert doubled - first == pytest.approx(2.0 * (base - first), rel=1e-14)

    def test_decreasing_in_m(self):
        vals = [
            poincare_bound(make_inputs(m=float(m), m_tilde=float(m)))
            for m in np.linspace(0.5, 4.0, 8)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_overflow_reported_as_inf_with_log(self):
        big = make_inputs(u0=2000.0)
        assert poincare_bound(big) == math.inf
        tb = theorem_bound(big, eta=0.1, k=10)
        # log(16) + 2000 at 40 digits, rounded once
        assert tb.c_p_bound == math.inf and tb.c_p_log == 2002.7725887222398
        assert "Poincare bound overflows float range; log value 2002.77" in tb.notes

    def test_finite_up_to_the_float_range(self):
        # the log bound is log(16) + 700 = 702.77, below log(max float) = 709.78
        inputs = make_inputs(u0=700.0)
        assert 1e305 < poincare_bound(inputs) < math.inf
        assert not theorem_bound(inputs, eta=0.1, k=10).notes


class TestLogSobolev:
    def test_pinned_example(self):
        assert log_sobolev_bound(make_inputs(r=1.0)) == pytest.approx(2356.4, abs=1e-9)

    def test_lipschitz_limit_behavior(self):
        # for a Lipschitz modulus omega(r)/r is constant: the first term is
        # flat in r, the middle term vanishes, the limit is finite
        inputs = make_inputs()
        vals = {r: log_sobolev_bound(replace(inputs, r=r)) for r in (1.0, 0.1, 0.01)}
        first_term = 5.0 * (32.0 + 12.0 * 2.0 * 18.0)
        assert vals[0.01] == pytest.approx(first_term + 2 * 0.01 / 5.0 + 36.0, rel=1e-12)
        assert vals[0.01] < vals[0.1] < vals[1.0]

    def test_affine_in_poincare(self):
        a = log_sobolev_bound(make_inputs(a_abs=1.0))
        b = log_sobolev_bound(make_inputs(a_abs=2.0))
        assert b > a

    def test_degenerate_modulus(self):
        # omega(r) = 1e-300 * 1e-30 underflows to 0 in floats but not at the envelope's
        # digits: lambda = 5 omega(r) / r is 5e-300, and 2 r / lambda dominates the bound
        tiny = ModulusSpec.lipschitz(1e-300)
        assert tiny.eval(1e-30) == 0.0
        assert log_sobolev_bound(make_inputs(omega_grad_u=tiny, r=1e-30)) == 4e269

    def test_overflow_noted_when_poincare_is_finite(self):
        # log bound 707.77: c_P is 2.4e307, but c_LS, a multiple of it, is inf
        tb = theorem_bound(make_inputs(u0=705.0), eta=0.1, k=10)
        assert math.isfinite(tb.c_p_bound) and tb.c_ls_bound == math.inf
        assert len(tb.notes) == 1 and "log-Sobolev" in tb.notes[0]
        assert "undecayed" in tb.notes[0]
        assert tb.vacuous

    def test_poincare_overflow_keeps_its_single_note(self):
        tb = theorem_bound(make_inputs(u0=2000.0), eta=0.1, k=10)
        assert tb.c_p_bound == math.inf and tb.c_ls_bound == math.inf
        assert tb.notes == ("Poincare bound overflows float range; log value 2002.77",)


def _kappa0_by_quadrature(d):
    """log E exp(|x|) as a 40-digit integral over the chi density."""
    with mp.workdps(40):
        log_c = (1 - mp.mpf(d) / 2) * mp.log(2) - mp.loggamma(mp.mpf(d) / 2)
        mode = mp.sqrt(d - 1)
        # split at the mode so the quadrature resolves the peak at large d
        pts = sorted({0, *(max(mode + 6 * j, 0) for j in range(-3, 5)), mode + 60})
        val = mp.quad(lambda s: mp.exp(s + log_c + (d - 1) * mp.log(s) - s * s / 2), pts)
        return float(mp.log(val))


class TestGaussianKappa0:
    @pytest.mark.parametrize("d", [1, 2, 3, 10, 20, 100, 1000])
    def test_closed_form_matches_quadrature(self, d):
        assert gaussian_kappa0(d) == pytest.approx(_kappa0_by_quadrature(d), rel=1e-15, abs=0)

    @pytest.mark.parametrize("d", [1, 2, 10, 1000])
    def test_independent_of_ambient_precision(self, d):
        values = set()
        for dps in (5, 15, 100):
            with mp.workdps(dps):
                values.add(gaussian_kappa0(d))
        assert len(values) == 1

    @pytest.mark.parametrize("d", [0, 1.5, 2.0, 2.5])
    def test_rejects_a_dimension_that_is_not_a_positive_integer(self, d):
        with pytest.raises(ValueError, match="d must be a positive integer"):
            gaussian_kappa0(d)


class TestKlPieces:
    def test_c_zero_pinned(self):
        assert c_zero(make_inputs(), 0.1) == pytest.approx(9.5, abs=1e-14)

    def test_discretization_zero_steps(self):
        assert kl_discretization(make_inputs(), 0.1, 0) == 0.0

    def test_discretization_linear_in_k(self):
        inputs = make_inputs()
        v1 = kl_discretization(inputs, 0.1, 100)
        v2 = kl_discretization(inputs, 0.1, 200)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-14)

    def test_discretization_delta_free_form(self):
        k, eta, r = 50, 0.1, 0.5
        inputs = make_inputs(r=r)
        expect = c_zero(inputs, eta) * (1.0 * r / r) * eta * k * eta  # omega(r)=r
        got = kl_discretization(inputs, eta, k)
        assert got == pytest.approx(expect, rel=1e-14)

    def test_kl_initial_gaussian_oracle(self):
        # standard Gaussian init in d=1: every piece has an independent route
        kap = gaussian_kappa0(1)
        closed = math.log(2.0 * math.exp(0.5) * stats.norm.cdf(1.0))
        assert kap == pytest.approx(closed, abs=1e-10)
        quad, _ = integrate.quad(
            lambda x: math.exp(abs(x)) * math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
            -40,
            40,
            limit=200,
        )
        assert kap == pytest.approx(math.log(quad), abs=1e-10)

        inputs = make_inputs(
            kappa0=kap, p0_sup_log=gaussian_log_p0_sup(1), grad_u_mnorm=1.0, u0=0.5
        )
        expect = (
            -0.5 * math.log(2 * math.pi)
            + 0.5 * math.log(3 * math.pi)
            + (0.5 * kap + 2.5 * math.sqrt(kap) + 0.5)
        )
        assert kl_initial(inputs) == pytest.approx(expect, rel=1e-14)

    def test_kl_initial_b_term(self):
        with_b = kl_initial(make_inputs(b=2.0))
        without = kl_initial(make_inputs())
        assert with_b - without == pytest.approx(math.log(3.0), rel=1e-14)

    def test_kl_initial_beta_group_scales(self):
        def group(beta):
            inputs = make_inputs(beta=beta, grad_u_mnorm=1.0, u0=0.5, kappa0=1.3)
            return kl_initial(inputs) - (
                inputs.p0_sup_log + 0.5 * math.log(3 * math.pi / beta)
            )

        assert group(2.0) == pytest.approx(2.0 * group(1.0), rel=1e-14)


class TestTheoremBound:
    def test_c1_pinned(self):
        inputs = make_inputs(beta=4.0, grad_u_mnorm=1.0, u0=0.5)
        tb = theorem_bound(inputs, eta=0.1, k=100)
        assert tb.c1 == pytest.approx(2.0 * math.sqrt(54.0), rel=1e-14)
        assert tb.c1_prime == pytest.approx(2.0 * math.sqrt(50.0), rel=1e-14)

    def test_f_vanishes_with_all_knobs(self):
        # shrinking r, delta, eta at fixed k eta sends f (and with it the
        # first envelope term) to zero; the fourth root makes the decay slow
        inputs = make_inputs(grad_u_mnorm=1.0, u0=0.5)
        knobs = (1e-6, 1e-10, 1e-14, 1e-18)
        tbs = [theorem_bound(replace(inputs, r=s), eta=s, k=max(int(1e-6 / s), 1))
               for s in knobs]
        fs = [tb.f_value for tb in tbs]
        firsts = [tb.first_term for tb in tbs]
        assert all(b < a for a, b in zip(fs, fs[1:]))
        assert all(b < a for a, b in zip(firsts, firsts[1:]))
        assert fs[-1] < 1e-17 and firsts[-1] < 2e-3

    def test_monotone_in_delta(self):
        grid = (0.0, 0.1, 1.0)
        for axis in range(4):
            vals = []
            for g in grid:
                delta = [0.0] * 4
                delta[axis] = g
                inputs = make_inputs(grad_u_mnorm=1.0, u0=0.5, delta=tuple(delta))
                vals.append(theorem_bound(inputs, eta=0.05, k=50).w2_bound)
            assert vals[0] <= vals[1] <= vals[2]

    @given(_admissible(), st.integers(0, 3), st.floats(1e-3, 1.0), st.floats(0.01, 1.0),
           st.integers(1, 10**6))
    def test_w2_nondecreasing_in_each_delta_axis(self, case, axis, step, r, k):
        inputs, eta = case
        inputs = replace(inputs, r=r)
        raised = _raise_delta(inputs, axis, step)
        assume(eta < eta_max(raised))
        lo = theorem_bound(inputs, eta, k).w2_bound
        assume(not math.isnan(lo))  # C2 undefined: the envelope is NaN whatever delta is
        assert theorem_bound(raised, eta, k).w2_bound >= lo

    def test_exp_term_decreasing_in_k(self):
        inputs = make_inputs(grad_u_mnorm=1.0, u0=0.5)
        terms = [theorem_bound(inputs, 0.1, k).exp_term for k in (100, 1000, 10000)]
        assert terms[0] > terms[1] > terms[2]

    @given(_admissible(), st.floats(0.01, 1.0), st.integers(1, 10**6), st.integers(1, 10**6))
    def test_exp_term_decreasing_in_k_everywhere(self, case, r, k, dk):
        inputs, eta = case
        inputs = replace(inputs, r=r)
        a = theorem_bound(inputs, eta, k)
        b = theorem_bound(inputs, eta, k + dk)
        assume(not math.isnan(a.exp_term))
        assert b.exp_term <= a.exp_term
        # strictly, wherever the longer run's extra decay is resolvable in floats
        gap = dk * eta / (2.0 * inputs.beta * a.c_ls_bound)
        if a.exp_term > 1e-300 and gap > 1e-9:
            assert b.exp_term < a.exp_term

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: make_inputs(d=0), "d must be a positive integer"),
            (lambda: make_inputs(d=1.5), "d must be a positive integer"),
            (lambda: make_inputs(d=2.5), "d must be a positive integer"),
            (lambda: theorem_bound(make_inputs(), 0.1, 2.0), "k must be a positive integer"),
            (lambda: theorem_bound(make_inputs(), 0.1, 2.5), "k must be a positive integer"),
            (lambda: kl_discretization(make_inputs(), 0.1, 0.5),
             "k must be a nonnegative integer"),
        ],
        ids=["d-0", "d-1.5", "d-2.5", "theorem_bound-k-2.0", "theorem_bound-k-2.5",
             "kl_discretization-k-0.5"],
    )
    def test_counts_must_be_integers(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("entry", [True, -math.inf, math.nan, -1.0, math.inf],
                             ids=["bool", "minus-inf", "nan", "negative", "inf"])
    def test_delta_entries_must_be_nonnegative_reals_or_inf(self, entry):
        # True was taken as 1.0; inf was taken as an overflowed bound, which inputs_from
        # now gives as an mpmath number
        with pytest.raises(ValueError, match="delta must be a nonnegative real number"):
            make_inputs(delta=(0.0, entry, 0.0, 0.0))

    @pytest.mark.parametrize("axis", range(4))
    def test_an_overflowed_delta_makes_the_envelope_vacuous(self, axis):
        # omega(r)^2 / 2 beyond float range for a modulus near it, as inputs_from gives
        # it; at 1e700 the square roots of the envelope are beyond float range too
        delta = [0.0] * 4
        delta[axis] = mp.mpf("1e700")
        inputs = make_inputs(delta=tuple(delta))
        if axis == 3:  # delta_v2 enters the step-size cap, which is then 0
            assert eta_max(inputs) == 0.0
            with pytest.raises(ValueError, match="outside the admissible range"):
                theorem_bound(inputs, eta=5e-324, k=10)
            return
        tb = theorem_bound(inputs, eta=0.1, k=10)
        assert tb.vacuous and not math.isfinite(tb.w2_bound)
        # inf, not the NaN of 0 * inf where a zero delta coefficient meets kappa_inf = inf
        assert tb.f_value == tb.first_term == tb.w2_bound == math.inf
        assert not any(math.isnan(value) for value in dataclasses.astuple(tb)[:-1])

    @pytest.mark.parametrize("axis", range(3))
    def test_a_delta_beyond_float_range_enters_the_envelope_exactly(self, axis):
        # at 1e400, f is beyond float range but sqrt(f) is not: an inf delta gave an
        # inf envelope where the exact one is finite
        delta = [0.0] * 4
        delta[axis] = mp.mpf("1e400")
        tb = theorem_bound(make_inputs(delta=tuple(delta)), eta=0.1, k=10)
        assert tb.f_value == math.inf and 1e199 < tb.w2_bound < 1e203 and not tb.vacuous
        assert not any(math.isnan(value) for value in dataclasses.astuple(tb)[:-1])

    # delta's refusals are test_delta_entries_must_be_nonnegative_reals_or_inf
    MAGNITUDES = ["b_tilde", "grad_u_mnorm", "g_tilde_mnorm", "omega_g_tilde_one"]

    @staticmethod
    def _inputs_with(field, value):
        return make_inputs(**{field: (0.0, 0.0, value, 0.0) if field == "delta" else value})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -1, True, mp.inf],
                             ids=["inf", "minus-inf", "nan", "negative", "bool", "mp-inf"])
    @pytest.mark.parametrize("field", MAGNITUDES)
    def test_derived_inputs_are_nonnegative_reals_of_any_size(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a nonnegative real number, got"):
            self._inputs_with(field, value)

    @pytest.mark.parametrize("value", [0, 0.5, mp.mpf("1e400"), 10**400],
                             ids=["zero", "float", "mpf-1e400", "int-10**400"])
    @pytest.mark.parametrize("field", [*MAGNITUDES, "delta"])
    def test_derived_inputs_may_lie_beyond_float_range(self, field, value):
        inputs = self._inputs_with(field, value)
        got = inputs.delta[2] if field == "delta" else getattr(inputs, field)
        assert got is value

    def test_a_modulus_whose_square_overflows_keeps_its_step_size_cap(self):
        # m_tilde / (2 omega_G(1)^2) is 5e-301 here though omega_G(1)^2 overflows
        inputs = make_inputs(m=1e300, m_tilde=1e300, omega_g_tilde_one=1e300,
                             g_tilde_mnorm=1e300)
        assert eta_max(inputs) == pytest.approx(5e-301)
        # eta ||G||^2 = 1e-302 * 1e600 is a float though ||G||^2 is not
        assert kappa_inf(inputs, 1e-302) == pytest.approx(2e298, rel=1e-15)
        assert theorem_bound(inputs, eta=1e-302, k=10).vacuous

    def test_eta_precondition_named(self):
        # every public function of eta checks it, called by position or by keyword
        inputs = make_inputs()
        for call in (lambda: theorem_bound(inputs, eta=0.9, k=10),
                     lambda: kappa_inf(inputs, eta=0.9), lambda: c_zero(inputs, eta=0.9),
                     lambda: kl_discretization(inputs, 0.9, 10)):
            with pytest.raises(ValueError, match="m_tilde"):
                call()

    def test_negative_c2_flagged_not_guessed(self):
        inputs = make_inputs(p0_sup_log=-50.0)
        tb = theorem_bound(inputs, eta=0.1, k=10)
        assert tb.vacuous
        assert math.isnan(tb.c2)
        assert any("C2" in note for note in tb.notes)

    def test_finite_for_quadratic_defaults(self):
        q = builtin("quadratic", 1)
        inputs = inputs_from(ExactGradient(q), beta=1.0, r=0.1)
        tb = theorem_bound(inputs, eta=0.01, k=1000)
        for v in (tb.c0, tb.c1, tb.c1_prime, tb.c2, tb.kappa_inf, tb.c_p_bound,
                  tb.c_ls_bound, tb.f_value, tb.w2_bound):
            assert math.isfinite(v) and v > 0
        assert not tb.vacuous


class TestHandCodedOracle:
    def test_theorem_bound_matches_independent_evaluation(self):
        # every formula retyped from scratch, no shared helpers
        d, beta, m, b = 1, 1.0, 1.0, 0.0
        m_t, b_t = 1.0, 0.0
        kappa0, p0_log = 1.02, -0.9189385332046727
        mn_u, mn_g, w_g1, u0 = 1.0, 1.0, 1.0, 0.5
        delta = (0.005, 0.0, 0.002, 0.0)
        a_abs = 1.0
        r, eta, k = 0.1, 0.01, 100_000

        omega = lambda s: 1.0 * s  # Lipschitz(1)

        ki = kappa0 + 2.0 * max(1.0, 1.0 / m_t) * (b_t + eta * mn_g**2 + delta[2] + d / beta)
        c0 = (d + 4) * (beta / 3.0 * (delta[2] + mn_g**2 + (w_g1**2 + delta[3]) * ki) + d / 2.0)
        s = d + (b + m) * beta
        cp = 4.0 / (m * beta * s) + (8.0 * a_abs * s / (m * beta)) * math.exp(
            beta * (25.0 / 16.0 * mn_u * (1.0 + 8.0 * s / (m * beta)) + u0)
        )
        lam = (d + 4) * omega(r) / r
        cls = lam * (32.0 / (m**2 * beta**2) + 12.0 * s * cp / (m * beta)) + 2.0 * r / lam + 2.0 * cp
        c1 = 2.0 * math.sqrt(
            4.0 * kappa0 + 32.0 * (b + m + d / beta) / m + 10.0 / min(1.0, beta * m / 4.0)
        )
        c1p = 2.0 * math.sqrt(32.0 * (b + m + d / beta) / m + 10.0 / min(1.0, beta * m / 4.0))
        inner = p0_log + d / 2.0 * math.log(3.0 * math.pi / (m * beta)) + beta * (
            w_g1 / 2.0 * kappa0 + 2.5 * mn_u * math.sqrt(kappa0) + u0 + b / 2.0 * math.log(3.0)
        )
        c2 = math.sqrt(inner)
        dr0 = delta[0] + delta[2]
        dr2 = delta[1] + delta[3]
        f = (c0 * omega(r) / r * eta + beta * (dr2 * ki + dr0)) * k * eta + (
            beta * r * mn_u / 2.0
        ) * (3.0 + math.sqrt((b + d / beta) / m))
        total = 2.0 * c1 * (math.sqrt(f) + f**0.25) + c1p * math.sqrt(
            c2 + math.sqrt(c2)
        ) * math.exp(-k * eta / (2.0 * beta * cls))

        inputs = BoundInputs(
            d=d, beta=beta, m=m, b=b, m_tilde=m_t, b_tilde=b_t,
            kappa0=kappa0, p0_sup_log=p0_log, grad_u_mnorm=mn_u, g_tilde_mnorm=mn_g,
            omega_grad_u=LIP1, omega_g_tilde_one=w_g1, u0=u0, r=r, delta=delta, a_abs=a_abs,
        )
        tb = theorem_bound(inputs, eta=eta, k=k)
        assert tb.w2_bound == pytest.approx(total, rel=1e-12)
        assert tb.kappa_inf == pytest.approx(ki, rel=1e-12)
        assert tb.c_ls_bound == pytest.approx(cls, rel=1e-12)


class TestExpMoment:
    def test_t_zero_is_initial_moment(self):
        inputs = make_inputs(m=2.0, m_tilde=2.0, beta=4.0)
        assert exp_moment_bound(inputs, 0.0, 1.0, init_exp_moment=3.5) == pytest.approx(3.5)

    def test_asymptote_pinned(self):
        inputs = make_inputs(m=2.0, m_tilde=2.0, beta=4.0)
        assert exp_moment_bound(inputs, math.inf, 1.0) == pytest.approx(
            2.0 * math.exp(6.0), rel=1e-14
        )

    def test_alpha_range(self):
        inputs = make_inputs()  # beta m_bar = 0.5
        with pytest.raises(ValueError):
            exp_moment_bound(inputs, 1.0, 0.5)

    def test_asymptote_finite_up_to_the_float_range(self):
        # the asymptote's log is 2 alpha (b + m + d / beta) / (m / 2 - alpha / beta)
        near = make_inputs(m=2.0, m_tilde=2.0, b=349.0)  # log 704
        assert 1e305 < exp_moment_bound(near, math.inf, 0.5) < math.inf
        beyond = make_inputs(m=2.0, m_tilde=2.0, b=1000.0)  # log 2006
        assert exp_moment_bound(beyond, math.inf, 0.5) == math.inf

    def test_gaussian_default_initial_moment(self):
        inputs = make_inputs(m=4.0, m_tilde=4.0)
        val0 = exp_moment_bound(inputs, 0.0, 0.25)
        assert val0 == pytest.approx((1.0 - 0.5) ** (-0.5), rel=1e-14)

    def test_interpolates_monotonically_to_asymptote(self):
        inputs = make_inputs(m=2.0, m_tilde=2.0, beta=4.0)
        asym = exp_moment_bound(inputs, math.inf, 1.0, init_exp_moment=1.0)
        vals = [exp_moment_bound(inputs, t, 1.0, init_exp_moment=1.0) for t in (0.0, 0.5, 2.0, 10.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= asym

    @pytest.mark.parametrize("t,init,named", [(math.nan, None, "time"),
                                              (1.0, math.nan, "init_exp_moment"),
                                              (1.0, -1.0, "init_exp_moment"),
                                              (1.0, 0.0, "init_exp_moment")],
                             ids=["t-nan", "init-nan", "init-negative", "init-zero"])
    def test_time_and_initial_moment_are_checked(self, t, init, named):
        # a NaN time or a nonpositive initial moment makes the bound meaningless
        inputs = make_inputs(m=2.0, m_tilde=2.0, beta=4.0)
        with pytest.raises(ValueError, match=named):
            exp_moment_bound(inputs, t, 1.0, init_exp_moment=init)

    @pytest.mark.parametrize("t,alpha,message", [
        (True, 1.0, "time must be a nonnegative real or inf, got True"),
        (-1.0, 1.0, "time must be a nonnegative real or inf, got -1.0"),
        (1.0, True, "alpha must be finite and positive, got True"),
        (1.0, -1.0, "alpha must be finite and positive, got -1.0"),
    ], ids=["t-bool", "t-negative", "alpha-bool", "alpha-negative"])
    def test_time_and_alpha_follow_the_argument_rules(self, t, alpha, message):
        # t = True was read as 1, and alpha = True passed the range test at beta m / 2 = 4
        inputs = make_inputs(m=2.0, m_tilde=2.0, beta=4.0)
        with pytest.raises(ValueError) as err:
            exp_moment_bound(inputs, t, alpha, init_exp_moment=1.0)
        assert str(err.value) == message


class TestInputsFrom:
    def test_exact_oracle_wiring(self):
        q = builtin("quadratic", 2)
        inputs = inputs_from(ExactGradient(q), beta=2.0, r=0.2)
        assert (inputs.m_tilde, inputs.b_tilde) == (1.0, 0.0)
        assert inputs.g_tilde_mnorm == 1.0
        with mp.workdps(bounds._DPS):  # omega(0.2)^2 / 2 of the float 0.2, exactly
            assert inputs.delta == (mp.mpf(0.2) ** 2 / 2, 0, 0, 0)
        assert inputs.kappa0 == pytest.approx(gaussian_kappa0(2))

    @pytest.mark.parametrize("r", [0.0, 2.0, math.nan, None])
    def test_exact_oracle_radius_lies_in_the_unit_interval(self, r):
        # the analysis takes r in (0, 1]; r = 2 would give delta_b0 = omega(2)^2 / 2 = 2,
        # and the exact gradient has no radius of its own to fall back on
        with pytest.raises(ValueError, match=r"r must lie in \(0, 1\]"):
            inputs_from(ExactGradient(builtin("quadratic", 1)), 1.0, r)

    def test_smoothed_oracle_wiring(self):
        q = builtin("quadratic", 2)
        orc = SphericalSmoothed(q, r=0.2, n_batch=4)
        inputs = inputs_from(orc, beta=1.0)
        assert inputs.m_tilde == 0.5
        assert inputs.b_tilde == 1.0
        with mp.workdps(bounds._DPS):
            assert inputs.delta == (0, 0, mp.mpf(0.2) ** 2 / 8, 0)

    def test_delta_requires_matching_radius(self):
        orc = SphericalSmoothed(builtin("quadratic", 1), r=0.5, n_batch=2)
        assert inputs_from(orc, beta=1.0).delta == (0.0, 0.0, 0.5 * 0.25 / 2, 0.0)
        with pytest.raises(ValueError, match="own radius 0.5"):
            inputs_from(orc, beta=1.0, r=0.3)

    @pytest.mark.parametrize("r", [0.3, 0.1, math.nextafter(0.1, 1)],
                             ids=["other", "own", "own-next-float"])
    @pytest.mark.parametrize("kind", ["smoothed", "finite_sum"])
    def test_smoothed_oracle_takes_no_radius(self, kind, r):
        # a radius within 1e-12 of the oracle's was taken and kept: the envelope
        # was evaluated a hair away from the radius delta was formed at
        p = builtin("hoelder_mix", 2, alpha=0.5)
        orc = {
            "smoothed": SphericalSmoothed(p, r=0.1, n_batch=3),
            "finite_sum": FiniteSumSpherical(FiniteSumPotential.equal_split(p, 4), 0.1, 3),
        }[kind]
        with pytest.raises(ValueError, match=r"analysed at its own radius 0\.1, got "):
            inputs_from(orc, beta=1.0, r=r)

    def test_exact_oracle_delta(self):
        orc = ExactGradient(builtin("quadratic", 1))
        db0, db2, dv0, dv2 = inputs_from(orc, beta=1.0, r=0.2).delta
        assert db0 == pytest.approx(0.5 * 0.2**2)
        assert (db2, dv0, dv2) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("kind", ["exact", "smoothed", "finite_sum"])
    def test_every_oracle_has_inputs(self, kind):
        p = builtin("hoelder_mix", 2, alpha=0.5)
        orc = {
            "exact": ExactGradient(p),
            "smoothed": SphericalSmoothed(p, r=0.5, n_batch=3),
            "finite_sum": FiniteSumSpherical(FiniteSumPotential.equal_split(p, 4), 0.5, 3),
        }[kind]
        inputs = inputs_from(orc, beta=1.0, r=0.5 if kind == "exact" else None)
        assert inputs.d == 2 and len(inputs.delta) == 4 and inputs.r == 0.5

    def test_equal_split_delta(self):
        split = FiniteSumPotential.equal_split(builtin("quadratic", 1), 4)
        orc = FiniteSumSpherical(split, r=0.5, n_batch=2)
        assert inputs_from(orc, beta=1.0).delta == (0.0, 0.0, 0.5 * 0.25 / 2, 0.0)

    @pytest.mark.parametrize("n", [*range(1, 11), 100, 1000])
    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_split_sum_reads_its_base_potential(self, name, d, n):
        # an equal split changes the gradient estimator, not one bound input
        p = builtin(name, d)
        split = FiniteSumSpherical(FiniteSumPotential.equal_split(p, n), r=0.1, n_batch=5)
        assert split.potential is p
        got = inputs_from(split, beta=1.5, a_abs=2.0)
        want = inputs_from(SphericalSmoothed(p, r=0.1, n_batch=5), beta=1.5, a_abs=2.0)
        for f in dataclasses.fields(BoundInputs):
            assert getattr(got, f.name) == getattr(want, f.name), f.name

    DERIVED = ("m_tilde", "b_tilde", "grad_u_mnorm", "g_tilde_mnorm", "omega_g_tilde_one")

    @pytest.mark.parametrize("kind", ["exact", "smoothed", "finite_sum"])
    def test_derived_inputs_are_exact_beyond_float_range(self, kind):
        # omega(1) + omega(r) + |grad U(0)| at lam2 = 1.7e308 is beyond float range: it
        # was the inf g_tilde_mnorm that BoundInputs refused
        p = builtin("elastic_net_logistic", 2, lam2=1.7e308)
        orc = {
            "exact": ExactGradient(p),
            "smoothed": SphericalSmoothed(p, r=0.1, n_batch=4),
            "finite_sum": FiniteSumSpherical(FiniteSumPotential.equal_split(p, 4), 0.1, 4),
        }[kind]

        def derived():
            inputs = inputs_from(orc, beta=1.0, r=0.1 if kind == "exact" else None)
            return [getattr(inputs, name) for name in self.DERIVED] + list(inputs.delta)

        fields = derived()
        assert all(isinstance(v, mp.mpf) and mp.isfinite(v) for v in fields)
        assert max(fields) > 1.7e308
        for dps in (5, 100):
            with mp.workdps(dps):
                assert derived() == fields

    def test_distinct_components_have_no_inputs(self):
        orc = FiniteSumSpherical(scaled_quadratic_sum([1.0, 2.0]), r=0.5, n_batch=2)
        with pytest.raises(ValueError, match="equal_split"):
            inputs_from(orc, beta=1.0)


class TestOneRadius:
    """delta and the envelope share the radius the inputs keep; no call sets another."""

    def test_inputs_need_a_radius(self):
        inputs = make_inputs()
        kw = {f.name: getattr(inputs, f.name) for f in dataclasses.fields(BoundInputs)}
        del kw["r"]
        with pytest.raises(TypeError, match="'r'"):
            BoundInputs(**kw)

    @pytest.mark.parametrize("r", [0.0, -0.1, 1.5, math.inf, math.nan, True])
    def test_radius_lies_in_the_unit_interval(self, r):
        with pytest.raises(ValueError, match=r"r must lie in \(0, 1\]"):
            make_inputs(r=r)

    @pytest.mark.parametrize(
        "call",
        [lambda x: theorem_bound(x, 1.0, 0.01, 1000), lambda x: log_sobolev_bound(x, 0.5),
         lambda x: kl_discretization(x, 0.5, 0.1, 10)],
        ids=["theorem_bound", "log_sobolev_bound", "kl_discretization"],
    )
    def test_no_envelope_function_takes_a_radius(self, call):
        with pytest.raises(TypeError):
            call(make_inputs())

    def test_smoothed_inputs_are_evaluated_at_their_own_radius(self):
        # at r = 1.0 these inputs read 382.8, non-vacuous, against 561.82 at their radius
        orc = SphericalSmoothed(builtin("hoelder_mix", 1), r=0.1, n_batch=4)
        inputs = inputs_from(orc, beta=1.0)
        assert theorem_bound(inputs, 0.01, 1000).w2_bound == pytest.approx(561.82, abs=5e-3)
        with pytest.raises(TypeError):
            theorem_bound(inputs, 1.0, 0.01, 1000)


def _golden_run(name):
    """``(oracle, beta, r, eta, k)`` of a golden ``bound`` config as ``bound`` reads
    it, or of demo 04's envelope."""
    if name == "demo_04":
        return ExactGradient(builtin("quadratic", 1)), 1.0, 0.1, 0.01, 100_000
    cfg = {**test_golden.SAMPLES, **test_golden.BOUNDS}[name]
    cfg = validate_config(json.loads(json.dumps(cfg)))
    chain = build_chain_config(cfg)
    r = None if "smoothing" in cfg else float(test_golden.BOUND_R)
    return build_oracle(cfg), chain.beta, r, chain.eta, chain.k


def _envelope_and_moments(oracle, beta, r, eta, k):
    """The envelope, and the exponential-moment bound after one step and at t = inf."""
    inputs = inputs_from(oracle, beta, r)
    alpha = min(inputs.beta * inputs.m / 4, 0.25)
    moments = [exp_moment_bound(inputs, t, alpha) for t in (eta, math.inf)]
    return theorem_bound(inputs, eta, k), moments


class TestOneArithmetic:
    RUNS = [*test_golden.SAMPLES, *test_golden.BOUNDS, "demo_04"]

    @pytest.mark.parametrize("name", RUNS)
    def test_every_field_is_correctly_rounded(self, name, monkeypatch):
        # 40 digits round every field as 100 do: the float is the nearest to the exact
        # value of the float inputs
        run = _golden_run(name)
        at_40 = _envelope_and_moments(*run)
        monkeypatch.setattr(bounds, "_DPS", 100)
        assert _envelope_and_moments(*run) == at_40

    @pytest.mark.parametrize("name", RUNS)
    def test_independent_of_ambient_precision(self, name):
        run = _golden_run(name)
        at_40 = _envelope_and_moments(*run)
        for dps in (5, 100):
            with mp.workdps(dps):
                assert _envelope_and_moments(*run) == at_40

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_extreme_inputs_raise_only_the_step_size_check(self, name):
        # beta from the least subnormal to near the largest float, at three radii
        p = builtin(name, 2)
        oracles = (lambda r: ExactGradient(p),
                   lambda r: SphericalSmoothed(p, r, 4),
                   lambda r: FiniteSumSpherical(FiniteSumPotential.equal_split(p, 4), r, 2))
        for make, beta, r in itertools.product(
                oracles, (5e-324, 1e-300, 1.0, 1e160, 1.7e308), (1e-3, 0.1, 1.0)):
            oracle = make(r)
            inputs = inputs_from(oracle, beta, r if oracle.n_batch == 0 else None)
            for eta in (0.01, eta_max(inputs) / 2):
                try:
                    tb = theorem_bound(inputs, eta, 1000)
                except ValueError as err:
                    assert str(err).startswith(f"step size {eta} outside the admissible range")
                    continue
                # asdict, not to_dict, which writes nan as None
                nan = {key for key, value in dataclasses.asdict(tb).items()
                       if isinstance(value, float) and math.isnan(value)}
                undefined = any("C2 undefined" in note for note in tb.notes)
                assert nan <= ({"c2", "exp_term", "w2_bound"} if undefined else set())

    @pytest.mark.parametrize("name", ["quadratic_d100", "lam2_1.7e308"])
    def test_to_dict_is_json_with_null_exactly_where_a_field_is_not_finite(self, name):
        # bound prints to_dict as it is, and summary.json is dumped with allow_nan=False
        if name == "quadratic_d100":
            oracle, beta, r, eta, k = _golden_run(name)
            tb = theorem_bound(inputs_from(oracle, beta, r), eta, k)
        else:
            p = builtin("elastic_net_logistic", 2, lam2=1.7e308)
            tb = theorem_bound(inputs_from(SphericalSmoothed(p, 0.1, 4), 1.0), 1e-320, 10)
        fields = dataclasses.asdict(tb)
        out = json.loads(json.dumps(tb.to_dict(), allow_nan=False))
        bad = {key for key, v in fields.items() if isinstance(v, float) and not math.isfinite(v)}
        assert bad and {key for key, v in out.items() if v is None} == bad
        assert all(out[key] == v for key, v in fields.items() if key not in bad | {"notes"})
