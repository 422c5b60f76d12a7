import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mollmc.continuity import ModulusSpec
from mollmc.mollifier import density
from mollmc.potentials import FiniteSumPotential, PotentialSpec, builtin
from mollmc import samplers
from mollmc.samplers import (
    ChainConfig,
    ExactGradient,
    FiniteSumSpherical,
    SphericalSmoothed,
    Trace,
    chain_streams,
    derive_seed,
    run,
    ss_gradient_batch,
    write_trace_csv,
)

from conftest import gl_interval, scaled_quadratic_sum


def _zero_gradient_oracle(d):
    """Exact oracle of a constant potential: the chain is a scaled Gaussian random walk."""
    flat = PotentialSpec(
        name="zero", dim=d, value=lambda x: np.zeros(np.shape(x)[:-1]), weak_grad=np.zeros_like,
        m=1.0, b=0.0, modulus=ModulusSpec.lipschitz(1.0), grad_at_zero=0.0, u0=0.0,
    )
    return ExactGradient(flat)


def _first_noise(seed, d):
    """The Gaussian that step 1 of the chain at ``seed`` adds, before scaling."""
    return chain_streams(seed)[0].standard_normal((1, d))[0]


class TestStep:
    """One update ``y - eta g + sqrt(2 eta / beta) z``: :func:`run` at ``k = 1``."""

    def test_deterministic_part(self):
        cfg = ChainConfig(beta=1.0, eta=0.5, k=1, x0=(1.0,))
        out = run(ExactGradient(builtin("quadratic", 1)), cfg, [0])[0].iterates[-1]
        assert out[0] == 1.0 - 0.5 * 1.0 + math.sqrt(2.0 * 0.5 / 1.0) * _first_noise(0, 1)[0]

    def test_zero_gradient_keeps_point(self):
        y = np.array([2.0, -1.0])
        cfg = ChainConfig(beta=1.0, eta=0.1, k=1, x0=tuple(y))
        out = run(_zero_gradient_oracle(2), cfg, [0])[0].iterates[-1]
        assert np.array_equal(out, y - 0.1 * np.zeros(2) + math.sqrt(0.2) * _first_noise(0, 2))

    def test_noise_variance(self):
        cfg = ChainConfig(beta=2.0, eta=0.05, k=50_000, x0=(0.0, 0.0))
        moves = np.diff(run(_zero_gradient_oracle(2), cfg, [4])[0].iterates, axis=0)
        target = 2 * cfg.eta / cfg.beta
        per_coord = moves.var(axis=0, ddof=1)
        se = target * math.sqrt(2.0 / (len(moves) - 1))
        assert np.all(np.abs(per_coord - target) <= 3 * se)

    def test_rejects_non_finite(self):
        # |x|^2 is beyond float range at step 1; ChainConfig refuses a NaN x0
        cfg = ChainConfig(beta=1.0, eta=0.1, k=1, x0=(1e200,))
        (t,) = run(ExactGradient(builtin("quadratic", 1)), cfg, [0])
        assert t.diverged_at == 1 and t.n_recorded == 1


class TestRunBasics:
    def test_determinism(self):
        p = builtin("quadratic", 2)
        cfg = ChainConfig(beta=1.0, eta=0.05, k=5000)
        (t1,) = run(ExactGradient(p), cfg, [123])
        (t2,) = run(ExactGradient(p), cfg, [123])
        assert np.array_equal(t1.iterates, t2.iterates)
        assert np.array_equal(t1.steps, t2.steps)

    def test_smoothed_determinism(self):
        p = builtin("hoelder_mix", 1, alpha=0.5)
        orc = SphericalSmoothed(p, r=0.3, n_batch=2)
        cfg = ChainConfig(beta=1.0, eta=0.01, k=3000)
        assert np.array_equal(run(orc, cfg, [9])[0].iterates, run(orc, cfg, [9])[0].iterates)

    def test_trace_shape_unthinned(self):
        cfg = ChainConfig(beta=1.0, eta=0.1, k=100)
        (t,) = run(ExactGradient(builtin("quadratic", 3)), cfg, [0])
        assert t.iterates.shape == (101, 3)
        assert t.steps[0] == 0 and t.steps[-1] == 100

    def test_trace_thinning_keeps_ends(self):
        cfg = ChainConfig(beta=1.0, eta=0.1, k=103, record_stride=10)
        (t,) = run(ExactGradient(builtin("quadratic", 1)), cfg, [0])
        assert t.steps[0] == 0 and t.steps[-1] == 103
        assert np.all(np.diff(t.steps)[:-1] == 10)

    def test_point_init(self):
        cfg = ChainConfig(beta=1.0, eta=0.1, k=10, x0=(3.0, 4.0))
        traces = run(ExactGradient(builtin("quadratic", 2)), cfg, [0, 1])
        assert all(np.array_equal(t.iterates[0], [3.0, 4.0]) for t in traces)

    def test_divergence_reports_index_and_partial_trace(self):
        cfg = ChainConfig(beta=1.0, eta=10.0, k=10_000)
        (t,) = run(ExactGradient(builtin("quadratic", 1)), cfg, [1])
        assert t.diverged_at is not None and t.diverged_at < 200
        assert t.steps[-1] < t.diverged_at and len(t.steps) == t.n_recorded

    @pytest.mark.parametrize(
        "field,value",
        [("eta", 0.0), ("k", 10.0), ("k", math.inf), ("record_stride", 1.5),
         ("record_stride", 2.0), ("record_stride", math.nan), ("beta", True), ("k", True),
         ("record_stride", True), pytest.param("beta", 10**400, id="beta-beyond-float-range")],
    )
    def test_eta_must_be_positive(self, field, value):
        # and k and record_stride positive integers; the message names the field
        with pytest.raises(ValueError, match=field):
            ChainConfig(**({"beta": 1.0, "eta": 0.1, "k": 10} | {field: value}))

    @pytest.mark.parametrize("n_batch", [0, 2.5, 2.0])
    def test_n_batch_must_be_a_positive_integer(self, n_batch):
        with pytest.raises(ValueError, match="n_batch must be a positive integer"):
            SphericalSmoothed(builtin("quadratic", 1), 0.1, n_batch=n_batch)

    @pytest.mark.parametrize("seeds", [[], [-1], [0, 2**64], [1.5], [2.0], [True], ["3"], [None]],
                             ids=["empty", "negative", "65-bit", "fractional", "integral-float",
                                  "bool", "string", "none"])
    def test_rejects_no_seeds_and_seeds_outside_64_bits(self, seeds):
        # int() ran 1.5 as seed 1 and True as seed 1; "3" and None were TypeErrors
        with pytest.raises(ValueError, match=r"chain|seed must be in \[0, 2\*\*64\)"):
            run(ExactGradient(builtin("quadratic", 1)), ChainConfig(1.0, 0.1, 10), seeds)

    def test_numpy_integers_are_counts_and_seeds(self):
        oracle = SphericalSmoothed(builtin("quadratic", 2), 0.5, n_batch=2)
        want = run(oracle, ChainConfig(1.0, 0.1, 10, record_stride=5), [3, 4])
        oracle = SphericalSmoothed(builtin("quadratic", np.int64(2)), 0.5, n_batch=np.int64(2))
        cfg = ChainConfig(1.0, 0.1, np.int64(10), record_stride=np.int64(5))
        got = run(oracle, cfg, np.array([3, 4], dtype=np.uint64))
        assert all(np.array_equal(a.iterates, b.iterates) for a, b in zip(got, want))

    @pytest.mark.parametrize("entry", ["1", True, math.nan, 10**400],
                             ids=["string", "bool", "nan", "beyond-float-range"])
    def test_x0_entries_must_be_finite_reals(self, entry):
        # "1" and True ran from 1.0, NaN diverged at step 1 and 10**400 overflowed
        with pytest.raises(ValueError, match=r"x0\[1\] must be a finite real number"):
            ChainConfig(beta=1.0, eta=0.1, k=10, x0=(0.0, entry))

    def test_rejects_x0_of_the_wrong_length(self):
        cfg = ChainConfig(beta=1.0, eta=0.1, k=10, x0=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="x0 has 3 coordinates, the chain has dim 2"):
            run(ExactGradient(builtin("quadratic", 2)), cfg, [0])


class TestQuadraticLaw:
    """On U = |x|^2/2 the chain is Gaussian at every step with variance
    following v' = (1 - eta)^2 v + 2 eta / beta exactly."""

    def test_single_chain_stationary_variance(self):
        # a single chain of 1e6 steps has roughly 2% statistical noise on
        # the variance (integrated autocorrelation ~ 1/eta); the seed is
        # pinned where the draw sits well inside the tolerance
        beta, eta = 1.0, 0.01
        cfg = ChainConfig(beta=beta, eta=eta, k=1_000_000)
        (t,) = run(ExactGradient(builtin("quadratic", 1)), cfg, [0])
        post = t.iterates[len(t.iterates) // 2 :, 0]
        target = 2.0 / (beta * (2.0 - eta))
        assert abs(post.var(ddof=1) - target) / target < 0.02

    def test_ensemble_matches_variance_recursion(self):
        beta, eta = 1.0, 0.05
        cfg = ChainConfig(beta=beta, eta=eta, k=1000)
        seeds = [derive_seed(17, i) for i in range(1000)]
        traces = run(ExactGradient(builtin("quadratic", 1)), cfg, seeds)
        steps, paths = traces[0].steps, np.stack([t.iterates for t in traces])
        v = 1.0
        recursion = {}
        for i in range(1, 1001):
            v = (1 - eta) ** 2 * v + 2 * eta / beta
            if i in (10, 100, 1000):
                recursion[i] = v
        for mark, v_exact in recursion.items():
            idx = int(np.searchsorted(steps, mark))
            emp = paths[:, idx, 0].var(ddof=1)
            se = v_exact * math.sqrt(2.0 / (paths.shape[0] - 1))
            assert abs(emp - v_exact) <= 3 * se

    def test_mean_zero_by_symmetry(self):
        cfg = ChainConfig(beta=1.0, eta=0.1, k=500, x0=(0.0,))
        seeds = [derive_seed(3, i) for i in range(1000)]
        traces = run(ExactGradient(builtin("quadratic", 1)), cfg, seeds)
        end = np.array([t.iterates[-1, 0] for t in traces])
        se = end.std(ddof=1) / math.sqrt(len(end))
        assert abs(end.mean()) <= 3 * se

    def test_smoothed_oracle_same_stationary_variance(self):
        beta, eta = 1.0, 0.1
        p = builtin("quadratic", 1)
        orc = SphericalSmoothed(p, r=0.5, n_batch=4)
        cfg = ChainConfig(beta=beta, eta=eta, k=200_000)
        (t,) = run(orc, cfg, [11])
        post = t.iterates[len(t.iterates) // 2 :, 0]
        target = 2.0 / (beta * (2.0 - eta))
        assert abs(post.var(ddof=1) - target) / target < 0.03


class TestSmoothedGradient:
    def test_unbiased_on_quadratic(self):
        orc = SphericalSmoothed(builtin("quadratic", 1), r=0.5, n_batch=1)
        draws = ss_gradient_batch(orc, np.array([2.0]), 100_000, np.random.default_rng(0))
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - 2.0) <= 3 * se

    @pytest.mark.parametrize("r,nb", [(0.5, 1), (0.5, 4), (1.0, 16)])
    def test_variance_formula(self, r, nb):
        d = 1
        orc = SphericalSmoothed(builtin("quadratic", d), r=r, n_batch=nb)
        draws = ss_gradient_batch(orc, np.array([2.0]), 100_000, np.random.default_rng(1))
        dev2 = np.sum((draws - draws.mean(axis=0)) ** 2, axis=1)
        target = r * r * d / ((d + 8) * nb)
        se = dev2.std(ddof=1) / math.sqrt(len(dev2))
        assert abs(dev2.mean() - target) <= 3 * se

    def test_matches_quadrature_of_smoothed_gradient(self):
        # unbiasedness for a genuinely nonlinear gradient, d = 1
        p = builtin("hoelder_mix", 1, alpha=0.5)
        r = 0.3
        orc = SphericalSmoothed(p, r=r, n_batch=2)
        rng = np.random.default_rng(2)
        for x0 in np.linspace(-2, 2, 10):
            quad = gl_interval(
                lambda z: density(z[:, None], 1) * p.weak_grad(np.array([x0]) + r * z[:, None])[:, 0],
                -1.0,
                1.0,
                300,
            )
            draws = ss_gradient_batch(orc, np.array([x0]), 40_000, rng)[:, 0]
            se = draws.std(ddof=1) / math.sqrt(len(draws))
            assert abs(draws.mean() - quad) <= 3.5 * se

    def test_finite_sum_identical_components_equals_plain(self):
        # with equal components the mini-batch estimator collapses to the
        # single-potential one; the separated smoothing/component streams
        # give both oracles the same smoothing draws, so the gradients agree
        # up to summation rounding (scaled-sum vs mean)
        p = builtin("hoelder_mix", 1, alpha=0.5)
        f = FiniteSumPotential.equal_split(p, 6)
        orc_plain = SphericalSmoothed(p, r=0.4, n_batch=3)
        orc_fs = FiniteSumSpherical(f, r=0.4, n_batch=3)
        for i, x0 in enumerate(np.linspace(-2.0, 2.0, 9)):
            x = np.array([x0])
            g_plain = ss_gradient_batch(orc_plain, x, 50, np.random.default_rng(100 + i))
            g_fs = ss_gradient_batch(orc_fs, x, 50, np.random.default_rng(100 + i))
            assert np.allclose(g_plain, g_fs, rtol=1e-12, atol=1e-12)

    def test_single_call_form(self):
        orc = SphericalSmoothed(builtin("quadratic", 2), r=0.5, n_batch=3)
        g = ss_gradient_batch(orc, np.array([1.0, 2.0]), 1, np.random.default_rng(0))
        assert g.shape == (1, 2)

    @pytest.mark.parametrize("n", [True, 2.0, 0])
    @pytest.mark.parametrize("kind", ["exact", "smoothed"])
    def test_draw_count_is_a_positive_integer(self, kind, n):
        # n = True ran one draw, n = 2.0 failed inside numpy, and n = 0 on the exact
        # gradient failed in np.concatenate
        p = builtin("quadratic", 1)
        orc = ExactGradient(p) if kind == "exact" else SphericalSmoothed(p, r=0.5, n_batch=3)
        with pytest.raises(ValueError) as err:
            ss_gradient_batch(orc, np.array([1.0]), n, np.random.default_rng(0))
        assert str(err.value) == f"n must be a positive integer, got {n!r}"


_PROTOCOL_ORACLES = {
    "exact": ExactGradient,
    "smoothed": lambda p: SphericalSmoothed(p, r=0.5, n_batch=3),
    "finite_sum": lambda p: FiniteSumSpherical(FiniteSumPotential.equal_split(p, 4), 0.5, 3),
}


@pytest.mark.parametrize("kind", list(_PROTOCOL_ORACLES))
def test_oracle_declares_the_protocol(kind):
    p = builtin("hoelder_mix", 2, alpha=0.5)
    orc = _PROTOCOL_ORACLES[kind](p)
    assert orc.dim == 2 and orc.potential is p
    assert orc.n_batch == (0 if kind == "exact" else 3)
    assert orc.picks == (3 if kind == "finite_sum" else 0)
    assert kind == "exact" or orc.r == 0.5
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    block = orc.prep_block(5, rngs, rngs)
    assert orc.grad_at(np.ones((2, 2)), block, 4).shape == (2, 2)


class _LoopFiniteSum(FiniteSumSpherical):
    """Reference: the per-component loop ``grad_at`` ran before batching.

    One closure per component of the equal split, each called at one point,
    accumulated in batch order.
    """

    def __init__(self, fsum, r, n_batch):
        super().__init__(fsum, r, n_batch)
        p, w = fsum.base, 1.0 / fsum.n_components
        self._grads = tuple((lambda x: w * p.weak_grad(x)) for _ in range(fsum.n_components))

    def grad_at(self, x, block, j):
        zeta, lam = block
        out = np.empty_like(x)
        for c in range(len(x)):
            pts = x[c][None, :] + zeta[c, j]
            acc = np.zeros(self.dim)
            for jj in range(self.n_batch):
                acc += np.asarray(self._grads[int(lam[c, j, jj])](pts[jj]), dtype=float)
            out[c] = acc * (self.fsum.n_components / self.n_batch)
        return out


class TestBatchedFiniteSum:
    @pytest.mark.parametrize("n_batch", [1, 3, 16])
    @pytest.mark.parametrize(
        "name,d,params",
        [
            ("hoelder_mix", 1, {"alpha": 0.5}),
            ("hoelder_mix", 10, {"alpha": 0.5}),
            ("elastic_net_logistic", 10, {}),
        ],
        ids=["hoelder_mix-d1", "hoelder_mix-d10", "elastic_net_logistic-d10"],
    )
    def test_bit_identical_to_component_loop(self, name, d, params, n_batch):
        fs = FiniteSumPotential.equal_split(builtin(name, d, **params), 100)
        new = FiniteSumSpherical(fs, r=0.1, n_batch=n_batch)
        ref = _LoopFiniteSum(fs, r=0.1, n_batch=n_batch)
        rng = np.random.default_rng(10 * d + n_batch)
        block = new.prep_block(64, [rng], [rng])
        xs = 2.0 * rng.standard_normal((64, 1, d))
        for j in range(64):
            assert np.array_equal(new.grad_at(xs[j], block, j), ref.grad_at(xs[j], block, j))
        cfg = ChainConfig(beta=1.0, eta=0.01, k=1000)
        assert np.array_equal(run(new, cfg, [7])[0].iterates, run(ref, cfg, [7])[0].iterates)

    def test_rows_use_their_own_component(self):
        c = np.array([0.5, 1.0, 2.5, 4.0])
        orc = FiniteSumSpherical(scaled_quadratic_sum(c), r=0.5, n_batch=5)
        rngs = [np.random.default_rng(4), np.random.default_rng(5)]
        zeta, lam = block = orc.prep_block(20, rngs, rngs)
        x = np.array([[0.3, -1.2], [-2.0, 0.7]])
        for j in range(20):
            expect = (4 / 5) * np.sum(c[lam[:, j]][..., None] * (x[:, None] + zeta[:, j]), axis=1)
            assert np.allclose(orc.grad_at(x, block, j), expect, rtol=1e-13, atol=1e-13)


def _assert_rows_match_solo_runs(oracle, cfg, root, n_chains):
    """Run replicas ``0 .. n_chains - 1`` of ``root`` together, and each alone;
    a diverged chain is compared by its partial trace."""
    seeds = [derive_seed(root, i) for i in range(n_chains)]
    traces = run(oracle, cfg, seeds)
    assert len(traces) == n_chains
    for seed, t in zip(seeds, traces):
        (solo,) = run(oracle, cfg, [seed])
        assert t.diverged_at == solo.diverged_at
        assert np.array_equal(t.steps, solo.steps)
        assert np.array_equal(t.iterates, solo.iterates)
    return traces


def _lockstep_oracle(kind, d, n_batch):
    if kind == "smoothed":
        return SphericalSmoothed(builtin("hoelder_mix", d, alpha=0.5), r=0.3, n_batch=n_batch)
    name = "hoelder_mix" if d == 1 else "elastic_net_logistic"
    fs = FiniteSumPotential.equal_split(builtin(name, d), 100)
    return FiniteSumSpherical(fs, r=0.1, n_batch=n_batch)


class _Delegating:
    """An oracle of no built-in class: it forwards the protocol to ``inner``."""

    def __init__(self, inner):
        self.inner = inner
        self.dim, self.n_batch, self.picks = inner.dim, inner.n_batch, inner.picks
        self.potential = inner.potential

    def prep_block(self, n_steps, zeta_rngs, lam_rngs):
        return self.inner.prep_block(n_steps, zeta_rngs, lam_rngs)

    def grad_at(self, x, block, j):
        return self.inner.grad_at(x, block, j)

    def _rows_at(self, x, block, j, rows):
        return self.inner._rows_at(x, block, j, rows)


class TestStreamsAndReplicas:
    def test_ensemble_rows_match_single_runs(self):
        p = builtin("quadratic", 2)
        cfg = ChainConfig(beta=1.0, eta=0.05, k=500, record_stride=5)
        for n_chains in (1, 2, 4, 5):
            _assert_rows_match_solo_runs(ExactGradient(p), cfg, 77, n_chains)

    @pytest.mark.parametrize("n_chains", [1, 2, 5])
    @pytest.mark.parametrize("n_batch", [1, 3, 16])
    @pytest.mark.parametrize(
        "kind,d",
        [("smoothed", 1), ("smoothed", 10), ("finite_sum", 1), ("finite_sum", 10)],
        ids=["smoothed-d1", "smoothed-d10", "finite_sum-hoelder_mix-d1",
             "finite_sum-elastic_net_logistic-d10"],
    )
    def test_lockstep_rows_match_single_runs(self, kind, d, n_batch, n_chains):
        cfg = ChainConfig(beta=1.0, eta=0.01, k=300, record_stride=7)
        _assert_rows_match_solo_runs(_lockstep_oracle(kind, d, n_batch), cfg, 21, n_chains)

    def test_groups_match_single_runs(self, monkeypatch):
        # a budget of two chains' blocks splits 5 chains into groups 2, 2, 1
        smoothed = _lockstep_oracle("smoothed", 1, 3)
        cfg = ChainConfig(beta=1.0, eta=0.01, k=300, record_stride=7)
        monkeypatch.setattr(samplers, "LOCKSTEP_BLOCK_BYTES", 2 * 8 * 300 * 4 * 1)
        groups, lockstep = [], samplers._lockstep

        def counted(oracle, cfg, seeds):
            groups.append(len(seeds))
            return lockstep(oracle, cfg, seeds)

        monkeypatch.setattr(samplers, "_lockstep", counted)
        _assert_rows_match_solo_runs(smoothed, cfg, 21, 5)
        assert groups == [2, 2, 1] + [1] * 5  # the lockstep run, then the solo runs
        monkeypatch.setattr(samplers, "LOCKSTEP_BLOCK_BYTES", 2 * 8 * 200 * 1 * 1)
        cfg = ChainConfig(beta=1.0, eta=0.3, k=200, record_stride=3)
        with np.errstate(over="ignore", invalid="ignore"):
            traces = _assert_rows_match_solo_runs(
                ExactGradient(builtin("double_well", 1)), cfg, 1, 5)
        assert [t.diverged_at for t in traces] == [37, None, None, 18, None]
        # a finite sum's block also holds n_batch int64 component picks per step:
        # two chains' blocks of (1 + 3) * 1 floats and 3 picks per step
        groups.clear()
        monkeypatch.setattr(samplers, "LOCKSTEP_BLOCK_BYTES", 2 * 8 * 300 * (4 + 3))
        cfg = ChainConfig(beta=1.0, eta=0.01, k=300, record_stride=7)
        _assert_rows_match_solo_runs(_lockstep_oracle("finite_sum", 1, 3), cfg, 21, 5)
        assert groups[:3] == [2, 2, 1]
        # run sizes the groups from the oracle's picks, whatever its class
        groups.clear()
        _assert_rows_match_solo_runs(_Delegating(_lockstep_oracle("finite_sum", 1, 3)), cfg, 21, 5)
        assert groups[:3] == [2, 2, 1]

    def test_divergent_chain_stops_and_others_step_on(self):
        # on the double well at eta = 0.3 replicas 0 and 3 of root 1 blow up
        # (at steps 37 and 18) within 200 steps and the others stay bounded;
        # each chain's diverged_at equals its lone run's
        cfg = ChainConfig(beta=1.0, eta=0.3, k=200, record_stride=3)
        oracle = ExactGradient(builtin("double_well", 1))
        with np.errstate(over="ignore", invalid="ignore"):
            traces = _assert_rows_match_solo_runs(oracle, cfg, 1, 5)
        assert [t.diverged_at for t in traces] == [37, None, None, 18, None]
        assert traces[1].n_recorded == len(range(0, 201, 3)) + 1

    @pytest.mark.parametrize("d", [1, 2, 3, 10, 17])
    def test_batch_reductions_match_single_chain_order(self, d):
        # the oracles reduce (C, n_batch, d) over axis 1; one chain's
        # gradients used to be reduced over axis 0 of (n_batch, d)
        rng = np.random.default_rng(d)
        for n_batch in (1, 2, 3, 7, 8, 9, 16, 33, 130, 300):
            for n_chains in (1, 2, 4, 32):
                g = rng.standard_normal((n_chains * n_batch, d)).reshape(n_chains, n_batch, d)
                means, sums = np.add.reduce(g, axis=1) / n_batch, g.cumsum(axis=1)[:, -1]
                for c in range(n_chains):
                    solo = g[c].copy()
                    assert np.array_equal(means[c], solo.mean(axis=0))
                    assert np.array_equal(sums[c], solo.cumsum(axis=0)[-1])

    @pytest.mark.parametrize("n_batch", [3, 7, 9, 33])
    def test_smoothed_grad_at_has_the_bits_of_each_chains_mean(self, n_batch):
        p = builtin("hoelder_mix", 3, alpha=0.5)
        oracle = SphericalSmoothed(p, r=0.3, n_batch=n_batch)
        rng = np.random.default_rng(n_batch)
        x = rng.standard_normal((4, 3))
        block = 0.3 * rng.uniform(-1.0, 1.0, size=(4, 1, n_batch, 3))
        got = oracle.grad_at(x, block, 0)
        for c in range(4):
            assert np.array_equal(got[c], p.weak_grad(x[c] + block[c, 0]).mean(axis=0))

    @pytest.mark.parametrize("kind", ["smoothed", "finite_sum", "delegating"])
    def test_an_overflowed_batch_sum_is_stepped_again_from_its_mean(self, kind):
        # at lam1 = 5e307 each of the 4 terms and their mean are floats, their sum is not
        p = builtin("elastic_net_logistic", 2, lam1=5e307)
        oracle = (FiniteSumSpherical(FiniteSumPotential.equal_split(p, 1), r=0.1, n_batch=4)
                  if kind == "finite_sum" else SphericalSmoothed(p, r=0.1, n_batch=4))
        if kind == "delegating":  # run steps it again by the protocol, whatever its class
            oracle = _Delegating(oracle)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 2))
        block = oracle.prep_block(1, [rng] * 3, [rng] * 3)
        with np.errstate(over="ignore"):
            assert np.isinf(oracle.grad_at(x, block, 0)).all()
        mean = oracle._rows_at(x, block, 0, np.array([True, False, True]))
        assert mean.shape == (2, 2) and np.isfinite(mean).all()
        traces = _assert_rows_match_solo_runs(oracle, ChainConfig(beta=1.0, eta=1e-320, k=10), 2, 3)
        assert [t.diverged_at for t in traces] == [None] * 3

    def test_run_replicas_distinct_and_deterministic(self):
        p = builtin("quadratic", 1)
        cfg = ChainConfig(beta=1.0, eta=0.1, k=50)
        seeds = [derive_seed(5, i) for i in range(3)]
        a = run(ExactGradient(p), cfg, seeds)
        b = run(ExactGradient(p), cfg, seeds)
        for x, y in zip(a, b):
            assert np.array_equal(x.iterates, y.iterates)
        assert not np.array_equal(a[0].iterates, a[1].iterates)

    def test_derived_seeds_are_stable(self):
        # frozen values pin the derivation scheme; changing it would silently
        # re-route every experiment
        assert derive_seed(0, 0) == 16294208416658607535
        assert derive_seed(42, 1) == 2949826092126892291
        assert derive_seed(7, 0) != derive_seed(7, 1)

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 65),
           st.lists(st.integers(0, 2**64 - 1), max_size=20))
    def test_derived_seeds_injective_in_index(self, root, start, extra):
        # (index + 1) * golden is a bijection mod 2^64 and so is the finalizer;
        # the run of 64 neighbours catches a derivation that merges nearby indices
        indices = set(range(start, start + 64)) | set(extra)
        seeds = {derive_seed(root, i) for i in indices}
        assert len(seeds) == len(indices)
        assert all(0 <= s < 2**64 for s in seeds)

    @pytest.mark.parametrize("root", [True, 2.5, -5, 2**64])
    def test_derive_seed_rejects_a_root_outside_the_seed_range(self, root):
        # True ran as 1, 2.5 as 2, -5 as 2**64 - 5 and 2**64 as 0
        with pytest.raises(ValueError) as err:
            derive_seed(root, 0)
        assert str(err.value) == f"root must be in [0, 2**64), got {root!r}"

    @given(st.integers(0, 2**64 - 1), st.integers(max_value=-1) | st.sampled_from([1.5, 2.0]))
    def test_derive_seed_rejects_negative_index(self, root, index):
        # and a fractional one, which ran as its integer part
        with pytest.raises(ValueError, match="index must be a nonnegative integer"):
            derive_seed(root, index)

    def test_chain_streams_independent(self):
        s1 = chain_streams(123)
        s2 = chain_streams(123)
        a = s1[0].standard_normal(4)
        b = s2[0].standard_normal(4)
        assert np.array_equal(a, b)
        c = s2[1].standard_normal(4)
        assert not np.array_equal(a, c)


class TestPeakMemory:
    @pytest.mark.parametrize("kind,n_chains", [("finite_sum", 1), ("smoothed", 3)],
                             ids=["logistic-1-chain", "hoelder_mix-3-chains"])
    def test_a_group_holds_its_block_and_its_trace(self, kind, n_chains):
        # two full noise blocks, so the second is drawn after the first is
        # spent; a spent block kept alive, a chain's kernel draw held beside
        # the block (8 * steps * n_batch * d bytes) or the temporaries of a
        # normalisation out of place each exceed the slack
        d, n_batch, steps = 10, 16, samplers.NOISE_BLOCK
        oracle = _lockstep_oracle(kind, d, n_batch)
        cfg = ChainConfig(beta=1.0, eta=0.01, k=2 * steps, record_stride=50)
        picks = n_batch if kind == "finite_sum" else 0
        block = 8 * steps * n_chains * ((1 + n_batch) * d + picks)
        trace = 8 * n_chains * len(samplers._recorded_steps(cfg.k, cfg.record_stride)) * d
        run(oracle, ChainConfig(beta=1.0, eta=0.01, k=3), [0])  # first-call set-up
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run(oracle, cfg, range(n_chains))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak <= block + trace + 2 * 2**20


class TestRecordedSteps:
    @pytest.mark.parametrize("k,stride", [(5, 7), (7, 7), (12, 3), (13, 3), (1, 1), (10, 1)],
                             ids=["stride-past-k", "stride-k", "divides", "does-not-divide",
                                  "one-step", "every-step"])
    def test_matches_the_range_form(self, k, stride):
        want = list(range(0, k + 1, stride))
        want += [k] if want[-1] != k else []
        got = samplers._recorded_steps(k, stride)
        assert got.dtype == np.int64 and got.tolist() == want

    @pytest.mark.parametrize("stride", [1, 3])
    def test_builds_no_list(self, stride):
        # a Python list of 10**6 ints held beside the array took several times its bytes
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            steps = samplers._recorded_steps(10**6, stride)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert steps[-1] == 10**6 and peak <= 1.5 * steps.nbytes


def _per_value_csv(trace, path, provenance=None):
    """Reference: the writer that formatted each value with ``format(v, ".17g")``."""
    d = trace.dim
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in (provenance or {}).items():
            fh.write(f"# {key}={val}\n")
        fh.write("step," + ",".join(f"x{j}" for j in range(d)) + "\n")
        for s, row in zip(trace.steps, trace.iterates):
            fh.write(str(int(s)) + "," + ",".join(format(v, ".17g") for v in row) + "\n")
        if trace.diverged_at is not None:
            fh.write(f"# diverged_at_step={trace.diverged_at}\n")


def _assert_csv_matches_per_value(directory, steps, iterates):
    """write_trace_csv writes the bytes of the per-value reference."""
    trace = Trace(
        steps=np.asarray(steps, dtype=np.int64),
        iterates=np.asarray(iterates, dtype=float),
        config=ChainConfig(1.0, 0.1, 1),
        elapsed=0.0,
    )
    write_trace_csv(trace, directory / "new.csv")
    _per_value_csv(trace, directory / "ref.csv")
    assert (directory / "new.csv").read_bytes() == (directory / "ref.csv").read_bytes()


def _ulps_around(x, n):
    """The doubles ``x`` and its ``n`` neighbours on either side."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(n):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


class TestTraceCsv:
    @pytest.mark.parametrize("diverged_at", [None, 9])
    @pytest.mark.parametrize("provenance", [None, {"config": "abc", "seed": 2**64 - 1}])
    def test_bytes_match_per_value_formatter(self, tmp_path, provenance, diverged_at):
        extremes = np.array(
            [
                [0.0, -0.0, 5e-324, -5e-324],
                [1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308, 0.1],
                [1.0 / 3.0, -2.5e-310, 1e22, 123456789.0],
            ]
        )
        (chain,) = run(ExactGradient(builtin("quadratic", 4)), ChainConfig(1.0, 0.1, 200), [3])
        trace = Trace(
            steps=np.concatenate([chain.steps, [201, 202, 2**40]]),
            iterates=np.vstack([chain.iterates, extremes]),
            config=chain.config,
            elapsed=0.0,
            diverged_at=diverged_at,
        )
        write_trace_csv(trace, tmp_path / "new.csv", provenance=provenance)
        _per_value_csv(trace, tmp_path / "ref.csv", provenance=provenance)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_bytes_match_on_random_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(2026)
        anywhere = rng.integers(0, 2**64, size=(500, 10), dtype=np.uint64)
        # exponents of [6e-5, 3.4e7): the fixed-notation window and its edges
        exponent = rng.integers(1009, 1048, size=(2000, 10), dtype=np.uint64)
        mantissa = rng.integers(0, 2**52, size=(2000, 10), dtype=np.uint64)
        sign = rng.integers(0, 2, size=(2000, 10), dtype=np.uint64) << np.uint64(63)
        fixed = sign | exponent << np.uint64(52) | mantissa
        bits = np.vstack([anywhere, fixed])
        _assert_csv_matches_per_value(tmp_path, np.arange(len(bits)), bits.view(np.float64))

    def test_bytes_match_on_ties_powers_of_ten_zeros_and_subnormals(self, tmp_path):
        # N / 2**j with N * 5**j of 18 digits ends in 5: a tie at 17 digits
        rng = np.random.default_rng(7)
        ties = [131073 / 2**17]
        for j in range(2, 26):
            lo, hi = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
            ties += [(int(n) | 1) / 2**j for n in rng.integers(lo, hi, size=8)]
        powers = [v for p in range(-15, 18) for v in _ulps_around(10.0**p, 4)]
        specials = [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 2.5e-310]
        values = np.array(ties + powers + specials)
        rows = np.concatenate([values, -values]).reshape(-1, 1)
        _assert_csv_matches_per_value(tmp_path, np.arange(len(rows)), rows)
        text = (tmp_path / "new.csv").read_text().splitlines()
        assert text[1] == "0,1.0000076293945312"  # rounded half to even

    @pytest.mark.parametrize("d", [1, 10])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_bytes_match_across_block_edges(self, tmp_path, d, extra):
        block = samplers._CSV_BLOCK // d
        rows = block + extra
        values = np.random.default_rng(d).standard_normal((rows, d))
        # rows formatted by "%" on both sides of the first block edge
        edge = min(block, rows - 1)
        values[edge - 1, 0] = values[edge, -1] = 1e-5
        steps = 5 * np.arange(rows)
        steps[-4:] = [10**8 - 1, 10**8, 2**40, 2**63 - 1]
        _assert_csv_matches_per_value(tmp_path, steps, values)

    @given(st.lists(st.tuples(st.integers(0, 2**63 - 1),
                              st.floats(), st.floats(-1e7, 1e7), st.floats(-1e7, 1e7)),
                    min_size=1, max_size=20))
    def test_bytes_match_on_any_rows(self, tmp_path_factory, rows):
        _assert_csv_matches_per_value(
            tmp_path_factory.mktemp("csv"), [r[0] for r in rows], [r[1:] for r in rows]
        )

    def test_round_trip_exact(self, tmp_path):
        cfg = ChainConfig(beta=1.0, eta=0.1, k=64)
        (t,) = run(ExactGradient(builtin("quadratic", 2)), cfg, [10])
        path = tmp_path / "trace.csv"
        write_trace_csv(t, path, provenance={"config": "abc", "seed": 10})
        rows = [line.split(",") for line in path.read_text().splitlines()[3:]]
        assert np.array_equal([int(row[0]) for row in rows], t.steps)
        assert np.array_equal([[float(v) for v in row[1:]] for row in rows], t.iterates)

    def test_provenance_lines(self, tmp_path):
        cfg = ChainConfig(beta=1.0, eta=0.1, k=4)
        (t,) = run(ExactGradient(builtin("quadratic", 1)), cfg, [10])
        path = tmp_path / "trace.csv"
        write_trace_csv(t, path, provenance={"config": "deadbeef", "seed": 10})
        text = path.read_text().splitlines()
        assert text[0] == "# config=deadbeef"
        assert text[1] == "# seed=10"
        assert text[2] == "step,x0"
