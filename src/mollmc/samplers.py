"""Discrete-time Langevin chains and their gradient oracles.

One update of the chain is

    Y_{i+1} = Y_i - eta * G(Y_i, a_i) + sqrt(2 eta / beta) * N(0, I_d),

where ``G`` is supplied by a gradient oracle:

* :class:`ExactGradient` uses the potential's weak gradient (plain LMC),
* :class:`SphericalSmoothed` averages the weak gradient at ``n_batch``
  points ``x + r * zeta`` with ``zeta`` drawn from the compact polynomial
  kernel, making the oracle unbiased for the gradient of the smoothed
  potential at radius ``r``,
* :class:`FiniteSumSpherical` additionally subsamples components of a
  finite-sum potential (mini-batching),
* :class:`CustomOracle` accepts a user gradient with declared bias/variance
  coefficients.

Randomness is organised for reproducibility: a chain seed derives four
sub-streams (Brownian increments, smoothing draws, component picks, initial
value), so identical ``(oracle, config, seed)`` always reproduce the trace
bit for bit, and parallel replicas never share a stream.  Noise is pre-drawn
in fixed blocks of :data:`NOISE_BLOCK` steps; the block size is part of the
reproducibility contract.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import rng as _rng
from .mollifier import Mollifier, sample as _kernel_sample
from .potentials import FiniteSumPotential, PotentialSpec

__all__ = [
    "NOISE_BLOCK",
    "InitLaw",
    "ChainConfig",
    "Trace",
    "ChainDivergenceError",
    "GTildeStats",
    "ExactGradient",
    "SphericalSmoothed",
    "FiniteSumSpherical",
    "CustomOracle",
    "step",
    "run",
    "run_ensemble",
    "run_replicas",
    "ss_gradient",
    "ss_gradient_batch",
    "write_trace_csv",
]

NOISE_BLOCK = 4096
DIVERGENCE_NORM = 1e8


@dataclass(frozen=True)
class InitLaw:
    """Initial law of the chain.

    The default standard Gaussian has a finite exponential moment, which is
    what the moment bounds require of an initial law.  A point mass has no
    density, so bound evaluation flags it.
    """

    kind: str = "gaussian"
    x0: tuple = ()
    sampler: Callable | None = None

    @classmethod
    def gaussian(cls) -> "InitLaw":
        return cls(kind="gaussian")

    @classmethod
    def point(cls, x0) -> "InitLaw":
        return cls(kind="point", x0=tuple(float(v) for v in np.atleast_1d(x0)))

    @classmethod
    def custom(cls, sampler: Callable) -> "InitLaw":
        return cls(kind="custom", sampler=sampler)

    def draw(self, rng: np.random.Generator, d: int) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.standard_normal(d)
        if self.kind == "point":
            x0 = np.asarray(self.x0, dtype=float)
            if x0.shape != (d,):
                raise ValueError(f"point init has dim {x0.shape}, chain has dim {d}")
            return x0.copy()
        if self.kind == "custom":
            x = np.asarray(self.sampler(rng, d), dtype=float)
            if x.shape != (d,):
                raise ValueError("custom init sampler returned wrong shape")
            return x
        raise ValueError(f"unknown init kind {self.kind!r}")


@dataclass(frozen=True)
class ChainConfig:
    """Run parameters of one chain.

    ``eta`` only has to be positive to run; the error bounds additionally
    require ``eta < 1`` and the oracle-dependent cap, which the bounds module
    enforces where it matters.  ``record_stride`` thins the recorded trace
    (step 0 and step k are always kept).
    """

    beta: float
    eta: float
    k: int
    seed: int
    init: InitLaw = field(default_factory=InitLaw.gaussian)
    record_stride: int = 1

    def __post_init__(self):
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not (self.eta > 0.0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.k < 1 or int(self.k) != self.k:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")


@dataclass
class Trace:
    """Recorded iterates of one chain run."""

    steps: np.ndarray
    iterates: np.ndarray
    config: ChainConfig
    elapsed: float
    diverged_at: int | None = None

    @property
    def dim(self) -> int:
        return self.iterates.shape[1]

    @property
    def n_recorded(self) -> int:
        return self.iterates.shape[0]


class ChainDivergenceError(RuntimeError):
    """A chain iterate left the admissible region (non-finite or |Y| > 1e8).

    Dissipative chains at an admissible step size stay bounded in mean
    square, so divergence indicates a misconfigured step size for the
    potential's growth.  Carries the offending step index and the partial
    trace recorded so far.
    """

    def __init__(self, step_index, trace: Trace | None = None):
        super().__init__(
            f"chain diverged at step {step_index}; "
            "the step size is too large for this potential"
        )
        self.step_index = step_index
        self.trace = trace


@dataclass(frozen=True)
class GTildeStats:
    """Constants of the oracle's mean gradient: dissipativity and fluctuation."""

    m_tilde: float
    b_tilde: float
    mnorm: float
    omega_one: float


class ExactGradient:
    """Deterministic oracle ``G = grad U`` (plain LMC)."""

    stochastic = False

    def __init__(self, potential: PotentialSpec):
        self.potential = potential

    @property
    def dim(self) -> int:
        return self.potential.dim

    def grad(self, x):
        return np.asarray(self.potential.weak_grad(x), dtype=float)

    def mean_stats(self) -> GTildeStats:
        p = self.potential
        w1 = p.modulus.eval(1.0)
        return GTildeStats(p.m, p.b, p.grad_at_zero + w1, w1)

    def delta(self, r: float):
        """Bias/variance coefficients against the radius-``r`` smoothed gradient.

        The exact gradient deviates from the smoothed one by at most
        ``omega(r)`` uniformly, giving a constant squared bias and no
        variance.
        """
        w = self.potential.modulus.eval(r)
        return (0.5 * w * w, 0.0, 0.0, 0.0)

    # block protocol used by run(); the exact oracle needs no noise
    def prep_block(self, n_steps, zeta_rng, lam_rng):
        return None

    def grad_at(self, x, block, j):
        return np.asarray(self.potential.weak_grad(x), dtype=float)


class SphericalSmoothed:
    """Unbiased oracle for the smoothed gradient: averages ``grad U(x + r zeta)``.

    ``zeta`` has the unit compact-kernel density, so the oracle mean equals
    the gradient of ``U`` convolved with the kernel at radius ``r``; variance
    shrinks like ``1 / n_batch``.
    """

    stochastic = True

    def __init__(self, potential: PotentialSpec, r: float, n_batch: int = 1):
        if not (0.0 < r <= 1.0):
            raise ValueError(f"smoothing radius must lie in (0, 1], got {r}")
        if n_batch < 1:
            raise ValueError("n_batch must be at least 1")
        self.potential = potential
        self.r = float(r)
        self.n_batch = int(n_batch)
        self._unit = Mollifier(potential.dim, 1.0)

    @property
    def dim(self) -> int:
        return self.potential.dim

    def mean_stats(self) -> GTildeStats:
        # smoothing halves the dissipativity slope and shifts the offset;
        # convolution does not increase the gradient's modulus
        p = self.potential
        w1 = p.modulus.eval(1.0)
        wr = p.modulus.eval(self.r)
        return GTildeStats(0.5 * p.m, p.b + p.m, p.grad_at_zero + wr + w1, w1)

    def delta(self, r: float):
        if not math.isclose(r, self.r, rel_tol=1e-12, abs_tol=0.0):
            raise ValueError(
                "bias/variance coefficients are only available at the oracle's "
                f"own smoothing radius {self.r}, got {r}"
            )
        w = self.potential.modulus.eval(self.r)
        return (0.0, 0.0, 0.5 * w * w / self.n_batch, 0.0)

    def prep_block(self, n_steps, zeta_rng, lam_rng):
        z = _kernel_sample(self._unit, zeta_rng, size=n_steps * self.n_batch)
        return self.r * z.reshape(n_steps, self.n_batch, self.dim)

    def grad_at(self, x, block, j):
        pts = x[None, :] + block[j]
        return np.asarray(self.potential.weak_grad(pts), dtype=float).mean(axis=0)


class FiniteSumSpherical:
    """Mini-batch smoothed oracle for a finite-sum potential.

    Each of the ``n_batch`` terms evaluates one uniformly chosen component's
    gradient at an independently smoothed point; the ``n / n_batch`` factor
    keeps the estimator unbiased for the smoothed full gradient.
    """

    stochastic = True

    def __init__(self, fsum: FiniteSumPotential, r: float, n_batch: int = 1):
        if not (0.0 < r <= 1.0):
            raise ValueError(f"smoothing radius must lie in (0, 1], got {r}")
        if n_batch < 1:
            raise ValueError("n_batch must be at least 1")
        self.fsum = fsum
        self.r = float(r)
        self.n_batch = int(n_batch)
        self._unit = Mollifier(fsum.dim, 1.0)
        g0 = np.asarray(fsum.total_grad(np.zeros(fsum.dim)), dtype=float)
        self._grad_at_zero = float(np.linalg.norm(g0))

    @property
    def dim(self) -> int:
        return self.fsum.dim

    def mean_stats(self) -> GTildeStats:
        f = self.fsum
        w1 = f.omega_hat.eval(1.0)
        wr = f.omega_hat.eval(self.r)
        return GTildeStats(0.5 * f.m, f.b + f.m, self._grad_at_zero + wr + w1, w1)

    def delta(self, r: float):
        """Coefficients at the oracle's radius, for ``equal_split`` sums only: the
        variance counts the smoothing draws, not the picking of distinct components."""
        if self.fsum.base is None:
            raise ValueError("component-sampling variance is only bounded for equal_split sums")
        if not math.isclose(r, self.r, rel_tol=1e-12, abs_tol=0.0):
            raise ValueError(
                "bias/variance coefficients are only available at the oracle's "
                f"own smoothing radius {self.r}, got {r}"
            )
        w = self.fsum.omega_hat.eval(self.r)
        return (0.0, 0.0, 0.5 * w * w / self.n_batch, 0.0)

    def prep_block(self, n_steps, zeta_rng, lam_rng):
        z = _kernel_sample(self._unit, zeta_rng, size=n_steps * self.n_batch)
        lam = lam_rng.integers(0, self.fsum.n_components, size=(n_steps, self.n_batch))
        return self.r * z.reshape(n_steps, self.n_batch, self.dim), lam

    def grad_at(self, x, block, j):
        zeta, lam = block
        g = self.fsum.component_grad(lam[j], x + zeta[j])
        # sequential sum over the batch: sum(axis=0) adds pairwise when that
        # axis is contiguous (d = 1), which changes the bits of the trace
        return g.cumsum(axis=0)[-1] * (self.fsum.n_components / self.n_batch)


class CustomOracle:
    """User-supplied stochastic gradient with declared coefficients.

    The library runs it but validates the declaration only through the same
    sampled spot checks available for any oracle; correctness of the declared
    ``delta`` and mean-gradient constants is the caller's responsibility.
    """

    stochastic = True

    def __init__(self, dim, gradient, stats: GTildeStats, delta, name="custom"):
        self.dim = int(dim)
        self._gradient = gradient
        self._stats = stats
        self._delta = tuple(float(v) for v in delta)
        self.name = name

    def mean_stats(self) -> GTildeStats:
        return self._stats

    def delta(self, r: float):
        return self._delta

    def prep_block(self, n_steps, zeta_rng, lam_rng):
        return zeta_rng

    def grad_at(self, x, block, j):
        return np.asarray(self._gradient(x, block), dtype=float)


def step(y, g, cfg: ChainConfig, rng: np.random.Generator):
    """One chain update ``y - eta g + sqrt(2 eta / beta) z``."""
    y = np.asarray(y, dtype=float)
    g = np.asarray(g, dtype=float)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(g))):
        raise ValueError("step inputs must be finite")
    z = rng.standard_normal(y.shape)
    out = y - cfg.eta * g + math.sqrt(2.0 * cfg.eta / cfg.beta) * z
    if not np.all(np.isfinite(out)):
        raise ChainDivergenceError(step_index=None)
    return out


def _recorded_steps(k: int, stride: int) -> np.ndarray:
    idx = list(range(0, k + 1, stride))
    if idx[-1] != k:
        idx.append(k)
    return np.asarray(idx, dtype=np.int64)


def run(oracle, cfg: ChainConfig) -> Trace:
    """Run one chain and record its (possibly thinned) iterates.

    Raises :class:`ChainDivergenceError` with the partial trace if an iterate
    becomes non-finite or its norm exceeds ``1e8``.
    """
    t0 = time.perf_counter()
    d = oracle.dim
    bm, zrng, lrng, irng = _rng.chain_streams(cfg.seed)
    x = np.asarray(cfg.init.draw(irng, d), dtype=float)

    record = _recorded_steps(cfg.k, cfg.record_stride)
    out = np.empty((len(record), d))
    rec_pos = 0
    out[rec_pos] = x
    rec_pos += 1
    next_record = record[rec_pos] if rec_pos < len(record) else -1

    eta = cfg.eta
    noise_scale = math.sqrt(2.0 * eta / cfg.beta)
    limit2 = DIVERGENCE_NORM * DIVERGENCE_NORM

    i = 0
    while i < cfg.k:
        n_steps = min(NOISE_BLOCK, cfg.k - i)
        z_block = bm.standard_normal((n_steps, d))
        o_block = oracle.prep_block(n_steps, zrng, lrng)
        for j in range(n_steps):
            g = oracle.grad_at(x, o_block, j)
            x = x - eta * g + noise_scale * z_block[j]
            i += 1
            s = float(x @ x)
            if not math.isfinite(s) or s > limit2:
                partial = Trace(
                    steps=record[:rec_pos].copy(),
                    iterates=out[:rec_pos].copy(),
                    config=cfg,
                    elapsed=time.perf_counter() - t0,
                    diverged_at=i,
                )
                raise ChainDivergenceError(i, partial)
            if i == next_record:
                out[rec_pos] = x
                rec_pos += 1
                next_record = record[rec_pos] if rec_pos < len(record) else -1

    return Trace(
        steps=record,
        iterates=out,
        config=cfg,
        elapsed=time.perf_counter() - t0,
    )


def run_ensemble(oracle, cfg: ChainConfig, n_chains: int) -> tuple[np.ndarray, np.ndarray]:
    """Run ``n_chains`` exact-gradient chains in vectorised lockstep.

    Chain ``i`` uses the replica seed derived from ``cfg.seed`` and
    reproduces bit for bit what :func:`run` would produce with that seed.
    Only deterministic oracles are supported here; smoothed oracles run one
    chain at a time.

    Returns ``(steps, iterates)`` with iterates of shape
    ``(n_chains, len(steps), d)``.
    """
    if oracle.stochastic:
        raise ValueError("run_ensemble supports deterministic-gradient oracles only")
    if n_chains < 1:
        raise ValueError("need at least one chain")
    d = oracle.dim
    streams = [_rng.chain_streams(_rng.replica_seed(cfg.seed, i)) for i in range(n_chains)]
    x = np.stack([cfg.init.draw(st[3], d) for st in streams])

    record = _recorded_steps(cfg.k, cfg.record_stride)
    out = np.empty((n_chains, len(record), d))
    rec_pos = 0
    out[:, rec_pos] = x
    rec_pos += 1
    next_record = record[rec_pos] if rec_pos < len(record) else -1

    eta = cfg.eta
    noise_scale = math.sqrt(2.0 * eta / cfg.beta)
    limit2 = DIVERGENCE_NORM * DIVERGENCE_NORM

    i = 0
    while i < cfg.k:
        n_steps = min(NOISE_BLOCK, cfg.k - i)
        z_block = np.stack([st[0].standard_normal((n_steps, d)) for st in streams])
        for j in range(n_steps):
            g = oracle.grad(x)
            x = x - eta * g + noise_scale * z_block[:, j]
            i += 1
            s = np.einsum("ij,ij->i", x, x)
            if not np.all(np.isfinite(s)) or np.any(s > limit2):
                raise ChainDivergenceError(i)
            if i == next_record:
                out[:, rec_pos] = x
                rec_pos += 1
                next_record = record[rec_pos] if rec_pos < len(record) else -1

    return record, out


def run_replicas(oracle, cfg: ChainConfig, n_replicas: int) -> list[Trace]:
    """Run independent replicas sequentially with derived per-replica seeds."""
    traces = []
    for i in range(n_replicas):
        seed_i = _rng.replica_seed(cfg.seed, i)
        cfg_i = ChainConfig(
            beta=cfg.beta,
            eta=cfg.eta,
            k=cfg.k,
            seed=seed_i,
            init=cfg.init,
            record_stride=cfg.record_stride,
        )
        traces.append(run(oracle, cfg_i))
    return traces


def ss_gradient(oracle, x, rng: np.random.Generator) -> np.ndarray:
    """One draw of the smoothed (possibly mini-batched) stochastic gradient.

    Convenience single-call form drawing smoothing points and component
    picks from one stream; inside :func:`run` the two kinds of draws come
    from separate sub-streams instead.
    """
    x = np.asarray(x, dtype=float)
    block = oracle.prep_block(1, rng, rng)
    return oracle.grad_at(x, block, 0)


def ss_gradient_batch(oracle, x, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` independent oracle draws at a fixed point, shape ``(n, d)``."""
    x = np.asarray(x, dtype=float)
    block = oracle.prep_block(n, rng, rng)
    return np.stack([oracle.grad_at(x, block, j) for j in range(n)])


def write_trace_csv(trace: Trace, path, provenance: dict | None = None) -> None:
    """Write a trace as CSV: header ``step,x0,...``, one row per iterate.

    Values carry 17 significant digits so a written trace round-trips the
    float64 iterates exactly.  Provenance entries become leading ``#`` lines;
    a divergence marker line is appended when the trace is partial.
    """
    d = trace.dim
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in (provenance or {}).items():
            fh.write(f"# {key}={val}\n")
        fh.write("step," + ",".join(f"x{j}" for j in range(d)) + "\n")
        # "%.17g" gives the same text as format(v, ".17g"), at one call per row
        row_fmt = "%d" + ",%.17g" * d + "\n"
        for s, row in zip(trace.steps.tolist(), trace.iterates.tolist()):
            fh.write(row_fmt % (s, *row))
        if trace.diverged_at is not None:
            fh.write(f"# diverged_at_step={trace.diverged_at}\n")
