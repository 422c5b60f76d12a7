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

:func:`run` is the one chain engine.  It steps ``C`` chains in lockstep over
a state array of shape ``(C, d)``, with one oracle call per step for all of
them; a single chain is the case ``C = 1``.

Randomness is organised for reproducibility: a chain seed derives four
sub-streams (Brownian increments, smoothing draws, component picks, initial
value), so identical ``(oracle, config, seed)`` always reproduce the trace
bit for bit, whichever other chains step beside it, and parallel replicas
never share a stream.  Noise is pre-drawn in fixed blocks of
:data:`NOISE_BLOCK` steps, each chain's block from its own streams; the block
size is part of the reproducibility contract.  A block holds
``C * NOISE_BLOCK * d`` Gaussians and ``C * NOISE_BLOCK * n_batch * d``
smoothing draws, so large ensembles step in groups whose blocks stay within
:data:`LOCKSTEP_BLOCK_BYTES`.

Oracles share one batched protocol: ``prep_block(n_steps, zeta_rngs,
lam_rngs)`` draws one block from the per-chain generators and stacks it on a
chain axis, and ``grad_at(x, block, j)`` returns the gradients of shape
``(C, d)`` at the points ``x`` (shape ``(C, d)``) for step ``j`` of the block.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as _rng
from .mollifier import Mollifier, sample as _kernel_sample
from .potentials import FiniteSumPotential, PotentialSpec

__all__ = [
    "NOISE_BLOCK",
    "LOCKSTEP_BLOCK_BYTES",
    "InitLaw",
    "ChainConfig",
    "Trace",
    "ChainDivergenceError",
    "GTildeStats",
    "ExactGradient",
    "SphericalSmoothed",
    "FiniteSumSpherical",
    "CustomOracle",
    "run",
    "ss_gradient_batch",
    "write_trace_csv",
]

NOISE_BLOCK = 4096
DIVERGENCE_NORM = 1e8
# bytes of pre-drawn noise that one lockstep group may hold; larger ensembles
# step group after group
LOCKSTEP_BLOCK_BYTES = 32 * 2**20


@dataclass(frozen=True)
class InitLaw:
    """Initial law of the chain.

    The default standard Gaussian has a finite exponential moment, which is
    what the moment bounds require of an initial law.  A point mass has no
    density, so bound evaluation flags it.
    """

    kind: str = "gaussian"
    x0: tuple = ()

    @classmethod
    def gaussian(cls) -> "InitLaw":
        return cls(kind="gaussian")

    @classmethod
    def point(cls, x0) -> "InitLaw":
        return cls(kind="point", x0=tuple(float(v) for v in np.atleast_1d(x0)))

    def draw(self, rng: np.random.Generator, d: int) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.standard_normal(d)
        if self.kind == "point":
            x0 = np.asarray(self.x0, dtype=float)
            if x0.shape != (d,):
                raise ValueError(f"point init has dim {x0.shape}, chain has dim {d}")
            return x0.copy()
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

    def __init__(self, potential: PotentialSpec):
        self.potential = potential

    @property
    def dim(self) -> int:
        return self.potential.dim

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

    # the exact oracle needs no noise
    def prep_block(self, n_steps, zeta_rngs, lam_rngs):
        return None

    def grad_at(self, x, block, j):
        return np.asarray(self.potential.weak_grad(x), dtype=float)


class SphericalSmoothed:
    """Unbiased oracle for the smoothed gradient: averages ``grad U(x + r zeta)``.

    ``zeta`` has the unit compact-kernel density, so the oracle mean equals
    the gradient of ``U`` convolved with the kernel at radius ``r``; variance
    shrinks like ``1 / n_batch``.
    """

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

    def prep_block(self, n_steps, zeta_rngs, lam_rngs):
        return _smoothing_block(self._unit, self.r, n_steps, self.n_batch, zeta_rngs)

    def grad_at(self, x, block, j):
        pts = (x[:, None, :] + block[j]).reshape(-1, self.dim)
        g = np.asarray(self.potential.weak_grad(pts), dtype=float)
        # the sum over axis 1 of (C, n_batch, d), divided by n_batch, has the
        # bits of one chain's mean over axis 0 of (n_batch, d); a test pins
        # this.  It is what mean() computes, without mean()'s call overhead.
        return np.add.reduce(g.reshape(len(x), self.n_batch, self.dim), axis=1) / self.n_batch


class FiniteSumSpherical:
    """Mini-batch smoothed oracle for a finite-sum potential.

    Each of the ``n_batch`` terms evaluates one uniformly chosen component's
    gradient at an independently smoothed point; the ``n / n_batch`` factor
    keeps the estimator unbiased for the smoothed full gradient.
    """

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

    def prep_block(self, n_steps, zeta_rngs, lam_rngs):
        zeta = _smoothing_block(self._unit, self.r, n_steps, self.n_batch, zeta_rngs)
        size, n = (n_steps, self.n_batch), self.fsum.n_components
        lam = np.stack([g.integers(0, n, size=size) for g in lam_rngs], axis=1)
        return zeta, lam

    def grad_at(self, x, block, j):
        zeta, lam = block
        pts = (x[:, None, :] + zeta[j]).reshape(-1, self.dim)
        g = self.fsum.component_grad(lam[j].reshape(-1), pts)
        # sequential sum over the batch: sum(axis=1) adds pairwise when that
        # axis is contiguous (d = 1), which changes the bits of the trace
        g = g.reshape(len(x), self.n_batch, self.dim).cumsum(axis=1)[:, -1]
        return g * (self.fsum.n_components / self.n_batch)


class CustomOracle:
    """User-supplied stochastic gradient with declared coefficients.

    The library runs it but validates the declaration only through the same
    sampled spot checks available for any oracle; correctness of the declared
    ``delta`` and mean-gradient constants is the caller's responsibility.
    ``gradient(x, rng)`` takes one point of shape ``(d,)`` and the chain's
    smoothing generator.
    """

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

    def prep_block(self, n_steps, zeta_rngs, lam_rngs):
        return zeta_rngs

    def grad_at(self, x, block, j):
        # the user gradient takes one point, so the chains are visited in turn
        return np.stack([np.asarray(self._gradient(xc, g), dtype=float)
                         for xc, g in zip(x, block)])


def _smoothing_block(unit: Mollifier, r: float, n_steps: int, n_batch: int, rngs) -> np.ndarray:
    """``r`` times kernel draws, shape ``(n_steps, C, n_batch, d)``.

    Chain ``c`` takes its ``n_steps * n_batch`` draws from ``rngs[c]`` in one
    call, as a lone chain would.
    """
    block = np.empty((n_steps, len(rngs), n_batch, unit.dim))
    for c, g in enumerate(rngs):
        z = _kernel_sample(unit, g, size=n_steps * n_batch)
        np.multiply(r, z.reshape(n_steps, n_batch, unit.dim), out=block[:, c])
    return block


def _recorded_steps(k: int, stride: int) -> np.ndarray:
    idx = list(range(0, k + 1, stride))
    if idx[-1] != k:
        idx.append(k)
    return np.asarray(idx, dtype=np.int64)


def run(oracle, cfg: ChainConfig, seeds=None):
    """Run chains in lockstep and record their (possibly thinned) iterates.

    With ``seeds=None`` one chain runs under ``cfg.seed`` and its
    :class:`Trace` is returned; if an iterate becomes non-finite or its norm
    exceeds ``1e8``, :class:`ChainDivergenceError` is raised with the partial
    trace.

    Otherwise chain ``c`` runs under ``seeds[c]``, reproducing bit for bit the
    single chain at that seed, and one trace per seed is returned.  A chain
    that diverges stops recording: its trace is the partial one, with
    ``diverged_at`` set, and the other chains step on.  The chains step in
    groups of as many as keep a noise block within
    :data:`LOCKSTEP_BLOCK_BYTES`; every trace's ``elapsed`` is the wall time
    of its group.
    """
    chain_seeds = [cfg.seed] if seeds is None else [int(s) for s in seeds]
    if not chain_seeds:
        raise ValueError("need at least one chain")
    # one chain's block: d Gaussians and n_batch * d smoothing draws per step
    per_chain = 8 * min(NOISE_BLOCK, cfg.k) * (1 + getattr(oracle, "n_batch", 0)) * oracle.dim
    size = max(1, LOCKSTEP_BLOCK_BYTES // per_chain)
    traces = []
    for lo in range(0, len(chain_seeds), size):
        traces += _lockstep(oracle, cfg, chain_seeds[lo:lo + size])
    if seeds is not None:
        return traces
    if traces[0].diverged_at is not None:
        raise ChainDivergenceError(traces[0].diverged_at, traces[0])
    return traces[0]


def _lockstep(oracle, cfg: ChainConfig, chain_seeds: list) -> list[Trace]:
    """One trace per seed, the chains stepped together over a ``(C, d)`` array."""
    t0 = time.perf_counter()
    d = oracle.dim
    bm, zrng, lrng, irng = zip(*(_rng.chain_streams(s) for s in chain_seeds))
    x = np.stack([np.asarray(cfg.init.draw(gen, d), dtype=float) for gen in irng])
    n_chains = len(chain_seeds)

    record = _recorded_steps(cfg.k, cfg.record_stride)
    out = np.empty((n_chains, len(record), d))
    out[:, 0] = x
    rec_pos = 1
    next_record = record[rec_pos]

    eta = cfg.eta
    noise_scale = math.sqrt(2.0 * eta / cfg.beta)
    limit2 = DIVERGENCE_NORM * DIVERGENCE_NORM
    # |x|^2 summed over all chains: below half the limit, rounding cannot take
    # any one chain's |x|^2 over it, and NaN or inf never passes
    screen = 0.5 * limit2
    diverged_at = [None] * n_chains
    n_recorded = [len(record)] * n_chains

    i = 0
    while i < cfg.k and None in diverged_at:
        n_steps = min(NOISE_BLOCK, cfg.k - i)
        z_block = np.empty((n_steps, n_chains, d))
        for c, gen in enumerate(bm):
            z_block[:, c] = gen.standard_normal((n_steps, d))
        o_block = oracle.prep_block(n_steps, zrng, lrng)
        for j in range(n_steps):
            g = oracle.grad_at(x, o_block, j)
            x = x - eta * g + noise_scale * z_block[j]
            i += 1
            if not float(np.vdot(x, x)) <= screen:
                for c in range(n_chains):
                    s = float(x[c] @ x[c])
                    if not math.isfinite(s) or s > limit2:
                        if diverged_at[c] is None:
                            diverged_at[c], n_recorded[c] = i, rec_pos
                        # parked at the origin: stepped on, never recorded again
                        x[c] = 0.0
                if None not in diverged_at:
                    break
            if i == next_record:
                out[:, rec_pos] = x
                rec_pos += 1
                next_record = record[rec_pos] if rec_pos < len(record) else -1

    elapsed = time.perf_counter() - t0
    return [
        Trace(
            steps=record[:n],
            iterates=out[c, :n],
            config=replace(cfg, seed=seed),
            elapsed=elapsed,
            diverged_at=diverged_at[c],
        )
        for c, (seed, n) in enumerate(zip(chain_seeds, n_recorded))
    ]


def ss_gradient_batch(oracle, x, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` independent oracle draws at a fixed point, shape ``(n, d)``.

    Smoothing points and component picks both come from ``rng``; inside
    :func:`run` the two kinds of draws come from separate sub-streams instead.
    """
    x = np.asarray(x, dtype=float)[None, :]
    block = oracle.prep_block(n, [rng], [rng])
    return np.concatenate([oracle.grad_at(x, block, j) for j in range(n)])


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
