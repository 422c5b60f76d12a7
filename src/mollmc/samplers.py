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
  finite-sum potential (mini-batching).

:func:`run` is the one chain engine.  ``run(oracle, cfg, seeds)`` steps one
chain per seed, ``C`` chains in lockstep over a state array of shape
``(C, d)`` with one oracle call per step for all of them, and returns one
:class:`Trace` per seed; a single chain is a one-seed list.  Every chain
starts at ``cfg.x0``, or, when it is None, at a standard Gaussian drawn from
its own initial-value stream.  A diverged chain is reported by its partial
trace and ``diverged_at``, not by an exception.

Randomness is organised for reproducibility.  :func:`derive_seed` is the
splitmix64 scheme, pure integer arithmetic: replica ``i`` of a root seed runs
under ``derive_seed(root, i)``.  A chain seed derives four PCG64 sub-streams
(:func:`chain_streams`), indexed 0 Brownian increments, 1 smoothing draws,
2 component picks and 3 initial value, so identical ``(oracle, config, seed)``
always reproduce the trace bit for bit, whichever other chains step beside it,
and parallel replicas never share a stream.  Noise is pre-drawn in fixed
blocks of :data:`NOISE_BLOCK` steps, each chain's block from its own streams;
the block size is part of the reproducibility contract.  Per step a chain's
block holds ``d`` Gaussians, ``n_batch * d`` smoothing draws and ``picks``
int64 component picks, so it is ``8 * min(NOISE_BLOCK, k) * ((1 + n_batch) * d + picks)`` bytes.  Large
ensembles step in groups of as many chains as keep a group's block within
:data:`LOCKSTEP_BLOCK_BYTES`.  That budget binds groups, not a lone chain: a
group holds at least one chain and a chain's block is never split, so a chain
whose block is larger steps alone (``ss_lmc`` at ``d = 10``, ``n_batch = 128``
and ``k >= 4096`` draws 42,270,720-byte blocks against 33,554,432).  Each
generator draws straight into its chain's slice of a chain-major block, so at
its peak a group holds its block and its trace array: a spent block is dropped
before the next one is drawn.

The oracles share one protocol, all that :func:`run` reads of them, and only
sample.  ``dim`` is ``d``; ``n_batch`` and ``picks`` count kernel points and
component picks per chain and step (``n_batch`` is 0 for the exact gradient,
``picks`` is ``n_batch`` for a finite sum, else 0); ``potential`` is what the
bounds read (for a finite sum, the potential an ``equal_split`` sum was split
from, else None); a smoothed oracle's ``r`` is its radius.
:func:`mollmc.bounds.inputs_from` states what the analysis assumes of each
oracle from these.  ``prep_block(n_steps, zeta_rngs, lam_rngs)`` draws one
block from the per-chain generators, chain-major (chain ``c``'s draws at
``[c]``); ``grad_at(x, block, j)`` returns the gradients ``(C, d)`` at the
points ``x`` ``(C, d)`` for step ``j``, read at ``[:, j]``; and an oracle with
``n_batch > 0`` has ``_rows_at(x, block, j, rows)``, ``grad_at`` at the chains
``rows`` with its terms divided by ``n_batch`` before the sum.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _args
from .mollifier import sample as _kernel_sample
from .potentials import FiniteSumPotential, PotentialSpec

__all__ = [
    "NOISE_BLOCK",
    "LOCKSTEP_BLOCK_BYTES",
    "derive_seed",
    "chain_streams",
    "ChainConfig",
    "Trace",
    "ExactGradient",
    "SphericalSmoothed",
    "FiniteSumSpherical",
    "run",
    "ss_gradient_batch",
    "write_trace_csv",
]

NOISE_BLOCK = 4096
DIVERGENCE_NORM = 1e8
# bytes of pre-drawn noise that one lockstep group may hold; larger ensembles
# step group after group
LOCKSTEP_BLOCK_BYTES = 32 * 2**20
_MASK64 = (1 << 64) - 1


def derive_seed(root: int, index: int) -> int:
    """The ``index``-th output of a splitmix64 generator seeded at ``root``: the
    splitmix64 finalizer of ``root + (index + 1) * 0x9E3779B97F4A7C15`` mod ``2**64``."""
    _args.seed("root", root)
    _args.count("index", index, least=0)
    z = (int(root) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def chain_streams(chain_seed: int) -> tuple[np.random.Generator, ...]:
    """The four generators of one chain, PCG64 at ``derive_seed(chain_seed, j)``:
    ``j`` = 0 Brownian increments, 1 smoothing draws, 2 component picks, 3 initial value."""
    return tuple(np.random.Generator(np.random.PCG64(derive_seed(chain_seed, j)))
                 for j in range(4))


@dataclass(frozen=True)
class ChainConfig:
    """Run parameters shared by the chains of one :func:`run`.

    ``eta`` only has to be positive to run; the error bounds additionally
    require ``eta < 1`` and the oracle-dependent cap, which the bounds module
    enforces where it matters.  ``x0`` is the starting point of every chain;
    None draws it from the standard Gaussian, whose finite exponential moment
    the moment bounds require of an initial law (a point mass has no density,
    so bound evaluation refuses it).  ``record_stride`` thins the recorded
    trace (step 0 and step k are always kept).
    """

    beta: float
    eta: float
    k: int
    x0: tuple | None = None
    record_stride: int = 1

    def __post_init__(self):
        _args.positive("beta", self.beta)
        _args.positive("eta", self.eta)
        _args.count("k", self.k)
        _args.count("record_stride", self.record_stride)
        for i, v in enumerate(() if self.x0 is None else self.x0):
            _args.finite(f"x0[{i}]", v)


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


class ExactGradient:
    """Deterministic oracle ``G = grad U`` (plain LMC)."""

    n_batch = picks = 0  # it draws no kernel points and picks no components

    def __init__(self, potential: PotentialSpec):
        self.potential = potential
        self.dim = potential.dim

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

    picks = 0  # it picks no components

    def __init__(self, potential: PotentialSpec, r: float, n_batch: int = 1):
        self.potential = potential
        self.r = float(_args.unit("r", r))
        self.n_batch = int(_args.count("n_batch", n_batch))
        self.dim = potential.dim

    def prep_block(self, n_steps, zeta_rngs, lam_rngs):
        return _smoothing_block(self.dim, self.r, n_steps, self.n_batch, zeta_rngs)

    def grad_at(self, x, block, j):
        pts = (x[:, None, :] + block[:, j]).reshape(-1, self.dim)
        g = np.asarray(self.potential.weak_grad(pts), dtype=float)
        # the sum over axis 1 of (C, n_batch, d), divided by n_batch, has the
        # bits of one chain's mean over axis 0 of (n_batch, d); a test pins
        # this.  It is what mean() computes, without mean()'s call overhead.
        return np.add.reduce(g.reshape(len(x), self.n_batch, self.dim), axis=1) / self.n_batch

    def _rows_at(self, x, block, j, rows):
        """:meth:`grad_at` at the chains ``rows`` with each term divided by ``n_batch``
        before the sum, which overflows only where the mean does."""
        pts = (x[rows, None, :] + block[rows, j]).reshape(-1, self.dim)
        g = np.asarray(self.potential.weak_grad(pts), dtype=float) / self.n_batch
        return np.add.reduce(g.reshape(-1, self.n_batch, self.dim), axis=1)


class FiniteSumSpherical(SphericalSmoothed):
    """Mini-batch smoothed oracle for a finite-sum potential.

    Each of the ``n_batch`` terms evaluates one uniformly chosen component's
    gradient at an independently smoothed point; the ``n / n_batch`` factor
    keeps the estimator unbiased for the smoothed full gradient.
    """

    def __init__(self, fsum: FiniteSumPotential, r: float, n_batch: int = 1):
        super().__init__(fsum, r, n_batch)  # which reads only fsum.dim
        self.fsum, self.potential = fsum, fsum.base
        self.picks = self.n_batch  # one component per term

    def prep_block(self, n_steps, zeta_rngs, lam_rngs):
        # _smoothing_block, not super().prep_block: a wrapper around the
        # parent's method would see this block twice
        zeta = _smoothing_block(self.dim, self.r, n_steps, self.n_batch, zeta_rngs)
        lam = np.empty((len(lam_rngs), n_steps, self.n_batch), dtype=np.int64)
        for c, g in enumerate(lam_rngs):
            lam[c] = g.integers(0, self.fsum.n_components, size=lam.shape[1:])
        return zeta, lam

    def grad_at(self, x, block, j):
        zeta, lam = block
        pts = (x[:, None, :] + zeta[:, j]).reshape(-1, self.dim)
        g = self.fsum.component_grad(lam[:, j].reshape(-1), pts)
        # sequential sum over the batch: sum(axis=1) adds pairwise when that
        # axis is contiguous (d = 1), which changes the bits of the trace
        g = g.reshape(len(x), self.n_batch, self.dim).cumsum(axis=1)[:, -1]
        return g * (self.fsum.n_components / self.n_batch)

    def _rows_at(self, x, block, j, rows):
        zeta, lam = block
        pts = (x[rows, None, :] + zeta[rows, j]).reshape(-1, self.dim)
        g = self.fsum.component_grad(lam[rows, j].reshape(-1), pts) / self.n_batch
        return g.reshape(-1, self.n_batch, self.dim).cumsum(axis=1)[:, -1] * self.fsum.n_components


def _smoothing_block(d: int, r: float, n_steps: int, n_batch: int, rngs) -> np.ndarray:
    """``r`` times kernel draws, chain-major: shape ``(C, n_steps, n_batch, d)``.

    Chain ``c`` takes its ``n_steps * n_batch`` draws from ``rngs[c]`` in one
    call, as a lone chain would, straight into ``block[c]``; the block is then
    scaled in place.
    """
    block = np.empty((len(rngs), n_steps, n_batch, d))
    for c, g in enumerate(rngs):
        _kernel_sample(d, g, size=n_steps * n_batch, out=block[c].reshape(-1, d))
    block *= r
    return block


def _recorded_steps(k: int, stride: int) -> np.ndarray:
    idx = np.arange(0, k + stride, stride, dtype=np.int64)  # ends past k unless stride divides k
    idx[-1] = k
    return idx


def run(oracle, cfg: ChainConfig, seeds) -> list[Trace]:
    """Run one chain per seed in lockstep; one (possibly thinned) trace per seed.

    Chain ``c`` runs under ``seeds[c]`` and reproduces bit for bit the lone
    chain at that seed.  A chain whose iterate becomes non-finite or exceeds
    norm ``1e8`` has diverged, which at a dissipative potential means a step
    size too large for its growth: it stops recording, its trace is the
    partial one with ``diverged_at`` set, and the other chains step on.  A
    smoothed oracle's batch sum that overflows is first formed again with its
    terms divided by ``n_batch``, so only a mean beyond float range diverges.
    The chains step in groups of as many as keep a group's noise block within
    :data:`LOCKSTEP_BLOCK_BYTES`, but at least one, so a chain whose own block
    is larger steps alone with it; every trace's ``elapsed`` is the wall time
    of its group.
    """
    chain_seeds = list(seeds)
    if not chain_seeds:
        raise ValueError("need at least one chain")
    for s in chain_seeds:
        _args.seed("seed", s)
    if cfg.x0 is not None and len(cfg.x0) != oracle.dim:
        raise ValueError(f"x0 has {len(cfg.x0)} coordinates, the chain has dim {oracle.dim}")
    per_chain = 8 * min(NOISE_BLOCK, cfg.k) * ((1 + oracle.n_batch) * oracle.dim + oracle.picks)
    size = max(1, LOCKSTEP_BLOCK_BYTES // per_chain)
    traces = []
    # an overflow in a step leaves a non-finite iterate, which the divergence
    # screen reports, so numpy's overflow warning would only repeat it
    with np.errstate(over="ignore"):
        for lo in range(0, len(chain_seeds), size):
            traces += _lockstep(oracle, cfg, chain_seeds[lo:lo + size])
    return traces


def _lockstep(oracle, cfg: ChainConfig, chain_seeds: list) -> list[Trace]:
    """One trace per seed, the chains stepped together over a ``(C, d)`` array."""
    t0 = time.perf_counter()
    d = oracle.dim
    bm, zrng, lrng, irng = zip(*(chain_streams(s) for s in chain_seeds))
    n_chains = len(chain_seeds)
    if cfg.x0 is None:
        x = np.stack([gen.standard_normal(d) for gen in irng])
    else:
        x = np.tile(np.asarray(cfg.x0, dtype=float), (n_chains, 1))

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
        z_block = np.empty((n_chains, n_steps, d))
        for c, gen in enumerate(bm):
            gen.standard_normal(out=z_block[c])
        z_block *= noise_scale  # once per block: the product a step adds keeps its bits
        o_block = oracle.prep_block(n_steps, zrng, lrng)
        for j in range(n_steps):
            g = oracle.grad_at(x, o_block, j)
            x, before = x - eta * g, x
            x += z_block[:, j]
            i += 1
            if not float(np.vdot(x, x)) <= screen:
                rows = ~np.isfinite(g).all(axis=1)
                if oracle.n_batch and rows.any():
                    # a sum of gradient terms that overflowed, stepped again from the
                    # pre-step state with its terms divided first
                    x[rows] = before[rows] - eta * oracle._rows_at(before, o_block, j, rows)
                    x[rows] += z_block[rows, j]
                for c in range(n_chains):
                    s = float(np.vdot(x[c], x[c]))  # no overflow warning, unlike @
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
        del z_block, o_block  # free the spent block before the next is drawn

    elapsed = time.perf_counter() - t0
    return [
        Trace(
            steps=record[:n],
            iterates=out[c, :n],
            config=cfg,
            elapsed=elapsed,
            diverged_at=diverged_at[c],
        )
        for c, n in enumerate(n_recorded)
    ]


def ss_gradient_batch(oracle, x, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` independent oracle draws at a fixed point, shape ``(n, d)``.

    Smoothing points and component picks both come from ``rng``; inside
    :func:`run` the two kinds of draws come from separate sub-streams instead.
    """
    _args.count("n", n)
    x = np.asarray(x, dtype=float)[None, :]
    block = oracle.prep_block(n, [rng], [rng])
    return np.concatenate([oracle.grad_at(x, block, j) for j in range(n)])


# Trace CSV rows are formatted a block of values at a time (see write_trace_csv).
_CSV_BLOCK = 8192  # values per block; bounds the writer's buffers
# digits a field can show: 10**6 .. 10**-20, as fixed values have -4 <= k <= 6
_MAX_POS = 27
_POW5 = np.array([5**s for s in range(21)], dtype=np.uint64)
_ZEROS = 0x3030303030303030  # eight ASCII "0" bytes
_LSB = 0x0101010101010101


def _least_double_from(j: int) -> float:
    """The least double that is at least ``10**j``."""
    x = 10.0**j
    num, den = x.as_integer_ratio()
    below = num * 10 ** max(-j, 0) < den * 10 ** max(j, 0)
    return math.nextafter(x, math.inf) if below else x


# _CEIL10[j + 5] is the least double >= 10**j, so one comparison either way
# makes floor(log10(a)) exact
_CEIL10 = np.array([_least_double_from(j) for j in range(-5, 9)])


def _decimal17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(q, k)`` for each ``a`` in ``[1e-4, 1e7)``: ``k = floor(log10(a))`` and
    ``q = round_half_even(a * 10**(16 - k))``, the 17 significant digits.

    With ``a = m * 2**e`` and ``s = 16 - k``, ``q`` rounds the integer
    ``m * 5**s < 2**100`` shifted right by ``t = -e - s``, which lies in
    ``[19, 46]``; the product is kept exact in two 64-bit limbs.
    """
    k = np.floor(np.log10(a)).astype(np.int64)
    k += (a >= _CEIL10[k + 6]).astype(np.int64) - (a < _CEIL10[k + 5])
    bits = a.view(np.uint64)
    m = (bits & 2**52 - 1) | 2**52
    f = _POW5[16 - k]
    t = (1059 + k - (bits >> 52).astype(np.int64)).astype(np.uint64)
    mh, ml, fh, fl = m >> 32, m & 0xFFFFFFFF, f >> 32, f & 0xFFFFFFFF
    mid = mh * fl + ml * fh
    lo_low = ml * fl
    lo = lo_low + (mid << 32)
    hi = mh * fh + (mid >> 32) + (lo < lo_low)
    q = (hi << 64 - t) | (lo >> t)
    rem, half = lo & (1 << t) - 1, np.uint64(1) << t - 1
    q += (rem > half) | ((rem == half) & (q & 1).astype(bool))
    return q, k


def _digits8(x: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each ``x < 10**8`` as ASCII, first digit in the low byte."""
    hi = x // 10000
    x = hi | (x - hi * 10000) << 32
    hi = (x * 5243 >> 19) & 0x000000FF000000FF  # // 100 in each 32-bit lane
    x = hi | (x - hi * 100) << 16
    hi = (x * 103 >> 10) & 0x000F000F000F000F  # // 10 in each 16-bit lane
    return (hi | (x - hi * 10) << 8) + _ZEROS


def _byte_mask(x: np.ndarray) -> np.ndarray:
    """0xFF in each nonzero byte of ``x`` and 0 elsewhere, for bytes below 0x80."""
    return (((x + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080) >> 7) * 0xFF


def _digit_rows(q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """48-byte rows holding digit ``i`` of ``q < 10**17`` at byte ``15 + i``, after
    15 ASCII zeros; trailing zeros of ``q`` and the 16 bytes after it are NUL.

    Written into the first ``q.size`` rows of ``rows`` ``(n, 6)`` uint64, whose
    last two words must already be zero."""
    top = q // 10**8
    lead = top // 10**8
    mid8, low8 = _digits8(top - lead * 10**8), _digits8(q - top * 10**8)
    x_mid, x_low = mid8 - _ZEROS, low8 - _ZEROS
    for x in (x_mid, x_low):  # smear each nonzero digit down to the lower bytes
        x |= x >> 8
        x |= x >> 16
        x |= x >> 32
    rows = rows[:q.size]
    rows[:, 0] = _ZEROS
    rows[:, 1] = (lead + 0x30) << 56 | _ZEROS >> 8
    rows[:, 2] = mid8 & _byte_mask(x_mid | (x_low != 0).astype(np.uint64) * _LSB)
    rows[:, 3] = low8 & _byte_mask(x_low)
    return rows


def _step_digits(s: np.ndarray) -> np.ndarray:
    """8 ASCII digits of each ``s < 10**8``, its leading zeros NUL."""
    digits = _digits8(s)
    x = (digits - _ZEROS) | 1 << 56  # the units digit always shows
    x |= x << 8  # smear each nonzero digit up to the higher bytes
    x |= x << 16
    x |= x << 32
    return np.asarray(digits & _byte_mask(x), np.dtype("<u8")).view(np.uint8).reshape(-1, 8)


class _CsvScratch:
    """The buffers that every block of one :func:`write_trace_csv` call reuses,
    for blocks of up to ``n_values`` values in rows of ``d``: the values' digit
    rows, their fields and the block's text.  They share one allocation."""

    def __init__(self, n_values: int, d: int):
        n_digits, n_field = 48 * n_values, n_values * (_MAX_POS + 3)
        n_text = n_field + n_values // d * 9
        buf = np.empty(n_digits + n_field + n_text, np.uint8)
        self.digits = buf[:n_digits].view(np.dtype("<u8")).reshape(n_values, 6)
        self.digits[:, 4:] = 0  # _digit_rows leaves words 4 and 5 zero
        self.field = buf[n_digits:n_digits + n_field]
        self.text = buf[n_digits + n_field:]


def _csv_rows(steps: np.ndarray, values: np.ndarray, scratch: _CsvScratch) -> list[bytes]:
    """The rows ``"%d" + ",%.17g" * d`` of a block of steps and float64 values.

    Each field is cut from its value's digit row at the same columns for the
    whole block, then NUL bytes, which no field shows, are dropped.  Rows
    holding a value other than ``±0`` with ``|v|`` outside ``[1e-4, 1e7)``,
    or a step outside ``[0, 10**8)``, are formatted by ``%`` and spliced in
    place.
    """
    n_rows, d = values.shape
    v = values.ravel()
    a = np.abs(v)
    fixed = (a >= 1e-4) & (a < 1e7)  # "%.17g" prints these in fixed notation
    # no double in the window rounds up to 10**(k + 1), so q < 10**17
    q, k = _decimal17(np.where(fixed, a, 1.0))
    q[~fixed] = 0
    k[~fixed] = 0
    slow = np.flatnonzero(~(fixed | (v == 0))) // d  # a signed zero is q = 0 at k = 0

    # one field per value: ",", sign, the digits at 10**p_max .. 10**0, "."
    # and the digits at 10**-1 .. 10**p_min
    p_max, p_min = max(int(k.max()), 0), int(k.min()) - 16
    n_int, n_pos = p_max + 1, p_max + 1 - p_min
    windows = sliding_window_view(_digit_rows(q, scratch.digits).view(np.uint8), n_pos, axis=1)
    cut = windows[np.arange(v.size), 15 + k - p_max]
    field = scratch.field[:v.size * (n_pos + 3)].reshape(v.size, n_pos + 3)
    field[:, 0] = ord(",")
    field[:, 1] = np.signbit(v) * ord("-")
    np.bitwise_or(cut[:, :n_int], 0x30, out=field[:, 2:n_int + 2])
    for p in range(1, p_max + 1):  # no zeros before the leading integer digit
        field[:, n_int + 1 - p] *= k >= p
    field[:, n_int + 2] = (cut[:, n_int] != 0) * ord(".")
    field[:, n_int + 3:] = cut[:, n_int:]

    ok = (steps >= 0) & (steps < 10**8)
    s = np.where(ok, steps, 0).astype(np.uint64)
    w_step = len(str(int(s.max())))
    width = w_step + d * (n_pos + 3) + 1
    text = scratch.text[:n_rows * width].reshape(n_rows, width)
    np.concatenate(
        [_step_digits(s)[:, 8 - w_step:], field.reshape(n_rows, -1),
         np.broadcast_to(np.uint8(ord("\n")), (n_rows, 1))],
        axis=1, out=text,
    )

    row_fmt = "%d" + ",%.17g" * d + "\n"
    pieces, start = [], 0
    for i in sorted(set(slow.tolist()) | set(np.flatnonzero(~ok).tolist())):
        pieces.append(text[start:i].tobytes().translate(None, b"\0"))
        pieces.append((row_fmt % (steps[i], *values[i].tolist())).encode("ascii"))
        start = i + 1
    pieces.append(text[start:].tobytes().translate(None, b"\0"))
    return pieces


def write_trace_csv(trace: Trace, path, provenance: dict | None = None) -> None:
    """Write a trace as CSV: header ``step,x0,...``, one row per iterate.

    Values carry 17 significant digits so a written trace round-trips the
    float64 iterates exactly.  Provenance entries become leading ``#`` lines;
    a divergence marker line is appended when the trace is partial.

    Each row is the text of ``"%d" + ",%.17g" * d``, byte for byte, but rows
    are formatted in blocks of about :data:`_CSV_BLOCK` values with numpy,
    into buffers that every block of the call reuses.
    The fast path covers a value ``v`` with ``1e-4 <= |v| < 1e7``, which
    ``%.17g`` prints in fixed notation, and ``±0``.  Its digits are the
    integer ``q = round_half_even(|v| * 10**(16 - k))``, ``k`` the decimal
    exponent, computed exactly as ``%.17g`` rounds (correctly, ties to even),
    with trailing zeros dropped.  A row that holds any other value
    (exponent notation, subnormals, ``|v| >= 1e7``, inf and nan) or a step
    outside ``[0, 10**8)`` is formatted by the ``%`` row format itself and
    spliced in place.
    """
    d = trace.dim
    head = "".join(f"# {key}={val}\n" for key, val in (provenance or {}).items())
    head += "step," + ",".join(f"x{j}" for j in range(d)) + "\n"
    with open(path, "wb") as fh:
        fh.write(head.encode("utf-8"))
        steps = np.asarray(trace.steps, dtype=np.int64)
        iterates = np.asarray(trace.iterates, dtype=np.float64)
        block = max(1, _CSV_BLOCK // d)
        scratch = _CsvScratch(min(block, len(steps)) * d, d)
        for lo in range(0, len(steps), block):
            fh.writelines(_csv_rows(steps[lo:lo + block], iterates[lo:lo + block], scratch))
        if trace.diverged_at is not None:
            fh.write(f"# diverged_at_step={trace.diverged_at}\n".encode("utf-8"))
