"""The chain's exact distance to its target, and chain moment diagnostics.

:func:`law_w2` is the one measurement of W2(Law(Y_k), pi).  Where the law of
the chain is a product of identical one-dimensional laws, it propagates that
law deterministically on a grid and matches its quantiles against the
target's; elsewhere it returns None rather than an estimate.
:func:`moment_report` summarises one recorded trace.
"""

from __future__ import annotations

import math

import numpy as np

from . import _args
from .mollifier import density
from .samplers import LOCKSTEP_BLOCK_BYTES, ChainConfig, Trace, _recorded_steps

__all__ = ["law_w2", "moment_report"]

# law_w2's grid: its spacing is at most LAW_SPACING noise scales
# sqrt(2 eta / beta), where summing over it integrates a Gaussian step to
# rounding, and LAW_RESOLUTION target scales 1 / sqrt(beta m), where matching
# cell-wise constant densities is within 1e-3 of W2; its half-width is
# LAW_BOX times the larger of that scale and the initial law's, 1.
LAW_SPACING = 0.5
LAW_RESOLUTION = 0.04
LAW_BOX = 10.0
LAW_NODES = 32  # Gauss-Legendre nodes over the smoothing kernel's support


def _law_grid(oracle, cfg: ChainConfig):
    """``(t, transition, target)``: the grid, the matrix that takes a density
    on it one chain step on, and pi_1's unnormalised density; or None."""
    p = oracle.potential
    if (p is None or not p.separable or cfg.x0 is not None
            or (oracle.n_batch and (p.dim > 1 or oracle.n_batch > 1))):
        return None
    sigma = math.sqrt(2.0 * cfg.eta / cfg.beta)
    scale = 1.0 / math.sqrt(cfg.beta * p.m)
    h = min(LAW_SPACING * sigma, LAW_RESOLUTION * scale)
    half = math.ceil(LAW_BOX * max(1.0, scale) / h)
    if 8 * (2 * half + 1) ** 2 > LOCKSTEP_BLOCK_BYTES:
        return None
    t = h * np.arange(-half, half + 1)
    zeta, weight = np.zeros(1), np.ones(1)
    if oracle.n_batch:
        zeta, weight = np.polynomial.legendre.leggauss(LAW_NODES)
        weight *= density(zeta[:, None], 1)
        zeta *= oracle.r
    line = np.zeros((t.size, p.dim))  # the points t e_0
    transition = np.zeros((t.size, t.size))
    for w, z in zip(weight, zeta):  # a mixture over the kernel point
        line[:, 0] = t + z
        mean = t - cfg.eta * np.asarray(p.weak_grad(line), dtype=float)[:, 0]
        transition += w * np.exp(-0.5 * np.square((t[:, None] - mean) / sigma))
    transition *= h / (sigma * math.sqrt(2.0 * math.pi))
    line[:, 0] = t
    u = cfg.beta * np.asarray(p.value(line), dtype=float)
    return t, transition, np.exp(u.min() - u)


def _cdf(dens: np.ndarray) -> np.ndarray:
    """The CDF at the grid of a density constant on each cell at the mean of its ends."""
    c = np.concatenate(([0.0], np.cumsum(dens[1:] + dens[:-1])))
    return c / c[-1]


def law_w2(oracle, cfg: ChainConfig) -> np.ndarray | None:
    """W2(Law(Y_s), pi) at each step ``s`` that a run of ``cfg`` records
    (``Trace.steps``), with ``pi`` proportional to ``exp(-beta U)``; or None.

    On a potential declared ``separable``, a chain started from the standard
    Gaussian has at every step the product of ``d`` copies of one 1-D law,
    and ``pi`` is the product of copies of ``pi_1 ~ exp(-beta U(t e_0))``, so
    the distance is ``sqrt(d) W2_1``.  The 1-D law is propagated from N(0, 1)
    as a density on a grid: a step is a Gaussian of variance ``2 eta / beta``
    about ``t - eta dU/dt``, summed over the grid.  For a smoothed oracle with
    one kernel point at d = 1 (an equal-split sum has the same law) it is a
    mixture over the kernel point, by Gauss-Legendre against its density.
    ``W2_1`` matches quantiles of the two laws, each with a density constant
    on every cell: the quantile functions are then linear between the levels
    of either CDF, and the integral of their squared gap is exact.

    None, never an approximation, where the law is not such a product: a
    potential not declared separable (or a sum of distinct components), a
    point ``x0``, a smoothed oracle at d > 1, whose spherical kernel couples
    the coordinates, or with ``n_batch > 1``; and a grid whose transition
    matrix would exceed :data:`~mollmc.samplers.LOCKSTEP_BLOCK_BYTES`.
    """
    grid = _law_grid(oracle, cfg)
    if grid is None:
        return None
    t, transition, target = grid
    target_cdf, law = _cdf(target), np.exp(-0.5 * t * t)
    steps = _recorded_steps(cfg.k, cfg.record_stride)
    w2 = np.empty(len(steps))
    for i, s in enumerate(steps):
        for _ in range(s - steps[i - 1] if i else 0):
            law = transition @ law
        f = _cdf(law)
        u = np.union1d(f, target_cdf)
        gap = np.interp(u, f, t) - np.interp(u, target_cdf, t)
        sq = gap[:-1] ** 2 + gap[:-1] * gap[1:] + gap[1:] ** 2
        w2[i] = math.sqrt(float(np.dot(np.diff(u), sq)) / 3.0)
    return math.sqrt(oracle.potential.dim) * w2


def _finite(value) -> float | None:
    """``value`` as a float, or None where it is undefined or overflows, so that
    a summary written from it stays valid JSON."""
    value = float(value)
    return value if math.isfinite(value) else None


def moment_report(trace: Trace, burn_in: int | None = None, m: float | None = None) -> dict:
    """Moment summary of a recorded trace.

    Post burn-in mean, second moment with a naive standard error, the
    largest iterate norm, and (when the dissipativity slope ``m`` is given)
    the empirical exponential moment at ``alpha = min(1, beta m / 4)``, the
    exponent the moment bounds use.  Standard errors treat recorded points
    as independent, which understates autocorrelated error; they are meant
    for envelope checks with generous cushions.  A standard error of one
    point, and an exponential moment or error beyond float range, is None.
    """
    burn = trace.n_recorded // 2 if burn_in is None else _args.count("burn_in", burn_in, least=0)
    if burn >= trace.n_recorded:
        raise ValueError("burn_in must be smaller than the recorded length")
    pts = trace.iterates[burn:]
    n = pts.shape[0]
    sq = np.sum(np.square(pts), axis=1)
    report = {
        "n_used": int(n),
        "burn_in": int(burn),
        "mean": pts.mean(axis=0).tolist(),
        "second_moment": float(sq.mean()),
        "second_moment_se": _finite(sq.std(ddof=1) / math.sqrt(n)) if n > 1 else None,
        "max_norm": float(np.sqrt(np.max(np.sum(np.square(trace.iterates), axis=1)))),
    }
    if m is not None:
        alpha = min(1.0, trace.config.beta * float(_args.positive("m", m)) / 4.0)
        report["exp_moment_alpha"] = float(alpha)
        with np.errstate(over="ignore", invalid="ignore"):
            ev = np.exp(alpha * sq)
            report["exp_moment"] = _finite(ev.mean())
            report["exp_moment_se"] = _finite(ev.std(ddof=1) / math.sqrt(n)) if n > 1 else None
    return report
