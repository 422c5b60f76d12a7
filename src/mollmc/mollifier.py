"""The compact polynomial smoothing kernel and its exact sampler.

The kernel has unit radius: ``rho(x) = Z_d^{-1} (1 - |x|^2)^3`` on the
closed unit ball and zero outside, with ``Z_d = pi^{d/2} B(d/2, 4) /
Gamma(d/2)``.  Callers scale it to radius ``r`` themselves: the kernel
``rho_r(y) = rho(y / r) / r^d`` has the draws ``r * zeta`` for unit draws
``zeta``.  Two properties make it the kernel of choice here: it is twice
continuously differentiable across the support boundary, and its gradient
has the explicit integral

    int |grad rho| dx = (d+6)(d+4)(d+2)d / ((d+5)(d+3)(d+1)) <= d + 4,

which no smooth compactly supported probability density can beat by more
than the factor (the integral of any such density's gradient is at least d).

A draw factors exactly into a uniform direction on the unit sphere times the
radius ``sqrt(B)`` with ``B ~ Beta(d/2, 4)``; its squared radius is
therefore Beta(d/2, 4) distributed, which the tests exploit as a
distributional oracle.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["density", "grad_density", "grad_l1_norm", "sample"]

_NORM_ROWS = 8192  # rows squared at a time by _row_norms


def _log_norm(d: int) -> float:
    """log Z_d."""
    # log B(d/2, 4) = lgamma(d/2) + lgamma(4) - lgamma(d/2 + 4)
    return 0.5 * d * math.log(math.pi) + math.lgamma(4.0) - math.lgamma(0.5 * d + 4.0)


def _as_points(x, d: int) -> tuple[np.ndarray, bool]:
    """Coerce ``x`` to shape (n, d); returns (points, was_single)."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        if d != 1:
            raise ValueError(f"scalar input only valid for dim 1, kernel has dim {d}")
        a = a.reshape(1, 1)
        return a, True
    if a.ndim == 1:
        if a.shape[0] != d:
            raise ValueError(f"point has dimension {a.shape[0]}, kernel has dim {d}")
        return a.reshape(1, d), True
    if a.ndim == 2 and a.shape[1] == d:
        return a, False
    raise ValueError(f"expected shape (d,) or (n, d) with d={d}, got {a.shape}")


def density(x, d: int):
    """Kernel density ``rho`` in dimension ``d`` at one point or a batch of points."""
    pts, single = _as_points(x, d)
    if not np.all(np.isfinite(pts)):
        raise ValueError("density input must be finite")
    u2 = np.einsum("ij,ij->i", pts, pts)
    out = np.zeros(pts.shape[0])
    inside = u2 < 1.0
    out[inside] = math.exp(-_log_norm(d)) * (1.0 - u2[inside]) ** 3
    return float(out[0]) if single else out


def grad_density(x, d: int):
    """Gradient of ``rho``; zero on and outside the support boundary."""
    pts, single = _as_points(x, d)
    if not np.all(np.isfinite(pts)):
        raise ValueError("grad_density input must be finite")
    u2 = np.einsum("ij,ij->i", pts, pts)
    out = np.zeros_like(pts)
    inside = u2 < 1.0
    c = math.exp(-_log_norm(d)) * (-6.0)
    out[inside] = c * ((1.0 - u2[inside]) ** 2)[:, None] * pts[inside]
    return out[0] if single else out


def grad_l1_norm(d: int) -> float:
    """Exact integral of ``|grad rho|`` in dimension ``d``.

    Equals ``(d+6)(d+4)(d+2)d / ((d+5)(d+3)(d+1))`` and always lies in
    ``[d, d+4]``.
    """
    if int(d) != d or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d}")
    d = int(d)
    return (d + 6) * (d + 4) * (d + 2) * d / ((d + 5) * (d + 3) * (d + 1))


def _row_norms(g: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(g, axis=1)`` bit for bit: ``sqrt(add.reduce(g*g, axis=1))``,
    squaring :data:`_NORM_ROWS` rows at a time into one scratch array."""
    norms = np.empty(len(g))
    sq = np.empty((min(len(g), _NORM_ROWS), g.shape[1]))
    for lo in range(0, len(g), _NORM_ROWS):
        rows = g[lo:lo + _NORM_ROWS]
        s = np.multiply(rows, rows, out=sq[:len(rows)])
        np.add.reduce(s, axis=1, out=norms[lo:lo + len(rows)])
    return np.sqrt(norms, out=norms)


def sample(
    d: int, rng: np.random.Generator, size: int | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Exact draws with density ``rho`` in dimension ``d``.

    Direction is a normalised Gaussian vector (redrawn in the measure-zero
    event of a zero norm); the radius is ``sqrt(B)`` with
    ``B ~ Beta(d/2, 4)``.  Consumption order per call: all direction
    Gaussians first, then all Beta draws.  The Gaussian array is normalised
    and scaled in place, so a call holds its result and ``O(size)`` scratch.

    Returns shape ``(d,)`` when ``size`` is None, else ``(size, d)``.  Given
    ``out`` (float64, C-contiguous, shape ``(size, d)``), the Gaussians are
    drawn into it, the draws are finished there in the same order and with
    the same bits, and ``out`` is returned; a wrong shape raises
    ``ValueError`` before any draw.
    """
    for name, value in (("d", d), ("size", 1 if size is None else size)):
        if not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    single = size is None
    n = 1 if single else int(size)
    g = rng.standard_normal((n, d), out=out)  # numpy checks out's shape first
    norms = _row_norms(g)
    while np.any(norms == 0.0):  # pragma: no cover - probability zero
        bad = norms == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = _row_norms(g)
    scale = rng.beta(0.5 * d, 4.0, size=n)
    np.sqrt(scale, out=scale)
    # the bits of g / norms[:, None] * sqrt(b)[:, None]
    g /= norms[:, None]
    g *= scale[:, None]
    return g[0] if single else g
