"""The compact polynomial smoothing kernel and its exact sampler.

The kernel is ``rho(x) = Z_d^{-1} (1 - |x|^2)^3`` on the closed unit ball and
zero outside, with ``Z_d = pi^{d/2} B(d/2, 4) / Gamma(d/2)``.  Rescaling to
radius ``r`` is ``rho_r(x) = r^{-d} rho(x / r)``.  Two properties make it the
kernel of choice here: it is twice continuously differentiable across the
support boundary, and its gradient has the explicit integral

    int |grad rho| dx = (d+6)(d+4)(d+2)d / ((d+5)(d+3)(d+1)) <= d + 4,

which no smooth compactly supported probability density can beat by more
than the factor (the integral of any such density's gradient is at least d).

Draws with density ``rho_r`` factor exactly into a uniform direction on the
unit sphere times the radius ``r * sqrt(B)`` with ``B ~ Beta(d/2, 4)``; the
squared radius of a unit-scale draw is therefore Beta(d/2, 4) distributed,
which the tests exploit as a distributional oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Mollifier", "density", "grad_density", "grad_l1_norm", "sample"]


@dataclass(frozen=True)
class Mollifier:
    """Smoothing kernel of dimension ``dim`` and support radius ``radius``."""

    dim: int
    radius: float = 1.0

    def __post_init__(self):
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if not (0.0 < self.radius <= 1.0):
            raise ValueError(f"radius must lie in (0, 1], got {self.radius}")

    @property
    def log_norm(self) -> float:
        """log Z_d of the unit-radius kernel."""
        d = self.dim
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


def density(x, m: Mollifier):
    """Kernel density ``rho_r`` at one point or a batch of points."""
    pts, single = _as_points(x, m.dim)
    if not np.all(np.isfinite(pts)):
        raise ValueError("density input must be finite")
    r = m.radius
    u2 = np.einsum("ij,ij->i", pts, pts) / (r * r)
    out = np.zeros(pts.shape[0])
    inside = u2 < 1.0
    c = math.exp(-m.log_norm) * r ** (-m.dim)
    out[inside] = c * (1.0 - u2[inside]) ** 3
    return float(out[0]) if single else out


def grad_density(x, m: Mollifier):
    """Gradient of ``rho_r``; zero on and outside the support boundary."""
    pts, single = _as_points(x, m.dim)
    if not np.all(np.isfinite(pts)):
        raise ValueError("grad_density input must be finite")
    r = m.radius
    u = pts / r
    u2 = np.einsum("ij,ij->i", u, u)
    out = np.zeros_like(pts)
    inside = u2 < 1.0
    c = math.exp(-m.log_norm) * r ** (-m.dim - 1)
    out[inside] = c * (-6.0) * ((1.0 - u2[inside]) ** 2)[:, None] * u[inside]
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


def sample(m: Mollifier, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Exact draws with density ``rho_r``.

    Direction is a normalised Gaussian vector (redrawn in the measure-zero
    event of a zero norm); the radius is ``r * sqrt(B)`` with
    ``B ~ Beta(d/2, 4)``.  Consumption order per call: all direction
    Gaussians first, then all Beta draws.

    Returns shape ``(d,)`` when ``size`` is None, else ``(size, d)``.
    """
    single = size is None
    n = 1 if single else int(size)
    if n < 1:
        raise ValueError("size must be at least 1")
    d = m.dim
    g = rng.standard_normal((n, d))
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms == 0.0):  # pragma: no cover - probability zero
        bad = norms == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(g, axis=1)
    b = rng.beta(0.5 * d, 4.0, size=n)
    pts = g / norms[:, None] * (m.radius * np.sqrt(b))[:, None]
    return pts[0] if single else pts
