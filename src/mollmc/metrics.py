"""Empirical transport distances and chain moment diagnostics.

The quadratic transport distance between two equally sized point clouds is
solved exactly as an optimal assignment; in one dimension the optimal
matching is the sorted one, which gives an O(n log n) route used both on its
own and as the per-projection kernel of the sliced estimator.  The sliced
value averages squared one-dimensional distances over random directions and
is a projection-contracted proxy, not the distance itself; outputs say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .samplers import Trace

__all__ = [
    "SampleSet",
    "w2_exact",
    "w2_1d",
    "w2_sliced",
    "moment_report",
    "ASSIGNMENT_BUDGET",
]

ASSIGNMENT_BUDGET = 512


@dataclass(frozen=True)
class SampleSet:
    """Uniformly weighted empirical measure: points of shape (n, d)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError(f"points must have shape (n, d), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("sample points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @classmethod
    def from_trace(cls, trace: Trace, burn_in: int | None = None) -> "SampleSet":
        """Recorded iterates after a burn-in count (default: first half)."""
        burn = trace.n_recorded // 2 if burn_in is None else int(burn_in)
        if not (0 <= burn < trace.n_recorded):
            raise ValueError("burn_in must be smaller than the recorded length")
        return cls(trace.iterates[burn:])


def _paired(a: SampleSet, b: SampleSet) -> tuple[np.ndarray, np.ndarray]:
    if a.n != b.n:
        raise ValueError(f"sample sets must have equal sizes, got {a.n} and {b.n}")
    if a.dim != b.dim:
        raise ValueError(f"sample sets must share the dimension, got {a.dim} and {b.dim}")
    return a.points, b.points


def w2_exact(a: SampleSet, b: SampleSet) -> float:
    """Exact quadratic transport distance via optimal assignment.

    Cubic-time in n, so the size is capped at :data:`ASSIGNMENT_BUDGET`.
    """
    try:
        from scipy.optimize import linear_sum_assignment  # only this solver needs scipy
    except ImportError as err:
        raise ImportError("w2_exact needs scipy; install mollmc[exact]") from err

    x, y = _paired(a, b)
    if a.n > ASSIGNMENT_BUDGET:
        raise ValueError(f"assignment solver budget is n <= {ASSIGNMENT_BUDGET}, got {a.n}")
    cost = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(float(cost[rows, cols].mean()))


def w2_1d(a: SampleSet, b: SampleSet) -> float:
    """Quadratic transport distance in one dimension (sorted matching)."""
    x, y = _paired(a, b)
    if a.dim != 1:
        raise ValueError(f"w2_1d requires dimension 1, got {a.dim}")
    xs = np.sort(x[:, 0])
    ys = np.sort(y[:, 0])
    return math.sqrt(float(np.mean((xs - ys) ** 2)))


def w2_sliced(a: SampleSet, b: SampleSet, n_proj: int, rng: np.random.Generator) -> float:
    """Sliced proxy: root mean of squared 1-D distances over random directions.

    Each projection contracts the true distance, so this is a lower-bound
    flavoured diagnostic that scales to sizes the exact solver cannot touch.
    """
    x, y = _paired(a, b)
    if n_proj < 1:
        raise ValueError("n_proj must be at least 1")
    dirs = rng.standard_normal((n_proj, a.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    px = np.sort(x @ dirs.T, axis=0)
    py = np.sort(y @ dirs.T, axis=0)
    return math.sqrt(float(np.mean((px - py) ** 2)))


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
    burn = trace.n_recorded // 2 if burn_in is None else int(burn_in)
    if not (0 <= burn < trace.n_recorded):
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
        alpha = min(1.0, trace.config.beta * float(m) / 4.0)
        report["exp_moment_alpha"] = float(alpha)
        with np.errstate(over="ignore", invalid="ignore"):
            ev = np.exp(alpha * sq)
            report["exp_moment"] = _finite(ev.mean())
            report["exp_moment_se"] = _finite(ev.std(ddof=1) / math.sqrt(n)) if n > 1 else None
    return report
