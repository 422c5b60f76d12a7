"""Moduli of continuity.

A modulus ``omega(r)`` records the largest fluctuation of a function over
pairs of points at distance at most ``r``.  Finiteness of the modulus (rather
than Lipschitz continuity) is the regularity currency of this package: it is
what gradients of dissipative potentials are assumed to have, and the
smoothing bias, the log-Sobolev bound and the envelope in
:mod:`mollmc.bounds` are written in terms of it.

Two modulus shapes are supported:

* ``hoelder(M, alpha)`` evaluates ``M * max(r**alpha, r)``, so growth is at
  most linear beyond ``r = 1``; ``lipschitz(K)`` is ``hoelder(K, 1)``, which
  evaluates ``K * r``,
* ``table(pairs)`` interpolates user-supplied upper bounds piecewise
  linearly (monotonicity is enforced at construction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ModulusSpec"]


@dataclass(frozen=True)
class ModulusSpec:
    """A nondecreasing upper bound ``omega(r)`` on a function's fluctuation scale.

    Construct through :meth:`hoelder`, :meth:`lipschitz`, or :meth:`table`.
    """

    kind: str
    scale: float = 1.0
    alpha: float = 1.0
    knots_r: tuple[float, ...] = field(default=())
    knots_w: tuple[float, ...] = field(default=())

    @classmethod
    def hoelder(cls, scale: float, alpha: float) -> "ModulusSpec":
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        # each comparison is written so that NaN fails it
        if not (0.0 < scale < math.inf):
            raise ValueError(f"scale must be finite and positive, got {scale}")
        return cls(kind="hoelder", scale=float(scale), alpha=float(alpha))

    @classmethod
    def lipschitz(cls, scale: float) -> "ModulusSpec":
        return cls.hoelder(scale, 1.0)

    @classmethod
    def table(cls, pairs) -> "ModulusSpec":
        pts = sorted((float(r), float(w)) for r, w in pairs)
        if not pts:
            raise ValueError("table modulus needs at least one knot")
        rs = tuple(p[0] for p in pts)
        ws = tuple(p[1] for p in pts)
        if not all(0.0 <= r < math.inf for r in rs):
            raise ValueError(f"knot radii must be finite and nonnegative, got {rs}")
        if any(b == a for a, b in zip(rs, rs[1:])):
            raise ValueError("knot radii must be distinct")
        if rs[-1] == 0.0:
            raise ValueError("table modulus needs a knot at a positive radius")
        if not all(0.0 <= w < math.inf for w in ws):
            raise ValueError(f"knot values must be finite and nonnegative, got {ws}")
        if any(b < a for a, b in zip(ws, ws[1:])):
            raise ValueError("table modulus must be nondecreasing")
        return cls(kind="table", knots_r=rs, knots_w=ws)

    def eval(self, r: float) -> float:
        """omega(r) for r > 0."""
        r = float(r)
        if not (r > 0.0) or not math.isfinite(r):
            raise ValueError(f"modulus argument must be a positive real, got {r}")
        if self.kind == "hoelder":
            return self.scale * max(r**self.alpha, r)
        rs, ws = self.knots_r, self.knots_w
        if r <= rs[0]:
            # nondecreasing omega, so the first knot is still an upper bound
            return ws[0]
        if r > rs[-1]:
            # extend by the subadditive scaling omega(t r) <= ceil(t) omega(r)
            return math.ceil(r / rs[-1]) * ws[-1]
        return float(np.interp(r, rs, ws))
