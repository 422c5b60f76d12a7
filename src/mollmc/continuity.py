"""Moduli of continuity.

A modulus ``omega(r)`` records the largest fluctuation of a function over
pairs of points at distance at most ``r``.  Finiteness of the modulus (rather
than Lipschitz continuity) is the regularity currency of this package: it is
what gradients of dissipative potentials are assumed to have, and the
smoothing bias, the log-Sobolev bound and the envelope in
:mod:`mollmc.bounds` are written in terms of it.

There is one shape, ``omega(r) = jump + M * max(r**alpha, r)``: Hoelder of
exponent ``alpha`` below ``r = 1`` and at most linear beyond it, so that
``omega(t r) <= ceil(t) omega(r)``.  ``hoelder(M, alpha)`` builds it and
``lipschitz(K)`` is ``hoelder(K, 1)``, which evaluates ``K * r``.  ``jump``
is what a discontinuous term adds at every scale, such as a sign term
``lam1 sign(x)`` whose gradient leaps by ``2 lam1`` per coordinate across
zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ModulusSpec"]


@dataclass(frozen=True)
class ModulusSpec:
    """``omega(r) = jump + scale * max(r**alpha, r)``, a nondecreasing upper
    bound on a function's fluctuation over distance ``r``.

    Construct through :meth:`hoelder` or :meth:`lipschitz`.
    """

    scale: float
    alpha: float
    jump: float

    @classmethod
    def hoelder(cls, scale: float, alpha: float, jump: float = 0.0) -> "ModulusSpec":
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        # each comparison is written so that NaN fails it
        if not (0.0 < scale < math.inf):
            raise ValueError(f"scale must be finite and positive, got {scale}")
        if not (0.0 <= jump < math.inf):
            raise ValueError(f"jump must be finite and nonnegative, got {jump}")
        return cls(scale=float(scale), alpha=float(alpha), jump=float(jump))

    @classmethod
    def lipschitz(cls, scale: float, jump: float = 0.0) -> "ModulusSpec":
        return cls.hoelder(scale, 1.0, jump)

    def eval(self, r: float) -> float:
        """omega(r) for r > 0."""
        r = float(r)
        if not (r > 0.0) or not math.isfinite(r):
            raise ValueError(f"modulus argument must be a positive real, got {r}")
        return self.jump + self.scale * max(r**self.alpha, r)
