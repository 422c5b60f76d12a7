"""Moduli of continuity.

A modulus ``omega(r)`` records the largest fluctuation of a function over
pairs of points at distance at most ``r``.  Finiteness of the modulus (rather
than Lipschitz continuity) is the regularity currency of this package: it is
what gradients of dissipative potentials are assumed to have, and the
smoothing bias, the log-Sobolev bound and the envelope in
:mod:`mollmc.bounds` are written in terms of it.  ``eval`` computes in the
arithmetic of its argument, so :mod:`mollmc.bounds` evaluates the modulus in
mpmath, at the same digits as the envelope.

There is one shape, ``omega(r) = jump + M * max(r**alpha, r)``: Hoelder of
exponent ``alpha`` below ``r = 1`` and at most linear beyond it, so that
``omega(t r) <= ceil(t) omega(r)``.  ``hoelder(M, alpha)`` builds it and
``lipschitz(K)`` is ``hoelder(K, 1)``, which evaluates ``K * r``.  ``jump``
is what a discontinuous term adds at every scale, such as a sign term
``lam1 sign(x)`` whose gradient leaps by ``2 lam1`` per coordinate across
zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _args

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
        return cls(alpha=float(_args.unit("alpha", alpha)),
                   scale=float(_args.positive("scale", scale)),
                   jump=float(_args.nonnegative("jump", jump)))

    @classmethod
    def lipschitz(cls, scale: float, jump: float = 0.0) -> "ModulusSpec":
        return cls.hoelder(scale, 1.0, jump)

    def eval(self, r):
        """omega(r) for r > 0, in the arithmetic of ``r``: a float gives a float,
        an mpmath number an mpmath number at the working precision."""
        r = _args.positive("r", r)
        return self.jump + self.scale * max(r**self.alpha, r)
