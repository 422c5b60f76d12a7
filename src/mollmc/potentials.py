"""Potential descriptors, built-in test potentials, and assumption checks.

A :class:`PotentialSpec` packages a nonnegative potential together with the
constants every bound in this package consumes: a representative weak
gradient, dissipativity constants ``(m, b)`` with
``<x, grad U(x)> >= m |x|^2 - b``, a declared modulus of continuity for the
gradient, ``|grad U(0)|``, and the sup of ``U`` over the unit ball.

``separable`` declares ``U(x) = sum_i u(x_i)`` for one function ``u`` of a
coordinate, which :func:`mollmc.metrics.law_w2` needs for an exact law.

``value`` and ``weak_grad`` must be pure and accept arrays of shape ``(d,)``
or ``(n, d)``; everything downstream (samplers, smoothing oracles, ensemble
runners) relies on that batching contract.

A :class:`FiniteSumPotential` is batched over components too: row ``b`` of
``pts`` (shape ``(B, d)``) is evaluated under component ``idx[b]``.

Declared constants are exactly that: declarations.  :func:`check_assumptions`
and :func:`check_finite_sum` re-validate them by sampling, reporting
worst-case margins rather than raising, so a deliberately wrong declaration
is visible instead of fatal.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .continuity import ModulusSpec

__all__ = [
    "PotentialSpec",
    "FiniteSumPotential",
    "builtin",
    "check_assumptions",
    "check_finite_sum",
    "BUILTIN_NAMES",
]

BUILTIN_NAMES = ("quadratic", "double_well", "hoelder_mix", "elastic_net_logistic")


@dataclass(frozen=True)
class PotentialSpec:
    """A potential with the constants needed by samplers and bounds."""

    name: str
    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    weak_grad: Callable[[np.ndarray], np.ndarray]
    m: float
    b: float
    modulus: ModulusSpec
    grad_at_zero: float
    u0: float
    separable: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        # each comparison is written so that NaN fails it
        if not (0.0 < self.m < math.inf and 0.0 <= self.b < math.inf):
            raise ValueError(f"dissipativity requires finite m > 0 and b >= 0, "
                             f"got m = {self.m}, b = {self.b}")


@dataclass(frozen=True)
class FiniteSumPotential:
    """A potential ``U = sum_i U_i`` for mini-batch smoothed gradients.

    ``component_value(idx, pts)`` (shape ``(B,)``) and ``component_grad(idx,
    pts)`` (shape ``(B, d)``) are pure and evaluate row ``b`` of ``pts`` (shape
    ``(B, d)``) under component ``idx[b]``, one whole mini-batch per call.

    ``omega_hat`` is the aggregate fluctuation scale: each component gradient
    is declared to fluctuate by at most ``omega_hat(r) / n`` over distance
    ``r``.  The check below validates this on the component *gradients*; the
    value-level variant would exclude every dissipative sum (bounded value
    oscillation at all scales forces bounded gradients, which contradicts
    ``<x, grad U> >= m |x|^2 - b``).

    ``base`` is the potential an :meth:`equal_split` sum was split from.
    """

    name: str
    dim: int
    n_components: int
    component_value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    component_grad: Callable[[np.ndarray, np.ndarray], np.ndarray]
    m: float
    b: float
    omega_hat: ModulusSpec
    base: PotentialSpec | None = None

    def _total(self, fun, x):
        # one component at a time in index order: the summation order, and so
        # the bits of a total, do not depend on how the points are batched
        pts = np.reshape(x, (-1, self.dim))
        total = sum(fun(np.full(len(pts), i), pts) for i in range(self.n_components))
        return total.reshape(np.shape(x)[:-1] + total.shape[1:])

    def total_value(self, x):
        return self._total(self.component_value, x)

    def total_grad(self, x):
        return self._total(self.component_grad, x)

    @classmethod
    def equal_split(cls, p: PotentialSpec, n: int) -> "FiniteSumPotential":
        """Split ``p`` into ``n`` identical components ``U / n``."""
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        w = 1.0 / n
        return cls(
            name=f"{p.name}/split{n}",
            dim=p.dim,
            n_components=n,
            component_value=lambda idx, pts: w * p.value(pts),
            component_grad=lambda idx, pts: w * p.weak_grad(pts),
            m=p.m,
            b=p.b,
            omega_hat=p.modulus,
            base=p,
        )


def _sigmoid(u):
    return 0.5 * (1.0 + np.tanh(0.5 * u))


def _sig_prod(u):
    # sigma(u) * sigma(-u), the magnitude of the sigmoid-loss gradient
    s = _sigmoid(u)
    return s * (1.0 - s)


# max_u |d/du sigma(u)sigma(-u)|, attained where sigma = 1/2 +- 1/(2 sqrt 3)
_SIG_CURVATURE = 1.0 / (6.0 * math.sqrt(3.0))


def builtin(name: str, d: int, **params) -> PotentialSpec:
    """A built-in potential by name.

    quadratic            |x|^2 / 2
    double_well          (|x|^2 - c)^2 / 4 + |x|^2 / 2            (c > 0)
    hoelder_mix          |x|^2/2 + sum_i |x_i|^{1+alpha}/(1+alpha) (alpha in (0,1])
    elastic_net_logistic sum_i sigma(-x_i) + lam1 ||x||_1 + lam2 |x|^2 / 2
    """
    if d < 1 or int(d) != d:
        raise ValueError("d must be a positive integer")
    d = int(d)

    if name == "quadratic":
        if params:
            raise ValueError(f"quadratic takes no parameters, got {params}")
        return PotentialSpec(
            name="quadratic",
            dim=d,
            value=lambda x: 0.5 * np.sum(np.square(x), axis=-1),
            weak_grad=lambda x: np.asarray(x, dtype=float),
            m=1.0,
            b=0.0,
            modulus=ModulusSpec.lipschitz(1.0),
            grad_at_zero=0.0,
            u0=0.5,
            separable=True,
        )

    if name == "double_well":
        c = float(params.pop("c", 1.0))
        if params:
            raise ValueError(f"unknown double_well parameters {params}")
        if not (0.0 < c < math.inf):
            raise ValueError("c must be positive")

        def dw_value(x, c=c):
            s = np.sum(np.square(x), axis=-1)
            return 0.25 * (s - c) ** 2 + 0.5 * s

        def dw_grad(x, c=c):
            x = np.asarray(x, dtype=float)
            s = np.sum(np.square(x), axis=-1)
            return (s - c + 1.0)[..., None] * x if x.ndim > 1 else (s - c + 1.0) * x

        # Hessian norm within |x| <= R0; the global modulus is infinite
        # (cubic gradient growth), so the assumption check is expected to
        # flag the modulus line.  |x|^4 couples the coordinates, so the
        # potential is not separable and its chain has no exact law.
        r0 = 2.0 * max(1.0, math.sqrt(c))
        k_local = 3.0 * r0 * r0 + abs(1.0 - c)
        return PotentialSpec(
            name="double_well",
            dim=d,
            value=dw_value,
            weak_grad=dw_grad,
            m=1.0,
            b=0.25 * c * c,
            modulus=ModulusSpec.lipschitz(k_local),
            grad_at_zero=0.0,
            u0=max(0.25 * c * c, 0.25 * (1.0 - c) ** 2 + 0.5),
        )

    if name == "hoelder_mix":
        alpha = float(params.pop("alpha", 0.5))
        if params:
            raise ValueError(f"unknown hoelder_mix parameters {params}")
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")

        def hm_value(x, alpha=alpha):
            x = np.asarray(x, dtype=float)
            s = np.sum(np.square(x), axis=-1)
            return 0.5 * s + np.sum(np.abs(x) ** (1.0 + alpha), axis=-1) / (1.0 + alpha)

        def hm_grad(x, alpha=alpha):
            x = np.asarray(x, dtype=float)
            return x + np.sign(x) * np.abs(x) ** alpha

        # |sgn(u)|u|^a - sgn(v)|v|^a| <= 2^{1-a} |u-v|^a per coordinate and
        # sum_i a_i^alpha <= d^{1-alpha} (sum_i a_i)^alpha give the constant
        big_m = 1.0 + 2.0 ** (1.0 - alpha) * d ** (0.5 * (1.0 - alpha))
        return PotentialSpec(
            name="hoelder_mix",
            dim=d,
            value=hm_value,
            weak_grad=hm_grad,
            m=1.0,
            b=0.0,
            modulus=ModulusSpec.hoelder(big_m, alpha),
            grad_at_zero=0.0,
            u0=0.5 + d ** (0.5 * (1.0 - alpha)) / (1.0 + alpha),
            separable=True,
        )

    if name == "elastic_net_logistic":
        lam1 = float(params.pop("lam1", 0.1))
        lam2 = float(params.pop("lam2", 1.0))
        if params:
            raise ValueError(f"unknown elastic_net_logistic parameters {params}")
        if not (0.0 <= lam1 < math.inf and 0.0 < lam2 < math.inf):
            raise ValueError("need lam1 >= 0 and lam2 > 0")

        def en_value(x, lam1=lam1, lam2=lam2):
            x = np.asarray(x, dtype=float)
            return (
                np.sum(_sigmoid(-x), axis=-1)
                + lam1 * np.sum(np.abs(x), axis=-1)
                + 0.5 * lam2 * np.sum(np.square(x), axis=-1)
            )

        def en_grad(x, lam1=lam1, lam2=lam2):
            x = np.asarray(x, dtype=float)
            return -_sig_prod(x) + lam1 * np.sign(x) + lam2 * x

        # b = d * sup_u (u sig_prod(u) - lam1 |u|), found on a dense grid;
        # the sup is attained below |u| = 8 since sig_prod decays like e^{-u}
        u = np.linspace(0.0, 8.0, 20001)
        b1 = float(np.max(u * _sig_prod(u) - lam1 * u))
        b1 = max(b1, 0.0)

        # sign jumps contribute 2 lam1 sqrt(d) at any scale, and the smooth
        # part is (lam2 + max|d sig_prod|)-Lipschitz
        return PotentialSpec(
            name="elastic_net_logistic",
            dim=d,
            value=en_value,
            weak_grad=en_grad,
            m=lam2,
            b=d * b1,
            modulus=ModulusSpec.lipschitz(lam2 + _SIG_CURVATURE, jump=2.0 * lam1 * math.sqrt(d)),
            grad_at_zero=0.25 * math.sqrt(d),
            u0=d * float(_sigmoid(1.0 / math.sqrt(d))) + lam1 * math.sqrt(d) + 0.5 * lam2,
            separable=True,
        )

    raise ValueError(f"unknown builtin potential {name!r}; choose from {BUILTIN_NAMES}")


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    margin: float
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class AssumptionReport:
    target: str
    items: tuple

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "passed": self.passed,
            "items": [item.to_dict() for item in self.items],
        }


def _sample_points(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Points on a radial log grid with random directions.

    Dissipativity violations show up at large radius and modulus violations
    at small scales, so radii span [1e-3, 1e2] logarithmically.
    """
    if n < 1:
        raise ValueError(f"n_samples must be at least 1, got {n}")
    radii = np.geomspace(1e-3, 1e2, n)
    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return radii[:, None] * dirs


def _pairs(x, n_pairs, rng):
    """Base points drawn from ``x``, partners at unit directions and
    log-spaced distances in [1e-3, 1], and nominal and realized distances."""
    base = x[rng.choice(len(x), size=n_pairs, replace=False)]
    dirs = rng.standard_normal((n_pairs, x.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    steps = np.geomspace(1e-3, 1.0, n_pairs)
    other = base + steps[:, None] * dirs
    return base, other, steps, np.linalg.norm(other - base, axis=1)


def _worst(name, x, margin, m, b, detail) -> CheckItem:
    """``margin >= 0`` where tightest over ``x`` (``{r}`` in ``detail`` is its
    radius), allowing for the rounding, about ``|x|^2 * eps``, of two sides
    reduced in different orders."""
    r2 = np.sum(np.square(x), axis=-1)
    slack = margin + 1e-9 * (1.0 + m * r2 + b)
    i = int(np.argmin(slack))
    return CheckItem(name, float(slack[i]) >= 0.0, float(margin[i]),
                     detail.format(r=math.sqrt(r2[i])))


def _dissipativity(name, x, grad, m, b) -> CheckItem:
    """``<x, grad> >= m |x|^2 - b`` at the points ``x``."""
    diss = np.einsum("ij,ij->i", x, grad) - (m * np.sum(np.square(x), axis=-1) - b)
    return _worst(name, x, diss, m, b, "worst at |x|={r:.3g}")


def _modulus(name, modulus, scale, pairs, grad, note) -> CheckItem:
    """Declared ``modulus(dist) / scale`` against the fluctuation of ``grad``
    on ``pairs`` (a row per component, if several), with a rounding allowance."""
    base, other, steps, dist = pairs
    allowed = np.array([modulus.eval(s) for s in dist]) / scale
    fluct = np.linalg.norm(np.asarray(grad(base)) - np.asarray(grad(other)), axis=-1)
    fluct = np.reshape(fluct, (-1, len(dist)))
    gap = np.min(allowed - fluct + 1e-9 * (1.0 + allowed), axis=0)
    j = int(np.argmin(gap))
    return CheckItem(name, float(gap[j]) >= 0.0, float(gap[j]),
                     f"worst at |x|={np.linalg.norm(base[j]):.3g}, step={steps[j]:.3g}{note}")


def check_assumptions(p: PotentialSpec, n_samples: int = 10_000, rng=None) -> AssumptionReport:
    """Sampled validation of the declared constants of ``p``.

    Six lines are checked, each with its worst-case margin (nonnegative
    means pass): ``U >= 0``, dissipativity, the quadratic lower bound
    ``U >= m/3 |x|^2 - b/2 log 3`` it implies, the declared modulus against
    sampled gradient fluctuations, ``|grad U(0)| <= grad_at_zero`` and
    ``U <= u0`` on the unit ball.  Failures are reported, not raised.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    x = _sample_points(p.dim, n_samples, rng)
    val = np.asarray(p.value(x), dtype=float)
    r2 = np.sum(np.square(x), axis=-1)
    margin = float(np.min(val))
    items = [
        CheckItem("nonnegative_value", margin >= 0.0, margin, f"min U over {n_samples} points"),
        _dissipativity("dissipativity", x, np.asarray(p.weak_grad(x), dtype=float), p.m, p.b),
        _worst("quadratic_lower_bound", x, val - (p.m / 3.0 * r2 - 0.5 * p.b * math.log(3.0)),
               p.m, p.b, "U >= m/3 |x|^2 - b/2 log 3"),
    ]
    pairs = _pairs(x, min(n_samples, 2000), rng)
    items.append(_modulus("gradient_modulus", p.modulus, 1.0, pairs, p.weak_grad, ""))
    zero = np.zeros((1, p.dim))
    g0 = np.linalg.norm(p.weak_grad(zero), axis=-1)
    ball = r2 <= 1.0
    items += [
        _worst("grad_at_zero", zero, p.grad_at_zero - g0, p.m, p.b, "|grad U(0)|"),
        _worst("u0", x[ball], p.u0 - val[ball], p.m, p.b,
               f"max U at {ball.sum()} points, |x| <= 1"),
    ]
    return AssumptionReport(target=p.name, items=tuple(items))


def check_finite_sum(f: FiniteSumPotential, n_samples: int = 2000, rng=None) -> AssumptionReport:
    """Sampled validation of a finite-sum descriptor.

    Checks aggregate dissipativity with the declared ``(m, b)`` and the
    per-component gradient fluctuation bound ``omega_hat(r) / n`` as
    :func:`check_assumptions` checks their counterparts.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    x = _sample_points(f.dim, n_samples, rng)
    pairs = _pairs(x, min(n_samples, 500), rng)
    n = f.n_components
    idx = np.repeat(np.arange(n), len(pairs[0]))

    def grads(pts):  # every component at every point in one call, component-major
        return f.component_grad(idx, np.tile(pts, (n, 1)))

    items = (
        _dissipativity("sum_dissipativity", x, np.asarray(f.total_grad(x), dtype=float), f.m, f.b),
        _modulus("component_gradient_modulus", f.omega_hat, n, pairs, grads,
                 " (per component, omega_hat(r)/n)"),
    )
    return AssumptionReport(target=f.name, items=items)
