"""Shared numerical oracles for the test suite.

These deliberately avoid the library's own helper code: quadrature is a
fresh Gauss-Legendre tensor product.  Tests freeze expected values computed
through this route.
"""

import numpy as np
import pytest
from hypothesis import settings

from mollmc.continuity import ModulusSpec
from mollmc.potentials import FiniteSumPotential

# every property test draws the same examples on every run, with no deadline
settings.register_profile("mollmc", derandomize=True, deadline=None)
settings.load_profile("mollmc")


def gl_tensor(f, d, n_nodes):
    """Integral of f over [-1,1]^d, tensor Gauss-Legendre; f maps (N,d)->(N,)."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    if d == 1:
        return float(np.sum(w * f(x[:, None])))
    if d == 2:
        xx, yy = np.meshgrid(x, x, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        ww = np.multiply.outer(w, w).ravel()
        return float(np.sum(ww * f(pts)))
    if d == 3:
        total = 0.0
        yy, zz = np.meshgrid(x, x, indexing="ij")
        for i, xi in enumerate(x):
            pts = np.column_stack([np.full(yy.size, xi), yy.ravel(), zz.ravel()])
            vals = f(pts).reshape(n_nodes, n_nodes)
            total += w[i] * float(np.einsum("j,k,jk->", w, w, vals))
        return total
    raise ValueError("d <= 3 only")


def gl_interval(f, a, b, n_nodes=200):
    """Integral of a scalar function over [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return float(half * np.sum(w * f(mid + half * x)))


def scaled_quadratic_sum(scales, d=2):
    """Finite sum with distinct components ``U_i(x) = c_i |x|^2 / 2``.

    Not an equal split (``base`` is None), so a batched evaluation that
    ignores or misroutes the component index gives a wrong result.
    """
    c = np.asarray(scales, dtype=float)
    return FiniteSumPotential(
        name="scaled_quadratics",
        dim=d,
        n_components=len(c),
        component_value=lambda idx, pts: 0.5 * c[idx] * np.sum(np.square(pts), axis=-1),
        component_grad=lambda idx, pts: c[idx][:, None] * pts,
        m=float(c.sum()),
        b=0.0,
        omega_hat=ModulusSpec.lipschitz(len(c) * float(c.max())),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
