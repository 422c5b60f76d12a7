"""Langevin Monte Carlo for dissipative, weakly smooth potentials.

Submodules:

* :mod:`mollmc.mollifier` - the compact polynomial smoothing kernel,
* :mod:`mollmc.continuity` - moduli of continuity,
* :mod:`mollmc.potentials` - potential descriptors and built-ins,
* :mod:`mollmc.samplers` - the chains and gradient oracles,
* :mod:`mollmc.metrics` - transport distances and moment diagnostics,
* :mod:`mollmc.bounds` - the explicit error-envelope arithmetic,
* :mod:`mollmc.planner` - accuracy-driven parameter schedules,
* :mod:`mollmc.cli` - the configuration-driven experiment runner.
"""

from . import bounds, continuity, metrics, mollifier, planner, potentials, rng, samplers

__all__ = [
    "bounds",
    "continuity",
    "metrics",
    "mollifier",
    "planner",
    "potentials",
    "rng",
    "samplers",
]

__version__ = "0.1.0"
