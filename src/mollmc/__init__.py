"""Langevin Monte Carlo for dissipative, weakly smooth potentials.

Submodules:

* :mod:`mollmc.mollifier` - the compact polynomial smoothing kernel,
* :mod:`mollmc.continuity` - moduli of continuity,
* :mod:`mollmc.potentials` - potential descriptors and built-ins,
* :mod:`mollmc.samplers` - the chains and gradient oracles,
* :mod:`mollmc.metrics` - the exact W2 of a chain's law to its target, and
  moment diagnostics,
* :mod:`mollmc.bounds` - the explicit error-envelope arithmetic,
* :mod:`mollmc.planner` - accuracy-driven parameter schedules,
* :mod:`mollmc.cli` - the configuration-driven experiment runner.

A submodule loads on first access (``mollmc.samplers`` or ``from mollmc
import samplers``), so importing the package loads neither numpy nor mpmath.
"""

import importlib

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


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
