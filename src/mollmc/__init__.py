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

Import a submodule by name (``from mollmc import samplers``); importing the
package alone loads neither numpy nor mpmath.
"""

__version__ = "0.1.0"
