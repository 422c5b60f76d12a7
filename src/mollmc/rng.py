"""Deterministic seed derivation for reproducible (and parallelisable) chains.

A single 64-bit root seed fans out into per-replica seeds, and each replica
seed fans out into independent sub-streams (Brownian increments, smoothing
draws, component picks, initialisation).  The derivation is a splitmix64
finalizer applied to ``root + (index + 1) * golden``, i.e. the ``index``-th
output of a splitmix64 generator seeded at ``root``.  It is pure integer
arithmetic, so results do not depend on scheduling or platform.
"""

from __future__ import annotations

import numpy as np

from . import _args

__all__ = ["splitmix64", "derive_seed", "generator", "chain_streams"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# sub-stream indices within one chain seed
STREAM_BROWNIAN = 0
STREAM_SMOOTHING = 1
STREAM_COMPONENT = 2
STREAM_INIT = 3


def splitmix64(value: int) -> int:
    """splitmix64 finalizer of a 64-bit integer."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(root: int, index: int) -> int:
    """The ``index``-th derived 64-bit seed of the splitmix64 stream at ``root``."""
    _args.seed("root", root)
    _args.count("index", index, least=0)
    return splitmix64((int(root) + (int(index) + 1) * _GOLDEN) & _MASK64)


def generator(seed: int) -> np.random.Generator:
    """A PCG64 generator for one derived seed."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def chain_streams(chain_seed: int) -> tuple[np.random.Generator, ...]:
    """Four independent generators for one chain.

    Order: Brownian increments, smoothing draws, component picks,
    initial-value draw.
    """
    return tuple(
        generator(derive_seed(chain_seed, j))
        for j in (STREAM_BROWNIAN, STREAM_SMOOTHING, STREAM_COMPONENT, STREAM_INIT)
    )
