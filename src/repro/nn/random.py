"""Global random-number management for reproducible experiments.

All stochastic pieces of the library (weight init, dropout, VAE sampling,
data generation defaults) draw from NumPy ``Generator`` objects.  ``seed``
resets the library-wide default generator; components may also accept their
own generator for full isolation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["seed", "default_rng"]

_DEFAULT = np.random.default_rng(0)


def seed(value: int) -> None:
    """Reset the library-wide default generator."""
    global _DEFAULT
    _DEFAULT = np.random.default_rng(value)


def default_rng() -> np.random.Generator:
    """Return the library-wide default generator."""
    return _DEFAULT  # effects: ok FORK_GLOBAL reason=library-wide default generator; workers reseed via config seed
