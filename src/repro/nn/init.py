"""Weight initialisation schemes (Kaiming/He uniform, uniform, zeros)."""

from __future__ import annotations

import math

import numpy as np

from repro.nn import random as nn_random

__all__ = [
    "kaiming_uniform",
    "uniform",
    "zeros",
    "fan_in_and_fan_out",
]


def fan_in_and_fan_out(shape: tuple) -> tuple[int, int]:
    """Compute fan-in / fan-out for a weight of ``shape``.

    Linear weights are ``(out, in)``; conv kernels are ``(out, in, K)`` where
    the receptive field multiplies both fans, matching PyTorch semantics.
    """
    if len(shape) < 2:
        raise ValueError("fan computation requires at least 2 dimensions")
    receptive = 1
    for dim in shape[2:]:
        receptive *= dim
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def _rng(rng: np.random.Generator | None) -> np.random.Generator:
    return rng if rng is not None else nn_random.default_rng()


def kaiming_uniform(shape: tuple, a: float = math.sqrt(5.0),
                    rng: np.random.Generator | None = None) -> np.ndarray:
    fan_in, _ = fan_in_and_fan_out(shape)
    gain = math.sqrt(2.0 / (1.0 + a * a))
    bound = gain * math.sqrt(3.0 / fan_in)
    return _rng(rng).uniform(-bound, bound, size=shape)


def uniform(shape: tuple, low: float, high: float,
            rng: np.random.Generator | None = None) -> np.ndarray:
    return _rng(rng).uniform(low, high, size=shape)


def zeros(shape: tuple) -> np.ndarray:
    return np.zeros(shape)
