"""Regularized two-Gaussian-mode descriptions shared by the scenario and
measurement layers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class RegularizedModePair:
    """Two narrow Gaussian modes standing in for delta-function eigenmodes.

    Each mode is a lowest-order Gaussian centered at ``center_z[k]`` with
    carrier ``center_p[k]``, common width ``sigma_z`` and phase
    ``theta[k]``; ``r`` holds the two squeezing strengths (plus, minus).
    """

    center_z: tuple[float, float]
    center_p: tuple[float, float]
    sigma_z: float
    theta: tuple[float, float] = (0.0, 0.0)
    r: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.center_z, *self.center_p, self.sigma_z, *self.theta, *self.r))):
            raise InputError("centers, sigma_z, theta and r must be finite")
        if not self.sigma_z > 0:
            raise InputError("sigma_z must be positive")
        if min(self.r) < 0:
            raise InputError("squeezing strengths must be nonnegative")


def reg_mode_function(
    z: np.ndarray, center_z: float, center_p: float, sigma_z: float, theta: float
) -> np.ndarray:
    """Normalized lowest-order Gaussian mode with carrier and phase."""
    z = np.asarray(z, dtype=float)
    envelope = (1.0 / (2.0 * np.pi * sigma_z**2)) ** 0.25 * np.exp(
        -((z - center_z) ** 2) / (4.0 * sigma_z**2)
    )
    return envelope * np.exp(-1j * center_p * (z - center_z)) * np.exp(-1j * theta)
