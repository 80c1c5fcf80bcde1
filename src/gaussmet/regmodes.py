"""Regularized two-Gaussian-mode descriptions shared by the scenario and
measurement layers."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class RegularizedModePair:
    """Two narrow Gaussian modes standing in for delta-function eigenmodes.

    Each mode is the lowest Hermite-Gauss mode (``generator.hg_mode(0, ...)``)
    centered at ``center_z[k]`` with carrier ``center_p[k]``, common width
    ``sigma_z`` and phase ``theta[k]``; ``r`` holds the two squeezing
    strengths (plus, minus).
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

