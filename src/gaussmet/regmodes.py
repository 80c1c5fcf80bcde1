"""Regularized two-Gaussian-mode descriptions shared by the scenario and
measurement layers."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InputError, require_finite


@dataclass(frozen=True)
class RegularizedModePair:
    """Two narrow Gaussian modes standing in for delta-function eigenmodes.

    Each mode is the lowest Hermite-Gauss mode (``generator.hg_mode(0, ...)``)
    centered at ``center_z[k]`` with carrier ``center_p[k]``, common width
    ``sigma_z`` and phase ``theta[k]``; ``r`` holds the two squeezing
    strengths (plus, minus). Each of the four pairs must hold exactly two
    finite numbers; they are stored as tuples of floats, ``sigma_z`` as a float.
    """

    center_z: tuple[float, float]
    center_p: tuple[float, float]
    sigma_z: float
    theta: tuple[float, float] = (0.0, 0.0)
    r: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        pairs = {name: getattr(self, name) for name in ("center_z", "center_p", "theta", "r")}
        for name, pair in pairs.items():
            if isinstance(pair, (str, bytes)) or not isinstance(pair, (Sequence, np.ndarray)) or len(pair) != 2:
                raise InputError(f"{name} must hold exactly two numbers, got {pair!r}")
        try:
            require_finite(sigma_z=self.sigma_z, **{f"{n}[{k}]": v for n, p in pairs.items() for k, v in enumerate(p)})
        except InputError as exc:
            raise InputError(f"centers, sigma_z, theta and r must be finite: {exc}") from None
        for name, pair in pairs.items():
            object.__setattr__(self, name, tuple(map(float, pair)))
        object.__setattr__(self, "sigma_z", float(self.sigma_z))
        if not self.sigma_z > 0:
            raise InputError("sigma_z must be positive")
        if min(self.r) < 0:
            raise InputError("squeezing strengths must be nonnegative")
