"""Pure multimode Gaussian states and conversions between their
squeezing-matrix and disentangled (Takagi) representations.

Conventions: quadratures q = (c + c†)/√2, p = (c† - c)/(√2 i); the vacuum
covariance matrix is the identity, so a mode squeezed by r carries the
2x2 block diag(e^{+2r}, e^{-2r}) with the p quadrature squeezed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkernel
from .errors import InputError

@dataclass(frozen=True)
class GaussianPureState:
    """Displacement vector beta and complex symmetric squeezing matrix f."""

    n_modes: int
    beta: np.ndarray
    f: np.ndarray
    basis_label: str = "a"

    def __post_init__(self):
        beta = matkernel.require_finite(np.asarray(self.beta, dtype=complex), "beta")
        if beta.shape != (self.n_modes,):
            raise InputError(f"beta has shape {beta.shape}, expected ({self.n_modes},)")
        f = matkernel.require_symmetric(np.asarray(self.f, dtype=complex), name="f")
        if f.shape != (self.n_modes, self.n_modes):
            raise InputError(f"f has shape {f.shape}, expected {(self.n_modes, self.n_modes)}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "f", f)


@dataclass(frozen=True)
class DisentangledForm:
    """Mode-mixing unitary V, displacements alpha, squeezing magnitudes r.

    Represents V [prod_n D(alpha_n) S(r_n)] |0>: the state is a product of
    single-mode displaced squeezed vacua in the modes given by V's columns.
    V, alpha and r may share leading axes: a stack of probes, checked in one pass.
    """

    V: np.ndarray
    alpha: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        v = matkernel.require_finite(np.asarray(self.V, dtype=complex), "V")
        if v.ndim < 2 or v.shape[-1] != v.shape[-2]:
            raise InputError("V must be square")
        matkernel._require_unitary(v, "V")
        alpha = matkernel.require_finite(np.asarray(self.alpha, dtype=complex), "alpha")
        r = np.asarray(self.r, dtype=float)
        if alpha.shape != v.shape[:-1] or r.shape != v.shape[:-1]:
            raise InputError("alpha and r must have length n_modes")
        if not np.isfinite(r).all():
            raise InputError("r contains NaN or infinite entries")
        if np.any(r < -1e-12):
            raise InputError("squeezing magnitudes must be nonnegative")
        object.__setattr__(self, "V", v)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "r", np.maximum(r, 0.0))

    @property
    def n_modes(self) -> int:
        return self.V.shape[-1]


def disentangle(state: GaussianPureState) -> DisentangledForm:
    """Factor a Gaussian state into independent single-mode operations.

    The squeezing matrix is Takagi-factored as f = V diag(r) V^T and the
    displacement transforms as alpha = V† beta.
    """
    tak = matkernel.takagi(state.f)
    alpha = tak.V.conj().T @ state.beta
    return DisentangledForm(V=tak.V, alpha=alpha, r=tak.r)


def assemble(d: DisentangledForm) -> GaussianPureState:
    """Inverse of :func:`disentangle`: rebuild (beta, f) from the factors."""
    f = d.V @ np.diag(d.r).astype(complex) @ d.V.T
    beta = d.V @ d.alpha
    return GaussianPureState(n_modes=d.n_modes, beta=beta, f=f)
