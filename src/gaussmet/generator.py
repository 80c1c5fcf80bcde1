"""Hermitian generator matrices of mode transformations.

Covers explicit matrices, discretized shift generators on uniform grids
(time, frequency, transverse momentum/position), the tridiagonal
Hermite-Gauss generator of coordinate shifts, and numerical extraction of
a generator from a parameterized mode family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from . import matkernel
from .errors import InputError

_DIAGONAL_BASIS = {
    "time_shift": "frequency_bins",
    "frequency_shift": "time_bins",
    "beam_displacement": "momentum_bins",
    "beam_tilt": "position_bins",
}

SHIFT_DOMAINS = tuple(_DIAGONAL_BASIS)

DEFAULT_SIGNAL_TOL = 1e-12

# largest Gram-matrix deviation from the identity generator_from_modes accepts
_GRAM_TOL = 1e-4


@dataclass(frozen=True)
class Generator:
    """Hermitian generator with its ascending eigendecomposition, as :func:`from_matrix` builds it.

    ``eig.eigvals`` are ascending; ``idler_mask`` (read-only) marks the modes whose eigenvalue
    magnitude is at most ``signal_tol * max|g|``, idlers untouched by the transform.
    ``G`` may be a stack of generators on leading axes.
    """

    G: np.ndarray
    eig: matkernel.HermitianEig
    idler_mask: np.ndarray
    signal_tol: float = DEFAULT_SIGNAL_TOL
    basis_label: str = "a"
    meta: dict = field(default_factory=dict)

    @property
    def n_modes(self) -> int:
        return self.G.shape[-1]

    def __getitem__(self, index) -> Generator:
        """The generators at ``index`` of a stack's leading axes, sharing its eigendecomposition."""
        eig = matkernel.HermitianEig(self.eig.eigvals[index], self.eig.U[index])
        return replace(self, G=self.G[index], eig=eig, idler_mask=self.idler_mask[index])

    @cached_property
    def _projector(self) -> np.ndarray:
        p = (self.eig.U * (~self.idler_mask)[..., None, :].astype(float)) @ self.eig.U.conj().mT
        p.flags.writeable = False
        return p


def from_matrix(
    g_matrix: np.ndarray,
    signal_tol: float = DEFAULT_SIGNAL_TOL,
    basis_label: str = "a",
    meta: dict | None = None,
) -> Generator:
    """Wrap a Hermitian matrix, or a stack of them on leading axes, with its ascending eigendecomposition
    and read-only idler mask; ``signal_tol`` lies in [0, 1). A zero matrix, even in a stack, is all idlers."""
    if not 0.0 <= signal_tol < 1.0:  # also rejects NaN
        raise InputError(f"signal_tol must be a number in [0, 1), got {signal_tol!r}")
    g_matrix = matkernel.require_hermitian(np.asarray(g_matrix, dtype=complex), name="G")
    eig = matkernel._hermitian_eig(g_matrix)
    g = np.abs(eig.eigvals)
    mask = g <= signal_tol * g.max(axis=-1, keepdims=True, initial=0.0)
    mask.flags.writeable = False
    return Generator(g_matrix, eig, mask, signal_tol, basis_label, meta or {})


def signal_projector(gen: Generator) -> np.ndarray:
    """Signal-eigenvector projector, cached read-only on ``gen`` at first use: the same object on repeat calls."""
    return gen._projector


@dataclass(frozen=True)
class DiscretizationGrid:
    """Uniform binning of the interval [z_min, z_max] into n_bins bins.

    ``z_values`` are the left bin edges, the eigenvalues of a shift
    generator on the grid; ``quadrature_nodes`` add the right end point
    for trapezoid integrals.
    """

    z_min: float
    z_max: float
    n_bins: int

    def __post_init__(self):
        if not (self.z_max > self.z_min):
            raise InputError("z_max must exceed z_min")
        if self.n_bins < 1:
            raise InputError("n_bins must be at least 1")

    @property
    def delta_z(self) -> float:
        return (self.z_max - self.z_min) / self.n_bins

    @property
    def z_values(self) -> np.ndarray:
        return self.z_min + self.delta_z * np.arange(self.n_bins)

    def quadrature_nodes(self) -> np.ndarray:
        """Trapezoid nodes spanning the interval, one per bin edge."""
        return np.linspace(self.z_min, self.z_max, self.n_bins + 1)


def shift_generator(grid: DiscretizationGrid, domain: str, physical_scale: float = 1.0) -> Generator:
    """Diagonal generator of a shift transformation on a uniform grid.

    Eigenvalues are the grid points times ``physical_scale`` (the ratio
    omega/c for beam tilt, 1 otherwise), expressed in the bin basis in
    which the shift generator is diagonal. Valid for small tilt angles
    only; callers in the tilt domain choose the regime.
    """
    if domain not in SHIFT_DOMAINS:
        raise InputError(f"domain must be one of {SHIFT_DOMAINS}, got {domain!r}")
    values = physical_scale * grid.z_values
    return from_matrix(np.diag(values.astype(complex)), basis_label=_DIAGONAL_BASIS[domain])


@dataclass(frozen=True)
class HGParams:
    """Center, carrier, width, and global phase of a Hermite-Gauss family."""

    center_z: float = 0.0
    center_p: float = 0.0
    sigma_z: float = 1.0
    theta: float = 0.0

    def __post_init__(self):
        if not self.sigma_z > 0:
            raise InputError("sigma_z must be positive")


def _hg_ladder(center_p: float, sigma_z: float, n: int) -> np.ndarray:
    """The matrix G of :func:`hg_generator` on levels 0..n-1, p0 = center_p."""
    up = 1j / (np.sqrt(2.0) * sigma_z) * np.sqrt(np.arange(1, n) / 2.0)  # G[k-1, k], k = 1..n-1
    return np.diag(np.full(n, center_p, dtype=complex)) + np.diag(up, 1) + np.diag(up.conj(), -1)


def hg_generator(hg: HGParams, n_modes: int) -> Generator:
    """Shift generator in a truncated Hermite-Gauss mode basis.

    G[n, m] = i/(sqrt(2) sigma) (sqrt(m/2) d_{n,m-1} - sqrt((m+1)/2) d_{n,m+1})
              + p0 d_{n,m},  n, m = 0..n_modes-1.

    Truncation silently drops the coupling of level n_modes-1 upward; its
    magnitude sqrt(n_modes/2)/(sqrt(2) sigma) is reported in ``meta`` so
    callers can size the basis.
    """
    if n_modes < 2:
        raise InputError("need at least two Hermite-Gauss levels")
    dropped = 1.0 / (np.sqrt(2.0) * hg.sigma_z) * np.sqrt(n_modes / 2.0)
    return from_matrix(
        _hg_ladder(hg.center_p, hg.sigma_z, n_modes),
        basis_label="hermite_gauss",
        meta={"dropped_coupling": dropped},
    )


def hg_mode(n: int, z: np.ndarray, hg: HGParams) -> np.ndarray:
    """Hermite-Gauss mode function of physicist's Hermite polynomials."""
    x = (np.asarray(z, dtype=float) - hg.center_z) / (np.sqrt(2.0) * hg.sigma_z)
    norm = (1.0 / (2.0 * np.pi * hg.sigma_z**2)) ** 0.25 * np.sqrt(
        2.0 ** (-n) / math.factorial(n)
    )
    herm = np.polynomial.hermite.hermval(x, [0.0] * n + [1.0])
    phase = np.exp(-1j * hg.center_p * (z - hg.center_z)) * np.exp(-1j * hg.theta)
    return norm * herm * np.exp(-0.5 * x**2) * phase


def generator_from_modes(
    mode_family: Callable[[int, np.ndarray, float], np.ndarray],
    n_modes: int,
    lam0: float,
    fd_step: float,
    quadrature_grid: DiscretizationGrid,
) -> Generator:
    """Extract the generator matrix from a parameterized mode family.

    The defining relation d/d(lambda) Psi_m = -i sum_n G[n, m] Psi_n gives
    -i G[n, m] = integral conj(Psi_n) d/d(lambda) Psi_m dz, evaluated with
    a central difference in lambda and composite-trapezoid quadrature on
    the grid nodes. The result is Hermitized; the anti-Hermitian residual
    magnitude is reported in ``meta``.
    """
    if fd_step <= 0:
        raise InputError("fd_step must be positive")
    z = quadrature_grid.quadrature_nodes()
    modes0 = np.array([mode_family(n, z, lam0) for n in range(n_modes)])
    gram = np.array(
        [[np.trapezoid(np.conj(mn) * mm, z) for mm in modes0] for mn in modes0]
    )
    gram_dev = matkernel.max_norm(gram - np.eye(n_modes))
    if gram_dev > _GRAM_TOL:
        raise InputError(f"mode family Gram matrix deviates from identity by {gram_dev:.3e}")
    plus = np.array([mode_family(n, z, lam0 + fd_step) for n in range(n_modes)])
    minus = np.array([mode_family(n, z, lam0 - fd_step) for n in range(n_modes)])
    dmodes = (plus - minus) / (2.0 * fd_step)
    raw = np.empty((n_modes, n_modes), dtype=complex)
    for n in range(n_modes):
        for m in range(n_modes):
            raw[n, m] = 1j * np.trapezoid(np.conj(modes0[n]) * dmodes[m], z)
    herm = (raw + raw.conj().T) / 2.0
    residual = matkernel.max_norm(raw - raw.conj().T) / 2.0
    return from_matrix(herm, basis_label="mode_family", meta={"anti_hermitian_residual": residual})
