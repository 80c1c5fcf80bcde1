"""Truncated Fock-space oracle for small Gaussian probes.

Builds exact state vectors of up to three modes, truncated by total photon
number N <= cutoff, and evaluates the QFI as four times the generator
variance plus the Fisher information of photon counting in an arbitrary
mode basis. Each single-mode column <n|D(alpha) S(r)|0> follows from a
three-term recurrence in n. A passive mode mixer conserves N, so its lift
is block-diagonal in N; each block follows exactly from the block for
N - 1 by the one-photon recurrence of Miatto & Quesada, Quantum 4, 366
(2020). The generator sum_ij G_ij a_i^dag a_j also conserves N and acts on
the lattice directly. No exponential or eigendecomposition is formed: this
module is the independent check for every closed form in the package and
shares no algebra with the Gaussian engine.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import matkernel
from .errors import InputError, TailTooLargeError, TooManyModesError
from .gaussian import DisentangledForm
from .generator import Generator

MAX_MODES = 3
# probability at N > cutoff that apply_mode_transform may drop
_LIFT_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class OracleConfig:
    """Total-photon cutoff, finite-difference step, and truncation budget.

    ``cutoff`` bounds the total photon number N summed over modes;
    ``tail_tol`` bounds the probability the product state has at N > cutoff.
    """

    cutoff: int
    fd_step: float = 1e-5
    tail_tol: float = 1e-9

    def __post_init__(self):
        if self.cutoff < 1:
            raise InputError("cutoff must be at least 1")
        if not (0.0 < self.tail_tol < 1.0):
            raise InputError("tail_tol must lie in (0, 1)")
        if self.fd_step <= 0:
            raise InputError("fd_step must be positive")


@dataclass(frozen=True)
class FockStateVector:
    """Normalized truncated amplitudes, shape (cutoff+1,) * n_modes.

    Amplitudes are zero outside the sectors N <= cutoff; ``norm_deficit``
    is the probability the untruncated state has at N > cutoff.
    """

    n_modes: int
    cutoff: int
    amplitudes: np.ndarray
    norm_deficit: float


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=32)
def _occupations(cutoff: int, n_modes: int) -> np.ndarray:
    """Photon counts per mode for every lattice point, shape (M, dim)."""
    return _readonly(np.indices((cutoff + 1,) * n_modes).reshape(n_modes, -1))


@dataclass(frozen=True)
class _Sector:
    """Index tables of one photon-number sector N >= 1 of the lattice.

    ``flat`` holds the lattice indices of the states with N photons. Row m
    of the lift recurs on m - e_i, i the first occupied mode of m: it sits
    at ``row_prev`` in sector N - 1 and ``inv_sqrt_occ`` is m_i^(-1/2).
    Column n recurs on every n - e_j: at ``col_prev[j]`` with weight
    ``sqrt_occ[j]`` = sqrt(n_j), which is 0 where n_j = 0.
    """

    flat: np.ndarray
    first: np.ndarray
    row_prev: np.ndarray
    inv_sqrt_occ: np.ndarray
    col_prev: np.ndarray
    sqrt_occ: np.ndarray


@functools.lru_cache(maxsize=32)
def _sectors(cutoff: int, n_modes: int) -> tuple[tuple[_Sector, ...], np.ndarray]:
    """Tables for the sectors N = 1..cutoff and the lattice indices at N > cutoff."""
    counts = _occupations(cutoff, n_modes)
    total = counts.sum(axis=0)
    strides = (cutoff + 1) ** np.arange(n_modes - 1, -1, -1)
    position = np.zeros(total.size, dtype=np.intp)  # the vacuum sits at 0 of sector 0
    sectors = []
    for n in range(1, cutoff + 1):
        flat = np.flatnonzero(total == n)
        position[flat] = np.arange(flat.size)
        occ = counts[:, flat]
        first = np.argmax(occ > 0, axis=0)
        states = np.arange(flat.size)
        col_prev = np.zeros(occ.shape, dtype=np.intp)
        for j in range(n_modes):
            occupied = occ[j] > 0
            col_prev[j, occupied] = position[flat[occupied] - strides[j]]
        sectors.append(
            _Sector(
                flat=_readonly(flat),
                first=_readonly(first),
                row_prev=_readonly(position[flat - strides[first]]),
                inv_sqrt_occ=_readonly(1.0 / np.sqrt(occ[first, states])),
                col_prev=_readonly(col_prev),
                sqrt_occ=_readonly(np.sqrt(occ)),
            )
        )
    return tuple(sectors), _readonly(np.flatnonzero(total > cutoff))


def apply_mode_transform(psi: np.ndarray, v: np.ndarray, cutoff: int) -> np.ndarray:
    """Apply the Fock-space lift of a passive mode transform matrix v.

    The lift acts exactly on every sector N <= cutoff: the block of sector
    N follows from that of N - 1 by
    <m|U|n> = m_i^(-1/2) sum_j v_ij sqrt(n_j) <m-e_i|U|n-e_j>, i the first
    occupied mode of m, which holds because U^dag a_i U = sum_j v_ij a_j;
    the N = 1 block is v itself. Raises TailTooLargeError if psi has more
    than 1e-12 probability at N > cutoff, which the truncated lift cannot
    carry.
    """
    n_modes = int(v.shape[0])
    flat_in = psi.reshape(-1)
    sectors, outside = _sectors(cutoff, n_modes)
    tail = float(np.sum(np.abs(flat_in[outside]) ** 2))
    if tail > _LIFT_TAIL_TOL:
        raise TailTooLargeError(
            f"state has probability {tail:.3e} above {cutoff} photons; the lift keeps N <= cutoff only"
        )
    if matkernel.max_norm(v - np.eye(n_modes)) < 1e-14:
        return psi
    flat_out = np.zeros_like(flat_in, dtype=complex)
    flat_out[0] = flat_in[0]
    block = np.ones((1, 1), dtype=complex)
    for sector in sectors:
        rows = block[sector.row_prev]
        weights = v[sector.first] * sector.inv_sqrt_occ[:, None]
        block = np.zeros((sector.flat.size, sector.flat.size), dtype=complex)
        for j in range(n_modes):
            term = np.take(rows, sector.col_prev[j], axis=1)
            term *= sector.sqrt_occ[j]
            term *= weights[:, j, None]
            block += term
        flat_out[sector.flat] = block @ flat_in[sector.flat]
    return flat_out.reshape(psi.shape)


def _displaced_squeezed_column(alpha: complex, r: float, cutoff: int) -> np.ndarray:
    """<n|D(alpha) S(r)|0> for n = 0..cutoff, with S(r) = exp(r (a^dag^2 - a^2) / 2).

    S(r)|0> is annihilated by a cosh r - a^dag sinh r, so psi = D S |0>
    obeys a psi = (alpha - conj(alpha) t + t a^dag) psi with t = tanh r:
    sqrt(n+1) c_{n+1} = (alpha - conj(alpha) t) c_n + t sqrt(n) c_{n-1}.
    """
    t = np.tanh(r)
    shift = alpha - np.conj(alpha) * t
    root = np.sqrt(np.arange(cutoff + 1, dtype=float))
    column = np.zeros(cutoff + 1, dtype=complex)
    column[0] = np.exp(-0.5 * abs(alpha) ** 2 + 0.5 * np.conj(alpha) ** 2 * t) / np.sqrt(np.cosh(r))
    for n in range(cutoff):  # root[0] = 0 drops c_{-1}
        column[n + 1] = (shift * column[n] + t * root[n] * column[n - 1]) / root[n + 1]
    return column


def fock_build(d: DisentangledForm, cfg: OracleConfig) -> FockStateVector:
    """Truncated state vector of V [prod_n D(alpha_n) S(r_n)] |0>.

    Each single-mode column comes from the three-term recurrence of
    ``_displaced_squeezed_column``, exact for every photon number up to the
    cutoff. The product state is then projected onto total photon number
    N <= cutoff; the probability lost, 1 - ||P_{N<=c} psi||^2, is the norm
    deficit reported before renormalization. The mode mixer conserves N and
    acts exactly on the kept sectors.
    """
    m = d.n_modes
    if m > MAX_MODES:
        raise TooManyModesError(f"oracle supports up to {MAX_MODES} modes, got {m}")
    c = cfg.cutoff
    psi = np.ones(1, dtype=complex)
    for n in range(m):
        psi = np.multiply.outer(psi, _displaced_squeezed_column(d.alpha[n], d.r[n], c)).reshape(-1)
    psi[_sectors(c, m)[1]] = 0.0
    norm_sq = float(np.sum(np.abs(psi) ** 2))
    deficit = max(0.0, 1.0 - norm_sq)
    if deficit > cfg.tail_tol:
        raise TailTooLargeError(
            f"truncated tail {deficit:.3e} exceeds tail_tol {cfg.tail_tol:.3e}; raise cutoff"
        )
    psi = (psi / np.sqrt(norm_sq)).reshape((c + 1,) * m)
    psi = apply_mode_transform(psi, d.V, c)
    return FockStateVector(n_modes=m, cutoff=c, amplitudes=np.ascontiguousarray(psi), norm_deficit=deficit)


def _generator_moments(amplitudes: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """<G> = Re<psi|G psi> and <G^2> = ||G psi||^2 for G = sum_ij g_ij a_i^dag a_j.

    G acts on the lattice by shifted slices: (a_i^dag a_j psi)[m] =
    sqrt(m_i) sqrt(m_j + 1) psi[m - e_i + e_j] for i != j, and the diagonal
    terms multiply psi[m] by sum_i g_ii m_i. Every term conserves N, so this
    is exact on a state supported on N <= cutoff.
    """
    n_modes = g.shape[0]
    occ = _occupations(amplitudes.shape[0] - 1, n_modes).reshape((n_modes,) + amplitudes.shape)
    g_psi = np.tensordot(np.diag(g).real, occ, axes=1) * amplitudes
    for (i, j), g_ij in np.ndenumerate(g):
        if i == j or g_ij == 0:
            continue
        dst, src = [slice(None)] * n_modes, [slice(None)] * n_modes
        dst[i], src[i] = slice(1, None), slice(None, -1)
        dst[j], src[j] = slice(None, -1), slice(1, None)
        dst = tuple(dst)
        g_psi[dst] += g_ij * np.sqrt(occ[i][dst] * (occ[j][dst] + 1.0)) * amplitudes[tuple(src)]
    mean = float(np.vdot(amplitudes, g_psi).real)
    second = float(np.vdot(g_psi, g_psi).real)
    return mean, second


def fock_qfi(psi: FockStateVector, gen: Generator) -> float:
    """QFI as 4 Var(G) on the truncated state.

    G is applied to the amplitudes on the photon-number lattice (see
    ``_generator_moments``); no basis rotation or eigendecomposition of G
    is used.
    """
    if gen.n_modes != psi.n_modes:
        raise TooManyModesError("generator and state mode counts differ")
    mean, second = _generator_moments(psi.amplitudes, gen.G)
    return 4.0 * (second - mean**2)


def fock_superposition_qfi(n_cut: int, g_min: float, g_max: float) -> float:
    """QFI of (|n_cut, 0> + |0, n_cut>)/sqrt(2) under diag(g_min, g_max).

    The photon-number-truncated benchmark state; its value equals
    (g_max - g_min)^2 n_cut^2 = 4 dg^2 N^2.
    """
    if n_cut < 1:
        raise ValueError("n_cut must be at least 1")
    psi = np.zeros((n_cut + 1, n_cut + 1), dtype=complex)
    psi[n_cut, 0] = 1.0 / np.sqrt(2.0)
    psi[0, n_cut] = 1.0 / np.sqrt(2.0)
    mean, second = _generator_moments(psi, np.diag([g_min, g_max]))
    return 4.0 * (second - mean**2)


def fock_counting_fi(
    psi_builder,
    basis_rotation: np.ndarray | None,
    lam0: float,
    cfg: OracleConfig,
    richardson: bool = True,
) -> float:
    """Fisher information of photon counting in a rotated mode basis.

    ``psi_builder(lam)`` must return the parameter-imprinted
    FockStateVector; probabilities are |amplitudes|^2 after rotating into
    the counting basis (rows of ``basis_rotation`` define the counted
    modes), and the lambda derivative is a central difference with step
    ``cfg.fd_step``. Outcomes with probability below 1e-14 are dropped.

    With ``richardson`` the value is recomputed at half the step and a
    relative change above 1e-4 triggers a step-size warning.
    """

    def counted_probs(lam: float) -> np.ndarray:
        psi = psi_builder(lam)
        if psi.n_modes > MAX_MODES:
            raise TooManyModesError("too many modes for the counting oracle")
        amps = psi.amplitudes
        if basis_rotation is not None:
            amps = apply_mode_transform(amps, np.asarray(basis_rotation, complex), psi.cutoff)
        return np.abs(amps.reshape(-1)) ** 2

    p0 = counted_probs(lam0)
    keep = p0 > 1e-14

    def fi_at(h: float) -> float:
        dp = (counted_probs(lam0 + h) - counted_probs(lam0 - h)) / (2.0 * h)
        return float(np.sum(dp[keep] ** 2 / p0[keep]))

    value = fi_at(cfg.fd_step)
    if richardson:
        refined = fi_at(0.5 * cfg.fd_step)
        if abs(refined - value) > 1e-4 * max(abs(value), 1e-12):
            warnings.warn(
                f"counting FI changes by {abs(refined - value):.3e} when the "
                "difference step is halved; decrease fd_step",
                stacklevel=2,
            )
    return value
