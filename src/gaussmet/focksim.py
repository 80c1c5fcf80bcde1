"""Truncated Fock-space oracle for small Gaussian probes.

Builds exact state vectors of up to four modes, truncated by total photon
number N <= cutoff, and evaluates the QFI as four times the generator
variance plus the Fisher information of photon counting in an arbitrary
mode basis. Each single-mode column <n|D(alpha) S(r)|0> follows from a
three-term recurrence in n. A passive mode mixer must be unitary; it
factors into phases and two-mode rotations on adjacent modes (Givens
nulling, as in Reck et al., PRL 73, 58 (1994)), and each factor conserves
the photon number of its pair. The lift of a two-mode rotation is
block-diagonal in that number K: each block's top row is a closed form,
and its other rows follow exactly from block K - 1 by the one-photon
recurrence of Miatto & Quesada, Quantum 4, 366 (2020). The blocks act on
every occupation of the other modes as batched products over consecutive
K. The generator sum_ij G_ij a_i^dag a_j also conserves N and acts on the
lattice directly. No exponential or eigendecomposition is formed: this module is
the independent check for every closed form in the package and shares no
algebra with the Gaussian engine.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import matkernel
from .errors import GaussmetWarning, InputError, TailTooLargeError, _require_integer, require_finite
from .gaussian import DisentangledForm
from .generator import Generator

MAX_MODES = 4
# probability at N > cutoff that apply_mode_transform may drop
_LIFT_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class OracleConfig:
    """Total-photon cutoff, finite-difference step, and truncation budget.

    ``cutoff`` bounds the total photon number N summed over modes;
    ``tail_tol`` bounds the probability the product state has at N > cutoff.
    ``fock_build`` refuses (cutoff + 1)**max(M, 3) > 2**43: its lattice or
    lift buffer of 16-byte amplitudes past the 47-bit address space.
    """

    cutoff: int
    fd_step: float = 1e-5
    tail_tol: float = 1e-9

    def __post_init__(self):
        _require_integer(self.cutoff, 1, "cutoff must be an integer of at least 1")
        require_finite(fd_step=self.fd_step, tail_tol=self.tail_tol)
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


@dataclass(frozen=True)
class _Lattice:
    """Index tables of the lattice (cutoff+1,) * M, split at N = cutoff.

    ``inside`` holds the lattice indices with N <= cutoff in lattice order,
    ``occ`` their photon counts per mode, shape (M, len(inside)), and
    ``outside`` is the lattice mask of N > cutoff. The positions below index
    ``inside``. ``pairs[p]`` lists batches (ks, table) over consecutive pair
    photon numbers K = n_p + n_{p+1} in ks: ``table[K - ks.start, a, s]`` is
    the state with n_p = a and the s-th occupation of the other modes,
    padded to the batch's largest K and spectator count with len(inside), a
    zero slot past the kept amplitudes. A batch grows while its table holds
    at most twice its real entries. ``hops`` has one entry per mode pair
    i < j, in ``itertools.combinations`` order: the positions of every state
    m with m_i >= 1, of m - e_i + e_j, and sqrt(m_i (m_j + 1)).
    """

    inside: np.ndarray
    occ: np.ndarray
    outside: np.ndarray
    pairs: tuple[tuple[tuple[slice, np.ndarray], ...], ...]
    hops: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


@functools.lru_cache(maxsize=32)
def _lattice(cutoff: int, n_modes: int) -> _Lattice:
    counts = np.indices((cutoff + 1,) * n_modes).reshape(n_modes, -1)
    total = counts.sum(axis=0)
    inside = np.flatnonzero(total <= cutoff)
    occ = counts[:, inside]
    position = np.zeros(total.size, dtype=np.intp)
    position[inside] = np.arange(inside.size)
    strides = (cutoff + 1) ** np.arange(n_modes - 1, -1, -1)
    pairs = []
    for p in range(n_modes - 1):
        pair_total = occ[p] + occ[p + 1]
        step = strides[p] - strides[p + 1]  # one photon moved from mode p+1 to mode p
        sectors = [position[inside[(occ[p] == 0) & (pair_total == k)] + step * np.arange(k + 1)[:, None]]
                   for k in range(cutoff + 1)]
        batches, lo = [], 1
        while lo <= cutoff:  # sector lo has the most spectators of its batch, sector hi - 1 the most rows
            hi, real = lo + 1, sectors[lo].size
            while hi <= cutoff and (hi + 1 - lo) * (hi + 1) * sectors[lo].shape[1] <= 2 * (real + sectors[hi].size):
                real, hi = real + sectors[hi].size, hi + 1
            table = np.full((hi - lo, hi, sectors[lo].shape[1]), inside.size, dtype=np.intp)
            for i, rows in enumerate(sectors[lo:hi]):
                table[i, : rows.shape[0], : rows.shape[1]] = rows
            batches.append((slice(lo, hi), _readonly(table)))
            lo = hi
        pairs.append(tuple(batches))
    hops = []
    for i, j in itertools.combinations(range(n_modes), 2):
        target = np.flatnonzero(occ[i] > 0)
        source = position[inside[target] - strides[i] + strides[j]]
        weight = np.sqrt(occ[i, target] * (occ[j, target] + 1.0))
        hops.append((_readonly(target), _readonly(source), _readonly(weight)))
    return _Lattice(
        inside=_readonly(inside),
        occ=_readonly(occ),
        outside=_readonly(total > cutoff),
        pairs=tuple(pairs),
        hops=tuple(hops),
    )


@functools.lru_cache(maxsize=32)
def _top_row_tables(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(C(K, b)) from exact integer binomials, and K - b, for 0 <= b <= K <= cutoff; zero elsewhere."""
    ks = range(cutoff + 1)
    binomials = [[float(math.comb(k, b)) for b in ks] for k in ks]
    return _readonly(np.sqrt(binomials)), _readonly(np.tril(np.subtract.outer(ks, ks)))


def _two_mode_blocks(w: np.ndarray, cutoff: int) -> np.ndarray:
    """Blocks K = 0..cutoff of the Fock-space lifts U of 2x2 unitaries w[f].

    Block K sits at [f, K, :K + 1, :K + 1], zero-padded to (F, cutoff + 1,
    cutoff + 1, cutoff + 1); its rows and columns are the states (a, K - a),
    a = 0..K. Row 0 is <0,K|U|b,K-b> = sqrt(C(K, b)) w10^b w11^(K-b), since
    <0,K| U = <0| U (w10 a_0 + w11 a_1)^K / sqrt(K!) by U^dag a_i U =
    sum_j w_ij a_j. Rows a >= 1 follow from row a - 1 of block K - 1 by
    <m|U|n> = a^(-1/2) sum_j w_0j sqrt(n_j) <m-e_0|U|n-e_j>.
    """
    root = np.sqrt(np.arange(cutoff + 1, dtype=float))
    binomial_roots, k_minus_b = _top_row_tables(cutoff)
    powers = np.ones((len(w), 2, cutoff + 1), dtype=complex)
    powers[:, :, 1:] = w[:, 1, :, None]
    np.cumprod(powers, axis=2, out=powers)  # powers[f, j, n] = w[f, 1, j] ** n
    # column b of every block is stored at b + 1; stored column 0 stays zero for n - e_0 at b = 0
    buf = np.zeros((len(w), cutoff + 1, cutoff + 1, cutoff + 2), dtype=complex)
    buf[:, :, 0, 1:] = binomial_roots * powers[:, 0, None, :] * powers[:, 1][:, k_minus_b]
    # coef[f, j, a - 1, d] = w_0j sqrt(d) / sqrt(a): d = b for j = 0 and d = K - b for j = 1
    coef = w[:, 0, :, None, None] * (root / root[1:, None])
    for k in range(1, cutoff + 1):
        prev = buf[:, k - 1, :k]
        np.add(
            coef[:, 0, :k, : k + 1] * prev[..., : k + 1],
            coef[:, 1, :k, k::-1] * prev[..., 1 : k + 2],
            out=buf[:, k, 1 : k + 1, 1 : k + 2],
        )
    return buf[..., 1:]


def _givens_factors(v: np.ndarray) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Split a unitary v, M >= 2, into phases on modes 0..M-3 and two-mode factors.

    Rotations G on adjacent rows null the columns 0..M-3 of v below the
    diagonal, which leaves T = G_k ... G_1 v = diag(phases) plus a 2x2
    unitary block on modes (M-2, M-1). Since v = G_1^dag ... G_k^dag T, the
    factors w[f], each acting on modes (p[f], p[f] + 1), come in the order
    their lifts apply to a state: T's block first, then G_k^dag, ...,
    G_1^dag. At M = 2 the only factor is v itself.
    """
    m = v.shape[0]
    t = np.array(v, dtype=complex)
    rotations = []
    for col in range(m - 2):
        for row in range(m - 1, col, -1):
            x, y = t[row - 1, col], t[row, col]
            if y == 0:
                continue
            g = np.array([[np.conj(x), np.conj(y)], [-y, x]]) / np.hypot(abs(x), abs(y))
            t[row - 1 : row + 1] = g @ t[row - 1 : row + 1]
            rotations.append((row - 1, g.conj().T))
    factors = [(m - 2, t[m - 2 :, m - 2 :])] + rotations[::-1]
    return np.diagonal(t)[: m - 2], [p for p, _ in factors], np.array([w for _, w in factors])


def apply_mode_transform(psi: np.ndarray, v: np.ndarray, cutoff: int) -> np.ndarray:
    """Apply the Fock-space lift of a passive mode transform: a unitary v.

    The lift acts exactly on every sector N <= cutoff and leaves zeros at
    N > cutoff; its one-photon block is v itself. v is factored into phases
    d_k, lifted as d_k ** n_k, and two-mode rotations (``_givens_factors``).
    Each rotation's blocks, a closed-form top row and the two-mode recurrence
    below it (``_two_mode_blocks``), act on all occupations of the other
    modes as one batched product per batch of ``_Lattice.pairs``. Raises
    InputError if v deviates from unitary by more than
    matkernel.DEFAULT_TOL * M, the engine's rule, and TailTooLargeError if
    psi has more than 1e-12 probability at N > cutoff, which the truncated
    lift cannot carry.
    """
    n_modes = int(v.shape[0])
    matkernel._require_unitary(v, "mode transform")
    lattice = _lattice(cutoff, n_modes)
    flat_in = psi.reshape(-1)
    tail = float(np.sum(np.abs(flat_in[lattice.outside]) ** 2))
    if tail > _LIFT_TAIL_TOL:
        raise TailTooLargeError(
            f"state has probability {tail:.3e} above {cutoff} photons; the lift keeps N <= cutoff only"
        )
    if n_modes == 1:
        return psi * v[0, 0] ** np.arange(cutoff + 1)
    x = np.append(flat_in[lattice.inside], 0j)  # x[-1] is the zero slot the pair tables pad with
    phases, pairs, w = _givens_factors(v)
    if phases.size:
        powers = phases[:, None] ** np.arange(cutoff + 1)
        x[:-1] *= np.prod(np.take_along_axis(powers, lattice.occ[: phases.size], axis=1), axis=0)
    blocks = _two_mode_blocks(w, cutoff)
    for f, p in enumerate(pairs):
        for ks, table in lattice.pairs[p]:
            x[table] = blocks[f, ks, : table.shape[1], : table.shape[1]] @ x[table]
    flat_out = np.zeros(flat_in.shape, dtype=complex)
    flat_out[lattice.inside] = x[:-1]
    return flat_out.reshape(psi.shape)


def _displaced_squeezed_column(alpha: complex, r: float, cutoff: int) -> np.ndarray:
    """<n|D(alpha) S(r)|0> for n = 0..cutoff, with S(r) = exp(r (a^dag^2 - a^2) / 2).

    S(r)|0> is annihilated by a cosh r - a^dag sinh r, so psi = D S |0>
    obeys a psi = (alpha - conj(alpha) t + t a^dag) psi with t = tanh r:
    sqrt(n+1) c_{n+1} = (alpha - conj(alpha) t) c_n + t sqrt(n) c_{n-1}.
    """
    t = float(np.tanh(r))
    shift = complex(alpha - np.conj(alpha) * t)
    root = np.sqrt(np.arange(cutoff + 1, dtype=float)).tolist()
    column = [complex(np.exp(-0.5 * abs(alpha) ** 2 + 0.5 * np.conj(alpha) ** 2 * t) / np.sqrt(np.cosh(r)))]
    for n in range(cutoff):  # root[0] = 0 drops c_{-1}
        column.append((shift * column[n] + t * root[n] * column[n - 1]) / root[n + 1])
    return np.array(column)


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
        raise InputError(f"oracle supports up to {MAX_MODES} modes, got {m}")
    c = cfg.cutoff
    if (c + 1) ** max(m, 3) > 2**43:  # checked before any column recurrence or lattice
        raise InputError(f"cannot allocate the lattice or lift of cutoff {c} at {m} modes")
    psi = np.ones(1, dtype=complex)
    for n in range(m):
        psi = np.multiply.outer(psi, _displaced_squeezed_column(d.alpha[n], d.r[n], c)).reshape(-1)
    psi[_lattice(c, m).outside] = 0.0
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

    G acts on the lattice states with N <= cutoff: (a_i^dag a_j psi)[m] =
    sqrt(m_i) sqrt(m_j + 1) psi[m - e_i + e_j] for i != j, and the diagonal
    terms multiply psi[m] by sum_i g_ii m_i. Every term conserves N, so this
    is exact on a state supported on N <= cutoff.
    """
    n_modes = g.shape[0]
    lattice = _lattice(amplitudes.shape[0] - 1, n_modes)
    psi = amplitudes.reshape(-1)[lattice.inside]
    g_psi = (np.diag(g).real @ lattice.occ) * psi
    for (i, j), (target, source, weight) in zip(itertools.combinations(range(n_modes), 2), lattice.hops):
        # a_i^dag a_j moves a photon from mode j to mode i, and a_j^dag a_i moves it back
        if g[i, j] != 0:
            g_psi[target] += g[i, j] * weight * psi[source]
        if g[j, i] != 0:
            g_psi[source] += g[j, i] * weight * psi[target]
    mean = float(np.vdot(psi, g_psi).real)
    second = float(np.vdot(g_psi, g_psi).real)
    return mean, second


def fock_qfi(psi: FockStateVector, gen: Generator) -> float:
    """QFI as 4 Var(G) on the truncated state.

    G is applied to the amplitudes on the photon-number lattice (see
    ``_generator_moments``); no basis rotation or eigendecomposition of G
    is used.
    """
    if gen.n_modes != psi.n_modes:
        raise InputError(f"generator has {gen.n_modes} modes but state has {psi.n_modes}")
    mean, second = _generator_moments(psi.amplitudes, gen.G)
    return 4.0 * (second - mean**2)


def fock_superposition_qfi(n_cut: int, g_min: float, g_max: float) -> float:
    """QFI of (|n_cut, 0> + |0, n_cut>)/sqrt(2) under diag(g_min, g_max).

    The photon-number-truncated benchmark state; its value equals
    (g_max - g_min)^2 n_cut^2 = 4 dg^2 N^2.
    """
    if n_cut < 1:
        raise InputError("n_cut must be at least 1")
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
    the counting basis (rows of the unitary ``basis_rotation`` define the
    counted modes), and the lambda derivative is a central difference with
    step ``cfg.fd_step``. Outcomes with probability below 1e-14 are dropped.

    With ``richardson`` the value is recomputed at half the step and a
    relative change above 1e-4 triggers a step-size warning.
    """

    def counted_probs(lam: float) -> np.ndarray:
        psi = psi_builder(lam)
        if psi.n_modes > MAX_MODES:
            raise InputError("too many modes for the counting oracle")
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
                GaussmetWarning,
                stacklevel=2,
            )
    return value
