"""Dense complex-matrix kernel: Hermitian eigendecompositions, Takagi
factorizations of complex symmetric matrices, and unitary exponentials.

Every routine validates its input against the max-norm relative tolerance
``DEFAULT_TOL`` (1e-10) and produces deterministic output for identical input,
including inside degenerate eigenvalue or singular-value clusters. The
checks and ``_hermitian_eig`` treat each matrix of a stack as if alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

DEFAULT_TOL = 1e-10
_R_GAP = 1e-10  # relative gap below which takagi counts squeezing magnitudes as equal


def max_norm(a: np.ndarray) -> float:
    """Largest entry magnitude, the norm all tolerances are relative to."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def require_finite(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a).all():
        raise InputError(f"{name} contains NaN or infinite entries")
    return a


def _require_self_transpose(a: np.ndarray, name: str, conj: bool) -> np.ndarray:
    """``a`` averaged with its transpose (conjugated if ``conj``), after checking that
    each matrix is square and within DEFAULT_TOL of that transpose, relative to its own scale."""
    a = require_finite(a, name)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InputError(f"{name} must be square, got shape {a.shape}")
    at = a.conj().mT if conj else a.mT
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0))
    if halved := bool((scale >= 2.0**1023).any()):  # entries this large may overflow a sum; their halves cannot
        a, at, scale = a / 2.0, at / 2.0, scale / 2.0
    dev = np.abs(a - at).max(axis=(-2, -1), initial=0.0)
    bad = dev > DEFAULT_TOL * scale
    if bad.any():
        dev = (1.0 + halved) * float(dev[bad].max())
        raise InputError(f"{name} deviates from {'Hermitian' if conj else 'symmetric'} by {dev:.3e}")
    return a + at if halved else (a + at) / 2.0


def require_hermitian(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    return _require_self_transpose(a, name, conj=True)


def require_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    return _require_self_transpose(a, name, conj=False)


def _require_unitary(v: np.ndarray, name: str) -> None:
    """The package's one unitarity rule: max|v^dag v - I| <= DEFAULT_TOL * M, for each matrix of a stack."""
    m = v.shape[-1]
    dev = max_norm(v.conj().mT @ v - np.eye(m))
    if dev > DEFAULT_TOL * m:
        raise InputError(f"{name} deviates from unitary by {dev:.3e}")


@dataclass(frozen=True)
class HermitianEig:
    """Ascending eigenvalues and the unitary of column eigenvectors."""

    eigvals: np.ndarray
    U: np.ndarray


@dataclass(frozen=True)
class TakagiFactorization:
    """Takagi factors of a complex symmetric matrix: f = V diag(r) V^T.

    ``r`` is real, nonnegative and descending; ``V`` is unitary.
    """

    V: np.ndarray
    r: np.ndarray


def _fix_phases(u: np.ndarray) -> np.ndarray:
    """Rotate each column of ``u``, a matrix or a stack, so its largest-magnitude entry is real positive."""
    k = np.abs(u).argmax(axis=-2)  # the row of each column's largest entry
    ph = u[(*np.indices(k.shape, sparse=True)[:-1], k, np.arange(u.shape[-1]))]
    return u * (np.hypot(ph.real, ph.imag) / ph)[..., None, :]  # hypot rounds as a scalar abs() does; np.abs may not


def _cluster_slices(values: np.ndarray, gap: float) -> list[slice]:
    """Split a sorted real vector into runs whose internal gaps are < gap."""
    slices = []
    start = 0
    for k in range(1, len(values)):
        if values[k] - values[k - 1] >= gap:
            slices.append(slice(start, k))
            start = k
    slices.append(slice(start, len(values)))
    return slices


def _pivoted_basis(subspace: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of span(subspace columns).

    Runs pivoted Gram-Schmidt on the projections of the canonical basis
    vectors onto the subspace, always picking the largest residual first,
    so the result does not depend on how LAPACK oriented the input columns.
    """
    m, k = subspace.shape
    proj = subspace @ subspace.conj().T
    candidates = proj.copy()  # column j = P e_j
    chosen: list[np.ndarray] = []
    for _ in range(k):
        norms = np.linalg.norm(candidates, axis=0)
        j = int(np.argmax(norms))
        v = candidates[:, j] / norms[j]
        chosen.append(v)
        # deflate remaining candidates
        candidates = candidates - np.outer(v, v.conj() @ candidates)
    return _fix_phases(np.column_stack(chosen))


def hermitian_eig(a: np.ndarray) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix with ascending eigenvalues.

    Inside eigenvalue clusters closer than 1e-9 * max|a| the eigenvectors
    are re-orthonormalized deterministically; isolated eigenvectors get a
    fixed phase. Raises InputError on non-Hermitian or non-finite input.
    """
    return _hermitian_eig(require_hermitian(a))


def _hermitian_eig(a: np.ndarray) -> HermitianEig:
    """:func:`hermitian_eig` of a matrix or stack require_hermitian returned; only clusters loop in Python."""
    w, u = np.linalg.eigh(a)
    # clusters split at gaps of 1e-9 * scale, compared in halves so that no difference overflows
    half, half_gap = w / 2.0, 5e-10 * np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0))
    split = half[..., 1:] - half[..., :-1] >= half_gap[..., None]  # split[..., k]: a cluster ends at k
    isolated = np.ones(w.shape, dtype=bool)
    isolated[..., 1:] = split
    isolated[..., :-1] &= split
    if isolated.all():
        return HermitianEig(eigvals=w, U=_fix_phases(u))
    u = np.where(isolated[..., None, :], _fix_phases(u), u)
    for idx in map(tuple, np.argwhere(~isolated.all(axis=-1))):
        for sl in _cluster_slices(half[idx], half_gap[idx]):
            if sl.stop - sl.start > 1:
                u[idx + (slice(None), sl)] = _pivoted_basis(u[idx + (slice(None), sl)])
    return HermitianEig(eigvals=w, U=u)


def takagi(f: np.ndarray) -> TakagiFactorization:
    """Takagi factorization f = V diag(r) V^T of a complex symmetric matrix.

    Built on the SVD: the residue U^H f conj(U) is diagonal up to blocks
    b over k-fold degenerate singular values, scaled to be unitary and
    symmetric. Each b is absorbed by a unitary w with w w^T = b:
    b conj(w) = w is, for w = x + i y, the real symmetric eigenproblem
    [[Re b, Im b], [Im b, -Re b]] [x; y] = [x; y], whose eigenvalues are
    +-1, k of each, and the k eigenvectors at +1 are orthonormal as
    complex vectors because [-y; x] spans the -1 eigenspace
    (Bunse-Gerstner and Gragg, J. Comput. Appl. Math. 21, 41 (1988)).
    Zero singular values keep their SVD columns unchanged.
    """
    f = require_symmetric(f)
    m = f.shape[0]
    if max_norm(f) == 0.0:
        return TakagiFactorization(V=np.eye(m, dtype=complex), r=np.zeros(m))
    u, sigma, _ = np.linalg.svd(f)
    z = u.conj().T @ f @ u.conj()  # symmetric, block diagonal over sigma clusters
    gap = _R_GAP * max(1.0, sigma[0])
    v = np.zeros_like(u)
    for sl in _cluster_slices(-sigma, gap):  # sigma is descending
        s_val = sigma[sl][0]
        if s_val <= gap:
            v[:, sl] = u[:, sl]
            continue
        block = z[sl, sl] / s_val  # unitary and symmetric
        k = block.shape[0]
        if k == 1:
            q = np.array([[np.exp(0.5j * np.angle(block[0, 0]))]])
        else:
            _, vec = np.linalg.eigh(np.block([[block.real, block.imag], [block.imag, -block.real]]))
            q = vec[:k, k:] + 1j * vec[k:, k:]
        v[:, sl] = u[:, sl] @ q
    return TakagiFactorization(V=v, r=sigma)


def unitary_exp(h: np.ndarray, scale: float) -> np.ndarray:
    """exp(-1j * scale * h) for Hermitian h, unitary to working precision."""
    eig = hermitian_eig(h)
    phases = np.exp(-1j * scale * eig.eigvals)
    return (eig.U * phases) @ eig.U.conj().T
