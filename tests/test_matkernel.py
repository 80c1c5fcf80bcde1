import numpy as np
import pytest

from gaussmet import gaussian, generator, matkernel, metrology
from gaussmet.errors import InputError
from gaussmet.verify import random_hermitian, random_unitary


def test_hermitian_eig_diagonal_sorts_ascending():
    eig = matkernel.hermitian_eig(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(eig.eigvals, [1.0, 3.0])
    # column-swapped identity up to phase
    assert np.allclose(np.abs(eig.U), [[0.0, 1.0], [1.0, 0.0]])


def test_hermitian_eig_pauli_x():
    eig = matkernel.hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert np.allclose(eig.eigvals, [-1.0, 1.0])
    expected = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
    # compare up to per-column phase
    for k in range(2):
        inner = abs(np.vdot(eig.U[:, k], expected[:, k]))
        assert inner == pytest.approx(1.0, abs=1e-12)


def test_hermitian_eig_random_reconstruction():
    rng = np.random.default_rng(11)
    a = random_hermitian(rng, 6)
    eig = matkernel.hermitian_eig(a)
    recon = (eig.U * eig.eigvals) @ eig.U.conj().T
    assert matkernel.max_norm(a - recon) < 1e-10 * matkernel.max_norm(a)
    assert matkernel.max_norm(eig.U.conj().T @ eig.U - np.eye(6)) < 1e-10


def test_hermitian_eig_property_reconstruction_and_unitarity():
    rng = np.random.default_rng(2024)
    for trial in range(500):
        m = int(rng.integers(1, 13))
        a = random_hermitian(rng, m) * rng.uniform(0.1, 10.0)
        eig = matkernel.hermitian_eig(a)
        scale = max(matkernel.max_norm(a), 1e-300)
        assert np.all(np.diff(eig.eigvals) >= -1e-13 * scale)
        recon = (eig.U * eig.eigvals) @ eig.U.conj().T
        assert matkernel.max_norm(a - recon) <= 1e-10 * scale
        assert matkernel.max_norm(eig.U.conj().T @ eig.U - np.eye(m)) <= 1e-10


def test_hermitian_eig_degenerate_deterministic():
    # projector with a 2-fold degenerate eigenvalue
    a = np.diag([1.0, 1.0, 3.0]).astype(complex)
    e1 = matkernel.hermitian_eig(a)
    e2 = matkernel.hermitian_eig(a.copy())
    assert np.array_equal(e1.U, e2.U)
    recon = (e1.U * e1.eigvals) @ e1.U.conj().T
    assert matkernel.max_norm(a - recon) < 1e-12


def test_hermitian_eig_rejects_bad_input():
    with pytest.raises(InputError, match="deviates from Hermitian"):
        matkernel.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(InputError, match="NaN or infinite"):
        matkernel.hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex))


def test_takagi_real_diagonal():
    tak = matkernel.takagi(np.diag([0.5, 0.2]).astype(complex))
    assert np.allclose(tak.r, [0.5, 0.2])
    assert np.allclose(tak.V, np.eye(2))


def test_takagi_degenerate_off_diagonal():
    f = np.array([[0.0, 0.3], [0.3, 0.0]], dtype=complex)
    tak = matkernel.takagi(f)
    assert np.allclose(tak.r, [0.3, 0.3])
    recon = tak.V @ np.diag(tak.r) @ tak.V.T
    assert matkernel.max_norm(f - recon) < 1e-12


def test_takagi_phase_absorption_1x1():
    theta = np.pi / 3.0
    tak = matkernel.takagi(np.array([[0.4 * np.exp(1j * theta)]]))
    assert tak.r[0] == pytest.approx(0.4)
    assert tak.V[0, 0] == pytest.approx(np.exp(1j * theta / 2.0))


def test_takagi_zero_matrix():
    tak = matkernel.takagi(np.zeros((3, 3), dtype=complex))
    assert np.allclose(tak.V, np.eye(3))
    assert np.allclose(tak.r, 0.0)


def test_takagi_property_random_symmetric():
    rng = np.random.default_rng(77)
    for trial in range(300):
        m = int(rng.integers(1, 9))
        z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        f = (z + z.T) / 2.0
        tak = matkernel.takagi(f)
        assert np.all(tak.r >= 0.0)
        assert np.all(np.diff(tak.r) <= 1e-12)
        recon = tak.V @ np.diag(tak.r).astype(complex) @ tak.V.T
        assert matkernel.max_norm(f - recon) <= 1e-9 * (1.0 + matkernel.max_norm(f))
        assert matkernel.max_norm(tak.V.conj().T @ tak.V - np.eye(m)) <= 1e-10


_LEVELS = (0.0, 0.3, 0.7, 1.2, 2.0)


def _degenerate_factors(rng):
    """(V, r) on M = 2..8 modes whose first 2..M values of r are equal.

    r takes well-separated levels, zero among them, so every cluster is
    exactly degenerate; V is a real orthogonal or a complex unitary.
    """
    m = int(rng.integers(2, 9))
    r = rng.choice(_LEVELS, m)
    r[: int(rng.integers(2, m + 1))] = rng.choice(_LEVELS)
    if rng.random() < 0.5:
        v = np.linalg.qr(rng.standard_normal((m, m)))[0].astype(complex)
    else:
        v = random_unitary(rng, m)
    return v, np.sort(r)[::-1]


def test_takagi_degenerate_clusters():
    rng = np.random.default_rng(1313)
    for trial in range(400):
        v, r = _degenerate_factors(rng)
        m = len(r)
        f = v @ np.diag(r).astype(complex) @ v.T
        tak = matkernel.takagi(f)
        assert np.allclose(tak.r, r, rtol=0.0, atol=1e-12)
        recon = tak.V @ np.diag(tak.r).astype(complex) @ tak.V.T
        assert matkernel.max_norm(f - recon) <= 1e-12 * (1.0 + matkernel.max_norm(f))
        assert matkernel.max_norm(tak.V.conj().T @ tak.V - np.eye(m)) <= 1e-13
        assert matkernel.takagi(f.copy()).V.tobytes() == tak.V.tobytes()


def test_disentangle_degenerate_clusters_keeps_qfi():
    rng = np.random.default_rng(1314)
    for trial in range(200):
        v, r = _degenerate_factors(rng)
        m = len(r)
        alpha = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        d = gaussian.DisentangledForm(V=v, alpha=alpha, r=r)
        gen = generator.from_matrix(random_hermitian(rng, m))
        want = metrology.qfi(d, gen).qfi
        got = metrology.qfi(gaussian.disentangle(gaussian.assemble(d)), gen).qfi
        assert got == pytest.approx(want, rel=1e-12)


def test_takagi_rejects_asymmetric():
    with pytest.raises(InputError, match="deviates from symmetric"):
        matkernel.takagi(np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex))


def test_unitary_exp_zero_scale_is_identity():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 4)
    assert matkernel.max_norm(matkernel.unitary_exp(h, 0.0) - np.eye(4)) < 1e-14


def test_unitary_exp_diagonal():
    u = matkernel.unitary_exp(np.diag([1.0, 2.0]).astype(complex), np.pi)
    assert np.allclose(u, np.diag([-1.0, 1.0]), atol=1e-14)


def test_unitary_exp_is_unitary():
    rng = np.random.default_rng(8)
    h = random_hermitian(rng, 5)
    u = matkernel.unitary_exp(h, 0.7)
    assert matkernel.max_norm(u.conj().T @ u - np.eye(5)) < 1e-10


def test_unitary_exp_semigroup():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = int(rng.integers(1, 7))
        h = random_hermitian(rng, m)
        a, b = rng.uniform(-2, 2, 2)
        lhs = matkernel.unitary_exp(h, a) @ matkernel.unitary_exp(h, b)
        rhs = matkernel.unitary_exp(h, a + b)
        assert matkernel.max_norm(lhs - rhs) < 1e-9


def _eig_by_columns(a):
    """Reference: the eigendecomposition with each isolated eigenvector's phase fixed alone."""
    w, u = np.linalg.eigh(a)
    cols = []
    for sl in matkernel._cluster_slices(w, 1e-9 * max(1.0, matkernel.max_norm(a))):
        if sl.stop - sl.start == 1:
            v = u[:, sl.start]
            ph = v[int(np.argmax(np.abs(v)))]
            cols.append(v * (abs(ph) / ph))
        else:
            cols.extend(matkernel._pivoted_basis(u[:, sl]).T)
    return w, np.column_stack(cols)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_stacked_hermitian_eig_matches_each_matrix_alone(m):
    rng = np.random.default_rng(40 + m)
    w = random_unitary(rng, m)
    spectrum = np.where(np.arange(m) < 2, 1.5, np.arange(m) - 0.5)  # eigenvalue 1.5 twice when m > 1
    mats = [random_hermitian(rng, m) for _ in range(4)]
    mats += [(w * spectrum) @ w.conj().T, np.zeros((m, m), complex), random_hermitian(rng, m)]
    stacked = generator.from_matrix(np.array(mats))
    assert stacked.eig.eigvals.shape == (len(mats), m) and stacked.n_modes == m
    for b, a in enumerate(mats):
        alone = generator.from_matrix(a)
        assert stacked.G[b].tobytes() == alone.G.tobytes()
        assert stacked.eig.eigvals[b].tobytes() == alone.eig.eigvals.tobytes()
        assert stacked.eig.U[b].tobytes() == alone.eig.U.tobytes()
        ref_w, ref_u = _eig_by_columns(alone.G)
        assert ref_w.tobytes() == alone.eig.eigvals.tobytes() and ref_u.tobytes() == alone.eig.U.tobytes()
        assert np.array_equal(stacked.idler_mask[b], alone.idler_mask)
        assert generator.signal_projector(stacked)[b].tobytes() == generator.signal_projector(alone).tobytes()
    assert stacked.idler_mask[-2].all() and not generator.signal_projector(stacked)[-2].any()  # the zero matrix


def test_stacked_checks_judge_each_matrix_by_its_own_scale():
    small = np.array([[0.0, 2e-10], [0.0, 0.0]], complex)  # deviates by 2e-10 at scale 1
    big = np.array([[1e3, 0.0], [0.0, 0.0]], complex)
    matkernel.require_hermitian(small / 4)
    with pytest.raises(InputError, match="deviates from Hermitian by 2.000e-10"):
        matkernel.require_hermitian(np.array([big, small]))
    with pytest.raises(InputError, match="deviates from unitary"):
        gaussian.DisentangledForm(V=np.array([np.eye(2), 1.1 * np.eye(2)]), alpha=np.zeros((2, 2)), r=np.zeros((2, 2)))


def test_generators_with_entries_near_the_float_limit(recwarn):
    gen = generator.from_matrix(np.diag([1e308, -1e308]).astype(complex))
    assert gen.eig.eigvals.tolist() == [-1e308, 1e308]
    assert np.array_equal(gen.G, np.diag([1e308, -1e308]))
    # clustered eigenvalues at the limit are split without overflow as well
    assert generator.from_matrix(np.diag([1e308, 1e308, -1e308]).astype(complex)).eig.eigvals.tolist() == [
        -1e308, 1e308, 1e308
    ]
    for bad in ([[0.0, 1e308], [-1e308, 0.0]], [[1e308, 1.5e308], [0.0, -1e308]]):
        with pytest.raises(InputError, match="G deviates from Hermitian"):
            generator.from_matrix(np.array(bad, complex))
    # the deviation is reported in full when it is finite
    with pytest.raises(InputError, match="deviates from symmetric by 1.600e\\+308"):
        matkernel.require_symmetric(np.array([[0.0, 1.2e308], [-0.4e308, 0.0]], complex))
    assert not recwarn.list
