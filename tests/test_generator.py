import numpy as np
import pytest

from gaussmet import generator, matkernel, verify
from gaussmet.errors import InputError
from gaussmet.generator import DiscretizationGrid, HGParams
from gaussmet.matkernel import max_norm
from gaussmet.verify import random_hermitian


def test_from_matrix_diagonal():
    gen = generator.from_matrix(np.diag([1.0, 3.0]).astype(complex))
    assert np.allclose(gen.eig.eigvals, [1.0, 3.0])
    assert np.allclose(np.abs(gen.eig.U), np.eye(2))
    assert np.flatnonzero(gen.idler_mask).size == 0


def test_from_matrix_idler_detection():
    gen = generator.from_matrix(np.diag([0.0, 2.0]).astype(complex), signal_tol=1e-12)
    assert list(np.flatnonzero(gen.idler_mask)) == [0]


@pytest.mark.parametrize("tol", [-1.0, float("nan"), 1.0, 2.0, float("inf")])
def test_from_matrix_rejects_signal_tol_outside_unit_interval(tol):
    with pytest.raises(InputError, match="signal_tol must be"):
        generator.from_matrix(np.diag([0.0, 1.0, 2.0]).astype(complex), signal_tol=tol)


def test_from_matrix_zero_signal_tol_keeps_exact_zero_an_idler():
    gen = generator.from_matrix(np.diag([0.0, 1.0, 2.0]).astype(complex), signal_tol=0.0)
    assert list(np.flatnonzero(gen.idler_mask)) == [0]


def test_from_matrix_2x2_analytic():
    gen = generator.from_matrix(np.array([[2.0, 1j], [-1j, 2.0]]))
    assert np.allclose(gen.eig.eigvals, [1.0, 3.0])


def test_from_matrix_rejects_non_hermitian():
    with pytest.raises(InputError, match="deviates from Hermitian"):
        generator.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_from_matrix_checks_hermiticity_once(monkeypatch):
    names = []
    check = matkernel.require_hermitian

    def counted(a, name="matrix"):
        names.append(name)
        return check(a, name)

    monkeypatch.setattr(matkernel, "require_hermitian", counted)
    generator.from_matrix(random_hermitian(np.random.default_rng(2), 3))
    assert names == ["G"]
    with pytest.raises(InputError, match="G deviates from Hermitian"):
        generator.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_signal_projector_identity_when_full_rank():
    gen = generator.from_matrix(np.diag([1.0, -2.0]).astype(complex))
    assert np.allclose(generator.signal_projector(gen), np.eye(2))


def test_signal_projector_diagonal_case():
    gen = generator.from_matrix(np.diag([0.0, 2.0]).astype(complex))
    assert np.allclose(generator.signal_projector(gen), np.diag([0.0, 1.0]))


def test_signal_projector_properties_random():
    rng = np.random.default_rng(17)
    for _ in range(40):
        m = int(rng.integers(2, 9))
        h = random_hermitian(rng, m)
        # zero out one eigenvalue to create an idler
        eigvals, u = np.linalg.eigh(h)
        eigvals[int(rng.integers(0, m))] = 0.0
        g = (u * eigvals) @ u.conj().T
        gen = generator.from_matrix((g + g.conj().T) / 2.0)
        p = generator.signal_projector(gen)
        assert max_norm(p @ p - p) < 1e-9
        assert max_norm(p.conj().T - p) < 1e-9
        assert max_norm(p @ gen.G - gen.G) < 1e-9 * max(1.0, max_norm(gen.G))
        assert max_norm(gen.G @ p - gen.G) < 1e-9 * max(1.0, max_norm(gen.G))


@pytest.mark.parametrize("eigvals", [[0.0, 2.0, -1.0], [1.0, -2.0], [0.0, 0.0], [1e-14, 1.0, 3.0]])
def test_idler_mask_and_signal_projector_are_cached_read_only(eigvals):
    w = verify.random_unitary(np.random.default_rng(3), len(eigvals))
    gen = generator.from_matrix((w * np.array(eigvals)) @ w.conj().T)
    g = gen.eig.eigvals
    scale = np.abs(g).max()
    mask = np.abs(g) <= gen.signal_tol * scale if scale > 0.0 else np.ones(g.size, dtype=bool)
    keep = (~mask).astype(float)
    projector = (gen.eig.U * keep) @ gen.eig.U.conj().T
    for cached, uncached in ((gen.idler_mask, mask), (generator.signal_projector(gen), projector)):
        assert np.array_equal(cached, uncached)
        assert not cached.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = cached[-1]
    assert gen.idler_mask is gen.idler_mask
    assert generator.signal_projector(gen) is generator.signal_projector(gen)



def test_stack_slice_equals_each_matrix_built_alone():
    rng = np.random.default_rng(4)
    mats = np.array([np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), np.zeros((2, 2)), random_hermitian(rng, 2)], complex)
    stacked = generator.from_matrix(mats)
    for k, a in enumerate(mats):
        part, alone = stacked[k], generator.from_matrix(a)
        for x, y in ((part.eig.eigvals, alone.eig.eigvals), (part.eig.U, alone.eig.U),
                     (part.idler_mask, alone.idler_mask),
                     (generator.signal_projector(part), generator.signal_projector(alone))):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
        assert not part.idler_mask.flags.writeable and not generator.signal_projector(part).flags.writeable

def test_shift_generator_uniform_grid():
    gen = generator.shift_generator(DiscretizationGrid(0.0, 4.0, 4), "time_shift")
    assert np.allclose(gen.G, np.diag([0.0, 1.0, 2.0, 3.0]))
    assert gen.basis_label == "frequency_bins"
    gaps = np.diff(gen.eig.eigvals)
    assert np.allclose(gaps, gaps[0])


def test_shift_generator_tilt_scale():
    gen = generator.shift_generator(
        DiscretizationGrid(-1.0, 1.0, 2), "beam_tilt", physical_scale=5.0
    )
    assert np.allclose(gen.G, np.diag([-5.0, 0.0]))
    assert gen.basis_label == "position_bins"


def test_hg_generator_two_level():
    gen = generator.hg_generator(HGParams(center_p=0.0, sigma_z=1.0), 2)
    assert np.allclose(gen.G, np.array([[0.0, 0.5j], [-0.5j, 0.0]]))


def test_hg_generator_carrier_shift():
    g0 = generator.hg_generator(HGParams(center_p=0.0, sigma_z=1.0), 3).G
    g7 = generator.hg_generator(HGParams(center_p=7.0, sigma_z=1.0), 3).G
    assert np.allclose(g7 - g0, 7.0 * np.eye(3))


def test_hg_generator_entry_and_metadata():
    gen = generator.hg_generator(HGParams(center_p=0.0, sigma_z=0.5), 6)
    assert gen.G[0, 1] == pytest.approx(1j * np.sqrt(0.5) / (np.sqrt(2.0) * 0.5))
    assert gen.meta["dropped_coupling"] == pytest.approx(
        np.sqrt(6.0 / 2.0) / (np.sqrt(2.0) * 0.5)
    )
    # exactly Hermitian as constructed
    assert max_norm(gen.G - gen.G.conj().T) == 0.0


def test_generator_from_modes_recovers_hg():
    hg = HGParams(center_z=0.0, center_p=0.0, sigma_z=1.0)

    def family(n, z, lam):
        return generator.hg_mode(n, z + lam, hg)

    grid = DiscretizationGrid(-12.0, 12.0, 1200)
    num = generator.generator_from_modes(family, 4, 0.0, 1e-4, grid)
    ref = generator.hg_generator(hg, 4)
    assert max_norm(num.G - ref.G) < 1e-5
    assert num.meta["anti_hermitian_residual"] < 1e-8


def test_generator_from_modes_convergence_rate():
    hg = HGParams(center_z=0.0, center_p=0.3, sigma_z=1.0)

    def family(n, z, lam):
        return generator.hg_mode(n, z + lam, hg)

    grid = DiscretizationGrid(-14.0, 14.0, 4000)
    ref = generator.hg_generator(hg, 3).G
    errs = []
    for h in (2e-2, 1e-2, 5e-3):
        num = generator.generator_from_modes(family, 3, 0.0, h, grid)
        errs.append(max_norm(num.G - ref))
    # central differences: error should fall about 4x per halving
    assert errs[1] < 0.3 * errs[0]
    assert errs[2] < 0.3 * errs[1]


def test_generator_from_modes_plane_wave_diagonal():
    pvals = np.array([0.5, 1.5, 2.5])

    def family(n, z, lam):
        return np.exp(1j * (n + 1) * z) / np.sqrt(2.0 * np.pi) * np.exp(-1j * lam * pvals[n])

    grid = DiscretizationGrid(0.0, 2.0 * np.pi, 256)
    num = generator.generator_from_modes(family, 3, 0.0, 1e-5, grid)
    assert np.allclose(np.diag(num.G).real, pvals, atol=1e-8)
    assert max_norm(num.G - np.diag(np.diag(num.G))) < 1e-8


def test_generator_from_modes_constant_family_is_zero():
    hg = HGParams(sigma_z=1.0)

    def family(n, z, lam):
        return generator.hg_mode(n, z, hg)

    grid = DiscretizationGrid(-10.0, 10.0, 600)
    num = generator.generator_from_modes(family, 3, 0.0, 1e-5, grid)
    assert max_norm(num.G) < 1e-10


def test_generator_from_modes_rejects_non_orthonormal():
    def family(n, z, lam):
        return np.exp(-((z - 0.1 * n) ** 2))  # unnormalized, overlapping

    grid = DiscretizationGrid(-8.0, 8.0, 400)
    with pytest.raises(InputError, match="Gram matrix deviates"):
        generator.generator_from_modes(family, 2, 0.0, 1e-5, grid)


def test_generator_from_modes_grid_refinement():
    hg = HGParams(center_z=0.0, center_p=0.3, sigma_z=1.0)

    def family(n, z, lam):
        return generator.hg_mode(n, z + lam, hg)

    ref = generator.hg_generator(hg, 3).G
    errs = []
    for n_bins in (20, 40):
        grid = DiscretizationGrid(-10.0, 10.0, n_bins)
        num = generator.generator_from_modes(family, 3, 0.0, 1e-5, grid)
        errs.append(max_norm(num.G - ref))
    # at least quadratic improvement per halving, down to the fd floor
    assert errs[1] <= errs[0] / 4.0 + 1e-10
