import ast
import functools
import math
import pathlib
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg

from gaussmet import focksim, generator, metrology
from gaussmet.errors import InputError, TailTooLargeError
from gaussmet.focksim import FockStateVector, OracleConfig
from gaussmet.gaussian import DisentangledForm
from gaussmet.verify import random_hermitian, random_small_state, random_unitary


def _single_mode(r=0.0, alpha=0.0):
    return DisentangledForm(
        V=np.eye(1, dtype=complex),
        alpha=np.array([alpha], complex),
        r=np.array([r], float),
    )


def test_fock_build_vacuum():
    psi = focksim.fock_build(_single_mode(), OracleConfig(cutoff=6))
    assert psi.amplitudes[0] == pytest.approx(1.0)
    assert np.sum(np.abs(psi.amplitudes[1:]) ** 2) == pytest.approx(0.0, abs=1e-28)
    assert psi.norm_deficit == 0.0


def test_fock_build_squeezed_matches_series():
    r = 0.1
    psi = focksim.fock_build(_single_mode(r=r), OracleConfig(cutoff=20, tail_tol=1e-12))
    t = np.tanh(r)
    for m in range(5):
        series = np.sqrt(math.factorial(2 * m)) / (2**m * math.factorial(m))
        series *= t**m / np.sqrt(np.cosh(r))
        assert psi.amplitudes[2 * m].real == pytest.approx(series, rel=1e-10)
        assert abs(psi.amplitudes[2 * m].imag) < 1e-14
    nbar = sum(abs(psi.amplitudes[n]) ** 2 * n for n in range(21))
    assert nbar == pytest.approx(np.sinh(r) ** 2, abs=1e-10)
    assert np.allclose(psi.amplitudes[1::2], 0.0)


def test_fock_build_coherent_poisson():
    psi = focksim.fock_build(_single_mode(alpha=0.5), OracleConfig(cutoff=20, tail_tol=1e-12))
    nbar = sum(abs(psi.amplitudes[n]) ** 2 * n for n in range(21))
    assert nbar == pytest.approx(0.25, abs=1e-12)
    for n in range(4):
        poisson = np.exp(-0.125) * 0.5**n / np.sqrt(math.factorial(n))
        assert abs(psi.amplitudes[n]) == pytest.approx(poisson, rel=1e-10)


def _expm_column(alpha, r, cutoff, work=300):
    """<n|D(alpha) S(r)|0>, n <= cutoff, from dense exponentials on a padded space.

    Both exponentials are of real matrices: D(alpha) = R D(|alpha|) R^dag
    with the phase rotation R = exp(i arg(alpha) a^dag a).
    """
    a = np.diag(np.sqrt(np.arange(1.0, work)), 1)
    column = scipy.linalg.expm(0.5 * r * (a.T @ a.T - a @ a))[:, 0]
    phase = np.exp(1j * np.angle(alpha) * np.arange(work))
    column = phase * (scipy.linalg.expm(abs(alpha) * (a.T - a)) @ (phase.conj() * column))
    return column[: cutoff + 1]


def test_fock_build_columns_match_expm_anchor():
    rng = np.random.default_rng(2020)
    cases = [(0.0, 0.0), (0.0, 1.5 - 2.0j), (1.2, 0.0), (1.5, 3.0j)]
    for _ in range(6):
        alpha = rng.uniform(0.0, 3.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        cases.append((rng.uniform(0.0, 1.5), alpha))
    cfg = OracleConfig(cutoff=60, tail_tol=0.1)
    for r, alpha in cases:
        psi = focksim.fock_build(_single_mode(r=r, alpha=alpha), cfg)
        column = psi.amplitudes * np.sqrt(1.0 - psi.norm_deficit)
        assert np.max(np.abs(column - _expm_column(alpha, r, cfg.cutoff))) < 1e-13


def test_fock_build_rejects_large_tail():
    with pytest.raises(TailTooLargeError):
        focksim.fock_build(_single_mode(r=2.0), OracleConfig(cutoff=4, tail_tol=1e-9))


def test_fock_build_rejects_many_modes():
    d = DisentangledForm(
        V=np.eye(5, dtype=complex), alpha=np.zeros(5, complex), r=np.zeros(5)
    )
    with pytest.raises(InputError, match="oracle supports up to"):
        focksim.fock_build(d, OracleConfig(cutoff=3))


@pytest.mark.parametrize("kwargs, rule", [
    ({"cutoff": 2.5}, "cutoff must be an integer of at least 1"),
    ({"cutoff": "6"}, "cutoff must be an integer of at least 1"),
    ({"cutoff": True}, "cutoff must be an integer of at least 1"),
    ({"cutoff": 4, "fd_step": math.nan}, "fd_step must be a finite number"),
    ({"cutoff": 4, "fd_step": math.inf}, "fd_step must be a finite number"),
    ({"cutoff": 4, "tail_tol": math.nan}, "tail_tol must be a finite number"),
])
def test_oracle_config_follows_the_number_rules(kwargs, rule):
    with pytest.raises(InputError, match=rule):
        OracleConfig(**kwargs)


@pytest.mark.parametrize("m, cutoff", [(1, 10**400), (1, 10**7), (2, 20642), (4, 2**11)])
def test_fock_build_refuses_a_cutoff_past_the_allocation_limit(monkeypatch, m, cutoff):
    # (cutoff + 1)**max(M, 3) > 2**43; refused before any column recurrence, lattice or allocation
    def never(*args):
        raise AssertionError("fock_build went past its size check")

    for name in ("_displaced_squeezed_column", "_lattice", "_two_mode_blocks"):
        monkeypatch.setattr(focksim, name, never)
    d = random_small_state(np.random.default_rng(m), m)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=f"cannot allocate the lattice or lift of cutoff {cutoff} at {m} modes"):
            focksim.fock_build(d, OracleConfig(cutoff=cutoff))
        assert tracemalloc.get_traced_memory()[1] < 2**16
    finally:
        tracemalloc.stop()


def test_fock_qfi_vacuum_zero():
    gen = generator.from_matrix(np.diag([1.0]).astype(complex))
    psi = focksim.fock_build(_single_mode(), OracleConfig(cutoff=6))
    assert focksim.fock_qfi(psi, gen) == pytest.approx(0.0, abs=1e-12)


def test_fock_qfi_single_mode_squeezed():
    gen = generator.from_matrix(np.diag([1.0]).astype(complex))
    d = _single_mode(r=0.1)
    psi = focksim.fock_build(d, OracleConfig(cutoff=24, tail_tol=1e-12))
    oracle = focksim.fock_qfi(psi, gen)
    assert oracle == pytest.approx(2.0 * np.sinh(0.2) ** 2, rel=1e-10)
    assert oracle == pytest.approx(metrology.qfi(d, gen).qfi, rel=1e-8)


def test_fock_qfi_two_mode_variance_optimal():
    gen = generator.from_matrix(np.diag([-1.0, 1.0]).astype(complex))
    r = np.arcsinh(np.sqrt(0.04))
    d = DisentangledForm(
        V=np.eye(2, dtype=complex), alpha=np.zeros(2, complex), r=np.array([r, r])
    )
    psi = focksim.fock_build(d, OracleConfig(cutoff=25, tail_tol=1e-12))
    assert focksim.fock_qfi(psi, gen) == pytest.approx(
        metrology.qfi(d, gen).qfi, rel=1e-8
    )


def test_fock_qfi_matches_rotation_into_generator_eigenbasis():
    rng = np.random.default_rng(415)
    for m, cutoff in ((2, 24), (3, 22)):
        for _ in range(30):
            gen = generator.from_matrix(random_hermitian(rng, m))
            psi = focksim.fock_build(random_small_state(rng, m), OracleConfig(cutoff=cutoff, tail_tol=1e-12))
            rotated = focksim.apply_mode_transform(psi.amplitudes, gen.eig.U.conj().T, cutoff)
            values = gen.eig.eigvals @ np.indices(rotated.shape).reshape(m, -1)
            prob = np.abs(rotated.reshape(-1)) ** 2
            variance = prob @ values**2 - (prob @ values) ** 2
            assert focksim.fock_qfi(psi, gen) == pytest.approx(4.0 * variance, rel=1e-12)


def test_fock_qfi_closed_forms_through_off_diagonal_generator():
    # the closed forms of the two tests above, with state and generator
    # rotated by a random mixer so that every a_i^dag a_j term contributes
    w = random_unitary(np.random.default_rng(416), 2)
    s2 = 0.04
    r = np.arcsinh(np.sqrt(s2))
    cases = (
        ([1.0, 0.0], [0.1, 0.0], 2.0 * np.sinh(0.2) ** 2),
        ([-1.0, 1.0], [r, r], 2 * 8.0 * s2 * (s2 + 1.0)),
    )
    for g_vals, squeeze, closed_form in cases:
        d = DisentangledForm(V=w, alpha=np.zeros(2, complex), r=np.array(squeeze))
        gen = generator.from_matrix(w @ np.diag(g_vals) @ w.conj().T)
        psi = focksim.fock_build(d, OracleConfig(cutoff=25, tail_tol=1e-12))
        assert focksim.fock_qfi(psi, gen) == pytest.approx(closed_form, rel=1e-10)


def test_oracle_equivalence_random_probes():
    rng = np.random.default_rng(414)
    cutoffs = {1: 30, 2: 24, 3: 20, 4: 24}
    for _ in range(25):
        m = int(rng.integers(1, 5))
        gen = generator.from_matrix(random_hermitian(rng, m))
        d = random_small_state(rng, m)
        psi = focksim.fock_build(d, OracleConfig(cutoff=cutoffs[m], tail_tol=1e-12))
        exact = metrology.qfi(d, gen).qfi
        oracle = focksim.fock_qfi(psi, gen)
        assert abs(oracle - exact) <= 1e-6 * max(abs(exact), 1e-12)


def test_cutoff_convergence():
    rng = np.random.default_rng(17)
    gen = generator.from_matrix(random_hermitian(rng, 2))
    d = random_small_state(rng, 2)
    psi1 = focksim.fock_build(d, OracleConfig(cutoff=18, tail_tol=1e-12))
    psi2 = focksim.fock_build(d, OracleConfig(cutoff=36, tail_tol=1e-12))
    assert psi1.norm_deficit < 1e-12
    q1, q2 = focksim.fock_qfi(psi1, gen), focksim.fock_qfi(psi2, gen)
    assert abs(q1 - q2) < 1e-10 * max(1.0, abs(q2))


def test_superposition_benchmark_values():
    assert focksim.fock_superposition_qfi(1, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert focksim.fock_superposition_qfi(5, -1.0, 1.0) == pytest.approx(100.0, abs=1e-10)
    assert focksim.fock_superposition_qfi(3, 0.7, 0.7) == pytest.approx(0.0, abs=1e-12)


def test_superposition_matches_resource_form():
    for n_cut in range(1, 11):
        for g_min, g_max in ((0.0, 1.0), (-2.0, 0.5), (1.0, 4.0)):
            value = focksim.fock_superposition_qfi(n_cut, g_min, g_max)
            assert value == pytest.approx(
                (g_max - g_min) ** 2 * n_cut**2, abs=1e-12 * max(1.0, n_cut**4)
            )


def _phase_builder(base, g_vals):
    counts = np.indices(base.amplitudes.shape).reshape(len(g_vals), -1)
    phase_vals = (np.asarray(g_vals) @ counts).reshape(base.amplitudes.shape)

    def build(lam):
        return FockStateVector(
            base.n_modes,
            base.cutoff,
            base.amplitudes * np.exp(-1j * lam * phase_vals),
            base.norm_deficit,
        )

    return build


def dual_basis(g_vals):
    """Fourier dual of a diagonal equally spaced generator eigenbasis."""
    g_vals = np.asarray(g_vals, float)
    m = len(g_vals)
    dg = g_vals[1] - g_vals[0]
    dz = 2.0 * np.pi / (m * dg)
    zs = 0.2 + np.arange(m) * dz
    return np.exp(1j * np.outer(zs, g_vals)) / np.sqrt(m)


def test_counting_insensitive_probe_zero():
    cfg = OracleConfig(cutoff=16, tail_tol=1e-10)
    base = focksim.fock_build(
        DisentangledForm(
            V=np.eye(2, dtype=complex),
            alpha=np.zeros(2, complex),
            r=np.full(2, np.arcsinh(0.2)),
        ),
        cfg,
    )
    fi = focksim.fock_counting_fi(lambda lam: base, dual_basis([-1.0, 1.0]), 0.0, cfg)
    assert fi == pytest.approx(0.0, abs=1e-12)


def test_counting_dual_basis_matches_direct_detection():
    import warnings

    from gaussmet import measurement

    g_vals = [-1.0, 1.0]
    gen = generator.from_matrix(np.diag(g_vals).astype(complex))
    r = np.arcsinh(np.sqrt(0.04))
    d = DisentangledForm(
        V=np.eye(2, dtype=complex), alpha=np.zeros(2, complex), r=np.array([r, r])
    )
    cfg = OracleConfig(cutoff=16, tail_tol=1e-12, fd_step=1e-5)
    base = focksim.fock_build(d, cfg)
    fi = focksim.fock_counting_fi(_phase_builder(base, g_vals), dual_basis(g_vals), 0.0, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        direct = measurement.direct_detection_fi(d, gen)
    assert fi == pytest.approx(direct, rel=0.05)


def test_counting_in_eigenbasis_is_blind():
    g_vals = [-1.0, 1.0]
    cfg = OracleConfig(cutoff=16, tail_tol=1e-10)
    base = focksim.fock_build(
        DisentangledForm(
            V=np.eye(2, dtype=complex),
            alpha=np.zeros(2, complex),
            r=np.full(2, np.arcsinh(0.2)),
        ),
        cfg,
    )
    fi = focksim.fock_counting_fi(_phase_builder(base, g_vals), None, 0.0, cfg)
    assert fi == pytest.approx(0.0, abs=1e-12)


def test_counting_never_exceeds_qfi():
    g_vals = [-1.0, 1.0]
    gen = generator.from_matrix(np.diag(g_vals).astype(complex))
    cfg = OracleConfig(cutoff=16, tail_tol=1e-12)
    r = np.arcsinh(np.sqrt(0.04))
    d = DisentangledForm(
        V=np.eye(2, dtype=complex), alpha=np.zeros(2, complex), r=np.array([r, r])
    )
    base = focksim.fock_build(d, cfg)
    psi = focksim.fock_build(d, cfg)
    fi = focksim.fock_counting_fi(_phase_builder(base, g_vals), dual_basis(g_vals), 0.0, cfg)
    assert fi <= focksim.fock_qfi(psi, gen) + 1e-6


def test_mode_transform_preserves_norm_and_rotates():
    rng = np.random.default_rng(8)
    cfg = OracleConfig(cutoff=20, tail_tol=1e-10)
    for m in (2, 3, 4):
        d = random_small_state(rng, m)
        psi = focksim.fock_build(d, cfg)
        w = random_unitary(rng, m)
        rotated = focksim.apply_mode_transform(psi.amplitudes, w, cfg.cutoff)
        assert np.sum(np.abs(rotated) ** 2) == pytest.approx(1.0, abs=1e-12)
        back = focksim.apply_mode_transform(rotated, w.conj().T, cfg.cutoff)
        assert np.max(np.abs(back - psi.amplitudes)) < 1e-10


def _single_photon(n_modes, cutoff, mode):
    psi = np.zeros((cutoff + 1,) * n_modes, dtype=complex)
    index = [0] * n_modes
    index[mode] = 1
    psi[tuple(index)] = 1.0
    return psi


def _random_sector_state(rng, n_modes, cutoff):
    """Random normalized lattice vector supported on N <= cutoff."""
    shape = (cutoff + 1,) * n_modes
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    psi[np.indices(shape).sum(axis=0) > cutoff] = 0.0
    return psi / np.linalg.norm(psi)


def _coherent_product(alphas, cutoff):
    """prod_k e^{-|a_k|^2/2} a_k^n_k / sqrt(n_k!) on N <= cutoff, unnormalized."""
    n_modes = len(alphas)
    shape = (cutoff + 1,) * n_modes
    psi = np.zeros(shape, dtype=complex)
    for index in np.ndindex(*shape):
        if sum(index) <= cutoff:
            amp = 1.0 + 0.0j
            for a, n in zip(alphas, index):
                amp *= np.exp(-abs(a) ** 2 / 2) * a**n / math.sqrt(math.factorial(n))
            psi[index] = amp
    return psi


def test_lift_one_photon_block_is_v():
    rng = np.random.default_rng(31)
    for m in (2, 3, 4):
        v = random_unitary(rng, m)
        cutoff = 4
        for j in range(m):
            out = focksim.apply_mode_transform(_single_photon(m, cutoff, j), v, cutoff)
            for i in range(m):
                assert abs(out[tuple(np.eye(m, dtype=int)[i])] - v[i, j]) < 1e-14
            assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-14)



def test_lift_of_identity_returns_the_state_bit_for_bit():
    rng = np.random.default_rng(30)
    for m, cutoff in ((2, 8), (3, 6), (4, 4)):
        psi = _random_sector_state(rng, m, cutoff)
        out = focksim.apply_mode_transform(psi, np.eye(m), cutoff)
        assert out is not psi and out.tobytes() == psi.tobytes()

def test_lift_is_a_representation():
    rng = np.random.default_rng(32)
    for m, cutoff in ((2, 12), (3, 10), (4, 6)):
        v1, v2 = random_unitary(rng, m), random_unitary(rng, m)
        psi = _random_sector_state(rng, m, cutoff)
        two_steps = focksim.apply_mode_transform(
            focksim.apply_mode_transform(psi, v2, cutoff), v1, cutoff
        )
        one_step = focksim.apply_mode_transform(psi, v1 @ v2, cutoff)
        assert np.max(np.abs(two_steps - one_step)) < 1e-13


def test_lift_hong_ou_mandel():
    cutoff = 3
    bs = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    psi = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    psi[1, 1] = 1.0
    out = focksim.apply_mode_transform(psi, bs, cutoff)
    want = np.zeros_like(psi)
    want[2, 0] = 1.0 / np.sqrt(2.0)
    want[0, 2] = -1.0 / np.sqrt(2.0)
    assert np.max(np.abs(out - want)) < 1e-15


def test_lift_of_diagonal_v_is_phase():
    rng = np.random.default_rng(33)
    m, cutoff = 3, 9
    theta = rng.uniform(-np.pi, np.pi, m)
    psi = _random_sector_state(rng, m, cutoff)
    out = focksim.apply_mode_transform(psi, np.diag(np.exp(-1j * theta)), cutoff)
    counts = np.indices(psi.shape)
    phase = np.exp(-1j * np.tensordot(theta, counts, axes=1))
    assert np.max(np.abs(out - phase * psi)) < 1e-14


def test_lift_of_coherent_product_is_coherent_product():
    rng = np.random.default_rng(34)
    m, cutoff = 3, 20
    alpha = 0.6 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    v = random_unitary(rng, m)
    out = focksim.apply_mode_transform(_coherent_product(alpha, cutoff), v, cutoff)
    assert np.max(np.abs(out - _coherent_product(v @ alpha, cutoff))) < 1e-14


def test_lift_rejects_probability_above_cutoff():
    rng = np.random.default_rng(35)
    cutoff = 6
    psi = _random_sector_state(rng, 2, cutoff)
    psi[cutoff, 1] = 1e-5
    with pytest.raises(TailTooLargeError):
        focksim.apply_mode_transform(psi, random_unitary(rng, 2), cutoff)
    with pytest.raises(TailTooLargeError):
        focksim.apply_mode_transform(psi, np.eye(2, dtype=complex), cutoff)


def test_norm_deficit_is_poisson_tail_of_total_photon_number():
    rng = np.random.default_rng(36)
    cutoff = 8
    for m in (1, 2, 3):
        alpha = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        alpha *= np.sqrt(2.5) / np.linalg.norm(alpha)
        d = DisentangledForm(V=random_unitary(rng, m), alpha=alpha, r=np.zeros(m))
        psi = focksim.fock_build(d, OracleConfig(cutoff=cutoff, tail_tol=0.1))
        mean = float(np.sum(np.abs(alpha) ** 2))
        cdf = math.fsum(math.exp(-mean) * mean**n / math.factorial(n) for n in range(cutoff + 1))
        assert abs(psi.norm_deficit - (1.0 - cdf)) < 1e-13
        total = np.indices(psi.amplitudes.shape).sum(axis=0)
        assert np.all(psi.amplitudes[total > cutoff] == 0.0)
        assert np.sum(np.abs(psi.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-14)


def test_lift_rejects_non_unitary_transform():
    rng = np.random.default_rng(37)
    cutoff = 6
    psi = _random_sector_state(rng, 2, cutoff)
    v = random_unitary(rng, 2)
    with pytest.raises(InputError, match="deviates from unitary"):
        focksim.apply_mode_transform(psi, 1.01 * v, cutoff)
    # photon counting hands the caller's basis rotation to the lift
    base = FockStateVector(2, cutoff, psi, 0.0)
    cfg = OracleConfig(cutoff=cutoff, tail_tol=1e-10)
    with pytest.raises(InputError, match="deviates from unitary"):
        focksim.fock_counting_fi(lambda lam: base, v + 1e-6, 0.0, cfg)


def test_engine_and_oracle_share_one_unitarity_rule():
    # a rotation scaled by 1 + 0.8e-10 deviates from unitary by 1.6e-10:
    # within the rule 1e-10 * M at M = 2, so both layers accept it
    c, s = np.cos(0.4), np.sin(0.4)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    d = DisentangledForm(V=(1.0 + 0.8e-10) * rot, alpha=np.zeros(2, complex), r=np.array([0.3, 0.1]))
    psi = focksim.fock_build(d, OracleConfig(cutoff=20, tail_tol=1e-9))
    assert np.sum(np.abs(psi.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-9)
    # twice that deviation is refused by both
    v = (1.0 + 1.6e-10) * rot
    with pytest.raises(InputError, match="V deviates from unitary"):
        DisentangledForm(V=v, alpha=np.zeros(2, complex), r=np.array([0.3, 0.1]))
    with pytest.raises(InputError, match="mode transform deviates from unitary"):
        focksim.apply_mode_transform(psi.amplitudes, v, 20)


def _lattice_number_operator(h, cutoff):
    """sum_ij h_ij a_i^dag a_j as a dense matrix on the box (cutoff+1,) * M."""
    m = h.shape[0]
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)
    eye = np.eye(cutoff + 1)
    lowering = [functools.reduce(np.kron, [a if k == i else eye for k in range(m)]) for i in range(m)]
    return sum(h[i, j] * lowering[i].T @ lowering[j] for i in range(m) for j in range(m))


@pytest.mark.parametrize("m, cutoff", [(2, 5), (3, 5), (4, 3), (2, 24), (3, 8)])
def test_lift_matches_exponential_of_lattice_operator(m, cutoff):
    # the lift of v = expm(-i h) is expm(-i sum_ij h_ij a_i^dag a_j); the box
    # operator maps N <= cutoff into itself, so its exponential is exact there
    rng = np.random.default_rng(42 + m)
    for _ in range(3):
        h = random_hermitian(rng, m)
        psi = _random_sector_state(rng, m, cutoff)
        want = scipy.linalg.expm(-1j * _lattice_number_operator(h, cutoff)) @ psi.reshape(-1)
        out = focksim.apply_mode_transform(psi, scipy.linalg.expm(-1j * h), cutoff)
        assert np.max(np.abs(out.reshape(-1) - want)) < 1e-12


def _recurrence_blocks(w, cutoff):
    """Blocks K = 0..cutoff of the lift of a 2x2 unitary w in 40-digit arithmetic, each from
    block K - 1 by <m|U|n> = m_i^(-1/2) sum_j w_ij sqrt(n_j) <m-e_i|U|n-e_j>, i the first occupied mode of m."""
    with mpmath.workdps(40):
        w = [[mpmath.mpc(complex(x)) for x in row] for row in w]
        root = [mpmath.sqrt(n) for n in range(cutoff + 1)]
        blocks = [[[mpmath.mpc(1)]]]
        for k in range(1, cutoff + 1):
            block = []
            for a in range(k + 1):
                i, prev, m_i = (0, blocks[-1][a - 1], a) if a else (1, blocks[-1][0], k)
                block.append([
                    (w[i][0] * root[b] * (prev[b - 1] if b else 0) + w[i][1] * root[k - b] * (prev[b] if b < k else 0))
                    / root[m_i]
                    for b in range(k + 1)
                ])
            blocks.append(block)
        return [np.array(block, dtype=complex) for block in blocks]


def test_two_mode_blocks_match_high_precision_recurrence():
    rng = np.random.default_rng(30)
    cutoff = 30
    for _ in range(3):
        w = random_unitary(rng, 2)
        blocks = focksim._two_mode_blocks(w[None], cutoff)[0]
        for k, want in enumerate(_recurrence_blocks(w, cutoff)):
            block = blocks[k, : k + 1, : k + 1]
            assert np.max(np.abs(block - want)) < 1e-12
            assert np.max(np.abs(block.conj().T @ block - np.eye(k + 1))) < 1e-12
            assert not blocks[k, k + 1 :].any() and not blocks[k, :, k + 1 :].any()


@pytest.mark.parametrize("m, cutoff", [(2, 24), (3, 8), (3, 20), (4, 6), (4, 16)])
def test_pair_batches_hold_each_sector_once_by_the_padding_rule(m, cutoff):
    lattice = focksim._lattice(cutoff, m)
    pad = lattice.inside.size
    for p, batches in enumerate(lattice.pairs):
        pair_total = lattice.occ[p] + lattice.occ[p + 1]
        sizes = np.bincount(pair_total, minlength=cutoff + 1)  # (K + 1) * spectators
        held = np.concatenate([table[table != pad] for _, table in batches])
        assert np.array_equal(np.sort(held), np.flatnonzero(pair_total >= 1))
        for ks, table in batches:
            for k, rows in zip(range(ks.start, ks.stop), table):
                a, _ = np.nonzero(rows != pad)
                assert np.array_equal(lattice.occ[p][rows[rows != pad]], a)
                assert np.all(pair_total[rows[rows != pad]] == k)
            real = sizes[ks].sum()
            assert table.size <= 2 * real
            if ks.stop <= cutoff:  # the next sector would pad the table past twice its entries
                spectators = sizes[ks.start] // (ks.start + 1)
                assert (table.shape[0] + 1) * (ks.stop + 1) * spectators > 2 * (real + sizes[ks.stop])
        assert len(batches) == 1 if m == 2 else len(batches) > 1


def test_focksim_shares_no_algebra_with_the_engine():
    tree = ast.parse(pathlib.Path(focksim.__file__).read_text(encoding="utf-8"))
    imported, referenced = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
    assert not imported & {"scipy", "metrology", "optimal"}
    assert not (imported | referenced) & {"hermitian_eig", "takagi", "unitary_exp"}
