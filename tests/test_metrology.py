import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmet import generator, metrology, scenarios
from gaussmet.errors import InputError
from gaussmet.gaussian import DisentangledForm
from gaussmet.metrology import ResourceTriple
from gaussmet.verify import random_hermitian, random_state, random_unitary


def _eigenbasis_state(g_vals, s_sq, alpha=None):
    m = len(g_vals)
    return DisentangledForm(
        V=np.eye(m, dtype=complex),
        alpha=np.zeros(m, complex) if alpha is None else np.asarray(alpha, complex),
        r=np.arcsinh(np.sqrt(np.asarray(s_sq, float))),
    )


GEN13 = generator.from_matrix(np.diag([1.0, 3.0]).astype(complex))


def test_resources_vacuum_flagged():
    d = _eigenbasis_state([1.0, 3.0], [0.0, 0.0])
    res = metrology.resources(d, GEN13)
    assert res.n_signal == 0.0
    assert res.g_mean == 0.0 and res.g_var == 0.0
    assert not res.well_defined


def test_resources_defined_at_tiny_photon_number():
    # a coherent state with 1e-20 signal photons still has a bound
    d = _eigenbasis_state([2.0], [0.0], alpha=[1e-10])
    report = metrology.qfi(d, generator.from_matrix(np.array([[2.0 + 0j]])))
    assert report.resources.well_defined
    assert report.resources.n_signal == pytest.approx(1e-20, rel=1e-12)
    assert report.resources.g_mean == pytest.approx(2.0, rel=1e-12)
    assert report.qfi == pytest.approx(1.6e-19, rel=1e-12)
    assert report.bound == pytest.approx(3.2e-19, rel=1e-12)
    assert 0.0 < report.qfi <= report.bound


def test_resources_undefined_for_round_off_signal_photons():
    # squeezing only the idler eigenmode of a dense generator leaves N_S at
    # eigenvector round-off (~1e-32); its mean and spread would be noise
    u = random_unitary(np.random.default_rng(3), 3)
    gen = generator.from_matrix(u @ np.diag([0.0, 1.0, 2.0]) @ u.conj().T)
    d = DisentangledForm(V=gen.eig.U, alpha=np.zeros(3, complex), r=np.array([1.0, 0.0, 0.0]))
    report = metrology.qfi(d, gen)
    assert report.resources == ResourceTriple(0.0, 0.0, 0.0, well_defined=False)
    assert report.bound == 0.0
    assert report.qfi < 1e-28 and report.bound_satisfied


def test_resources_squeezed_eigenbasis():
    d = _eigenbasis_state([1.0, 3.0], [1.0, 1.0])
    res = metrology.resources(d, GEN13)
    assert res.n_signal == pytest.approx(2.0, rel=1e-12)
    assert res.g_mean == pytest.approx(2.0, rel=1e-12)
    assert res.g_var == pytest.approx(1.0, rel=1e-12)


def test_resources_coherent():
    d = _eigenbasis_state([1.0, 3.0], [0.0, 0.0], alpha=[1.0, 1.0])
    res = metrology.resources(d, GEN13)
    assert (res.n_signal, res.g_mean, res.g_var) == pytest.approx((2.0, 2.0, 1.0))


def test_qfi_coherent_both_closed_forms():
    d = _eigenbasis_state([1.0, 3.0], [0.0, 0.0], alpha=[1.0, 1.0])
    report = metrology.qfi(d, GEN13)
    assert report.qfi == pytest.approx(40.0, rel=1e-12)
    res = report.resources
    assert report.qfi == pytest.approx(
        4.0 * (res.g_mean**2 + res.g_var) * res.n_signal, rel=1e-12
    )


def test_qfi_two_mode_squeezed_eigenbasis():
    d = _eigenbasis_state([1.0, 3.0], [1.0, 1.0])
    report = metrology.qfi(d, GEN13)
    assert report.qfi == pytest.approx(160.0, rel=1e-12)
    assert report.bound == pytest.approx(224.0, rel=1e-12)
    assert report.bound_satisfied


def test_qfi_vacuum_zero():
    d = _eigenbasis_state([1.0, 3.0], [0.0, 0.0])
    assert metrology.qfi(d, GEN13).qfi == 0.0


def test_qfi_nonnegative_random():
    rng = np.random.default_rng(31)
    for _ in range(25):
        m = int(rng.integers(1, 9))
        gen = generator.from_matrix(random_hermitian(rng, m))
        d = random_state(rng, m)
        assert metrology.qfi(d, gen).qfi >= 0.0


ROTATION = generator.from_matrix(np.array([[0.0, 1j], [-1j, 0.0]]))


def _squeezed_pair(r1, r2):
    return DisentangledForm(
        V=np.eye(2, dtype=complex), alpha=np.zeros(2, complex), r=np.array([r1, r2])
    )


@pytest.mark.parametrize("r", [1.0, 5.0, 10.0, 15.0])
def test_qfi_equal_squeezing_rotation_exactly_zero(r):
    # a real rotation maps two equally squeezed vacua onto themselves
    assert metrology.qfi(_squeezed_pair(r, r), ROTATION).qfi == 0.0


@pytest.mark.parametrize("r", [5.0, 10.0, 15.0])
@pytest.mark.parametrize("delta", [1e-3, 0.1, 1.0])
def test_qfi_unequal_squeezing_rotation(r, delta):
    # the rotation only sees the squeezing difference: 4 sinh^2(delta)
    report = metrology.qfi(_squeezed_pair(r, r + delta), ROTATION)
    assert report.qfi == pytest.approx(4.0 * np.sinh(delta) ** 2, rel=1e-10)
    assert report.bound_satisfied


def _mp_wick_qfi(v, alpha, r, g):
    """4 Var(G) of V [prod_k D(alpha_k) S(r_k)] |0> at 50 digits.

    Wick moments in the mode basis: n = <da^dag da>, m = <da da> and the
    mean field beta = V alpha; the quadratic and linear parts of G are
    uncorrelated because odd fluctuation moments vanish.
    """
    with mpmath.workdps(50):
        v, g = mpmath.matrix(v.tolist()), mpmath.matrix(g.tolist())
        size = len(r)
        sh = [mpmath.sinh(mpmath.mpf(x)) for x in r]
        ch = [mpmath.cosh(mpmath.mpf(x)) for x in r]
        n, m = mpmath.zeros(size), mpmath.zeros(size)
        for k in range(size):
            for l in range(size):
                n[k, l] = sum(mpmath.conj(v[k, j]) * sh[j] ** 2 * v[l, j] for j in range(size))
                m[k, l] = sum(v[k, j] * sh[j] * ch[j] * v[l, j] for j in range(size))
        beta = v * mpmath.matrix([complex(a) for a in alpha])

        def esum(a, b):
            return sum(a[k, l] * b[k, l] for k in range(size) for l in range(size))

        m_conj = mpmath.matrix([[mpmath.conj(m[k, l]) for l in range(size)] for k in range(size)])
        quad = esum(g * g, n) + esum(n, g * n.T * g) + esum(m_conj, g * m * g.T)
        u = g.T * mpmath.matrix([mpmath.conj(b) for b in beta])
        u_conj = mpmath.matrix([mpmath.conj(x) for x in u])
        lin = (
            2 * mpmath.re((u.T * m * u)[0])
            + (u_conj.T * u)[0]
            + 2 * mpmath.re((u_conj.T * n * u)[0])
        )
        return float(4 * mpmath.re(quad + lin))


def test_qfi_matches_50_digit_wick_reference_at_high_squeezing():
    rng = np.random.default_rng(73)
    for _ in range(20):
        m = int(rng.integers(2, 5))
        h = random_hermitian(rng, m)
        d = DisentangledForm(
            V=random_unitary(rng, m),
            alpha=rng.standard_normal(m) + 1j * rng.standard_normal(m),
            r=rng.uniform(8.0, 15.0, m),
        )
        exact = _mp_wick_qfi(d.V, d.alpha, d.r, h)
        assert metrology.qfi(d, generator.from_matrix(h)).qfi == pytest.approx(exact, rel=1e-10)


_random_probe = {
    "m": st.integers(1, 6),
    "seed": st.integers(0, 2**32 - 1),
    "r_max": st.floats(0.0, 15.0),
    "alpha_scale": st.floats(0.0, 3.0),
}


@settings(derandomize=True, deadline=None, max_examples=80)
@given(**_random_probe)
def test_qfi_between_zero_and_bound(m, seed, r_max, alpha_scale):
    rng = np.random.default_rng(seed)
    gen = generator.from_matrix(random_hermitian(rng, m))
    d = random_state(rng, m, r_max=r_max, alpha_scale=alpha_scale)
    report = metrology.qfi(d, gen)
    assert report.qfi >= 0.0
    if report.resources.well_defined:
        assert report.qfi <= report.bound * (1.0 + 1e-9)
    else:
        # with no signal photon at all the bound reads 0; the check keeps
        # its absolute 1e-9 slack
        assert report.bound == 0.0 and report.bound_satisfied


@settings(derandomize=True, deadline=None, max_examples=80)
@given(**_random_probe)
def test_qfi_invariant_under_mode_basis_change(m, seed, r_max, alpha_scale):
    rng = np.random.default_rng(seed)
    gen = generator.from_matrix(random_hermitian(rng, m))
    d = random_state(rng, m, r_max=r_max, alpha_scale=alpha_scale)
    w = random_unitary(rng, m)
    gen_rot = generator.from_matrix(w @ gen.G @ w.conj().T)
    d_rot = DisentangledForm(V=w @ d.V, alpha=d.alpha, r=d.r)
    value, value_rot = metrology.qfi(d, gen).qfi, metrology.qfi(d_rot, gen_rot).qfi
    assert abs(value - value_rot) <= 1e-9 * max(1.0, value)


def test_resources_variance_nonnegative_for_uniform_generator():
    # G = 3 I puts every photon at the same eigenvalue: the spread is zero
    gen = generator.from_matrix(3.0 * np.eye(4, dtype=complex))
    rng = np.random.default_rng(74)
    for r_max in (1.0, 5.0, 10.0, 15.0):
        for _ in range(10):
            d = random_state(rng, 4, r_max=r_max)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = metrology.resources(d, gen)
            assert res.g_var >= 0.0
            assert res.g_var <= 1e-20
            assert res.g_mean == pytest.approx(3.0, rel=1e-12)


def test_qfi_dimension_mismatch():
    d = _eigenbasis_state([1.0], [1.0])
    with pytest.raises(InputError, match="modes but generator has"):
        metrology.qfi(d, GEN13)


def test_coherent_path_exact():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(1, 9))
        gen = generator.from_matrix(random_hermitian(rng, m))
        d = DisentangledForm(
            V=random_unitary(rng, m),
            alpha=rng.standard_normal(m) + 1j * rng.standard_normal(m),
            r=np.zeros(m),
        )
        rep = metrology.qfi(d, gen)
        res = rep.resources
        if not res.well_defined:
            continue
        closed = 4.0 * (res.g_mean**2 + res.g_var) * res.n_signal
        assert abs(rep.qfi - closed) <= 1e-10 * max(1.0, abs(closed))


def test_basis_invariance():
    rng = np.random.default_rng(41)
    for _ in range(30):
        m = int(rng.integers(2, 9))
        gen = generator.from_matrix(random_hermitian(rng, m))
        d = random_state(rng, m)
        w = random_unitary(rng, m)
        gen_rot = generator.from_matrix(w @ gen.G @ w.conj().T)
        d_rot = DisentangledForm(V=w @ d.V, alpha=d.alpha, r=d.r)
        r1, r2 = metrology.qfi(d, gen), metrology.qfi(d_rot, gen_rot)
        assert abs(r1.qfi - r2.qfi) <= 1e-9 * (1.0 + abs(r1.qfi))
        assert abs(r1.resources.n_signal - r2.resources.n_signal) <= 1e-9 * (
            1.0 + r1.resources.n_signal
        )
        assert abs(r1.resources.g_mean - r2.resources.g_mean) <= 1e-9 * (
            1.0 + abs(r1.resources.g_mean)
        )
        assert abs(r1.resources.g_var - r2.resources.g_var) <= 1e-9 * (
            1.0 + r1.resources.g_var
        )


def test_bound_examples():
    assert metrology.qfi_upper_bound(
        ResourceTriple(n_signal=2.0, g_mean=2.0, g_var=1.0)
    ) == pytest.approx(224.0)
    assert metrology.qfi_upper_bound(
        ResourceTriple(n_signal=2.0, g_mean=0.0, g_var=1.0)
    ) == pytest.approx(32.0)
    assert metrology.qfi_upper_bound(
        ResourceTriple(n_signal=0.0, g_mean=0.0, g_var=0.0, well_defined=False)
    ) == 0.0


def test_zero_displacement_tight_bound():
    rng = np.random.default_rng(55)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        gen = generator.from_matrix(random_hermitian(rng, m))
        d = DisentangledForm(
            V=random_unitary(rng, m),
            alpha=np.zeros(m, complex),
            r=rng.uniform(0.0, 2.0, m),
        )
        rep = metrology.qfi(d, gen)
        assert rep.qfi <= rep.bound + 1e-9 * max(1.0, rep.bound)
        strict = metrology.qfi_upper_bound_strict(d, gen)
        assert abs(strict - rep.bound) <= 1e-9 * max(1.0, rep.bound)


def test_strict_bound_dominates_displaced():
    rng = np.random.default_rng(56)
    for _ in range(100):
        m = int(rng.integers(1, 9))
        gen = generator.from_matrix(random_hermitian(rng, m))
        d = random_state(rng, m)
        rep = metrology.qfi(d, gen)
        strict = metrology.qfi_upper_bound_strict(d, gen)
        assert rep.qfi <= strict + 1e-9 * max(1.0, strict)


def test_lemma2_equality_case():
    gap = metrology.lemma2_gap(np.diag([1.0, -1.0]).astype(complex), np.eye(2, dtype=complex))
    assert gap == pytest.approx(0.0, abs=1e-12)


def test_lemma2_identity_h():
    rng = np.random.default_rng(60)
    w = random_unitary(rng, 4)
    q = (w * rng.uniform(0.0, 3.0, 4)) @ w.conj().T
    q = (q + q.conj().T) / 2.0
    gap = metrology.lemma2_gap(np.eye(4, dtype=complex), q)
    trq = np.trace(q).real
    trq2 = np.trace(q @ q).real
    assert gap == pytest.approx(8.0 * trq**2 - 8.0 * trq2, rel=1e-10)
    assert gap >= -1e-9


def test_lemma2_rejects_indefinite_q():
    with pytest.raises(InputError, match="below PSD tolerance"):
        metrology.lemma2_gap(np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex))


def test_lemma2_random_property():
    rng = np.random.default_rng(61)
    for _ in range(500):
        m = int(rng.integers(1, 11))
        h = random_hermitian(rng, m)
        w = random_unitary(rng, m)
        q = (w * rng.chisquare(2.0, m)) @ w.conj().T
        q = (q + q.conj().T) / 2.0
        gap = metrology.lemma2_gap(h, q)
        assert gap >= -1e-9 * max(1.0, abs(gap))


def test_qfi_independent_of_true_parameter():
    # a passive transform leaves the QFI parameter-free by construction;
    # evolving the probe by the transform itself must not change it
    rng = np.random.default_rng(71)
    gen = generator.from_matrix(random_hermitian(rng, 4))
    d = random_state(rng, 4)
    u_lam = (gen.eig.U * np.exp(-1j * 0.37 * gen.eig.eigvals)) @ gen.eig.U.conj().T
    d_evolved = DisentangledForm(V=u_lam @ d.V, alpha=d.alpha, r=d.r)
    assert metrology.qfi(d_evolved, gen).qfi == pytest.approx(
        metrology.qfi(d, gen).qfi, rel=1e-10
    )


def _builder(kind):
    def build(ns, gbar, dg):
        return scenarios.table_probe(kind, ns, gbar, dg)

    return build


def test_optimality_coefficients_families():
    targets = ResourceTriple(n_signal=10.0, g_mean=2.0, g_var=1.5)
    c_opt = metrology.optimality_coefficients(_builder("optimal"), targets)
    assert c_opt == pytest.approx((8.0, 4.0), abs=1e-6)
    c_var = metrology.optimality_coefficients(_builder("variance_optimal"), targets)
    assert c_var == pytest.approx((4.0, 4.0), abs=1e-6)
    c_mean = metrology.optimality_coefficients(_builder("mean_optimal"), targets)
    assert c_mean == pytest.approx((8.0, 0.0), abs=1e-6)


def test_optimality_coefficients_requires_usable_targets():
    targets = ResourceTriple(n_signal=10.0, g_mean=0.0, g_var=1.0)
    with pytest.raises(InputError, match="nonzero mean and variance"):
        metrology.optimality_coefficients(_builder("optimal"), targets)


def test_strict_bound_formula_identity():
    rng = np.random.default_rng(72)
    for _ in range(20):
        m = int(rng.integers(1, 7))
        gen = generator.from_matrix(random_hermitian(rng, m))
        d = random_state(rng, m)
        res = metrology.resources(d, gen)
        if not res.well_defined:
            continue
        gt = metrology.build_workspace(d, gen.G)
        tr_g2s2 = float(
            np.real(np.trace(gt @ np.diag(np.sinh(d.r) ** 2).astype(complex) @ gt))
        )
        manual = (
            (8.0 * res.g_mean**2 + 4.0 * res.g_var) * res.n_signal**2
            + 12.0 * (res.g_mean**2 + res.g_var) * res.n_signal
            - 4.0 * tr_g2s2
        )
        assert metrology.qfi_upper_bound_strict(d, gen) == pytest.approx(
            manual, rel=1e-10
        )
