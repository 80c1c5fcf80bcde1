import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmet import generator, matkernel, measurement, metrology, optimal, scenarios
from gaussmet.errors import ConditionNotVerifiedWarning, InputError
from gaussmet.gaussian import DisentangledForm, assemble, disentangle
from gaussmet.generator import DiscretizationGrid
from gaussmet.measurement import HomodyneSetup
from gaussmet.regmodes import RegularizedModePair
from gaussmet.verify import random_unitary

GEN13 = generator.from_matrix(np.diag([1.0, 3.0]).astype(complex))


def _probe(g_count, s_sq):
    r = np.arcsinh(np.sqrt(np.asarray(s_sq, float)))
    return DisentangledForm(
        V=np.eye(g_count, dtype=complex), alpha=np.zeros(g_count, complex), r=r
    )


def _variance(d, phase, lam, eta=1.0, sigma_env_sq=1.0):
    """Outcome variance of homodyning mode 0 at an explicit phase."""
    setup = HomodyneSetup(
        mode_indices=(0,), phases=(phase,), eta=eta, sigma_env_sq=sigma_env_sq, true_param=lam
    )
    return measurement.homodyne_fi(d, GEN13, setup).variances[0]


def test_variance_vacuum_shot_noise():
    d = _probe(2, [0.0, 0.0])
    for phase in (0.0, 0.4, 1.3):
        for lam in (0.0, 2.0):
            assert _variance(d, phase, lam) == pytest.approx(0.5)


def test_variance_squeezed_formula():
    d = _probe(2, [1.0, 1.0])
    # sinh 2r = 2 sqrt(2), cosh 2r = 3 at s^2 = 1; phase + lam g = 0
    assert _variance(d, 0.0, 0.0) == pytest.approx((2.0 * np.sqrt(2.0) + 3.0) / 2.0)


def test_variance_loss_on_vacuum():
    d = _probe(2, [0.0, 0.0])
    assert _variance(d, 0.3, 0.0, eta=0.5, sigma_env_sq=1.0) == pytest.approx(0.5)


def test_homodyne_requires_eigenbasis():
    v = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    d = DisentangledForm(V=v, alpha=np.zeros(2, complex), r=np.array([0.5, 0.0]))
    with pytest.raises(InputError, match="not a generator eigenmode"):
        _variance(d, 0.0, 0.0)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_homodyne_reaches_qfi_on_round_tripped_equal_squeezing(m):
    # disentangle returns an arbitrary real rotation inside each equal-r
    # cluster; homodyne turns it back to the generator's eigenmodes
    rng = np.random.default_rng(40 + m)
    w = random_unitary(rng, m + 2)
    g = np.concatenate([rng.uniform(-2.0, 2.0, m), [0.0, 0.0]])  # m signal modes, two idlers
    gen = generator.from_matrix((w * g) @ w.conj().T)
    for kind, gbar in [("variance_optimal", 0.4), ("optimal", 0.0), ("idler_assisted", 0.4), ("idler_assisted", 0.0)]:
        spec = optimal.ProbeSpec(kind=kind, n_signal=3.0, target_gmean=gbar, target_gvar=0.5)
        d = disentangle(assemble(optimal.build_probe(spec, gen).state))
        modes = tuple(int(k) for k in np.nonzero(d.r > 1e-12)[0])
        fi = measurement.homodyne_fi(d, gen, HomodyneSetup(mode_indices=modes)).fi
        assert fi == pytest.approx(metrology.qfi(d, gen).qfi, rel=1e-9)


def test_homodyne_fi_matches_qfi_ideal():
    d = _probe(2, [1.0, 1.0])
    result = measurement.homodyne_fi(d, GEN13, HomodyneSetup(mode_indices=(0, 1)))
    assert result.fi == pytest.approx(160.0, rel=1e-12)
    assert result.fi == pytest.approx(sum(result.per_mode_fi), abs=1e-12)
    assert metrology.qfi(d, GEN13).qfi == pytest.approx(result.fi, rel=1e-9)


def test_homodyne_fi_lossy_asymptotic():
    d = _probe(2, [100.0, 100.0])
    res = metrology.resources(d, GEN13)
    fi = measurement.homodyne_fi(
        d, GEN13, HomodyneSetup(mode_indices=(0, 1), eta=0.75)
    ).fi
    asym = (2.0 * 0.75 / 0.25) * (res.g_mean**2 + res.g_var) * res.n_signal
    assert fi == pytest.approx(asym, rel=0.02)


def test_homodyne_fi_detuned_phases_suppressed():
    d = _probe(2, [1.0, 1.0])
    best = measurement.homodyne_fi(d, GEN13, HomodyneSetup(mode_indices=(0, 1)))
    detuned = measurement.homodyne_fi(
        d,
        GEN13,
        HomodyneSetup(
            mode_indices=(0, 1),
            phases=tuple(p + np.pi / 2.0 for p in best.phases_used),
        ),
    )
    for k in range(2):
        assert detuned.per_mode_fi[k] < 5e-3 * best.per_mode_fi[k]
    # the exact stationary zero sits where the variance modulation vanishes
    flat = measurement.homodyne_fi(
        d, GEN13, HomodyneSetup(mode_indices=(0, 1), phases=(0.0, 0.0))
    )
    assert flat.fi == pytest.approx(0.0, abs=1e-12)


def test_loss_crossover_at_half():
    d = _probe(2, [100.0, 100.0])
    res = metrology.resources(d, GEN13)

    def ratio(eta):
        fi = measurement.homodyne_fi(d, GEN13, HomodyneSetup(mode_indices=(0, 1), eta=eta)).fi
        return fi / (4.0 * eta * (res.g_mean**2 + res.g_var) * res.n_signal)

    lo, hi = 0.1, 0.999
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ratio(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(0.5, abs=0.02)
    assert ratio(0.6) > 1.0 > ratio(0.4)


def test_mean_optimal_single_mode_homodyne():
    gen = generator.from_matrix(np.diag([2.0, 5.0]).astype(complex))
    result = optimal.build_probe(
        optimal.ProbeSpec(kind="mean_optimal", n_signal=3.0, mode_choice=(1,)), gen
    )
    d = result.state
    modes = tuple(int(k) for k in np.nonzero(d.r > 0)[0])
    fi = measurement.homodyne_fi(d, gen, HomodyneSetup(mode_indices=modes)).fi
    res = result.achieved
    assert fi == pytest.approx(
        8.0 * res.g_mean**2 * res.n_signal**2 + 8.0 * res.g_mean**2 * res.n_signal,
        rel=1e-9,
    )
    # gap to the QFI is the variance share 4 dg^2 N (zero on an eigenmode)
    qfi = metrology.qfi(d, gen).qfi
    assert qfi - fi == pytest.approx(4.0 * res.g_var * res.n_signal, abs=1e-9)


def test_sampling_deterministic_and_calibrated():
    d = _probe(1, [0.0])
    gen = generator.from_matrix(np.diag([1.0]).astype(complex))
    setup = HomodyneSetup(mode_indices=(0,))
    x1 = measurement.sample_homodyne(d, gen, setup, 10**6, seed=5)
    x2 = measurement.sample_homodyne(d, gen, setup, 10**6, seed=5)
    assert np.array_equal(x1, x2)
    var = float(np.var(x1[0]))
    # chi^2 three-sigma band around the vacuum variance 1/2
    assert abs(var - 0.5) < 3.0 * 0.5 * np.sqrt(2.0 / 10**6)


def test_sampling_rejects_negative_seed():
    d = _probe(1, [0.5])
    gen = generator.from_matrix(np.diag([1.0]).astype(complex))
    setup = HomodyneSetup(mode_indices=(0,))
    with pytest.raises(InputError, match="seed must be non-negative"):
        measurement.sample_homodyne(d, gen, setup, 10, seed=-1)
    with pytest.raises(InputError, match="seed must be non-negative"):
        measurement.empirical_fi(d, gen, setup, 10, seed=-1)


def test_sampling_independent_streams():
    d = _probe(2, [1.0, 1.0])
    setup = HomodyneSetup(mode_indices=(0, 1))
    x = measurement.sample_homodyne(d, GEN13, setup, 10**5, seed=11)
    corr = np.corrcoef(x)[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(10**5)


def test_empirical_fi_single_mode():
    gen = generator.from_matrix(np.diag([1.0]).astype(complex))
    d = _probe(1, [1.0])
    setup = HomodyneSetup(mode_indices=(0,))
    est = measurement.empirical_fi(d, gen, setup, 10**6, seed=42)
    assert est == pytest.approx(16.0, rel=0.02)


def test_empirical_fi_vacuum_zero():
    gen = generator.from_matrix(np.diag([1.0]).astype(complex))
    d = _probe(1, [0.0])
    est = measurement.empirical_fi(d, gen, HomodyneSetup(mode_indices=(0,)), 10**5, seed=1)
    assert abs(est) < 1e-12


def test_empirical_fi_detuned_small():
    gen = generator.from_matrix(np.diag([1.0]).astype(complex))
    d = _probe(1, [1.0])
    best = measurement.homodyne_fi(d, gen, HomodyneSetup(mode_indices=(0,)))
    detuned = HomodyneSetup(mode_indices=(0,), phases=(best.phases_used[0] + np.pi / 2.0,))
    est = measurement.empirical_fi(d, gen, detuned, 10**5, seed=2)
    assert est < 0.05 * best.fi


def test_direct_detection_examples():
    gen_pm = generator.from_matrix(np.diag([-1.0, 1.0]).astype(complex))
    d = _probe(2, [1.0, 1.0])
    with pytest.warns(ConditionNotVerifiedWarning):
        fi = measurement.direct_detection_fi(d, gen_pm)
    assert fi == pytest.approx(32.0, rel=1e-9)
    assert fi == pytest.approx(metrology.qfi(d, gen_pm).qfi, rel=1e-9)

    fi13 = measurement.direct_detection_fi(d, GEN13, condition_verified=True)
    assert fi13 == pytest.approx(32.0, rel=1e-9)
    assert metrology.qfi(d, GEN13).qfi == pytest.approx(160.0, rel=1e-9)

    gen_single = generator.from_matrix(np.diag([2.0]).astype(complex))
    d1 = _probe(1, [4.0])
    assert measurement.direct_detection_fi(
        d1, gen_single, condition_verified=True
    ) == pytest.approx(0.0, abs=1e-9)


def test_direct_detection_bounded_by_qfi_on_equal_squeezing():
    # with equal squeezing across the populated modes the mean removal can
    # only lower the quadratic form, so counting never beats the QFI; the
    # gap closes exactly when the probe's generator mean vanishes
    rng = np.random.default_rng(9)
    for _ in range(30):
        m = int(rng.integers(1, 5))
        g_vals = rng.uniform(-3.0, 3.0, m)
        gen = generator.from_matrix(np.diag(g_vals).astype(complex))
        d = _probe(m, np.full(m, rng.uniform(0.1, 4.0)))
        fi = measurement.direct_detection_fi(d, gen, condition_verified=True)
        qfi = metrology.qfi(d, gen).qfi
        assert fi <= qfi + 1e-9 * max(1.0, qfi)
        res = metrology.resources(d, gen)
        gap = (
            8.0 * res.g_mean**2 * res.n_signal**2 / m
            + 8.0 * res.g_mean**2 * res.n_signal
        )
        assert qfi - fi == pytest.approx(gap, rel=1e-9, abs=1e-9)


GEN_PM = generator.from_matrix(np.diag([-1.0, 1.0]).astype(complex))


def _mp_homodyne(r, eta, env, g, half):
    """Outcome variance and FI of one eigenmode at phi + lambda g = half.

    Uses the plain variance (eta (sinh 2r cos 2h + cosh 2r) + (1 - eta) env) / 2
    at 60 digits and takes the lambda-derivative numerically.
    """
    with mpmath.workdps(60):
        r, eta, env, g, half = (mpmath.mpf(x) for x in (r, eta, env, g, half))

        def var(lam):
            t = 2 * (half + lam * g)
            return (eta * (mpmath.sinh(2 * r) * mpmath.cos(t) + mpmath.cosh(2 * r)) + (1 - eta) * env) / 2

        v = var(0)
        return float(v), float(mpmath.diff(var, 0) ** 2 / (2 * v**2))


def _mp_homodyne_optimum(r, eta, env, g):
    """Optimal-phase variance, FI and phase from A^2 - B^2 at 60 digits."""
    with mpmath.workdps(60):
        r, eta, env, g = (mpmath.mpf(x) for x in (r, eta, env, g))
        a = eta * mpmath.cosh(2 * r) + (1 - eta) * env
        b = eta * mpmath.sinh(2 * r)
        den = a**2 - b**2
        return float(den / (2 * a)), float(2 * b**2 * g**2 / den), float(mpmath.acos(b / a) / 2 + mpmath.pi / 2)


@pytest.mark.parametrize("eta", [1.0, 0.999999, 0.75])
@pytest.mark.parametrize("r", [1.0, 6.0, 9.0, 10.0, 12.0, 15.0])
def test_homodyne_matches_mpmath_at_high_squeezing(r, eta):
    env = 1.5
    d = _probe(2, np.sinh([r, r]) ** 2)
    auto = measurement.homodyne_fi(
        d, GEN_PM, HomodyneSetup(mode_indices=(0, 1), eta=eta, sigma_env_sq=env)
    )
    for k, g in enumerate((-1.0, 1.0)):
        var, fi, phase = _mp_homodyne_optimum(d.r[k], eta, env, g)
        assert auto.variances[k] == pytest.approx(var, rel=1e-12)
        assert auto.per_mode_fi[k] == pytest.approx(fi, rel=1e-12)
        assert auto.phases_used[k] == pytest.approx(phase, rel=1e-12)
    # explicit phases: the optimum itself (lambda = 0, so phi + lambda g is
    # exact in floating point) and a generic phase at a nonzero lambda
    for phases, lam in ((auto.phases_used, 0.0), ((0.3, -0.4), 0.2)):
        res = measurement.homodyne_fi(
            d,
            GEN_PM,
            HomodyneSetup(mode_indices=(0, 1), phases=phases, eta=eta, sigma_env_sq=env, true_param=lam),
        )
        for k, g in enumerate((-1.0, 1.0)):
            var, fi = _mp_homodyne(d.r[k], eta, env, g, phases[k] + lam * g)
            assert res.variances[k] == pytest.approx(var, rel=1e-12)
            assert res.per_mode_fi[k] == pytest.approx(fi, rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(1, 4))
def test_homodyne_fi_never_exceeds_qfi(data, m):
    floats = st.floats
    r = np.array(data.draw(st.lists(floats(0.0, 15.0), min_size=m, max_size=m)))
    g = data.draw(st.lists(floats(-3.0, 3.0), min_size=m, max_size=m))
    modes = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True)))
    phases = data.draw(
        st.one_of(st.just("auto"), st.tuples(*[floats(-10.0, 10.0)] * len(modes)))
    )
    setup = HomodyneSetup(
        mode_indices=modes,
        phases=phases,
        eta=data.draw(st.one_of(st.just(1.0), floats(1e-6, 1.0))),
        sigma_env_sq=data.draw(floats(1.0, 10.0)),
        true_param=data.draw(floats(-3.0, 3.0)),
    )
    gen = generator.from_matrix(np.diag(g).astype(complex))
    d = DisentangledForm(V=np.eye(m, dtype=complex), alpha=np.zeros(m, complex), r=r)
    res = measurement.homodyne_fi(d, gen, setup)
    assert np.isfinite(res.fi) and all(v > 0.0 and np.isfinite(v) for v in res.variances)
    assert all(f >= 0.0 for f in res.per_mode_fi)
    # the floor is the smallest normal float: below it, values are
    # subnormal and carry no relative precision
    assert res.fi <= metrology.qfi(d, gen).qfi * (1.0 + 1e-9) + np.finfo(float).tiny


def test_empirical_fi_finite_at_high_squeezing():
    d = _probe(2, np.sinh([10.0, 10.0]) ** 2)
    setup = HomodyneSetup(mode_indices=(0, 1))
    fi = measurement.homodyne_fi(d, GEN_PM, setup).fi
    assert fi == pytest.approx(4.0 * np.sinh(20.0) ** 2, rel=1e-12)
    est = measurement.empirical_fi(d, GEN_PM, setup, 10**6, seed=4)
    assert np.isfinite(est)
    assert est == pytest.approx(fi, rel=0.02)


def test_direct_detection_matches_qfi_of_shifted_matrix():
    # G - gbar P_S rebuilt from the matrix, on spectra with idlers (zero
    # eigenvalues) and repeated signal eigenvalues
    rng = np.random.default_rng(23)
    for _ in range(40):
        m = int(rng.integers(2, 7))
        vals = rng.uniform(-2.0, 2.0, m)
        vals[: int(rng.integers(0, m - 1))] = 0.0
        if m > 3 and rng.random() < 0.5:
            vals[-2] = vals[-1]
        w = random_unitary(rng, m)
        g_matrix = (w * vals) @ w.conj().T
        gen = generator.from_matrix(g_matrix)
        d = DisentangledForm(
            V=random_unitary(rng, m),
            alpha=rng.standard_normal(m) + 1j * rng.standard_normal(m),
            r=rng.uniform(0.0, 1.5, m),
        )
        signal = w[:, vals != 0.0]
        g_mean = metrology.resources(d, gen).g_mean
        shifted = generator.from_matrix(g_matrix - g_mean * signal @ signal.conj().T)
        want = metrology.qfi(d, shifted).qfi
        got = measurement.direct_detection_fi(d, gen, condition_verified=True)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-9)


def test_direct_fi_on_a_stack_equals_each_probe_alone():
    # the scenario table's probes, stacked: each entry is the per-probe public call to the bit
    probes = [
        scenarios.table_probe(kind, n, gbar, dg)
        for kind in scenarios.TABLE_KINDS
        for n in (0.5, 4.0, 30.0)
        for gbar, dg in ((5.0, 3.0), (-0.3, 1.7), (0.0, 0.4))
    ]
    d = DisentangledForm(*(np.stack([getattr(s, a) for s, _ in probes]) for a in ("V", "alpha", "r")))
    gen = generator.from_matrix(np.stack([g.G for _, g in probes]))
    got = measurement._direct_fi(d, gen, metrology.resources(d, gen).g_mean)
    want = [measurement.direct_detection_fi(s, g, condition_verified=True) for s, g in probes]
    assert got.shape == (len(probes),) and got.tobytes() == np.array(want).tobytes()


def test_direct_detection_forms_no_eigendecomposition(monkeypatch):
    rng = np.random.default_rng(5)
    w = random_unitary(rng, 4)
    gen = generator.from_matrix((w * np.array([0.0, -1.0, 0.5, 2.0])) @ w.conj().T)
    d = DisentangledForm(V=random_unitary(rng, 4), alpha=np.zeros(4, complex), r=rng.uniform(0.2, 1.0, 4))
    want = measurement.direct_detection_fi(d, gen, condition_verified=True)

    def refuse(*args, **kwargs):
        raise AssertionError("direct_detection_fi formed an eigendecomposition")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(matkernel, "hermitian_eig", refuse)
    assert measurement.direct_detection_fi(d, gen, condition_verified=True) == want


GRID = DiscretizationGrid(z_min=-9.0, z_max=9.0, n_bins=480)
SHIFTS = [0.0, 0.13, -0.21, 0.55]


def test_counting_condition_satisfied_symmetric():
    pair = RegularizedModePair(
        center_z=(0.4, 0.4),
        center_p=(5.3, 5.1),
        sigma_z=0.9,
        theta=(0.7, 0.7),
        r=(0.5, 0.5),
    )
    worst, ok = measurement.counting_condition_check(pair, GRID, SHIFTS)
    assert ok
    assert worst < 1e-6


def test_counting_condition_violated_for_split_centers():
    pair = RegularizedModePair(
        center_z=(0.6, -0.6), center_p=(3.0, -3.0), sigma_z=1.0, r=(0.5, 0.5)
    )
    worst, ok = measurement.counting_condition_check(pair, GRID, SHIFTS)
    assert not ok
    assert worst > 1e-3


def test_counting_condition_violated_for_unequal_squeezing():
    pair = RegularizedModePair(
        center_z=(0.0, 0.0), center_p=(3.0, -3.0), sigma_z=1.0, r=(0.8, 0.3)
    )
    worst, ok = measurement.counting_condition_check(pair, GRID, SHIFTS)
    assert not ok
    assert worst > 1e-3


def _test_amplitude(pair, z, a):
    """Two-photon amplitude of the mean-removed pair, written out from the mode formula."""
    s = np.sinh(np.asarray(pair.r)) ** 2
    p_mean = float(np.dot(s, pair.center_p) / s.sum())
    x, y = np.meshgrid(z + a, z + a, indexing="ij")
    total = np.zeros(x.shape, dtype=complex)
    for k in range(2):
        def mode(u, k=k):
            env = np.exp(-((u - pair.center_z[k]) ** 2) / (4.0 * pair.sigma_z**2))
            carrier = np.exp(-1j * ((pair.center_p[k] - p_mean) * (u - pair.center_z[k]) + pair.theta[k]))
            return (2.0 * np.pi * pair.sigma_z**2) ** -0.25 * env * carrier

        total += 0.5 * np.tanh(pair.r[k]) * mode(x) * mode(y)
    return total


def _central_difference_worst(pair, grid, shifts, h=1e-5):
    z = grid.quadrature_nodes()
    worst = 0.0
    for a in shifts:
        g0 = _test_amplitude(pair, z, a)
        dg = (_test_amplitude(pair, z, a + h) - _test_amplitude(pair, z, a - h)) / (2.0 * h)
        mag = np.abs(g0)
        keep = (mag > 1e-12) & (mag > 1e-3 * mag.max())
        worst = max(worst, float(np.max(np.abs(np.imag(np.conj(g0[keep]) * dg[keep])) / mag[keep] ** 2)))
    return worst


def test_counting_shift_derivative_matches_central_difference():
    violated = [
        RegularizedModePair(center_z=(0.6, -0.6), center_p=(3.0, -3.0), sigma_z=1.0, r=(0.5, 0.5)),
        RegularizedModePair(center_z=(0.0, 0.0), center_p=(3.0, -3.0), sigma_z=1.0, r=(0.8, 0.3)),
        RegularizedModePair(
            center_z=(0.2, -0.1), center_p=(1.5, 2.5), sigma_z=0.8, theta=(0.3, 1.1), r=(0.6, 0.4)
        ),
    ]
    for pair in violated:
        worst, _ = measurement.counting_condition_check(pair, GRID, SHIFTS)
        assert worst == pytest.approx(_central_difference_worst(pair, GRID, SHIFTS), rel=1e-6)
    # matched pairs: the exact derivative leaves only round-off (a central
    # difference in the shift reads about 2.6e-8 on the first)
    for matched in (
        RegularizedModePair(
            center_z=(0.2, 0.2), center_p=(4.0, -4.0), sigma_z=1.0, theta=(0.3, 0.3), r=(0.6, 0.6)
        ),
        RegularizedModePair(
            center_z=(0.4, 0.4), center_p=(5.3, 5.1), sigma_z=0.9, theta=(0.7, 0.7), r=(0.5, 0.5)
        ),
    ):
        worst, ok = measurement.counting_condition_check(matched, GRID, SHIFTS)
        assert ok and worst < 1e-9


def test_thermal_knob():
    assert measurement.sigma_env_from_thermal(0.0, 0.5) == 1.0
    assert measurement.sigma_env_from_thermal(2.0, 1.0) == 1.0
    assert measurement.sigma_env_from_thermal(2.0, 0.5) == pytest.approx(9.0)


@pytest.mark.parametrize("eta, error", [(float("nan"), "eta must be a finite number"), (float("inf"), "eta must be"),
                                        (-3.0, r"eta must lie in \(0, 1\]"), (0.0, r"eta must lie in \(0, 1\]"),
                                        (1.5, r"eta must lie in \(0, 1\]"), ("x", "eta must be a finite number"),
                                        (True, "eta must be a finite number")])
def test_thermal_knob_rejects_eta_as_homodyne_setup_does(eta, error):
    for n_thermal in (0.0, 0.5):
        with pytest.raises(InputError, match=error):
            measurement.sigma_env_from_thermal(n_thermal, eta)
    assert measurement.sigma_env_from_thermal(0.5, 1.0) == 1.0 and measurement.sigma_env_from_thermal(0.5, 1) == 1.0


def test_homodyne_rejects_displaced_measured_mode():
    d = DisentangledForm(V=np.eye(2, dtype=complex), alpha=np.array([0.0, 0.5j]), r=np.array([0.4, 0.7]))
    with pytest.raises(InputError, match="displaced"):
        measurement.homodyne_fi(d, GEN13, HomodyneSetup(mode_indices=(0, 1)))
    # a displaced mode that is not measured is no obstacle
    assert measurement.homodyne_fi(d, GEN13, HomodyneSetup(mode_indices=(0,))).fi > 0.0


@pytest.mark.parametrize("m", [2, 3, 5])
def test_homodyne_single_modes_of_round_tripped_cluster(m):
    # the whole equal-squeezing cluster is turned whichever of its modes
    # is measured, so each mode alone reads its share of the joint FI
    rng = np.random.default_rng(m)
    w = random_unitary(rng, m)
    gen = generator.from_matrix((w * rng.uniform(-2.0, 2.0, m)) @ w.conj().T)
    spec = optimal.ProbeSpec(kind="variance_optimal", n_signal=3.0, target_gmean=0.2, target_gvar=0.7)
    d = disentangle(assemble(optimal.build_probe(spec, gen).state))
    modes = tuple(range(m))
    joint = measurement.homodyne_fi(d, gen, HomodyneSetup(mode_indices=modes))
    assert joint.fi == pytest.approx(metrology.qfi(d, gen).qfi, rel=1e-9)
    for n in modes:
        alone = measurement.homodyne_fi(d, gen, HomodyneSetup(mode_indices=(n,)))
        assert alone.per_mode_fi[0] == joint.per_mode_fi[n]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    data=st.data(),
    m=st.integers(2, 5),
    kind=st.sampled_from(["optimal", "variance_optimal", "mean_optimal", "idler_assisted"]),
    idlers=st.booleans(),
)
def test_round_tripped_homodyne_never_exceeds_qfi(data, m, kind, idlers):
    # disentangle fixes equally squeezed and unsqueezed modes only up to a
    # rotation; any distinct subset of the round-tripped modes stays below the QFI
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n_idle = 2 if idlers or kind == "idler_assisted" else 0
    w = random_unitary(rng, m + n_idle)
    g = np.concatenate([rng.uniform(-2.0, 2.0, m), np.zeros(n_idle)])
    gen = generator.from_matrix((w * g) @ w.conj().T)
    spec = optimal.ProbeSpec(
        kind=kind,
        n_signal=data.draw(st.floats(0.5, 4.0)),
        target_gmean=data.draw(st.sampled_from([0.0, 0.4, -1.1])),
        target_gvar=0.5,
    )
    d = disentangle(assemble(optimal.build_probe(spec, gen).state))
    modes = tuple(data.draw(st.lists(st.integers(0, d.n_modes - 1), min_size=1, max_size=d.n_modes, unique=True)))
    phases = data.draw(st.one_of(st.just("auto"), st.tuples(*[st.floats(-3.0, 3.0)] * len(modes))))
    setup = HomodyneSetup(
        mode_indices=modes,
        phases=phases,
        eta=data.draw(st.floats(0.05, 1.0)),
        true_param=data.draw(st.floats(-1.0, 1.0)),
    )
    assert measurement.homodyne_fi(d, gen, setup).fi <= metrology.qfi(d, gen).qfi * (1.0 + 1e-9)
    with pytest.raises(InputError, match="distinct"):
        HomodyneSetup(mode_indices=modes + modes[:1])


@pytest.mark.parametrize("modes", [(0.5,), (1.0,), (0, "1"), (None,)])
def test_homodyne_setup_rejects_non_integer_modes(modes):
    with pytest.raises(InputError, match="must be integers"):
        HomodyneSetup(mode_indices=modes)


@pytest.mark.parametrize("modes", [(True,), (False,), (True, False), (0, True)])
def test_homodyne_setup_rejects_boolean_modes(modes):
    # numpy would read booleans as a mask: (True, False) measured mode 0 alone
    with pytest.raises(InputError, match="measured mode indices must be integers"):
        HomodyneSetup(mode_indices=modes)


def test_homodyne_setup_accepts_numpy_integer_modes():
    d = _probe(2, [1.0, 2.0])
    numpy_modes = HomodyneSetup(mode_indices=(np.int64(0), np.intp(1)))
    assert measurement.homodyne_fi(d, GEN13, numpy_modes) == measurement.homodyne_fi(
        d, GEN13, HomodyneSetup(mode_indices=(0, 1))
    )


_B = measurement._BLOCK


@pytest.mark.parametrize("n", [1, _B - 1, _B, _B + 1, 10**6])
@pytest.mark.parametrize("m", [1, 3])
def test_score_fi_matches_single_pass_mean(n, m):
    # the blocked scorer against the one-temporary form it replaces
    rng = np.random.default_rng(n + m)
    variances = tuple(rng.uniform(0.1, 3.0, m).tolist())
    per_mode_fi = tuple(rng.uniform(0.5, 20.0, m).tolist())
    base = measurement.HomodyneResult(fi=sum(per_mode_fi), per_mode_fi=per_mode_fi, variances=variances,
                                      phases_used=(0.0,) * m)
    samples = rng.standard_normal((m, n)) * np.sqrt(variances)[:, None]
    single = sum(0.5 * fi * np.mean((x**2 / v - 1.0) ** 2) for fi, v, x in zip(per_mode_fi, variances, samples))
    assert measurement._score_fi(base, samples) == pytest.approx(single, rel=1e-13, abs=0.0)


def test_score_fi_memory_bounded_and_samples_unchanged():
    samples = np.random.default_rng(9).standard_normal((2, 10**6))
    kept = samples.copy()
    base = measurement.HomodyneResult(fi=3.0, per_mode_fi=(1.0, 2.0), variances=(1.0, 1.0), phases_used=(0.0, 0.0))
    tracemalloc.start()
    try:
        measurement._score_fi(base, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the single-pass form peaked at 7.6 MiB
    assert np.array_equal(samples, kept)


@pytest.mark.parametrize("n_samples", [0, -5, 2.5, True, np.int64(0), "10", None])
def test_sampling_rejects_bad_sample_counts(n_samples):
    d = _probe(1, [0.5])
    gen = generator.from_matrix(np.diag([1.0]).astype(complex))
    setup = HomodyneSetup(mode_indices=(0,))
    for fn in (measurement.sample_homodyne, measurement.empirical_fi):
        with pytest.raises(InputError, match="n_samples must be an integer of at least 1"):
            fn(d, gen, setup, n_samples, seed=0)


def test_sampling_accepts_numpy_integer_counts():
    d = _probe(1, [0.5])
    gen = generator.from_matrix(np.diag([1.0]).astype(complex))
    setup = HomodyneSetup(mode_indices=(0,))
    x = measurement.sample_homodyne(d, gen, setup, np.int64(5), seed=3)
    assert np.array_equal(x, measurement.sample_homodyne(d, gen, setup, 5, seed=3))


# sample arrays beyond the 47-bit address space, so no test allocates them
@pytest.mark.parametrize("n_samples", [10**17, 2**62, 10**19])
def test_sampling_rejects_counts_past_memory(n_samples):
    setup = HomodyneSetup(mode_indices=(0, 1))
    d = _probe(2, [1.0, 1.0])
    for fn in (measurement.sample_homodyne, measurement.empirical_fi):
        with pytest.raises(InputError, match=f"cannot allocate {n_samples} samples"):
            fn(d, GEN13, setup, n_samples, seed=0)


def _row_draw_cases():
    """(d, gen, setup) with k = 1, 2, 3 measured modes, auto and explicit phases, and a lossy setup."""
    gen = generator.from_matrix(np.diag([0.7, -1.3, 2.1]).astype(complex))
    d = _probe(3, [0.4, 1.5, 2.5])
    return [
        (d, gen, HomodyneSetup(mode_indices=(1,))),
        (d, gen, HomodyneSetup(mode_indices=(2, 0), phases=(0.3, 1.1))),
        (d, gen, HomodyneSetup(mode_indices=(0, 1, 2), eta=0.8, sigma_env_sq=1.3, true_param=0.02)),
        (d, gen, HomodyneSetup(mode_indices=(0, 1, 2), phases=(0.2, -0.4, 2.0), eta=0.6)),
    ]


@pytest.mark.parametrize("n", [1, _B - 1, _B, _B + 1, 3 * _B + 5])
@pytest.mark.parametrize("case", range(4))
def test_row_draw_matches_whole_array_draw_bitwise(n, case):
    # drawing a row at a time reads the same stream as one (k, N) draw, and the
    # estimate scores exactly the rows sample_homodyne returns
    d, gen, setup = _row_draw_cases()[case]
    seed = 31 * case + n
    variances = measurement.homodyne_fi(d, gen, setup).variances
    whole = np.random.default_rng(seed).standard_normal((len(variances), n)) * np.sqrt(variances)[:, None]
    rows = measurement.sample_homodyne(d, gen, setup, n, seed)
    assert rows.tobytes() == whole.tobytes()
    estimate = measurement.empirical_fi(d, gen, setup, n, seed)
    assert estimate.hex() == measurement._score_fi(measurement.homodyne_fi(d, gen, setup), rows).hex()


def test_score_fi_takes_any_iterable_of_rows():
    d, gen, setup = _row_draw_cases()[2]
    base = measurement.homodyne_fi(d, gen, setup)
    rows = measurement.sample_homodyne(d, gen, setup, 1000, 5)
    assert measurement._score_fi(base, iter(list(rows))) == measurement._score_fi(base, rows)


def test_empirical_fi_holds_one_measured_mode_at_a_time():
    d, gen, setup = _row_draw_cases()[2]  # three measured modes
    tracemalloc.start()
    try:
        measurement.empirical_fi(d, gen, setup, 10**6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20  # one 7.6 MiB row and one scoring block; the whole (3, N) draw peaked at 23.4 MiB


def test_empirical_fi_memory_does_not_grow_with_samples():
    d, gen, setup = _row_draw_cases()[2]  # three measured modes
    tracemalloc.start()
    try:
        measurement.empirical_fi(d, gen, setup, 10**6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20  # one drawn and one scoring block of _BLOCK samples; a whole 10^6-sample row is 7.6 MiB


def test_sample_count_bound_is_two_to_the_44():
    # 8 * 2**44 bytes fill the 47-bit address space: one more sample per row is refused before anything is drawn
    d, gen, setup = _row_draw_cases()[2]
    for fn in (measurement.sample_homodyne, measurement.empirical_fi):
        with pytest.raises(InputError, match=f"cannot allocate {2**44 + 1} samples per measured mode"):
            fn(d, gen, setup, 2**44 + 1, 0)
    k, rows = measurement._sample_blocks(d, gen, setup, 2**44, 0)  # accepted; the stream draws nothing until read
    assert k == 3 and next(next(rows)).size == _B


def test_empirical_fi_evaluates_homodyne_fi_twice(monkeypatch):
    # mirrors the benchmark's homodyne_fi_per_empirical pin of 2: the estimate's base and the draw's variances
    calls, real = [], measurement.homodyne_fi
    monkeypatch.setattr(measurement, "homodyne_fi", lambda *args: calls.append(args) or real(*args))
    d, gen, setup = _row_draw_cases()[2]
    measurement.empirical_fi(d, gen, setup, 100, 0)
    assert len(calls) == 2


_NOT_INTEGERS = [2.5, True, "3", None, float("nan")]


@pytest.mark.parametrize("seed", _NOT_INTEGERS)
def test_sampling_rejects_seeds_that_are_not_integers(seed):
    d, gen, setup = _row_draw_cases()[0]
    for fn in (measurement.sample_homodyne, measurement.empirical_fi):
        with pytest.raises(InputError, match="seed must be non-negative"):
            fn(d, gen, setup, 10, seed)


@pytest.mark.parametrize("n_samples", _NOT_INTEGERS)
def test_sampling_rejects_counts_that_are_not_integers(n_samples):
    d, gen, setup = _row_draw_cases()[0]
    for fn in (measurement.sample_homodyne, measurement.empirical_fi):
        with pytest.raises(InputError, match="n_samples must be an integer of at least 1"):
            fn(d, gen, setup, n_samples, 0)


@pytest.mark.parametrize("kind", [np.int64, np.uint32, np.int8])
def test_sampling_reads_numpy_integer_seeds_as_ints(kind):
    d, gen, setup = _row_draw_cases()[1]
    x = measurement.sample_homodyne(d, gen, setup, kind(7), kind(11))
    assert x.tobytes() == measurement.sample_homodyne(d, gen, setup, 7, 11).tobytes()
    assert measurement.empirical_fi(d, gen, setup, kind(7), kind(11)) == measurement.empirical_fi(d, gen, setup, 7, 11)
