import numpy as np
import pytest

from gaussmet import generator, measurement, metrology, optimal
from gaussmet.errors import ConditionNotVerifiedWarning, InputError
from gaussmet.gaussian import DisentangledForm
from gaussmet.generator import DiscretizationGrid
from gaussmet.measurement import HomodyneSetup
from gaussmet.regmodes import RegularizedModePair

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


def test_thermal_knob():
    assert measurement.sigma_env_from_thermal(0.0, 0.5) == 1.0
    assert measurement.sigma_env_from_thermal(2.0, 1.0) == 1.0
    assert measurement.sigma_env_from_thermal(2.0, 0.5) == pytest.approx(9.0)
