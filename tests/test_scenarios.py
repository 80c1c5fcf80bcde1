import warnings

import numpy as np
import pytest

from gaussmet import measurement, metrology, scenarios
from gaussmet.errors import InputError, RegularizationWarning
from gaussmet.gaussian import DisentangledForm
from gaussmet.generator import HGParams, hg_generator, hg_mode
from gaussmet.regmodes import RegularizedModePair
from gaussmet.scenarios import ScenarioConfig


def test_overlap_identical_modes_is_one():
    pair = RegularizedModePair(center_z=(0.3, 0.3), center_p=(2.0, 2.0), sigma_z=0.7)
    s = scenarios.mode_overlap(pair)
    assert abs(s) == pytest.approx(1.0, abs=1e-10)


def test_overlap_far_separated_carriers():
    pair = RegularizedModePair(center_z=(0.0, 0.0), center_p=(20.0, -20.0), sigma_z=1.0)
    s = scenarios.mode_overlap(pair)
    assert abs(s) < 1e-6


def test_overlap_gaussian_law_in_z():
    sigma = 0.8
    for dz in (0.5, 1.5, 3.0):
        pair = RegularizedModePair(
            center_z=(dz / 2.0, -dz / 2.0), center_p=(1.0, 1.0), sigma_z=sigma
        )
        s = scenarios.mode_overlap(pair)
        assert abs(s) == pytest.approx(np.exp(-(dz**2) / (8.0 * sigma**2)), abs=1e-8)


def test_overlap_closed_form_matches_trapezoid_integral():
    # anchor: the complex overlap, phase included, against a direct
    # trapezoid integral of conj(mode 0) * mode 1 on a fine grid
    rng = np.random.default_rng(5)
    for _ in range(20):
        sigma = rng.uniform(0.3, 2.0)
        # centers within 3 widths of each other, so the overlap is not negligible
        half_dz, half_dp = 1.5 * sigma * rng.uniform(-1.0, 1.0), 1.5 / sigma * rng.uniform(-1.0, 1.0)
        z0, p0 = rng.uniform(-2.0, 2.0), rng.uniform(-3.0, 3.0)
        pair = RegularizedModePair(
            center_z=(z0 + half_dz, z0 - half_dz),
            center_p=(p0 + half_dp, p0 - half_dp),
            sigma_z=sigma,
            theta=tuple(rng.uniform(-np.pi, np.pi, 2)),
        )
        z = np.linspace(min(pair.center_z) - 12.0 * sigma, max(pair.center_z) + 12.0 * sigma, 40001)
        modes = [
            hg_mode(0, z, HGParams(pair.center_z[k], pair.center_p[k], sigma, pair.theta[k]))
            for k in (0, 1)
        ]
        numeric = np.trapezoid(np.conj(modes[0]) * modes[1], z)
        assert abs(scenarios.mode_overlap(pair) - numeric) < 1e-12


def test_schmidt_pair_equal_strengths():
    res = scenarios.schmidt_pair(0.5, 0.5, 0.2)
    assert res.r1 == pytest.approx(0.5 * 1.2)
    assert res.r2 == pytest.approx(0.5 * 0.8)
    assert res.chi == pytest.approx(np.pi / 4.0)


def test_schmidt_pair_zero_overlap():
    res = scenarios.schmidt_pair(0.9, 0.4, 0.0)
    assert (res.r1, res.r2, res.chi) == pytest.approx((0.9, 0.4, 0.0))


def test_schmidt_pair_matches_matrix_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        r_minus = rng.uniform(0.05, 1.0)
        r_plus = r_minus * rng.uniform(1.0, 3.0)
        s = rng.uniform(0.0, 0.9)
        a = np.array(
            [
                [r_plus + r_minus * s**2, r_minus * s * np.sqrt(1.0 - s**2)],
                [r_minus * s * np.sqrt(1.0 - s**2), r_minus * (1.0 - s**2)],
            ]
        )
        eigvals = np.linalg.eigvalsh(a)
        res = scenarios.schmidt_pair(r_plus, r_minus, s)
        assert res.r1 == pytest.approx(eigvals[1], abs=1e-12)
        assert res.r2 == pytest.approx(eigvals[0], abs=1e-12)
        # the rotation diagonalizes A at the reported angle
        q = np.array(
            [[np.cos(res.chi), -np.sin(res.chi)], [np.sin(res.chi), np.cos(res.chi)]]
        )
        off = (q.T @ a @ q)[0, 1]
        assert abs(off) < 1e-10


def _varopt_pair(n_signal, p0=5.0, delta=3.0, sigma=1.0):
    r = np.arcsinh(np.sqrt(n_signal / 2.0))
    return RegularizedModePair(
        center_z=(0.0, 0.0),
        center_p=(p0 + delta, p0 - delta),
        sigma_z=sigma,
        r=(r, r),
    )


def test_regularized_variance_optimal_closed_form():
    n_signal = 1e5
    pair = _varopt_pair(n_signal)
    cfg = ScenarioConfig(kind="time_shift", pair=pair, n_signal=n_signal)
    state, gen, res = scenarios.build_regularized_probe(cfg)
    assert res.n_signal == pytest.approx(n_signal, rel=1e-9)
    # resource identities of the pair: the mean sits at the carrier
    # midpoint and the spread carries the quarter-squared separation plus
    # the regularization share 1/(4 sigma^2)
    separation = abs(pair.center_p[0] - pair.center_p[1])
    assert res.g_mean == pytest.approx(0.5 * (pair.center_p[0] + pair.center_p[1]), rel=1e-9)
    assert res.g_var == pytest.approx(separation**2 / 4.0 + 0.25, rel=1e-9)
    engine = metrology.qfi(state, gen).qfi
    closed = 4.0 * n_signal**2 * (res.g_mean**2 + res.g_var - 0.25)
    assert engine == pytest.approx(closed, rel=1e-4)


def test_regularized_optimal_closed_form():
    n_signal = 1e5
    p0, delta_res = 4.0, 3.0
    q = p0 / np.hypot(p0, delta_res)
    si2 = 0.5 * n_signal * (1.0 - q)
    sj2 = 0.5 * n_signal * (1.0 + q)
    pair = RegularizedModePair(
        center_z=(0.0, 0.0),
        center_p=(
            p0 + delta_res * np.sqrt(si2 / sj2),
            p0 - delta_res * np.sqrt(sj2 / si2),
        ),
        sigma_z=1.0,
        r=(np.arcsinh(np.sqrt(sj2)), np.arcsinh(np.sqrt(si2))),
    )
    cfg = ScenarioConfig(kind="time_shift", pair=pair, n_signal=n_signal)
    state, gen, res = scenarios.build_regularized_probe(cfg)
    assert res.g_mean == pytest.approx(p0, rel=1e-6)
    assert res.g_var == pytest.approx(delta_res**2 + 0.25, rel=1e-6)
    engine = metrology.qfi(state, gen).qfi
    closed = (8.0 * p0**2 + 4.0 * (res.g_var - 0.25)) * n_signal**2
    assert engine == pytest.approx(closed, rel=1e-4)


def test_regularized_single_gaussian_reduces_to_mean_structure():
    n_signal = 1e4
    r = np.arcsinh(np.sqrt(n_signal))
    pair = RegularizedModePair(
        center_z=(0.0, 0.0), center_p=(0.0, -25.0), sigma_z=1.0, r=(r, 0.0)
    )
    cfg = ScenarioConfig(kind="time_shift", pair=pair, n_signal=n_signal)
    state, gen, res = scenarios.build_regularized_probe(cfg)
    # single populated Gaussian at zero carrier: gbar = 0, dg^2 = 1/(4 sigma^2)
    assert res.g_mean == pytest.approx(0.0, abs=1e-9)
    assert res.g_var == pytest.approx(0.25, rel=1e-9)
    engine = metrology.qfi(state, gen).qfi
    assert engine == pytest.approx(4.0 * res.g_var * res.n_signal, rel=1e-6)


def test_regularized_direct_detection_recovers_variance_term():
    n_signal = 1e5
    pair = _varopt_pair(n_signal)
    cfg = ScenarioConfig(kind="time_shift", pair=pair, n_signal=n_signal)
    state, gen, res = scenarios.build_regularized_probe(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        direct = measurement.direct_detection_fi(state, gen)
    assert direct == pytest.approx(4.0 * (res.g_var - 0.25) * n_signal**2, rel=1e-4)


def test_regularization_poor_raises_and_warns():
    r = np.arcsinh(1.0)
    close = RegularizedModePair(
        center_z=(0.0, 0.0), center_p=(0.4, -0.4), sigma_z=1.0, r=(r, r)
    )
    with pytest.raises(InputError, match="too large for the regularized closed forms"):
        scenarios.build_regularized_probe(
            ScenarioConfig(kind="time_shift", pair=close, n_signal=2.0)
        )
    borderline = RegularizedModePair(
        center_z=(0.0, 0.0), center_p=(2.4, -2.4), sigma_z=1.0, r=(r, r)
    )
    with pytest.warns(RegularizationWarning):
        scenarios.build_regularized_probe(
            ScenarioConfig(kind="time_shift", pair=borderline, n_signal=2.0)
        )


def test_fourier_duality_between_scenarios():
    n_signal = 100.0
    pair_time = _varopt_pair(n_signal, p0=4.0, delta=6.0, sigma=0.5)
    swapped = RegularizedModePair(
        center_z=pair_time.center_p,
        center_p=pair_time.center_z,
        sigma_z=1.0 / (2.0 * pair_time.sigma_z),
        theta=pair_time.theta,
        r=pair_time.r,
    )
    qfi_time = metrology.qfi(
        *scenarios.build_regularized_probe(
            ScenarioConfig(kind="time_shift", pair=pair_time, n_signal=n_signal)
        )[:2]
    ).qfi
    qfi_freq = metrology.qfi(
        *scenarios.build_regularized_probe(
            ScenarioConfig(kind="frequency_shift", pair=swapped, n_signal=n_signal)
        )[:2]
    ).qfi
    assert qfi_freq == pytest.approx(qfi_time, rel=1e-9)


def test_simultaneous_variance_optimality():
    # far separated in both domains: variance optimal for both parameters
    n_signal = 1e5
    r = np.arcsinh(np.sqrt(n_signal / 2.0))
    sigma_z = 1.0
    pair = RegularizedModePair(
        center_z=(6.0, -6.0), center_p=(8.0, -8.0), sigma_z=sigma_z, r=(r, r)
    )
    cfg_z = ScenarioConfig(kind="frequency_shift", pair=pair, n_signal=n_signal)
    cfg_p = ScenarioConfig(kind="time_shift", pair=pair, n_signal=n_signal)
    state_p, gen_p, res_p = scenarios.build_regularized_probe(cfg_p)
    state_z, gen_z, res_z = scenarios.build_regularized_probe(cfg_z)
    qfi_p = metrology.qfi(state_p, gen_p).qfi
    qfi_z = metrology.qfi(state_z, gen_z).qfi
    sigma_p = 1.0 / (2.0 * sigma_z)
    closed_p = 4.0 * n_signal**2 * (res_p.g_mean**2 + res_p.g_var - sigma_p**2)
    closed_z = 4.0 * n_signal**2 * (res_z.g_mean**2 + res_z.g_var - sigma_z**2)
    assert qfi_p == pytest.approx(closed_p, rel=1e-4)
    assert qfi_z == pytest.approx(closed_z, rel=1e-4)


def test_beam_scenarios_map_onto_time_frequency():
    n_signal = 50.0
    pair = _varopt_pair(n_signal, p0=3.0, delta=7.0, sigma=0.8)
    q_time = metrology.qfi(
        *scenarios.build_regularized_probe(
            ScenarioConfig(kind="time_shift", pair=pair, n_signal=n_signal)
        )[:2]
    ).qfi
    q_disp = metrology.qfi(
        *scenarios.build_regularized_probe(
            ScenarioConfig(kind="beam_displacement", pair=pair, n_signal=n_signal)
        )[:2]
    ).qfi
    assert q_disp == pytest.approx(q_time, rel=1e-12)
    # tilt scales the generator by omega/c: QFI scales by its square
    scale = 2.5
    pair_z = RegularizedModePair(
        center_z=pair.center_p, center_p=pair.center_z,
        sigma_z=1.0 / (2.0 * pair.sigma_z), r=pair.r,
    )
    q_tilt = metrology.qfi(
        *scenarios.build_regularized_probe(
            ScenarioConfig(
                kind="beam_tilt", pair=pair_z, n_signal=n_signal, physical_scale=scale
            )
        )[:2]
    ).qfi
    q_tilt_unit = metrology.qfi(
        *scenarios.build_regularized_probe(
            ScenarioConfig(kind="beam_tilt", pair=pair_z, n_signal=n_signal)
        )[:2]
    ).qfi
    assert q_tilt == pytest.approx(scale**2 * q_tilt_unit, rel=1e-12)


def test_hg_product_qfi_examples():
    assert scenarios.hg_product_qfi(1.0, 1.0, 1.0, 1.0 / np.sqrt(2.0), np.pi) == pytest.approx(52.0)
    assert scenarios.hg_product_qfi(1.0, 1.0, 0.0, 1.0 / np.sqrt(2.0), np.pi) == pytest.approx(20.0)
    assert scenarios.hg_product_qfi(0.0, 0.0, 1.3, 0.7, np.pi) == 0.0


def test_hg_product_qfi_resource_form():
    for n_half in (0.5, 1.0, 3.0):
        n_signal = 2.0 * n_half
        p0, sigma = 1.7, 0.6
        dg_sq = 1.0 / (2.0 * sigma**2)
        value = scenarios.hg_product_qfi(n_half, n_half, p0, sigma, np.pi)
        closed = 2.0 * n_signal * (
            2.0 * p0**2 * (n_signal + 2.0) + dg_sq * (n_signal + 3.0)
        )
        assert value == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("s0_sq,s1_sq,p0,sigma,dphi", [
    (1.0, 1.0, 1.0, 1.0 / np.sqrt(2.0), np.pi),
    (0.3, 1.7, 0.8, 0.9, np.pi),
    (2.0, 0.5, -1.1, 1.3, 0.4),
    (1.0, 1.0, 0.0, 0.5, 0.0),
])
def test_hg_product_qfi_matches_engine(s0_sq, s1_sq, p0, sigma, dphi):
    m = 6
    gen = hg_generator(HGParams(center_p=p0, sigma_z=sigma), m)
    phases = np.ones(m, dtype=complex)
    phases[0] = np.exp(0.5j * 0.0)
    phases[1] = np.exp(0.5j * (-dphi))  # phi0 - phi1 = dphi
    d = DisentangledForm(
        V=np.diag(phases),
        alpha=np.zeros(m, complex),
        r=np.array(
            [np.arcsinh(np.sqrt(s0_sq)), np.arcsinh(np.sqrt(s1_sq))] + [0.0] * (m - 2)
        ),
    )
    engine = metrology.qfi(d, gen).qfi
    closed = scenarios.hg_product_qfi(s0_sq, s1_sq, p0, sigma, dphi)
    assert engine == pytest.approx(closed, rel=1e-9)


def test_run_scenario_table_structure():
    pair = _varopt_pair(20.0)
    cfg = ScenarioConfig(
        kind="time_shift",
        pair=pair,
        n_signal=20.0,
        sweep={"n_signal": [20.0], "eta": [1.0, 0.6]},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = scenarios.run_scenario(cfg)
    assert len(rows) == len(scenarios.TABLE_KINDS) * 2
    by_kind = {
        (row["probe_kind"], row["eta"]): row for row in rows
    }
    full = {k: by_kind[(k, 1.0)] for k in scenarios.TABLE_KINDS}
    # N^2 ordering: coherent < derivative(gbar part) < variance < optimal
    assert full["coherent"]["qfi"] < full["derivative_displaced"]["qfi"]
    assert full["derivative_displaced"]["qfi"] < full["variance_optimal"]["qfi"]
    assert full["variance_optimal"]["qfi"] < full["optimal"]["qfi"]
    assert full["optimal"]["qfi"] == pytest.approx(full["optimal"]["bound"], rel=1e-9)
    # homodyne attains the QFI at unit transmissivity for the two-mode kinds
    for kind in ("variance_optimal", "optimal"):
        assert full[kind]["homodyne_fi"] == pytest.approx(full[kind]["qfi"], rel=1e-9)
    # all families share the resource targets
    for kind in scenarios.TABLE_KINDS:
        assert full[kind]["g_mean"] == pytest.approx(5.0, rel=1e-9)
        assert full[kind]["g_sd"] == pytest.approx(np.sqrt(9.25), rel=1e-9)


def test_run_scenario_eta_crossover():
    pair = _varopt_pair(100.0)
    cfg = ScenarioConfig(
        kind="time_shift",
        pair=pair,
        n_signal=100.0,
        sweep={"n_signal": [100.0], "eta": [0.4, 0.6]},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = scenarios.run_scenario(cfg)
    var_rows = {r["eta"]: r for r in rows if r["probe_kind"] == "variance_optimal"}
    for eta, row in var_rows.items():
        coherent_at_eta = 4.0 * eta * (row["g_mean"] ** 2 + row["g_sd"] ** 2) * row["n_signal"]
        if eta > 0.5:
            assert row["homodyne_fi"] > coherent_at_eta
        else:
            assert row["homodyne_fi"] < coherent_at_eta


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gbar, dg", [(1.0, 0.0), (0.0, 0.0), (-2.0, 0.0), (1.0, 1e-9)])
def test_table_probe_optimal_needs_a_spread(gbar, dg):
    # dg = 1e-9 leaves hypot(gbar, dg) == |gbar|, so q rounds to 1 as at dg = 0
    with pytest.raises(InputError, match="spread"):
        scenarios.table_probe("optimal", 2.0, gbar, dg)
