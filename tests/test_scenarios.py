import warnings
from dataclasses import replace

import numpy as np
import pytest

from gaussmet import generator, measurement, metrology, scenarios
from gaussmet.errors import GaussmetError, InputError, RegularizationWarning
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


def _per_row_reference(cfg):
    """run_scenario's rows with every cell computed by its own public call."""
    gbar, dg = scenarios._scenario_targets(cfg)
    rows = []
    for kind in scenarios.TABLE_KINDS:
        for n_signal in cfg.sweep["n_signal"]:
            state, gen = scenarios.table_probe(kind, float(n_signal), gbar, dg)
            report = metrology.qfi(state, gen)
            direct = measurement.direct_detection_fi(state, gen, condition_verified=True)
            modes = tuple(int(k) for k in np.nonzero(state.r > 0)[0])
            for eta in cfg.sweep["eta"]:
                hom = float("nan")
                if modes:
                    setup = measurement.HomodyneSetup(mode_indices=modes, eta=float(eta))
                    try:
                        hom = measurement.homodyne_fi(state, gen, setup).fi
                    except GaussmetError:
                        pass
                res = report.resources
                rows.append({"probe_kind": kind, "n_signal": res.n_signal, "g_mean": res.g_mean,
                             "g_sd": float(np.sqrt(res.g_var)), "eta": float(eta), "qfi": report.qfi,
                             "bound": report.bound, "homodyne_fi": hom, "direct_fi": direct})
    return rows


@pytest.mark.parametrize("kind", scenarios.SCENARIO_KINDS)
def test_run_scenario_matches_per_row_calls(kind):
    # the table evaluates each probe once; every cell must still be the
    # per-row call's value to the bit, with NaN in the same cells
    pair = RegularizedModePair(center_z=(3.0, -1.0), center_p=(8.0, 2.0), sigma_z=0.8, r=(0.5, 0.5))
    sweep = {"n_signal": [0.5, 4.0, 30.0], "eta": [1.0, 0.75, 0.2]}
    cfg = ScenarioConfig(kind=kind, pair=pair, n_signal=4.0, sweep=sweep)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the table path raises no warning
        rows = scenarios.run_scenario(cfg)
    assert repr(rows) == repr(_per_row_reference(cfg))
    hom = np.array([row["homodyne_fi"] for row in rows])
    assert np.isnan(hom).any() and not np.isnan(hom).all()


def test_run_scenario_builds_one_generator_stack_and_one_state_stack(monkeypatch):
    # each family is one stack over the photon numbers, whatever their count: the whole table takes one
    # from_matrix call and one DisentangledForm, at most one of each per family
    built, states = [], []
    monkeypatch.setattr(scenarios, "from_matrix", lambda g: built.append(g.shape) or generator.from_matrix(g))
    check = DisentangledForm.__post_init__
    monkeypatch.setattr(DisentangledForm, "__post_init__", lambda self: states.append(np.shape(self.r)) or check(self))
    pair = RegularizedModePair(center_z=(3.0, -1.0), center_p=(8.0, 2.0), sigma_z=0.8, r=(0.5, 0.5))
    sweep = {"n_signal": [0.5, 4.0, 30.0, 4.0], "eta": [1.0, 0.75]}
    rows = scenarios.run_scenario(ScenarioConfig(kind="time_shift", pair=pair, n_signal=4.0, sweep=sweep))
    assert len(rows) == 5 * 4 * 2
    assert built == [(5, 4, 2, 2)] and states == [(5, 4, 2)]


_EDGE_SWEEPS = {
    "edge_n": {"n_signal": [1e-30, 1e-12, 0.5, 1e8], "eta": [1.0, 0.75, 0.2]},
    "repeated_n": {"n_signal": [1e8, 1e-30, 0.5, 1e-30], "eta": [0.2, 1.0]},
    "one_cell": {"n_signal": [1e-12], "eta": [0.6]},
}


@pytest.mark.parametrize("kind", scenarios.SCENARIO_KINDS)
@pytest.mark.parametrize("sweep", list(_EDGE_SWEEPS.values()), ids=list(_EDGE_SWEEPS))
@pytest.mark.parametrize("carriers", [(8.0, 2.0), (5.0, -5.0)], ids=["distinct", "symmetric"])
def test_run_scenario_matches_per_row_calls_at_edge_photon_numbers(kind, sweep, carriers):
    # at N = 1e-30 the squeezed mode's r lies within takagi's gap of the unsqueezed one, so the eigenmode
    # pass turns the pair first (the mean-optimal homodyne cell is then a number, not NaN); symmetric
    # carriers squeeze both modes of the optimal probe equally at the p-domain kinds
    pair = RegularizedModePair(center_z=(6.0, -6.0), center_p=carriers, sigma_z=0.8, r=(0.5, 0.5))
    cfg = ScenarioConfig(kind=kind, pair=pair, n_signal=1.0, sweep=sweep)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = scenarios.run_scenario(cfg)
    assert repr(rows) == repr(_per_row_reference(cfg))


_TABLE_NS = np.array([1e-30, 1e-12, 0.5, 4.0, 4.0, 1e8])


@pytest.mark.parametrize("family", scenarios.TABLE_KINDS)
@pytest.mark.parametrize("gbar, dg", [(5.0, 3.06), (-1.3, 0.6), (0.0, 2.0), (1e-9, 1e3)])
def test_table_probe_array_is_the_stack_of_scalar_calls(family, gbar, dg):
    state, gen = scenarios.table_probe(family, _TABLE_NS, gbar, dg)
    assert state.r.shape == (_TABLE_NS.size, 2) and gen.G.shape == (_TABLE_NS.size, 2, 2)
    alone = [scenarios.table_probe(family, float(n), gbar, dg) for n in _TABLE_NS]
    for name in ("V", "alpha", "r"):
        assert getattr(state, name).tobytes() == np.stack([getattr(s, name) for s, _ in alone]).tobytes(), name
    assert gen.G.tobytes() == np.stack([g.G for _, g in alone]).tobytes()
    assert gen.eig.U.tobytes() == np.stack([g.eig.U for _, g in alone]).tobytes()


def test_run_scenario_evaluates_resources_once_per_table(monkeypatch):
    calls = []
    for name in ("_resources", "qfi"):
        kernel = getattr(metrology, name)
        monkeypatch.setattr(metrology, name, lambda *args, name=name, kernel=kernel: calls.append(name) or kernel(*args))
    pair = RegularizedModePair(center_z=(3.0, -1.0), center_p=(8.0, 2.0), sigma_z=0.8, r=(0.5, 0.5))
    sweep = {"n_signal": [0.5, 4.0, 30.0], "eta": [1.0, 0.75]}
    rows = scenarios.run_scenario(ScenarioConfig(kind="time_shift", pair=pair, n_signal=4.0, sweep=sweep))
    assert len(rows) == 5 * 3 * 2
    # one stacked pass over the 15 (kind, N) probes, whatever the number of eta values
    assert sorted(calls) == ["_resources", "qfi"]


@pytest.mark.parametrize("kind", scenarios.SCENARIO_KINDS)
@pytest.mark.parametrize(
    "sweep", [{"n_signal": [4.0, 0.5, 4.0, 30.0], "eta": [0.2, 1.0]}, {}], ids=["repeated_n", "no_sweep"]
)
def test_run_scenario_matches_per_row_calls_on_repeated_n_and_no_sweep(kind, sweep):
    # a photon number listed twice gives the same probe twice in the stack; with no sweep the
    # table is the config's photon number at eta 1
    pair = RegularizedModePair(center_z=(3.0, -1.0), center_p=(8.0, 2.0), sigma_z=0.8, r=(0.5, 0.5))
    cfg = ScenarioConfig(kind=kind, pair=pair, n_signal=4.0, sweep=sweep)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = scenarios.run_scenario(cfg)
    full = {"n_signal": sweep.get("n_signal", [cfg.n_signal]), "eta": sweep.get("eta", [1.0])}
    assert len(rows) == 5 * len(full["n_signal"]) * len(full["eta"])
    assert repr(rows) == repr(_per_row_reference(replace(cfg, sweep=full)))


@pytest.mark.parametrize("bad_eta", [0.0, -0.2, 1.5])
@pytest.mark.parametrize("eigenmode_pass_fails", [False, True])
def test_run_scenario_rejects_eta_outside_unit_interval(bad_eta, eigenmode_pass_fails, monkeypatch):
    if eigenmode_pass_fails:  # every homodyne cell would be NaN; eta is still checked

        def no_eigenmodes(*args):
            raise InputError("state mode 0 is not a generator eigenmode")

        monkeypatch.setattr(measurement, "_eigenmode_data", no_eigenmodes)
    cfg = ScenarioConfig(kind="time_shift", pair=_varopt_pair(4.0), n_signal=4.0, sweep={"eta": [1.0, bad_eta]})
    with pytest.raises(InputError, match=r"eta must lie in \(0, 1\]"):
        scenarios.run_scenario(cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gbar, dg", [(1.0, 0.0), (0.0, 0.0), (-2.0, 0.0), (1.0, 1e-9)])
def test_table_probe_optimal_needs_a_spread(gbar, dg):
    # dg = 1e-9 leaves hypot(gbar, dg) == |gbar|, so q rounds to 1 as at dg = 0
    with pytest.raises(InputError, match="spread"):
        scenarios.table_probe("optimal", 2.0, gbar, dg)


@pytest.mark.parametrize("kind", ["foo", "Optimal", "idler_assisted"])
def test_table_probe_names_the_table_families_for_an_unknown_kind(kind):
    with pytest.raises(InputError, match="kind must be one of the table families") as err:
        scenarios.table_probe(kind, 2.0, 1.0, 0.5)
    assert str(scenarios.TABLE_KINDS) in str(err.value) and repr(kind) in str(err.value)


@pytest.mark.parametrize("kind", scenarios.SCENARIO_KINDS)
@pytest.mark.parametrize("r", [(0.5, 0.5), (0.7, 0.3)])
def test_regularized_probe_unmatched_theta_keeps_independent_modes(kind, r, monkeypatch):
    # for well-separated modes the Schmidt mixing of matched angles is
    # negligible, so unmatched angles, which skip it, read the same numbers
    def probe(theta):
        pair = RegularizedModePair(center_z=(6.0, -6.0), center_p=(8.0, -8.0), sigma_z=1.0, theta=theta, r=r)
        state, gen, res = scenarios.build_regularized_probe(ScenarioConfig(kind=kind, pair=pair, n_signal=4.0))
        return metrology.qfi(state, gen).qfi, (res.n_signal, res.g_mean, res.g_var)

    qfi0, res0 = probe((0.0, 0.0))
    monkeypatch.setattr(scenarios, "schmidt_pair", None)  # the unmatched branch does not call it
    for theta in [(0.0, 0.3), (1.1, -0.4)]:
        qfi, res = probe(theta)
        assert qfi == pytest.approx(qfi0, rel=1e-12)
        assert res == pytest.approx(res0, rel=1e-12, abs=1e-12)
