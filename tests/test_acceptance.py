"""Acceptance suite: one test per release criterion, each printing its
verdict line. Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 3's single-mode-squeezed row is checked against the README
form 8 gbar^2 N (N + 1) + 4 dg^2 N, both on the engine at the table
targets and on the independent truncated Fock oracle at small N.
"""

import time
import warnings

import numpy as np
import pytest

from gaussmet import (
    focksim,
    generator,
    measurement,
    metrology,
    optimal,
    scenarios,
    verify,
)
from gaussmet.gaussian import DisentangledForm
from gaussmet.generator import DiscretizationGrid
from gaussmet.measurement import HomodyneSetup
from gaussmet.metrology import ResourceTriple
from gaussmet.regmodes import RegularizedModePair
from gaussmet.scenarios import ScenarioConfig


def _report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    return ok


def test_criterion_1_resource_bound_on_random_states():
    start = time.perf_counter()
    suite = verify.suite_bound(trials=1000, seed=20240809)
    elapsed = time.perf_counter() - start
    ok = suite.passed and elapsed < 30.0
    assert _report(1, ok, f"{suite.summary}; runtime {elapsed:.1f} s (< 30 s)")


def test_criterion_2_bound_saturation():
    rng = np.random.default_rng(52)
    worst = 0.0
    for _ in range(50):
        gbar = rng.uniform(-2.0, 2.0)
        dg = rng.uniform(0.1, 2.0)
        ns = rng.uniform(0.5, 40.0)
        q = gbar / np.hypot(gbar, dg)
        si2, sj2 = 0.5 * ns * (1.0 - q), 0.5 * ns * (1.0 + q)
        gen = generator.from_matrix(
            np.diag(
                [gbar - dg * np.sqrt(sj2 / si2), gbar + dg * np.sqrt(si2 / sj2)]
            ).astype(complex)
        )
        result = optimal.build_probe(
            optimal.ProbeSpec(
                kind="optimal", n_signal=ns, target_gmean=gbar, target_gvar=dg**2
            ),
            gen,
        )
        assert result.eigen_residual < 1e-9
        rep = metrology.qfi(result.state, gen)
        worst = max(worst, abs(rep.qfi - rep.bound) / rep.bound)
    # worked case: gbar = 1, dg = 1, N = 2 -> qfi = bound = 80
    gen = generator.from_matrix(np.diag([-np.sqrt(2.0), np.sqrt(2.0)]).astype(complex))
    result = optimal.build_probe(
        optimal.ProbeSpec(kind="optimal", n_signal=2.0, target_gmean=1.0, target_gvar=1.0),
        gen,
    )
    rep = metrology.qfi(result.state, gen)
    worked_ok = abs(rep.qfi - 80.0) <= 1e-9 * 80.0 and abs(rep.qfi - rep.bound) <= 1e-9 * rep.bound
    ok = worst <= 1e-9 and worked_ok
    assert _report(
        2, ok, f"50 random targets, worst |qfi-bound|/bound {worst:.2e}; worked case qfi {rep.qfi:.12g}"
    )


_TABLE_TARGETS = (12.0, 1.6, 0.9)  # N, gbar, dg


def _closed_forms(n, g2, d2):
    return {
        "coherent": 4.0 * (g2 + d2) * n,
        "variance_optimal": 4.0 * (g2 + d2) * n**2 + 8.0 * (g2 + d2) * n,
        "optimal": (8.0 * g2 + 4.0 * d2) * n**2 + 8.0 * (g2 + d2) * n,
    }


def test_criterion_3_closed_form_table_exact_rows():
    n, gbar, dg = _TABLE_TARGETS
    forms = _closed_forms(n, gbar**2, dg**2)
    worst = 0.0
    for kind, expected in forms.items():
        state, gen = scenarios.table_probe(kind, n, gbar, dg)
        engine = metrology.qfi(state, gen).qfi
        worst = max(worst, abs(engine - expected) / expected)
    ok = worst <= 1e-9
    assert _report(3, ok, f"coherent/variance/optimal closed forms, worst rel dev {worst:.2e}")


def test_criterion_3_asymptotic_coefficients():
    targets = ResourceTriple(n_signal=10.0, g_mean=_TABLE_TARGETS[1], g_var=_TABLE_TARGETS[2] ** 2)

    def builder(kind):
        def build(ns, g, d):
            return scenarios.table_probe(kind, ns, g, d)

        return build

    expected = {
        "coherent": (4.0, 4.0),
        "mean_optimal": (8.0, 0.0),
        "variance_optimal": (4.0, 4.0),
        "optimal": (8.0, 4.0),
    }
    worst = 0.0
    for kind, coeffs in expected.items():
        if kind == "coherent":
            # linear family: fit qfi/N against the resources directly
            state, gen = scenarios.table_probe(kind, 10.0, targets.g_mean, np.sqrt(targets.g_var))
            rep = metrology.qfi(state, gen)
            got = rep.qfi / rep.resources.n_signal
            want = 4.0 * (targets.g_mean**2 + targets.g_var)
            worst = max(worst, abs(got - want) / want)
            continue
        fitted = metrology.optimality_coefficients(builder(kind), targets)
        worst = max(worst, abs(fitted[0] - coeffs[0]), abs(fitted[1] - coeffs[1]))
    dd = metrology.optimality_coefficients(
        builder("derivative_displaced"), targets, ns_values=(1e3, 2e3, 4e3, 8e3)
    )
    worst = max(worst, abs(dd[0] - 2.0), abs(dd[1] - 4.0))
    ok = worst <= 1e-4
    assert _report(3, ok, f"(c_gbar, c_dg) fits incl. derivative-displaced (2, 4), worst dev {worst:.2e}")


def test_criterion_3_mean_optimal_closed_form_as_specified():
    """README form 8 gbar^2 N (N + 1) + 4 dg^2 N for the single-mode
    squeezed probe.

    The engine is checked at the table targets. The same table probe is
    also built in the truncated Fock basis at small N, where the linear
    term dominates, so the oracle (which shares no algebra with the
    engine) pins the linear coefficient 8 gbar^2 + 4 dg^2 on its own.
    """

    def closed_form(n, gbar, dg):
        return 8.0 * gbar**2 * n * (n + 1.0) + 4.0 * dg**2 * n

    n, gbar, dg = _TABLE_TARGETS
    state, gen = scenarios.table_probe("mean_optimal", n, gbar, dg)
    engine = metrology.qfi(state, gen).qfi
    expected = closed_form(n, gbar, dg)
    engine_dev = abs(engine - expected) / expected

    cfg = focksim.OracleConfig(cutoff=30, tail_tol=1e-12)
    oracle_dev = 0.0
    for n_small in (0.05, 0.2):
        state_s, gen_s = scenarios.table_probe("mean_optimal", n_small, gbar, dg)
        oracle = focksim.fock_qfi(focksim.fock_build(state_s, cfg), gen_s)
        want = closed_form(n_small, gbar, dg)
        oracle_dev = max(oracle_dev, abs(oracle - want) / want)

    ok = engine_dev <= 1e-9 and oracle_dev <= 1e-8
    assert _report(
        3,
        ok,
        "mean-optimal row vs 8 gbar^2 N (N+1) + 4 dg^2 N: engine rel dev "
        f"{engine_dev:.2e} at N = {n:g}, Fock oracle worst rel dev {oracle_dev:.2e} "
        "at N = 0.05, 0.2",
    )


def test_criterion_4_fock_oracle_equivalence():
    start = time.perf_counter()
    suite = verify.suite_oracle(trials=100, seed=777)
    elapsed = time.perf_counter() - start
    ok = suite.passed and elapsed < 120.0
    assert _report(4, ok, f"{suite.summary}; runtime {elapsed:.1f} s (< 2 min)")


def test_criterion_5_fock_superposition_benchmark():
    worst = 0.0
    for n_cut in range(1, 11):
        for g_min, g_max in ((0.0, 1.0), (-1.0, 1.0), (0.3, 2.7), (-2.0, -0.5)):
            value = focksim.fock_superposition_qfi(n_cut, g_min, g_max)
            expected = (g_max - g_min) ** 2 * n_cut**2
            worst = max(worst, abs(value - expected) / max(1.0, expected))
    ok = worst <= 1e-12
    assert _report(5, ok, f"(g_max-g_min)^2 N_cut^2 reproduced, worst rel dev {worst:.2e}")


def test_criterion_6_homodyne_optimality():
    n, gbar, dg = 6.0, 1.3, 0.8
    worst = 0.0
    for kind in ("optimal", "variance_optimal"):
        state, gen = scenarios.table_probe(kind, n, gbar, dg)
        modes = tuple(int(k) for k in np.nonzero(state.r > 0)[0])
        fi = measurement.homodyne_fi(state, gen, HomodyneSetup(mode_indices=modes)).fi
        qfi = metrology.qfi(state, gen).qfi
        worst = max(worst, abs(fi - qfi) / qfi)
    gen_m = generator.from_matrix(np.diag([0.7, 2.0]).astype(complex))
    probe = optimal.build_probe(optimal.ProbeSpec(kind="mean_optimal", n_signal=3.0), gen_m)
    fi_m = measurement.homodyne_fi(probe.state, gen_m, HomodyneSetup(mode_indices=(0,))).fi
    res = probe.achieved
    expected = 8.0 * res.g_mean**2 * res.n_signal**2 + 8.0 * res.g_mean**2 * res.n_signal
    worst = max(worst, abs(fi_m - expected) / expected)
    ok = worst <= 1e-9
    assert _report(6, ok, f"auto-phase homodyne FI vs QFI / closed form, worst rel dev {worst:.2e}")


def test_criterion_7_loss_crossover():
    gen = generator.from_matrix(np.diag([1.0, 3.0]).astype(complex))
    r = np.arcsinh(10.0)
    d = DisentangledForm(
        V=np.eye(2, dtype=complex), alpha=np.zeros(2, complex), r=np.array([r, r])
    )
    res = metrology.resources(d, gen)

    def ratio(eta):
        fi = measurement.homodyne_fi(d, gen, HomodyneSetup(mode_indices=(0, 1), eta=eta)).fi
        return fi / (4.0 * eta * (res.g_mean**2 + res.g_var) * res.n_signal)

    lo, hi = 0.05, 0.999
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ratio(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    crossover = 0.5 * (lo + hi)
    ok = abs(crossover - 0.5) <= 0.02
    assert _report(7, ok, f"homodyne/coherent ratio crosses 1 at eta = {crossover:.4f} (0.5 +- 0.02)")


def test_criterion_8_monte_carlo_consistency():
    start = time.perf_counter()
    gen13 = generator.from_matrix(np.diag([1.0, 3.0]).astype(complex))
    gen1 = generator.from_matrix(np.diag([1.0]).astype(complex))
    d13 = DisentangledForm(
        V=np.eye(2, dtype=complex),
        alpha=np.zeros(2, complex),
        r=np.full(2, np.arcsinh(1.0)),
    )
    d1 = DisentangledForm(
        V=np.eye(1, dtype=complex), alpha=np.zeros(1, complex), r=np.array([np.arcsinh(1.0)])
    )
    fixtures = [
        (d1, gen1, HomodyneSetup(mode_indices=(0,))),
        (d13, gen13, HomodyneSetup(mode_indices=(0, 1))),
        (d13, gen13, HomodyneSetup(mode_indices=(0, 1), eta=0.7)),
        (d13, gen13, HomodyneSetup(mode_indices=(0, 1), eta=0.8, sigma_env_sq=3.0)),
        (d13, gen13, HomodyneSetup(mode_indices=(0, 1), true_param=0.4)),
    ]
    worst = 0.0
    for k, (d, gen, setup) in enumerate(fixtures):
        analytic = measurement.homodyne_fi(d, gen, setup).fi
        estimate = measurement.empirical_fi(d, gen, setup, 10**6, seed=1000 + k)
        worst = max(worst, abs(estimate - analytic) / analytic)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.02 and elapsed < 60.0
    assert _report(
        8, ok, f"empirical FI on 5 fixtures, worst rel dev {worst:.2%}; runtime {elapsed:.1f} s (< 1 min)"
    )


def test_criterion_9_trace_inequality():
    suite = verify.suite_lemma2(trials=500, seed=31337)
    equality = metrology.lemma2_gap(
        np.diag([1.0, -1.0]).astype(complex), np.eye(2, dtype=complex)
    )
    ok = suite.passed and abs(equality) <= 1e-12
    assert _report(9, ok, f"{suite.summary}; equality case gap {equality:.2e}")


def test_criterion_10_hg_product_state():
    p0, sigma = 1.0, 1.0 / np.sqrt(2.0)
    n_signal = 2.0
    dg_sq = 1.0 / (2.0 * sigma**2)
    closed = scenarios.hg_product_qfi(1.0, 1.0, p0, sigma, np.pi)
    form = 2.0 * n_signal * (2.0 * p0**2 * (n_signal + 2.0) + dg_sq * (n_signal + 3.0))
    m = 6
    gen = generator.hg_generator(generator.HGParams(center_p=p0, sigma_z=sigma), m)
    phases = np.ones(m, dtype=complex)
    phases[1] = np.exp(0.5j * -np.pi)
    d = DisentangledForm(
        V=np.diag(phases),
        alpha=np.zeros(m, complex),
        r=np.array([np.arcsinh(1.0)] * 2 + [0.0] * (m - 2)),
    )
    engine = metrology.qfi(d, gen).qfi
    dev_closed = abs(closed - form) / form
    dev_engine = abs(engine - closed) / closed

    def hg_builder(ns, g, dg):
        sig = 1.0 / (np.sqrt(2.0) * dg)
        gen_b = generator.hg_generator(generator.HGParams(center_p=g, sigma_z=sig), 6)
        ph = np.ones(6, dtype=complex)
        ph[1] = np.exp(0.5j * -np.pi)
        state = DisentangledForm(
            V=np.diag(ph),
            alpha=np.zeros(6, complex),
            r=np.array([np.arcsinh(np.sqrt(ns / 2.0))] * 2 + [0.0] * 4),
        )
        return state, gen_b

    coeffs = metrology.optimality_coefficients(
        hg_builder, ResourceTriple(n_signal=10.0, g_mean=1.0, g_var=1.0)
    )
    dev_coeff = max(abs(coeffs[0] - 4.0), abs(coeffs[1] - 2.0))
    ok = dev_closed <= 1e-9 and dev_engine <= 1e-9 and dev_coeff <= 1e-4
    assert _report(
        10,
        ok,
        f"value {closed:.6g} matches form and engine (dev {max(dev_closed, dev_engine):.2e}); "
        f"coefficients fit ({coeffs[0]:.6f}, {coeffs[1]:.6f}) vs (4, 2)",
    )


def test_criterion_11_regularized_scenarios():
    n_signal = 1e5
    sigma = 1.0
    reg_deficit = 1.0 / (4.0 * sigma**2)
    # variance-optimal weighting (equal squeezing, equal offsets)
    r_eq = np.arcsinh(np.sqrt(n_signal / 2.0))
    pair_v = RegularizedModePair(
        center_z=(0.0, 0.0), center_p=(9.0, 1.0), sigma_z=sigma, r=(r_eq, r_eq)
    )
    state_v, gen_v, res_v = scenarios.build_regularized_probe(
        ScenarioConfig(kind="time_shift", pair=pair_v, n_signal=n_signal)
    )
    qfi_v = metrology.qfi(state_v, gen_v).qfi
    closed_v = 4.0 * n_signal**2 * (res_v.g_mean**2 + res_v.g_var - reg_deficit)
    dev_v = abs(qfi_v - closed_v) / qfi_v
    # fully optimal weighting
    p0, delta = 4.0, 3.0
    q = p0 / np.hypot(p0, delta)
    si2, sj2 = 0.5 * n_signal * (1.0 - q), 0.5 * n_signal * (1.0 + q)
    pair_o = RegularizedModePair(
        center_z=(0.0, 0.0),
        center_p=(p0 + delta * np.sqrt(si2 / sj2), p0 - delta * np.sqrt(sj2 / si2)),
        sigma_z=sigma,
        r=(np.arcsinh(np.sqrt(sj2)), np.arcsinh(np.sqrt(si2))),
    )
    state_o, gen_o, res_o = scenarios.build_regularized_probe(
        ScenarioConfig(kind="time_shift", pair=pair_o, n_signal=n_signal)
    )
    qfi_o = metrology.qfi(state_o, gen_o).qfi
    closed_o = (8.0 * p0**2 + 4.0 * (res_o.g_var - reg_deficit)) * n_signal**2
    dev_o = abs(qfi_o - closed_o) / qfi_o
    # direct detection on the mean-shifted variance-optimal probe
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        direct = measurement.direct_detection_fi(state_v, gen_v)
    target = 4.0 * (res_v.g_var - reg_deficit) * n_signal**2
    dev_d = abs(direct - target) / target
    deficit_visible = reg_deficit / res_v.g_var > 100.0 * 1e-4
    ok = dev_v <= 1e-4 and dev_o <= 1e-4 and dev_d <= 1e-4 and deficit_visible
    assert _report(
        11,
        ok,
        "regularized closed forms (variance-opt dev "
        f"{dev_v:.2e}, optimal dev {dev_o:.2e}) and counting recovers the "
        f"spread term (dev {dev_d:.2e}), incl. the 1/(4 sigma^2) deficit",
    )


def test_criterion_12_counting_condition():
    grid = DiscretizationGrid(z_min=-9.0, z_max=9.0, n_bins=480)
    shifts = [0.0, 0.13, -0.21, 0.55]
    sym = RegularizedModePair(
        center_z=(0.2, 0.2), center_p=(4.0, -4.0), sigma_z=1.0,
        theta=(0.3, 0.3), r=(0.6, 0.6),
    )
    worst_sym, ok_sym = measurement.counting_condition_check(sym, grid, shifts)
    split = RegularizedModePair(
        center_z=(0.8, -0.8), center_p=(4.0, -4.0), sigma_z=1.0,
        theta=(0.3, 0.3), r=(0.6, 0.6),
    )
    worst_split, ok_split = measurement.counting_condition_check(split, grid, shifts)
    ok = ok_sym and worst_sym < 1e-6 and not ok_split
    assert _report(
        12,
        ok,
        f"matched family max |d arg/d shift| {worst_sym:.2e} (< 1e-6); "
        f"split centers give {worst_split:.2e} (violated)",
    )
