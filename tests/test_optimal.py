import weakref

import numpy as np
import pytest

from gaussmet import generator, metrology, optimal
from gaussmet.errors import InputError
from gaussmet.generator import HGParams, hg_generator


def _diag_gen(values):
    return generator.from_matrix(np.diag(np.asarray(values, float)).astype(complex))


def test_optimal_zero_mean_target():
    gen = _diag_gen([-1.0, 1.0])
    spec = optimal.ProbeSpec(kind="optimal", n_signal=2.0, target_gmean=0.0, target_gvar=1.0)
    result = optimal.build_probe(spec, gen)
    assert result.eigen_residual < 1e-12
    assert np.allclose(np.sinh(result.state.r) ** 2, [1.0, 1.0])
    assert result.predicted_qfi == pytest.approx(32.0, rel=1e-12)
    assert metrology.qfi(result.state, gen).qfi == pytest.approx(32.0, rel=1e-9)


def test_optimal_worked_case_saturates_bound():
    gen = _diag_gen([-np.sqrt(2.0), np.sqrt(2.0), 7.0])
    spec = optimal.ProbeSpec(kind="optimal", n_signal=2.0, target_gmean=1.0, target_gvar=1.0)
    result = optimal.build_probe(spec, gen)
    assert result.eigen_residual < 1e-12
    assert result.predicted_qfi == pytest.approx(80.0, rel=1e-9)
    engine = metrology.qfi(result.state, gen)
    assert engine.qfi == pytest.approx(80.0, rel=1e-9)
    assert abs(engine.qfi - engine.bound) <= 1e-9 * engine.bound


def test_mean_optimal_defaults_to_largest_eigenvalue():
    gen = _diag_gen([2.0])
    result = optimal.build_probe(optimal.ProbeSpec(kind="mean_optimal", n_signal=1.0), gen)
    # exact single-mode value 8 g^2 N (N + 1), as the Fock oracle and the
    # Gaussian-moment derivation 4 Var(G) both give
    assert result.predicted_qfi == pytest.approx(64.0, rel=1e-12)
    assert metrology.qfi(result.state, gen).qfi == pytest.approx(64.0, rel=1e-9)
    assert result.achieved.g_var == pytest.approx(0.0, abs=1e-12)


def test_mean_optimal_arbitrary_mode_closed_form():
    rng = np.random.default_rng(23)
    gen = _diag_gen([0.5, 1.5, 3.0])
    for _ in range(20):
        vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        spec = optimal.ProbeSpec(kind="mean_optimal", n_signal=2.5, mode_vector=vec)
        result = optimal.build_probe(spec, gen)
        res = result.achieved
        closed = (
            8.0 * res.g_mean**2 * res.n_signal * (res.n_signal + 1.0)
            + 4.0 * res.g_var * res.n_signal
        )
        engine = metrology.qfi(result.state, gen).qfi
        assert engine == pytest.approx(closed, rel=1e-9)
        assert result.predicted_qfi == pytest.approx(engine, rel=1e-9)


def test_all_probes_match_engine_prediction():
    gen = _diag_gen([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0, 3.0])
    specs = [
        optimal.ProbeSpec(kind="optimal", n_signal=3.0, target_gmean=0.5, target_gvar=1.2),
        optimal.ProbeSpec(kind="variance_optimal", n_signal=3.0, target_gmean=0.5, target_gvar=2.25),
        optimal.ProbeSpec(kind="mean_optimal", n_signal=3.0),
        optimal.ProbeSpec(kind="idler_assisted", n_signal=3.0, target_gmean=0.5, target_gvar=1.2),
    ]
    for spec in specs:
        result = optimal.build_probe(spec, gen)
        engine = metrology.qfi(result.state, gen).qfi
        assert engine == pytest.approx(result.predicted_qfi, rel=1e-9), spec.kind
        assert result.achieved.n_signal == pytest.approx(spec.n_signal, rel=1e-9)


def test_bound_saturation_random_targets():
    rng = np.random.default_rng(90)
    for _ in range(50):
        gbar = rng.uniform(-2.0, 2.0)
        dg = rng.uniform(0.1, 2.0)
        ns = rng.uniform(0.5, 30.0)
        q = gbar / np.hypot(gbar, dg)
        si2, sj2 = 0.5 * ns * (1.0 - q), 0.5 * ns * (1.0 + q)
        gen = _diag_gen(
            [gbar - dg * np.sqrt(sj2 / si2), gbar + dg * np.sqrt(si2 / sj2)]
        )
        spec = optimal.ProbeSpec(
            kind="optimal", n_signal=ns, target_gmean=gbar, target_gvar=dg**2
        )
        result = optimal.build_probe(spec, gen)
        assert result.eigen_residual < 1e-9
        rep = metrology.qfi(result.state, gen)
        assert abs(rep.qfi - rep.bound) <= 1e-9 * rep.bound


def test_variance_optimal_closed_form():
    gen = _diag_gen([-1.5, 0.5, 2.5])
    spec = optimal.ProbeSpec(
        kind="variance_optimal", n_signal=4.0, target_gmean=0.5, target_gvar=4.0
    )
    result = optimal.build_probe(spec, gen)
    res = result.achieved
    closed = (
        4.0 * (res.g_mean**2 + res.g_var) * res.n_signal**2
        + 8.0 * (res.g_mean**2 + res.g_var) * res.n_signal
    )
    assert metrology.qfi(result.state, gen).qfi == pytest.approx(closed, rel=1e-9)


def test_squeeze_angle_invariance():
    gen = _diag_gen([-1.0, 1.0])
    rng = np.random.default_rng(3)
    base = optimal.build_probe(
        optimal.ProbeSpec(kind="optimal", n_signal=2.0, target_gmean=0.0, target_gvar=1.0),
        gen,
    )
    base_qfi = metrology.qfi(base.state, gen).qfi
    for _ in range(10):
        angles = tuple(rng.uniform(-np.pi, np.pi, 2))
        for kind in ("optimal", "variance_optimal"):
            spec = optimal.ProbeSpec(
                kind=kind,
                n_signal=2.0,
                target_gmean=0.0,
                target_gvar=1.0,
                squeeze_angles=angles,
            )
            result = optimal.build_probe(spec, gen)
            assert metrology.qfi(result.state, gen).qfi == pytest.approx(
                base_qfi, rel=1e-9
            )


def test_optimal_degenerates_to_mean_optimal_at_zero_spread():
    gen = _diag_gen([1.0, 2.0])
    result = optimal.build_probe(
        optimal.ProbeSpec(kind="optimal", n_signal=1.5, target_gmean=2.0, target_gvar=0.0),
        gen,
    )
    # single-mode probe on the largest-|g| eigenmode
    assert np.count_nonzero(result.state.r > 0) == 1
    assert result.achieved.g_mean == pytest.approx(2.0)


def test_spectrum_unreachable():
    gen = _diag_gen([5.0, 9.0])
    spec = optimal.ProbeSpec(
        kind="optimal",
        n_signal=2.0,
        target_gmean=0.0,
        target_gvar=1.0,
        spectrum_tol=1e-3,
    )
    with pytest.raises(InputError, match="exceeds tolerance"):
        optimal.build_probe(spec, gen)


def test_derivative_displaced_requires_structure():
    bad = generator.from_matrix(np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(InputError, match="diagonal generator entries of the pair differ"):
        optimal.build_probe(
            optimal.ProbeSpec(kind="derivative_displaced", n_signal=2.0), bad
        )
    coupled = generator.from_matrix(
        np.array(
            [[1.0, 0.2j, 0.3], [-0.2j, 1.0, 0.0], [0.3, 0.0, 1.0]], dtype=complex
        )
    )
    with pytest.raises(InputError, match="couples outside the chosen pair"):
        optimal.build_probe(
            optimal.ProbeSpec(kind="derivative_displaced", n_signal=2.0), coupled
        )
    single = generator.from_matrix(np.array([[2.0 + 0j]]))
    with pytest.raises(InputError, match="mode indices"):
        optimal.build_probe(optimal.ProbeSpec(kind="derivative_displaced", n_signal=2.0), single)


def test_derivative_displaced_on_hg_generator():
    gen = hg_generator(HGParams(center_p=1.2, sigma_z=0.8), 5)
    result = optimal.build_probe(
        optimal.ProbeSpec(kind="derivative_displaced", n_signal=6.0), gen
    )
    engine = metrology.qfi(result.state, gen).qfi
    assert engine == pytest.approx(result.predicted_qfi, rel=1e-9)
    assert result.achieved.n_signal == pytest.approx(6.0, rel=1e-9)
    assert result.achieved.g_mean == pytest.approx(1.2, rel=1e-9)


def test_idler_assisted_matches_idlerless_structure():
    gen_idler = _diag_gen([-1.0, 1.0, 0.0, 0.0])
    gen_plain = _diag_gen([-1.0, 1.0])
    spec = optimal.ProbeSpec(
        kind="idler_assisted", n_signal=2.0, target_gmean=0.0, target_gvar=1.0
    )
    with_idlers = optimal.build_probe(spec, gen_idler)
    plain = optimal.build_probe(
        optimal.ProbeSpec(kind="optimal", n_signal=2.0, target_gmean=0.0, target_gvar=1.0),
        gen_plain,
    )
    qfi_idler = metrology.qfi(with_idlers.state, gen_idler).qfi
    qfi_plain = metrology.qfi(plain.state, gen_plain).qfi
    assert qfi_idler == pytest.approx(qfi_plain, rel=1e-9)
    for field in ("n_signal", "g_mean", "g_var"):
        assert getattr(with_idlers.achieved, field) == pytest.approx(
            getattr(plain.achieved, field), abs=1e-9
        )
    # the idler pairing is genuine: four modes carry squeezing
    assert np.count_nonzero(with_idlers.state.r > 0) == 4


def test_idler_assisted_needs_idlers():
    gen = _diag_gen([-1.0, 1.0])
    with pytest.raises(InputError, match="fewer than two idler modes"):
        optimal.build_probe(
            optimal.ProbeSpec(
                kind="idler_assisted", n_signal=2.0, target_gmean=0.0, target_gvar=1.0
            ),
            gen,
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gbar", [0.5, -0.5])
def test_idler_assisted_rejects_zero_spread(gbar):
    # at zero spread the two-mode split has an empty arm; the optimal kind
    # falls back to mean-optimal there, the idler-assisted kind has no limit
    spec = optimal.ProbeSpec(
        kind="idler_assisted", n_signal=2.0, target_gmean=gbar, target_gvar=0.0,
        spectrum_tol=1e-3,
    )
    with pytest.raises(InputError, match="target_gvar"):
        optimal.build_probe(spec, _diag_gen([-1.0, 1.0, 0.0, 0.0]))


def test_mean_optimal_invariance_under_mode_shaping():
    # states with identical resources but different shaping unitaries share a QFI
    rng = np.random.default_rng(101)
    gen = _diag_gen([1.0, 3.0])
    vec = np.array([1.0, 1.0], complex) / np.sqrt(2.0)
    base = optimal.build_probe(
        optimal.ProbeSpec(kind="mean_optimal", n_signal=2.0, mode_vector=vec), gen
    )
    base_qfi = metrology.qfi(base.state, gen).qfi
    for _ in range(10):
        # same mode vector up to phase, random completion of the unitary
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        res = optimal.build_probe(
            optimal.ProbeSpec(kind="mean_optimal", n_signal=2.0, mode_vector=vec * phase),
            gen,
        )
        assert metrology.qfi(res.state, gen).qfi == pytest.approx(base_qfi, rel=1e-9)


def test_idler_assisted_explicit_modes_match_automatic():
    # eigenvalues ascend as (-1, 0, 0, 1): the automatic choice pairs
    # signal 0 with idler 1 and signal 3 with idler 2
    gen = _diag_gen([-1.0, 1.0, 0.0, 0.0])
    auto = optimal.ProbeSpec(
        kind="idler_assisted", n_signal=3.0, target_gmean=0.0, target_gvar=1.0,
        squeeze_angles=(0.4, 1.1),
    )
    explicit = optimal.ProbeSpec(
        kind="idler_assisted", n_signal=3.0, target_gmean=0.0, target_gvar=1.0,
        squeeze_angles=(0.4, 1.1), mode_choice=(0, 1, 3, 2),
    )
    a, b = optimal.build_probe(auto, gen), optimal.build_probe(explicit, gen)
    assert np.array_equal(a.state.V, b.state.V)
    assert np.array_equal(a.state.r, b.state.r)
    assert np.array_equal(a.state.alpha, b.state.alpha)
    assert a.predicted_qfi == b.predicted_qfi
    assert a.eigen_residual == b.eigen_residual == 0.0
    assert metrology.qfi(b.state, gen).qfi == pytest.approx(b.predicted_qfi, rel=1e-9)


@pytest.mark.parametrize(
    "kind, modes",
    [
        ("optimal", (0, 0)),
        ("variance_optimal", (0, 4)),
        ("optimal", (0, 1, 2)),
        ("mean_optimal", (0, 1)),
        ("mean_optimal", (-1,)),
        ("derivative_displaced", (1,)),
        ("idler_assisted", (0, 1)),
        ("idler_assisted", (0, 1, 3, 1)),
    ],
)
def test_mode_choice_checked_against_kind(kind, modes):
    gen = _diag_gen([-1.0, 1.0, 0.0, 0.0])
    spec = optimal.ProbeSpec(
        kind=kind, n_signal=2.0, target_gmean=0.5, target_gvar=1.0, mode_choice=modes
    )
    with pytest.raises(InputError, match="mode indices"):
        optimal.build_probe(spec, gen)


@pytest.mark.parametrize("angles", [(0.3,), (0.3, 0.4, 9.0), (float("nan"), 0.0), (0.0, float("inf"))])
def test_probe_spec_rejects_bad_squeeze_angles(angles):
    with pytest.raises(InputError, match="squeeze_angles"):
        optimal.ProbeSpec(kind="optimal", n_signal=2.0, squeeze_angles=angles)


@pytest.mark.parametrize("kind", optimal.PROBE_KINDS)
@pytest.mark.parametrize("modes", [None, "explicit"])
def test_build_probe_photon_number_axis_is_the_stack_of_scalar_builds(kind, modes):
    # a dense 5-mode generator with two idlers; every kind, auto-matched or on explicit modes. The
    # derivative-displaced kind needs a coupled pair of basis modes with equal diagonal entries instead
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    g = (q * np.array([-1.5, 0.0, 0.7, 0.0, 2.0])) @ q.conj().T
    choice = {"mean_optimal": (3,), "idler_assisted": (0, 1, 4, 3)}.get(kind, (0, 2)) if modes else None
    if kind == "derivative_displaced":
        i, j = choice or (0, 1)
        g = np.diag([2.0, -1.0, 0.5, 3.0, 0.0]).astype(complex)
        g[i, i] = g[j, j] = 0.4
        g[i, j], g[j, i] = 1.1j, -1.1j
    gen = generator.from_matrix(g)
    ns = np.array([1e-12, 0.3, 2.0, 2.0, 50.0])
    kw = dict(kind=kind, target_gmean=0.4, target_gvar=1.2, squeeze_angles=(0.3, -1.1), mode_choice=choice)
    stacked = optimal.build_probe(optimal.ProbeSpec(n_signal=ns, **kw), gen)
    alone = [optimal.build_probe(optimal.ProbeSpec(n_signal=float(n), **kw), gen) for n in ns]
    for name in ("V", "alpha", "r"):
        assert getattr(stacked.state, name).tobytes() == np.stack([getattr(a.state, name) for a in alone]).tobytes()
    assert np.array_equal(np.broadcast_to(stacked.eigen_residual, ns.shape), [a.eigen_residual for a in alone])


@pytest.mark.parametrize("ns", [[1.0, float("nan")], [1.0, float("inf")], [True, False], ["1", "2"], [[1.0], [-2.0]]])
def test_probe_spec_checks_every_photon_number_of_an_axis(ns):
    with pytest.raises(InputError, match="n_signal"):
        optimal.ProbeSpec(kind="optimal", n_signal=np.array(ns) if ns != ["1", "2"] else ns)


def test_build_probe_result_holds_no_reference_to_the_generator():
    gen = _diag_gen([0.0, 1.0, 3.0])
    ref = weakref.ref(gen)
    spec = optimal.ProbeSpec(kind="optimal", n_signal=2.0, target_gmean=1.5, target_gvar=1.0)
    result = optimal.build_probe(spec, gen)
    generator.signal_projector(gen)  # the cached projector must not keep it alive either
    del gen
    assert ref() is None
    assert result.predicted_qfi > 0.0 and result.achieved.n_signal == pytest.approx(2.0)
