"""Validation, error-path, and determinism edges across the package."""

import ast
import dataclasses
import importlib.util
import json
import pathlib
import re
import sys
import warnings

import numpy as np
import pytest

import gaussmet
from gaussmet import (
    cli, focksim, generator, jsonio, matkernel, measurement, metrology, optimal, regmodes, scenarios, verify,
)
from gaussmet.errors import GaussmetWarning, InputError
from gaussmet.gaussian import DisentangledForm
from gaussmet.generator import DiscretizationGrid
from gaussmet.measurement import HomodyneSetup


def test_hermitian_eig_1x1():
    eig = matkernel.hermitian_eig(np.array([[2.5]], dtype=complex))
    assert eig.eigvals[0] == pytest.approx(2.5)
    assert abs(eig.U[0, 0]) == pytest.approx(1.0)


def test_takagi_degenerate_block_with_phase():
    theta = 0.9
    f = np.exp(1j * theta) * np.array([[0.0, 0.4], [0.4, 0.0]], dtype=complex)
    tak = matkernel.takagi(f)
    assert np.allclose(tak.r, [0.4, 0.4])
    recon = tak.V @ np.diag(tak.r).astype(complex) @ tak.V.T
    assert matkernel.max_norm(f - recon) < 1e-12
    assert matkernel.max_norm(tak.V.conj().T @ tak.V - np.eye(2)) < 1e-12


def test_unitary_exp_rejects_non_hermitian():
    with pytest.raises(InputError, match="deviates from Hermitian"):
        matkernel.unitary_exp(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 1.0)


def test_shift_generator_rejects_unknown_domain():
    grid = DiscretizationGrid(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        generator.shift_generator(grid, "sideways_shift")


def test_hg_generator_rejects_tiny_basis():
    with pytest.raises(InputError):
        generator.hg_generator(generator.HGParams(), 1)


def test_nearest_match_tie_breaks_to_smaller_index():
    gen = generator.from_matrix(np.diag([-1.0, 1.0, 3.0]).astype(complex))
    spec = optimal.ProbeSpec(
        kind="variance_optimal", n_signal=2.0, target_gmean=0.0, target_gvar=0.0
    )
    # both required eigenvalues are 0: nearest are -1 and +1, the smaller
    # index first, the second pick skipping the taken slot
    result = optimal.build_probe(spec, gen)
    populated = np.nonzero(result.state.r > 0)[0]
    assert list(populated) == [0, 1]


def test_probe_spec_validation():
    with pytest.raises(ValueError):
        optimal.ProbeSpec(kind="fancy", n_signal=1.0)
    with pytest.raises(ValueError):
        optimal.ProbeSpec(kind="optimal", n_signal=0.0)
    with pytest.raises(ValueError):
        optimal.ProbeSpec(kind="optimal", n_signal=1.0, target_gvar=-1.0)
    gen = generator.from_matrix(np.diag([-1.0, 1.0]).astype(complex))
    with pytest.raises(ValueError):
        optimal.build_probe(
            optimal.ProbeSpec(
                kind="variance_optimal", n_signal=1.0, target_gvar=1.0, mode_choice=(1, 1)
            ),
            gen,
        )


def test_homodyne_setup_validation():
    with pytest.raises(ValueError):
        HomodyneSetup(mode_indices=(0,), eta=0.0)
    with pytest.raises(ValueError):
        HomodyneSetup(mode_indices=(0,), sigma_env_sq=0.5)
    with pytest.raises(ValueError):
        HomodyneSetup(mode_indices=(0, 1), phases=(0.1,))
    with pytest.raises(ValueError):
        HomodyneSetup(mode_indices=(0,), phases="automatic")


_NAN, _INF = float("nan"), float("inf")
_PAIR = {"center_z": (0.0, 0.0), "center_p": (8.0, 2.0), "sigma_z": 1.0}


@pytest.mark.parametrize(
    "build",
    [
        lambda: HomodyneSetup(mode_indices=(0,), sigma_env_sq=_NAN),
        lambda: HomodyneSetup(mode_indices=(0,), sigma_env_sq=_INF),
        lambda: HomodyneSetup(mode_indices=(0,), true_param=_NAN),
        lambda: HomodyneSetup(mode_indices=(0,), phases=(_INF,)),
        lambda: measurement.sigma_env_from_thermal(_INF, 0.5),
        lambda: measurement.sigma_env_from_thermal(-0.5, 0.5),
        lambda: measurement.sigma_env_from_thermal(_NAN, 1.0),
        lambda: optimal.ProbeSpec(kind="optimal", n_signal=_INF),
        lambda: optimal.ProbeSpec(kind="optimal", n_signal=2.0, target_gmean=-_INF),
        lambda: optimal.ProbeSpec(kind="optimal", n_signal=2.0, target_gvar=_NAN),
        lambda: optimal.ProbeSpec(kind="optimal", n_signal=2.0, spectrum_tol=_NAN),
        lambda: regmodes.RegularizedModePair(**{**_PAIR, "sigma_z": _INF}),
        lambda: regmodes.RegularizedModePair(**_PAIR, theta=(0.0, _NAN)),
        lambda: regmodes.RegularizedModePair(**_PAIR, r=(_NAN, 1.0)),
        lambda: regmodes.RegularizedModePair(**{**_PAIR, "center_p": (_INF, 2.0)}),
        lambda: scenarios.ScenarioConfig("time_shift", regmodes.RegularizedModePair(**_PAIR), n_signal=_INF),
        lambda: scenarios.ScenarioConfig(
            "time_shift", regmodes.RegularizedModePair(**_PAIR), 8.0, sweep={"eta": ["0.5"]}
        ),
        lambda: scenarios.ScenarioConfig(
            "time_shift", regmodes.RegularizedModePair(**_PAIR), 8.0, sweep={"n_signal": [2.0, _INF]}
        ),
    ],
    ids=[
        "env-nan", "env-inf", "lambda-nan", "phase-inf", "thermal-inf", "thermal-negative",
        "thermal-nan-at-eta-1", "ns-inf", "gmean-inf", "gvar-nan", "spectrum-tol-nan",
        "sigma-inf", "theta-nan", "r-nan", "center-p-inf", "scenario-ns-inf", "sweep-string",
        "sweep-inf",
    ],
)
def test_non_finite_scalars_rejected_where_they_enter(build):
    with pytest.raises(InputError):
        build()


def test_scenario_sweep_accepts_numpy_floats():
    cfg = scenarios.ScenarioConfig(
        "time_shift",
        regmodes.RegularizedModePair(**_PAIR),
        8.0,
        sweep={"n_signal": [np.float64(4.0), 8], "eta": (np.float64(0.5), 1.0)},
    )
    rows = scenarios.run_scenario(cfg)
    assert len(rows) == len(scenarios.TABLE_KINDS) * 2 * 2
    # the spectrum tolerance defaults to +inf, which stays valid
    assert optimal.ProbeSpec(kind="optimal", n_signal=2.0).spectrum_tol == np.inf


@pytest.mark.parametrize(
    "build, defect",
    [
        (lambda: regmodes.RegularizedModePair(**_PAIR, r=(1, 2, 3)), "r must hold exactly two numbers"),
        (lambda: regmodes.RegularizedModePair(**{**_PAIR, "center_z": "12"}), "center_z must hold exactly two"),
        (lambda: regmodes.RegularizedModePair(**{**_PAIR, "center_p": 8.0}), "center_p must hold exactly two"),
        (lambda: regmodes.RegularizedModePair(**_PAIR, theta={"a": 0, "b": 1}), "theta must hold exactly two"),
        (lambda: regmodes.RegularizedModePair(**_PAIR, theta=(0.0, "1")), "theta[1] must be a finite number"),
        (lambda: regmodes.RegularizedModePair(**{**_PAIR, "sigma_z": True}), "sigma_z must be a finite number"),
        (lambda: regmodes.RegularizedModePair(**{**_PAIR, "sigma_z": 0.0}), "sigma_z must be positive"),
        (lambda: regmodes.RegularizedModePair(**_PAIR, r=(0.5, -1e-3)), "squeezing strengths must be nonnegative"),
        (lambda: optimal.ProbeSpec(kind="optimal", n_signal=True), "n_signal must be a finite number, got True"),
        (lambda: optimal.ProbeSpec(kind="optimal", n_signal=2.0, squeeze_angles=(False, 0.0)), "squeeze_angles[0]"),
        (lambda: HomodyneSetup(mode_indices=(0,), eta=True), "eta must be a finite number, got True"),
        (lambda: HomodyneSetup(mode_indices=(0,), eta="0.5"), "eta must be a finite number"),
        (lambda: HomodyneSetup(mode_indices=(0,), eta=float("nan")), "eta must be a finite number"),
        (lambda: scenarios.ScenarioConfig("time_shift", regmodes.RegularizedModePair(**_PAIR), n_signal="4"),
         "n_signal must be a finite number"),
        (lambda: scenarios.ScenarioConfig("time_shift", regmodes.RegularizedModePair(**_PAIR), n_signal=0.0),
         "n_signal and every sweep n_signal entry must be positive"),
        (lambda: scenarios.ScenarioConfig("time_shift", regmodes.RegularizedModePair(**_PAIR), 8.0,
                                          physical_scale=False), "physical_scale must be a finite number"),
        (lambda: scenarios.ScenarioConfig("time_shift", regmodes.RegularizedModePair(**_PAIR), 8.0,
                                          sweep={"n_signal": [4.0, -5.0]}), "must be positive"),
        (lambda: scenarios.ScenarioConfig("time_shift", regmodes.RegularizedModePair(**_PAIR), 8.0,
                                          sweep={"eta": [1.0, True]}), "sweep eta entry 1 must be a finite number"),
    ],
    ids=[
        "pair-r-three", "pair-center-z-string", "pair-center-p-scalar", "pair-theta-dict", "pair-theta-string-entry",
        "pair-sigma-bool", "pair-sigma-zero", "pair-r-negative", "probe-ns-bool",
        "probe-angle-bool", "homodyne-eta-bool", "homodyne-eta-string", "homodyne-eta-nan", "scenario-ns-string",
        "scenario-ns-zero", "scenario-scale-bool", "scenario-sweep-ns-negative", "scenario-sweep-eta-bool",
    ],
)
def test_constructors_apply_one_number_rule(build, defect):
    # booleans, strings and pairs of the wrong length fail where the dataclass is built
    with pytest.raises(InputError) as info:
        build()
    assert defect in str(info.value)


def test_constructors_store_floats():
    pair = regmodes.RegularizedModePair(center_z=[0, 1], center_p=np.array([8, 2]), sigma_z=1, r=(1, 0))
    cfg = scenarios.ScenarioConfig("time_shift", pair, n_signal=4, physical_scale=np.float64(2))
    stored = (*pair.center_z, *pair.center_p, pair.sigma_z, *pair.theta, *pair.r, cfg.n_signal, cfg.physical_scale)
    assert [type(v) for v in stored] == [float] * len(stored)
    assert (pair.center_z, pair.center_p, pair.r) == ((0.0, 1.0), (8.0, 2.0), (1.0, 0.0))


@pytest.mark.parametrize(
    "build, defect",
    [
        (lambda: DisentangledForm(V=np.eye(2, 3, dtype=complex), alpha=np.zeros(2), r=np.zeros(2)), "V must be square"),
        (lambda: DisentangledForm(V=np.eye(2, dtype=complex), alpha=np.zeros(3), r=np.zeros(2)), "alpha and r"),
        (lambda: DisentangledForm(V=np.eye(2, dtype=complex), alpha=np.zeros(2), r=np.zeros(1)), "alpha and r"),
        (
            lambda: optimal.build_probe(
                optimal.ProbeSpec(kind="mean_optimal", n_signal=2.0, mode_vector=np.ones(3, complex)),
                generator.from_matrix(np.diag([1.0, 2.0]).astype(complex)),
            ),
            "mode_vector must have length n_modes",
        ),
    ],
    ids=["non-square-V", "alpha-length", "r-length", "mode-vector-length"],
)
def test_shape_errors_outside_the_cli(build, defect):
    with pytest.raises(InputError, match=defect):
        build()


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        focksim.OracleConfig(cutoff=0)
    with pytest.raises(ValueError):
        focksim.OracleConfig(cutoff=4, tail_tol=0.0)
    with pytest.raises(ValueError):
        focksim.OracleConfig(cutoff=4, fd_step=0.0)


def test_fock_qfi_dimension_mismatch():
    gen = generator.from_matrix(np.diag([1.0, 2.0]).astype(complex))
    d = DisentangledForm(V=np.eye(1, dtype=complex), alpha=np.zeros(1, complex), r=np.zeros(1))
    psi = focksim.fock_build(d, focksim.OracleConfig(cutoff=4))
    with pytest.raises(InputError, match="generator has 2 modes but state has 1"):
        focksim.fock_qfi(psi, gen)


def test_counting_richardson_warns_on_coarse_step():
    g_vals = np.array([-1.0, 1.0])
    cfg = focksim.OracleConfig(cutoff=16, tail_tol=1e-10, fd_step=0.5)
    base = focksim.fock_build(
        DisentangledForm(
            V=np.eye(2, dtype=complex),
            alpha=np.zeros(2, complex),
            r=np.full(2, np.arcsinh(0.2)),
        ),
        cfg,
    )
    counts = np.indices(base.amplitudes.shape).reshape(2, -1)
    phase_vals = (g_vals @ counts).reshape(base.amplitudes.shape)

    def builder(lam):
        return focksim.FockStateVector(
            2, base.cutoff, base.amplitudes * np.exp(-1j * lam * phase_vals), base.norm_deficit
        )

    dg = g_vals[1] - g_vals[0]
    zs = 0.2 + np.arange(2) * 2.0 * np.pi / (2 * dg)
    rot = np.exp(1j * np.outer(zs, g_vals)) / np.sqrt(2.0)
    with pytest.warns(GaussmetWarning, match="difference step"):
        focksim.fock_counting_fi(builder, rot, 0.3, cfg)
    fine = focksim.OracleConfig(cutoff=16, tail_tol=1e-10, fd_step=1e-5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        focksim.fock_counting_fi(builder, rot, 0.3, fine)


def test_schmidt_pair_rejects_bad_overlap():
    with pytest.raises(ValueError):
        scenarios.schmidt_pair(0.5, 0.5, 1.5)


def test_lemma2_dimension_mismatch():
    with pytest.raises(InputError, match="equal shape"):
        metrology.lemma2_gap(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


def test_homodyne_dimension_mismatch():
    gen = generator.from_matrix(np.diag([1.0, 2.0, 3.0]).astype(complex))
    d = DisentangledForm(V=np.eye(2, dtype=complex), alpha=np.zeros(2, complex), r=np.full(2, 0.3))
    with pytest.raises(InputError, match="state has 2 modes but generator has 3"):
        measurement.homodyne_fi(d, gen, HomodyneSetup(mode_indices=(0, 1)))


def test_jsonio_rejects_bad_generator():
    with pytest.raises(InputError):
        jsonio.generator_from_dict({"signal_tol": 1e-12})
    with pytest.raises(InputError):
        jsonio.generator_from_dict({"G": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]})


def test_jsonio_rejects_ragged_and_non_numeric():
    with pytest.raises(InputError):
        jsonio.state_from_dict(
            {"n_modes": 2, "beta": [[0, 0], [0, 0]], "f": [[[0, 0]], [[0, 0], [0, 0]]]}
        )
    with pytest.raises(InputError):
        jsonio.state_from_dict(
            {"n_modes": 1, "beta": [["x", 0]], "f": [[[0, 0]]]}
        )


def test_scenario_csv_byte_identical(tmp_path):
    config = {
        "pair": {
            "center_z": [0.0, 0.0],
            "center_p": [8.0, 2.0],
            "sigma_z": 1.0,
            "r": [1.4436354751788103, 1.4436354751788103],
        },
        "n_signal": 8.0,
        "sweep": {"n_signal": [8.0], "eta": [1.0]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert cli.run(
            ["scenario", "--kind", "time-shift", "--config", str(cfg_path), "--out", str(out)]
        ) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_suite_reproducible():
    report1 = verify.suite_bound(trials=10, seed=4)
    report2 = verify.suite_bound(trials=10, seed=4)
    assert report1.summary == report2.summary


@pytest.mark.parametrize("suite", [verify.suite_bound, verify.suite_oracle, verify.suite_lemma2])
def test_verify_suites_reject_trial_count_below_one(suite):
    with pytest.raises(InputError):
        suite(0, 1)


@pytest.mark.parametrize("suite", verify.SUITES)
def test_verify_suites_reject_negative_seed(suite):
    with pytest.raises(InputError, match="seed must be non-negative"):
        verify.run_suites([suite], 2, -5)


def test_verify_oracle_counts_over_tail_trial_as_failed(monkeypatch):
    # cutoff 1 leaves more than tail_tol outside N <= cutoff for every draw
    monkeypatch.setattr(verify, "_oracle_cutoff", lambda m: 1)
    report = verify.suite_oracle(trials=3, seed=777)
    assert report.passed is False
    assert "3 trial(s) failed with a Fock tail above tail_tol" in report.summary
    assert "first trial 0 (seed 777)" in report.summary


def test_verify_oracle_names_worst_trial_and_largest_deficit(monkeypatch):
    build, oracle_qfi = focksim.fock_build, focksim.fock_qfi
    calls = []

    def build_with_deficit(d, cfg):
        psi = build(d, cfg)
        deficits = {0: 2e-13, 1: 5e-13, 2: 5e-13, 3: 1e-13}
        return dataclasses.replace(psi, norm_deficit=deficits[len(calls)])

    def qfi_off_at_trial_2(psi, gen):
        calls.append(None)
        value = oracle_qfi(psi, gen)
        return value * (1.0 + 1e-3) if len(calls) == 3 else value

    monkeypatch.setattr(focksim, "fock_build", build_with_deficit)
    monkeypatch.setattr(focksim, "fock_qfi", qfi_off_at_trial_2)
    report = verify.suite_oracle(trials=4, seed=777)
    assert report.passed is False
    assert "max relative engine/oracle deviation 1.000e-03" in report.summary
    assert "at trial 2 (seed 779)" in report.summary
    assert "largest norm_deficit 5.000e-13 at trial 1 (seed 778)" in report.summary


def test_resources_negative_variance_clamp():
    gen = generator.from_matrix(np.diag([2.0]).astype(complex))
    d = DisentangledForm(
        V=np.eye(1, dtype=complex), alpha=np.array([1.0 + 0j]), r=np.zeros(1)
    )
    res = metrology.resources(d, gen)
    # single eigenmode: spread is exactly zero, never negative
    assert res.g_var == 0.0


def test_direct_detection_on_coherent_probe():
    gen = generator.from_matrix(np.diag([1.0, 3.0]).astype(complex))
    d = DisentangledForm(
        V=np.eye(2, dtype=complex), alpha=np.array([1.0, 1.0], complex), r=np.zeros(2)
    )
    fi = measurement.direct_detection_fi(d, gen, condition_verified=True)
    res = metrology.resources(d, gen)
    # mean-removed coherent probe keeps only the spread share
    assert fi == pytest.approx(4.0 * res.g_var * res.n_signal, rel=1e-12)


def test_generator_json_round_trip(tmp_path):
    gen = generator.from_matrix(
        np.array([[2.0, 0.25j], [-0.25j, -1.0]], dtype=complex), signal_tol=1e-10
    )
    path = tmp_path / "gen.json"
    jsonio.dump_json(jsonio.generator_to_dict(gen), str(path))
    loaded = jsonio.generator_from_dict(jsonio.load_json(str(path)))
    assert np.array_equal(loaded.G, gen.G)
    assert loaded.signal_tol == gen.signal_tol


def test_src_raises_only_package_errors():
    # every error the package raises is a GaussmetError; InputError also
    # subclasses ValueError, so callers catching ValueError still work
    # an error class of its own must be told apart by some except clause;
    # otherwise it is an InputError with a message
    bare, caught = [], set()
    for path in sorted(pathlib.Path(gaussmet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                    bare.append(f"{path.name}:{node.lineno} raises {exc.id}")
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                for name in ast.walk(node.type):
                    if isinstance(name, (ast.Name, ast.Attribute)):
                        caught.add(name.id if isinstance(name, ast.Name) else name.attr)
    assert bare == []
    defined = {
        name for name, obj in vars(gaussmet.errors).items()
        if isinstance(obj, type) and issubclass(obj, Exception) and not issubclass(obj, Warning)
    }
    assert defined - caught - {"GaussmetError", "InputError"} == set()



def test_declared_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(gaussmet.__file__).parent
    with open(root.parent.parent / "pyproject.toml", "rb") as handle:
        declared = {re.match(r"[\w.-]+", dep).group() for dep in tomllib.load(handle)["project"]["dependencies"]}
    imported = set()
    for path in root.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"gaussmet"} == declared == {"numpy", "orjson"}


def test_every_name_the_benchmark_traces_exists():
    # the benchmark's tracer rebinds gaussmet.<layer>.<name> for each name in its LAYERS; a deleted name
    # would fail only when the benchmark runs
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{name}" for layer, names in tracer.LAYERS.items() for name in names
               if not callable(getattr(importlib.import_module(f"gaussmet.{layer}"), name, None))]
    assert missing == []

@pytest.mark.parametrize("value", [10**400, -(10**400), 10**5000], ids=["1e400", "-1e400", "1e5000"])
def test_huge_integers_raise_input_error(value):
    # math.isfinite overflows on them, and repr refuses ints past 4300 digits, so no message may print one
    pair = dict(center_z=(0.0, 0.0), center_p=(8.0, 2.0), sigma_z=1.0)
    makers = [
        lambda: optimal.ProbeSpec(kind="optimal", n_signal=value),
        lambda: regmodes.RegularizedModePair(**{**pair, "sigma_z": value}),
        lambda: scenarios.ScenarioConfig(kind="time_shift", pair=regmodes.RegularizedModePair(**pair), n_signal=value),
    ]
    for make in makers:
        with pytest.raises(InputError, match="too large for a float") as info:
            make()
        assert len(str(info.value)) < 200


@pytest.mark.parametrize("trials", [10**17, 2**62, 10**19])
@pytest.mark.parametrize("suite", [verify.suite_bound, verify.suite_lemma2, verify.suite_oracle])
def test_verify_rejects_trial_counts_past_memory(suite, trials):
    # per-trial arrays beyond the 47-bit address space, so the test allocates nothing
    with pytest.raises(InputError, match=f"cannot allocate {trials} trial results"):
        suite(trials, 0)
