import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussmet import cli, jsonio, measurement, verify
from gaussmet.gaussian import disentangle

_HUGE = "1" + "0" * 400  # an integer too large for a float


@pytest.fixture
def fixture_paths(tmp_path):
    r = float(np.arcsinh(1.0))
    state = {
        "n_modes": 2,
        "beta": [[0.0, 0.0], [0.0, 0.0]],
        "f": [[[r, 0.0], [0.0, 0.0]], [[0.0, 0.0], [r, 0.0]]],
        "basis_label": "b",
    }
    gen = {"G": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [3.0, 0.0]]], "signal_tol": 1e-12}
    state_path = tmp_path / "state.json"
    gen_path = tmp_path / "gen.json"
    state_path.write_text(json.dumps(state))
    gen_path.write_text(json.dumps(gen))
    return str(state_path), str(gen_path), tmp_path


def test_qfi_fixture_values(fixture_paths, capsys):
    state_path, gen_path, _ = fixture_paths
    assert cli.run(["qfi", "--state", state_path, "--generator", gen_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["qfi"] == pytest.approx(160.0)
    assert payload["bound"] == pytest.approx(224.0)
    assert payload["bound_satisfied"] is True


def test_qfi_writes_file(fixture_paths, capsys):
    state_path, gen_path, tmp_path = fixture_paths
    out = tmp_path / "report.json"
    assert cli.run(["qfi", "--state", state_path, "--generator", gen_path, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["qfi"] == pytest.approx(160.0)


def test_missing_file_exit_3(fixture_paths, capsys):
    _, gen_path, _ = fixture_paths
    assert cli.run(["qfi", "--state", "/does/not/exist.json", "--generator", gen_path]) == 3
    assert "error" in capsys.readouterr().err


def test_malformed_json_exit_3_no_partial_output(fixture_paths, capsys):
    _, gen_path, tmp_path = fixture_paths
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "never.json"
    assert cli.run(["qfi", "--state", str(bad), "--generator", gen_path, "--out", str(out)]) == 3
    assert not out.exists()


def test_unknown_flag_exit_2(fixture_paths, capsys):
    state_path, gen_path, _ = fixture_paths
    assert (
        cli.run(["qfi", "--state", state_path, "--generator", gen_path, "--frobnicate"]) == 2
    )


def test_build_state_roundtrip(fixture_paths, capsys, tmp_path):
    _, gen_path, _ = fixture_paths
    gen2 = {"G": [[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    gen2_path = tmp_path / "gpm.json"
    gen2_path.write_text(json.dumps(gen2))
    out = tmp_path / "probe.json"
    rc = cli.run(
        [
            "build-state", "--kind", "variance-optimal", "--ns", "2",
            "--gbar", "0", "--dg", "1",
            "--generator", str(gen2_path), "--out", str(out),
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["achieved"]["n_signal"] == pytest.approx(2.0)
    assert summary["predicted_qfi"] == pytest.approx(32.0)
    assert out.exists()
    # the emitted state evaluates to the same QFI through the qfi command
    assert cli.run(["qfi", "--state", str(out), "--generator", str(gen2_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["qfi"] == pytest.approx(32.0)


def test_homodyne_command(fixture_paths, capsys):
    state_path, gen_path, _ = fixture_paths
    rc = cli.run(
        ["homodyne", "--state", state_path, "--generator", gen_path, "--lambda", "0.2"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fi"] == pytest.approx(160.0)


def test_homodyne_with_samples_and_csv(fixture_paths, capsys, tmp_path):
    state_path, gen_path, _ = fixture_paths
    prefix = str(tmp_path / "samples")
    rc = cli.run(
        [
            "homodyne", "--state", state_path, "--generator", gen_path,
            "--samples", "20000", "--seed", "3", "--samples-out", prefix,
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["empirical_fi"] == pytest.approx(payload["fi"], rel=0.15)
    for mode in (0, 1):
        data = np.loadtxt(f"{prefix}_mode{mode}.csv")
        assert data.shape == (20000,)


@pytest.mark.parametrize("extra", [[], ["--samples", "0"]], ids=["no-samples", "zero-samples"])
def test_homodyne_samples_out_needs_samples(tmp_path, capsys, extra):
    # a usage error, raised before the (missing) input files are read
    missing = str(tmp_path / "missing.json")
    argv = ["homodyne", "--state", missing, "--generator", missing, "--samples-out", str(tmp_path / "smp"), *extra]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:") and "--samples" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_homodyne_samples_csv_full_precision(fixture_paths, capsys, tmp_path):
    state_path, gen_path, _ = fixture_paths
    prefix = str(tmp_path / "fp")
    rc = cli.run(["homodyne", "--state", state_path, "--generator", gen_path,
                  "--samples", "50", "--seed", "4", "--samples-out", prefix, "--full-precision"])
    assert rc == 0, capsys.readouterr().err
    d = disentangle(jsonio.state_from_dict(jsonio.load_json(state_path)))
    gen = jsonio.generator_from_dict(jsonio.load_json(gen_path))
    rows = measurement.sample_homodyne(d, gen, measurement.HomodyneSetup(mode_indices=(0, 1)), 50, 4)
    for mode, row in enumerate(rows):
        text = (tmp_path / f"fp_mode{mode}.csv").read_text()
        assert text == "".join("%.17g\n" % x for x in row)
        assert [float(x) for x in text.split()] == row.tolist()  # 17 digits read back exactly


def test_homodyne_draws_samples_once(fixture_paths, capsys, tmp_path, monkeypatch):
    # the empirical FI and the --samples-out CSVs come from one draw and one
    # report evaluation; the draw itself evaluates homodyne_fi once more
    state_path, gen_path, _ = fixture_paths
    calls = {"homodyne_fi": 0, "sample_homodyne": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(measurement, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(measurement, name, counted)
    prefix = str(tmp_path / "draw")
    rc = cli.run(["homodyne", "--state", state_path, "--generator", gen_path,
                  "--samples", "3000", "--seed", "4", "--samples-out", prefix])
    assert rc == 0, capsys.readouterr().err
    assert calls == {"homodyne_fi": 2, "sample_homodyne": 1}
    monkeypatch.undo()
    payload = json.loads(capsys.readouterr().out)
    d = disentangle(jsonio.state_from_dict(jsonio.load_json(state_path)))
    gen = jsonio.generator_from_dict(jsonio.load_json(gen_path))
    setup = measurement.HomodyneSetup(mode_indices=(0, 1))
    expected = measurement.empirical_fi(d, gen, setup, 3000, 4)
    assert payload["empirical_fi"] == jsonio.round_floats(expected, 12)
    rows = measurement.sample_homodyne(d, gen, setup, 3000, 4)
    for mode, row in enumerate(rows):
        text = (tmp_path / f"draw_mode{mode}.csv").read_text()
        assert text == "".join("%.12g\n" % x for x in row)


@pytest.mark.parametrize("precision", [[], ["--full-precision"]])
def test_homodyne_samples_without_csv_print_the_api_estimate(fixture_paths, capsys, tmp_path, monkeypatch, precision):
    # without --samples-out the rows are drawn and scored one at a time, and
    # sample_homodyne's whole array is never made
    state_path, gen_path, _ = fixture_paths
    calls = {"homodyne_fi": 0, "sample_homodyne": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(measurement, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(measurement, name, counted)
    rc = cli.run(["homodyne", "--state", state_path, "--generator", gen_path,
                  "--samples", "3000", "--seed", "4", *precision])
    assert rc == 0, capsys.readouterr().err
    assert calls == {"homodyne_fi": 2, "sample_homodyne": 0}
    monkeypatch.undo()
    payload = json.loads(capsys.readouterr().out)
    d = disentangle(jsonio.state_from_dict(jsonio.load_json(state_path)))
    gen = jsonio.generator_from_dict(jsonio.load_json(gen_path))
    expected = measurement.empirical_fi(d, gen, measurement.HomodyneSetup(mode_indices=(0, 1)), 3000, 4)
    assert payload["empirical_fi"] == jsonio.round_floats(expected, 17 if precision else 12)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.json", "state.json"]  # no CSV


def test_homodyne_writes_finite_fi_at_high_squeezing(tmp_path, capsys):
    # at r = 10, cosh^2 20 - sinh^2 20 cancels to 0 in floating point
    state = {
        "n_modes": 2,
        "beta": [[0.0, 0.0], [0.0, 0.0]],
        "f": [[[10.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [10.0, 0.0]]],
    }
    gen = {"G": [[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    (tmp_path / "state.json").write_text(json.dumps(state))
    (tmp_path / "gen.json").write_text(json.dumps(gen))
    out = tmp_path / "hom.json"
    rc = cli.run(["homodyne", "--state", str(tmp_path / "state.json"), "--generator",
                  str(tmp_path / "gen.json"), "--samples", "1000", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert np.isfinite(payload["fi"]) and np.isfinite(payload["empirical_fi"])
    assert payload["fi"] == pytest.approx(4.0 * np.sinh(20.0) ** 2, rel=1e-11)
    assert all(v > 0.0 for v in payload["variances"])


def test_scenario_command(tmp_path, capsys):
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
    out = tmp_path / "table.csv"
    rc = cli.run(["scenario", "--kind", "time-shift", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "probe_kind", "n_signal", "g_mean", "g_sd", "eta",
        "qfi", "bound", "homodyne_fi", "direct_fi",
    ]
    assert len(lines) == 1 + 5


def test_verify_command_exit_codes(capsys):
    assert cli.run(["verify", "--suite", "lemma2", "--trials", "50", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "PASS lemma2" in out
    assert "min gap" in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_trial_count_below_one(trials, capsys):
    assert cli.run(["verify", "--suite", "bound", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert "usage error" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("seed", ["-5", "-1"])
def test_verify_rejects_negative_seed(seed, capsys):
    assert cli.run(["verify", "--suite", "bound", "--trials", "2", "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: argument --seed")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "command, extra, code",
    [
        ("homodyne", ["--eta", "0"], 3),
        ("build-state", ["--kind", "optimal", "--ns", "-1"], 3),
        ("build-state", ["--kind", "optimal", "--ns", "2", "--angles", "x"], 2),
        ("homodyne", ["--phases", "a,b"], 2),
        ("homodyne", ["--modes", "0,x"], 2),
        ("build-state", ["--kind", "optimal", "--ns", "2", "--modes", "0,0"], 3),
        ("build-state", ["--kind", "optimal", "--ns", "2", "--modes", "7,8"], 3),
        ("build-state", ["--kind", "idler", "--ns", "2", "--modes", "0,1"], 3),
        ("build-state", ["--kind", "mean-optimal", "--ns", "2", "--modes", "5"], 3),
        ("homodyne", ["--modes", "5"], 3),
        ("homodyne", ["--modes", "-1"], 3),
        ("homodyne", ["--samples", "10", "--seed", "-1"], 2),
        ("homodyne", ["--samples", "-1"], 2),
        ("homodyne", ["--samples", "10", "--seed", "x"], 2),
        ("homodyne", ["--phases", "nan,nan"], 3),
        ("homodyne", ["--eta", "0.5", "--nb", "nan"], 3),
        ("homodyne", ["--lambda", "inf"], 3),
        ("build-state", ["--kind", "optimal", "--ns", "2", "--dg", "inf"], 3),
        ("build-state", ["--kind", "optimal", "--ns", "2", "--gbar", "nan", "--dg", "1"], 3),
        ("build-state", ["--kind", "optimal", "--ns", "2", "--gbar", "2", "--dg", "1", "--spectrum-tol", "nan"], 3),
    ],
)
def test_bad_input_exit_code_without_traceback(fixture_paths, capsys, command, extra, code):
    state_path, gen_path, tmp_path = fixture_paths
    out = tmp_path / "never.json"
    files = {"homodyne": ["--state", state_path], "build-state": ["--out", str(out)]}[command]
    assert cli.run([command, "--generator", gen_path] + files + extra) == code
    captured = capsys.readouterr()
    assert ("usage error" if code == 2 else "error:") in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "which, field, value",
    [("state", "n_modes", "x"), ("generator", "signal_tol", "abc"), ("generator", "signal_tol", None)],
)
def test_bad_input_file_field_exit_3(fixture_paths, capsys, which, field, value):
    state_path, gen_path, _ = fixture_paths
    path = {"state": state_path, "generator": gen_path}[which]
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    obj[field] = value
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
    assert cli.run(["qfi", "--state", state_path, "--generator", gen_path]) == 3
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("field", ["n_signal", "sigma_z"])
def test_scenario_huge_integer_exit_3(tmp_path, capsys, field):
    pair = '{"center_z": [0.0, 0.0], "center_p": [8.0, 2.0], "sigma_z": %s}'
    text = '{"pair": %s, "n_signal": %s}' % (
        pair % (_HUGE if field == "sigma_z" else "1.0"), _HUGE if field == "n_signal" else "8.0"
    )
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "never.csv"
    cfg_path.write_text(text)
    argv = ["scenario", "--kind", "time-shift", "--config", str(cfg_path), "--out", str(out)]
    assert cli.run(argv) == 3
    assert "too large" in capsys.readouterr().err
    assert not out.exists()


def test_scenario_bad_sweep_eta_exit_3(tmp_path, capsys):
    config = {
        "pair": {"center_z": [0.0, 0.0], "center_p": [8.0, 2.0], "sigma_z": 1.0},
        "n_signal": 8.0,
        "sweep": {"eta": [1.5]},
    }
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "never.csv"
    cfg_path.write_text(json.dumps(config))
    argv = ["scenario", "--kind", "time-shift", "--config", str(cfg_path), "--out", str(out)]
    assert cli.run(argv) == 3
    assert "eta" in capsys.readouterr().err
    assert not out.exists()


def test_determinism_byte_identical(fixture_paths, capsys):
    state_path, gen_path, _ = fixture_paths
    argv = [
        "homodyne", "--state", state_path, "--generator", gen_path,
        "--samples", "5000", "--seed", "11",
    ]
    assert cli.run(argv) == 0
    first = capsys.readouterr().out
    assert cli.run(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_full_precision_flag(fixture_paths, capsys):
    state_path, gen_path, _ = fixture_paths
    assert cli.run(["qfi", "--state", state_path, "--generator", gen_path]) == 0
    short = capsys.readouterr().out
    assert cli.run(
        ["qfi", "--state", state_path, "--generator", gen_path, "--full-precision"]
    ) == 0
    long = capsys.readouterr().out
    # 12 significant digits round the squeezing-derived values visibly
    assert json.loads(short)["qfi"] == pytest.approx(json.loads(long)["qfi"], rel=1e-11)


def test_build_state_all_kinds(tmp_path, capsys):
    gen_idler = {
        "G": [
            [[-1.0, 0], [0, 0], [0, 0], [0, 0]],
            [[0, 0], [1.0, 0], [0, 0], [0, 0]],
            [[0, 0], [0, 0], [0.0, 0], [0, 0]],
            [[0, 0], [0, 0], [0, 0], [0.0, 0]],
        ]
    }
    gen_hg = {
        "G": [
            [[1.2, 0], [0.0, 0.5]],
            [[0.0, -0.5], [1.2, 0]],
        ]
    }
    gen_idler_path = tmp_path / "gi.json"
    gen_hg_path = tmp_path / "gh.json"
    gen_idler_path.write_text(json.dumps(gen_idler))
    gen_hg_path.write_text(json.dumps(gen_hg))
    cases = [
        ("optimal", str(gen_idler_path), ["--gbar", "0", "--dg", "1"]),
        ("variance-optimal", str(gen_idler_path), ["--gbar", "0", "--dg", "1"]),
        ("mean-optimal", str(gen_idler_path), []),
        ("derivative", str(gen_hg_path), []),
        ("idler", str(gen_idler_path), ["--gbar", "0", "--dg", "1"]),
    ]
    for kind, gen_path, extra in cases:
        out = tmp_path / f"{kind}.json"
        rc = cli.run(
            ["build-state", "--kind", kind, "--ns", "2", "--generator", gen_path,
             "--out", str(out)] + extra
        )
        assert rc == 0, kind
        summary = json.loads(capsys.readouterr().out)
        assert summary["achieved"]["n_signal"] == pytest.approx(2.0)
        assert out.exists()
        # round-trip: the emitted state reproduces the predicted QFI
        rc = cli.run(["qfi", "--state", str(out), "--generator", gen_path])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["qfi"] == pytest.approx(summary["predicted_qfi"], rel=1e-9)


def test_build_state_angles_and_modes_flags(tmp_path, capsys):
    gen = {"G": [[[-1.0, 0], [0, 0]], [[0, 0], [1.0, 0]]]}
    gen_path = tmp_path / "g.json"
    gen_path.write_text(json.dumps(gen))
    out = tmp_path / "probe.json"
    rc = cli.run(
        ["build-state", "--kind", "optimal", "--ns", "2", "--gbar", "0", "--dg", "1",
         "--generator", str(gen_path), "--out", str(out),
         "--angles", "0.7,1.9", "--modes", "0,1"]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["predicted_qfi"] == pytest.approx(32.0)


def test_build_state_spectrum_tol_exit_3(tmp_path, capsys):
    gen = {"G": [[[5.0, 0], [0, 0]], [[0, 0], [9.0, 0]]]}
    gen_path = tmp_path / "g.json"
    gen_path.write_text(json.dumps(gen))
    rc = cli.run(
        ["build-state", "--kind", "optimal", "--ns", "2", "--gbar", "0", "--dg", "1",
         "--generator", str(gen_path), "--out", str(tmp_path / "o.json"),
         "--spectrum-tol", "1e-3"]
    )
    assert rc == 3


def test_homodyne_explicit_phases_and_modes(fixture_paths, capsys):
    state_path, gen_path, _ = fixture_paths
    rc = cli.run(
        ["homodyne", "--state", state_path, "--generator", gen_path,
         "--modes", "0", "--phases", "0.0", "--lambda", "0.0"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    # variance-modulation stationary point: zero Fisher information
    assert payload["fi"] == pytest.approx(0.0, abs=1e-12)
    assert payload["variances"][0] == pytest.approx((2.0 * np.sqrt(2.0) + 3.0) / 2.0)


def test_scenario_beam_tilt_with_scale(tmp_path, capsys):
    config = {
        "pair": {
            "center_z": [6.0, -6.0],
            "center_p": [0.0, 0.0],
            "sigma_z": 1.0,
            "r": [1.4436354751788103, 1.4436354751788103],
        },
        "n_signal": 8.0,
        "physical_scale": 2.5,
        "sweep": {"n_signal": [8.0], "eta": [1.0]},
    }
    cfg_path = tmp_path / "tilt.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "tilt.csv"
    rc = cli.run(["scenario", "--kind", "beam-tilt", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    # targets scale with omega/c: centers at +-6 -> gbar = 0, spread scaled
    assert float(row["g_mean"]) == pytest.approx(0.0, abs=1e-9)
    assert float(row["g_sd"]) == pytest.approx(2.5 * np.sqrt(36.0 + 1.0), rel=1e-9)


def test_build_state_idler_zero_spread_exit_3(tmp_path, capsys):
    gen = {"G": [[[float(g * (i == j)), 0.0] for j in range(4)] for i, g in enumerate((-1, 1, 0, 0))]}
    gen_path = tmp_path / "g.json"
    gen_path.write_text(json.dumps(gen))
    out = tmp_path / "never.json"
    for gbar in ("0.5", "-0.5"):
        rc = cli.run(
            ["build-state", "--kind", "idler", "--ns", "2", "--gbar", gbar, "--dg", "0",
             "--spectrum-tol", "1e-3", "--generator", str(gen_path), "--out", str(out)]
        )
        assert rc == 3
        assert "target_gvar" in capsys.readouterr().err
    assert not out.exists()


def _fail_replace(src, dst):
    raise OSError("replace refused")


def _assert_untouched(directory, names, old):
    assert sorted(p.name for p in directory.iterdir()) == sorted(names)
    for name in names:
        if name in old:
            assert (directory / name).read_text() == old[name]


def test_dump_json_failure_keeps_old_file(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    out.write_text("old\n")
    monkeypatch.setattr(os, "replace", _fail_replace)
    with pytest.raises(OSError, match="replace refused"):
        jsonio.dump_json({"qfi": 1.0}, str(out))
    _assert_untouched(tmp_path, ["report.json"], {"report.json": "old\n"})


@pytest.mark.parametrize("command", ["build-state", "qfi"])
@pytest.mark.parametrize("target", ["nodir/x.json", "adir"])
def test_write_error_names_out_path(fixture_paths, capsys, command, target):
    state_path, gen_path, tmp_path = fixture_paths
    (tmp_path / "adir").mkdir()
    out = str(tmp_path / target)
    extra = (["--kind", "optimal", "--ns", "2", "--gbar", "2", "--dg", "1"] if command == "build-state"
             else ["--state", state_path])
    assert cli.run([command, "--generator", gen_path, *extra, "--out", out]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out!r}: ") and ".tmp" not in captured.err
    assert captured.out == ""
    _assert_untouched(tmp_path, ["state.json", "gen.json", "adir"], {})
    assert not any((tmp_path / "adir").iterdir())


def test_scenario_csv_failure_keeps_old_file(tmp_path, monkeypatch, capsys):
    config = {
        "pair": {"center_z": [0.0, 0.0], "center_p": [8.0, 2.0], "sigma_z": 1.0, "r": [1.0, 1.0]},
        "n_signal": 8.0,
        "sweep": {"n_signal": [8.0], "eta": [1.0]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "table.csv"
    out.write_text("old table\n")
    monkeypatch.setattr(os, "replace", _fail_replace)
    argv = ["scenario", "--kind", "time-shift", "--config", str(cfg_path), "--out", str(out)]
    assert cli.run(argv) == 3
    assert "replace refused" in capsys.readouterr().err
    _assert_untouched(tmp_path, ["cfg.json", "table.csv"], {"table.csv": "old table\n"})


def test_homodyne_samples_csv_failure_keeps_old_file(fixture_paths, monkeypatch, capsys):
    state_path, gen_path, tmp_path = fixture_paths
    prefix = tmp_path / "samples"
    old = {"samples_mode0.csv": "old 0\n", "samples_mode1.csv": "old 1\n"}
    for name, text in old.items():
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(os, "replace", _fail_replace)
    argv = [
        "homodyne", "--state", state_path, "--generator", gen_path,
        "--samples", "100", "--seed", "3", "--samples-out", str(prefix),
    ]
    assert cli.run(argv) == 3
    assert "replace refused" in capsys.readouterr().err
    _assert_untouched(tmp_path, ["state.json", "gen.json", *old], old)


# Two-mode files that match the fixture, so that only the entries are wrong:
# a file with another mode count would exit 3 on the mismatch alone.
_ZERO_F = "[[[0, 0], [0, 0]], [[0, 0], [0, 0]]]"
_ZERO_BETA = "[[0, 0], [0, 0]]"


def _state(beta=_ZERO_BETA, f=_ZERO_F, n_modes="2"):
    return '{"n_modes": %s, "beta": %s, "f": %s}' % (n_modes, beta, f)


def _gen(g00="1", tail=""):
    return '{"G": [[[%s, 0], [0, 0]], [[0, 0], [3, 0]]]%s}' % (g00, tail)


# (state file, generator file, a fragment of the message that names the defect)
_BAD_INPUT_FILES = {
    "huge-int-beta": (_state(beta="[[%s, 0], [0, 0]]" % _HUGE), None, "beta: expected nested lists"),
    "huge-int-signal-tol": (None, _gen(tail=', "signal_tol": %s' % _HUGE), "int too large"),
    "huge-int-G": (None, _gen(g00=_HUGE), "G: expected nested lists"),
    "null-entry": (_state(beta="[[null, 0], [0, 0]]"), None, "beta: entries must be finite"),
    "nan-literal": (_state(f="[[[NaN, 0], [0, 0]], [[0, 0], [0, 0]]]"), None, "f: entries must be finite"),
    "infinity-literal": (None, _gen(g00="Infinity"), "G: entries must be finite"),
    "three-element-pair": (_state(beta="[[0, 0, 0], [0, 0, 0]]"), None, "beta: expected a non-empty array"),
    "scalar-matrix-entry": (_state(f="[[0, [0, 0]], [[0, 0], [0, 0]]]"), None, "f: expected nested lists"),
    "pair-matrix-entries": (_state(f="[[0, 0], [0, 0]]"), None, "f: expected a non-empty array"),
    "empty-f": (_state(f="[]"), None, "f: expected a non-empty array"),
    "empty-rows": (_state(f="[[], []]"), None, "f: expected a non-empty array"),
    "ragged-f": (_state(f="[[[0, 0]], [[0, 0], [0, 0]]]"), None, "f: expected nested lists"),
    "ragged-G": (None, '{"G": [[[1, 0], [0, 0]], [[0, 0]]]}', "G: expected nested lists"),
    "infinite-n-modes": (_state(n_modes="1e400"), None, "invalid state field"),
    "over-digit-limit": (_state(beta="[[%s, 0], [0, 0]]" % ("1" * 5000)), None, "malformed JSON"),
    "too-deep": ('{"n_modes": 2, "beta": %s, "f": ' % _ZERO_BETA + "[" * 100000, None, "malformed JSON"),
    "deep-beta": (_state(beta="[" * 2000 + "]" * 2000), None, "malformed JSON"),
    "byte-order-mark": ("\ufeff" + _state(), None, "Unexpected UTF-8 BOM"),
    "string-and-boolean-pair": (_state(beta='[["1.5", true], [0, 0]]'), None, "beta: entries must be numbers"),
    "numeric-string-G": (None, _gen(g00='"1"'), "G: entries must be numbers"),
    "all-boolean-f": (
        _state(f="[[[true, false], [false, false]], [[false, false], [true, false]]]"),
        None,
        "f: entries must be numbers",
    ),
    # a negative or NaN tolerance turns the zero eigenvalue into a signal mode; 2 or inf makes every mode an idler
    "negative-signal-tol": (None, _gen(g00="0", tail=', "signal_tol": -1'), "signal_tol must be"),
    "nan-signal-tol": (None, _gen(g00="0", tail=', "signal_tol": NaN'), "signal_tol must be"),
    "signal-tol-above-one": (None, _gen(tail=', "signal_tol": 2.0'), "signal_tol must be"),
    "infinite-signal-tol": (None, _gen(tail=', "signal_tol": 1e400'), "signal_tol must be"),
    "fractional-n-modes": (_state(n_modes="2.7"), None, "n_modes must be an integer"),
    "string-n-modes": (_state(n_modes='"2"'), None, "n_modes must be an integer"),
    "boolean-n-modes": (_state(n_modes="true"), None, "n_modes must be an integer"),
    "string-signal-tol": (None, _gen(tail=', "signal_tol": "0.5"'), "signal_tol must be a number"),
    "boolean-signal-tol": (None, _gen(tail=', "signal_tol": false'), "signal_tol must be a number"),
    "numeric-basis-label": (_state()[:-1] + ', "basis_label": 7}', None, "basis_label must be a string"),
    "missing-f": ('{"n_modes": 2, "beta": %s}' % _ZERO_BETA, None, "state file missing field: 'f'"),
    "n-modes-disagrees-with-beta": (_state(n_modes="3"), None, "invalid state: beta has shape (2,), expected (3,)"),
    "n-modes-disagrees-with-f": (
        _state(f="[[[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]"),
        None,
        "invalid state: f has shape (3, 3), expected (2, 2)",
    ),
    "top-level-array": ("[%s]" % _state(), None, "top-level JSON value must be an object"),
}


@pytest.mark.parametrize("state_text, gen_text, defect", list(_BAD_INPUT_FILES.values()), ids=list(_BAD_INPUT_FILES))
def test_bad_array_in_input_file_exit_3(fixture_paths, capsys, state_text, gen_text, defect):
    state_path, gen_path, _ = fixture_paths
    for path, text in ((state_path, state_text), (gen_path, gen_text)):
        if text is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
    assert cli.run(["qfi", "--state", state_path, "--generator", gen_path]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert defect in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("which", ["state", "generator"])
def test_non_utf8_input_file_exit_3(fixture_paths, capsys, which):
    state_path, gen_path, _ = fixture_paths
    path = {"state": state_path, "generator": gen_path}[which]
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data[:-1] + b', "note": "\xff"}')
    assert cli.run(["qfi", "--state", state_path, "--generator", gen_path]) == 3
    captured = capsys.readouterr()
    assert "utf-8" in captured.err and captured.out == ""


@pytest.mark.parametrize("suite", ["bound", "lemma2"])
def test_verify_summary_names_worst_trial(capsys, suite):
    assert cli.run(["verify", "--suite", suite, "--trials", "20", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    k = int(out.split(" at trial ")[1].split()[0])
    assert f" at trial {k} (seed {5 + k})" in out
    # the named trial alone reproduces the worst value
    (alone,) = verify.run_suites([suite], 1, 5 + k)
    assert alone.summary.split(" at trial ")[0] in out


def test_python_dash_m_runs_the_cli(fixture_paths, capsys):
    state_path, gen_path, _ = fixture_paths
    argv = ["qfi", "--state", state_path, "--generator", gen_path]
    assert cli.run(argv) == 0
    expected = capsys.readouterr().out
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "gaussmet", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected and proc.stderr == ""


def test_cli_import_loads_no_scipy():
    # numpy and orjson are the runtime dependencies, and orjson loads on the first file read, not at import;
    # scipy.linalg would more than double the start-up of every command, hashlib (with its OpenSSL binding)
    # adds about 6 ms that the temp-file names do not need, and the argument parser is built on the first run
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, gaussmet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'hashlib', '_hashlib', 'orjson')), "
            "gaussmet.cli._build_parser.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] 0\n"


def _random_dense_generator(tmp_path, m, seed):
    rng = np.random.default_rng(seed)
    w = verify.random_unitary(rng, m)
    g = (w * np.sort(rng.uniform(-2.0, 2.0, m))) @ w.conj().T
    path = tmp_path / f"dense{m}.json"
    path.write_text(json.dumps({"G": np.stack([g.real, g.imag], -1).tolist()}))
    return str(path)


@pytest.mark.parametrize(
    "kind, m",
    [("mean-optimal", 3), ("mean-optimal", 5), ("optimal", 5),
     ("variance-optimal", 2), ("variance-optimal", 3), ("variance-optimal", 5)],
)
def test_homodyne_runs_on_built_state(tmp_path, capsys, kind, m):
    # disentangling the built state leaves r ~ 1e-17 in its empty modes,
    # in an arbitrary basis; homodyne measures and checks only the squeezed ones
    gen_path = _random_dense_generator(tmp_path, m, seed=m)
    state_path = str(tmp_path / "probe.json")
    rc = cli.run(["build-state", "--kind", kind, "--ns", "2", "--gbar", "0.1", "--dg", "0.8",
                  "--generator", gen_path, "--out", state_path])
    assert rc == 0
    capsys.readouterr()
    assert cli.run(["qfi", "--state", state_path, "--generator", gen_path, "--full-precision"]) == 0
    qfi = json.loads(capsys.readouterr().out)["qfi"]
    rc = cli.run(["homodyne", "--state", state_path, "--generator", gen_path, "--full-precision"])
    assert rc == 0, capsys.readouterr().err
    # at eta = 1 homodyne of every squeezed eigenmode attains the QFI
    assert json.loads(capsys.readouterr().out)["fi"] == pytest.approx(qfi, rel=1e-14)


def test_build_state_optimal_falls_back_below_splitting_spread(tmp_path, capsys):
    # dg 1e-9 at gbar 1 cannot move q = gbar / hypot(gbar, dg) off 1, so
    # the optimal kind builds the mean-optimal probe, as at dg 0
    gen_path = _random_dense_generator(tmp_path, 3, seed=0)
    outs = {}
    for dg in ("0", "1e-9"):
        outs[dg] = tmp_path / f"dg{dg}.json"
        rc = cli.run(["build-state", "--kind", "optimal", "--ns", "2", "--gbar", "1", "--dg", dg,
                      "--generator", gen_path, "--out", str(outs[dg])])
        assert rc == 0, capsys.readouterr().err
    assert outs["1e-9"].read_bytes() == outs["0"].read_bytes()


def _overflow_files(tmp_path):
    """A one-mode state at r = 400, where sinh r overflows, with G = [[1]]."""
    (tmp_path / "r400.json").write_text(json.dumps({"n_modes": 1, "beta": [[0, 0]], "f": [[[400.0, 0]]]}))
    (tmp_path / "g1.json").write_text(json.dumps({"G": [[[1.0, 0.0]]]}))
    return ["--state", str(tmp_path / "r400.json"), "--generator", str(tmp_path / "g1.json")]


@pytest.mark.parametrize("command", ["qfi", "homodyne"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
def test_non_finite_report_exit_3(tmp_path, capsys, command, to_file):
    # the QFI is inf and the homodyne FI NaN; JSON can carry neither
    out = tmp_path / "never.json"
    argv = [command, *_overflow_files(tmp_path)] + (["--out", str(out)] if to_file else [])
    assert cli.run(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: the report holds") and "Traceback" not in captured.err
    assert "which JSON cannot represent" in captured.err
    assert captured.out == ""
    assert not out.exists()


_SCENARIO_PAIR = {"center_z": [0.0, 0.0], "center_p": [8.0, 2.0], "sigma_z": 1.0}

# (config overrides, a fragment of the message)
_BAD_SCENARIO_CONFIGS = {
    "sweep-eta-string": ({"sweep": {"eta": "ab"}}, "sweep takes non-empty lists n_signal and eta, got eta: 'ab'"),
    "sweep-eta-scalar": ({"sweep": {"eta": 5}}, "got eta: 5"),
    "sweep-n-signal-string": ({"sweep": {"n_signal": ["x"]}}, "sweep n_signal entry 0 must be a finite number, got 'x'"),
    "sweep-eta-null": ({"sweep": {"eta": [0.5, None]}}, "sweep eta entry 1 must be a finite number, got None"),
    "sweep-unknown-key": ({"sweep": {"etas": [0.5]}}, "got etas: [0.5]"),
    "sweep-n-signal-empty": ({"sweep": {"n_signal": []}}, "got n_signal: []"),
    "pair-nan-center": (
        {"pair": {**_SCENARIO_PAIR, "center_z": [float("nan"), 20.0]}},
        "centers, sigma_z, theta and r must be finite",
    ),
    "infinite-scale": ({"physical_scale": float("inf")}, "physical_scale must be a finite number, got inf"),
    # every number is checked where the config's dataclasses are built: strings, booleans and pairs of the
    # wrong length are not read as numbers
    "pair-center-z-string": ({"pair": {**_SCENARIO_PAIR, "center_z": "12"}}, "center_z must hold exactly two numbers"),
    "pair-center-p-three-entries": (
        {"pair": {**_SCENARIO_PAIR, "center_p": [8, 2, 99]}}, "center_p must hold exactly two numbers, got [8, 2, 99]"
    ),
    "pair-theta-string": ({"pair": {**_SCENARIO_PAIR, "theta": "00"}}, "theta must hold exactly two numbers, got '00'"),
    "pair-sigma-z-boolean": ({"pair": {**_SCENARIO_PAIR, "sigma_z": True}}, "sigma_z must be a finite number"),
    "n-signal-string": ({"n_signal": "4"}, "n_signal must be a finite number, got '4'"),
    "physical-scale-boolean": ({"physical_scale": True}, "physical_scale must be a finite number, got True"),
    "sweep-eta-boolean": ({"sweep": {"eta": [True]}}, "sweep eta entry 0 must be a finite number, got True"),
    "sweep-n-signal-negative": ({"sweep": {"n_signal": [-5]}}, "every sweep n_signal entry must be positive"),
    "pair-sigma-z-zero": ({"pair": {**_SCENARIO_PAIR, "sigma_z": 0}}, "sigma_z must be positive"),
    "pair-negative-r": ({"pair": {**_SCENARIO_PAIR, "r": [0.5, -0.1]}}, "squeezing strengths must be nonnegative"),
    "n-signal-zero": ({"n_signal": 0}, "n_signal and every sweep n_signal entry must be positive"),
    "sweep-list": ({"sweep": [["eta", [0.5]]]}, "sweep must map n_signal and eta to lists"),
    "sweep-empty-list": ({"sweep": []}, "sweep must map n_signal and eta to lists, got []"),
}


@pytest.mark.parametrize("overrides, defect", list(_BAD_SCENARIO_CONFIGS.values()), ids=list(_BAD_SCENARIO_CONFIGS))
def test_bad_scenario_config_exit_3(tmp_path, capsys, overrides, defect):
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "never.csv"
    cfg_path.write_text(json.dumps({"pair": _SCENARIO_PAIR, "n_signal": 8.0, **overrides}))
    argv = ["scenario", "--kind", "time-shift", "--config", str(cfg_path), "--out", str(out)]
    assert cli.run(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert defect in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("overrides", [o for o, _ in _BAD_SCENARIO_CONFIGS.values()], ids=list(_BAD_SCENARIO_CONFIGS))
def test_bad_scenario_config_prints_one_error_line_and_leaves_no_file(tmp_path, capsys, overrides):
    # a RuntimeWarning (an error in this suite) or a traceback would escape cli.run
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pair": _SCENARIO_PAIR, "n_signal": 8.0, **overrides}))
    argv = ["scenario", "--kind", "beam-tilt", "--config", str(cfg_path), "--out", str(tmp_path / "never.csv")]
    assert cli.run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["cfg.json"]


# a valid config with a two-entry sweep, and the values its fields are mutated to (_DROP removes the key)
_CONTRACT_CONFIG = {"pair": {**_SCENARIO_PAIR, "theta": [0.0, 0.0], "r": [0.5, 0.5]}, "n_signal": 8.0,
                    "physical_scale": 1.5, "sweep": {"n_signal": [2.0, 4.0], "eta": [1.0, 0.5]}}
_CONTRACT_FIELDS = [("pair", k) for k in ("center_z", "center_p", "sigma_z", "theta", "r")] + [
    ("n_signal",), ("physical_scale",), ("sweep", "n_signal"), ("sweep", "eta"), ("pair",), ("sweep",)]
_DROP = object()
_CONTRACT_VALUES = [float("nan"), float("inf"), -1, 0, 1e308, 10**400, True, None, "4", [], [1], [1, 2, 3],
                    {"a": 1}, _DROP]
_CSV_COLUMNS = ["probe_kind", "n_signal", "g_mean", "g_sd", "eta", "qfi", "bound", "homodyne_fi", "direct_fi"]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    kind=st.sampled_from(sorted(cli._SCENARIO_KINDS)),
    edits=st.lists(st.tuples(st.sampled_from(_CONTRACT_FIELDS), st.sampled_from(_CONTRACT_VALUES)),
                   min_size=1, max_size=2),
)
# tables past the float range: a Hermitian average, a numpy product and a float's ** overflow
@example(kind="beam-tilt", edits=[(("physical_scale",), 1e308)])
@example(kind="time-shift", edits=[(("sweep",), _DROP), (("n_signal",), 1e308)])
@example(kind="time-shift", edits=[(("physical_scale",), 1e200)])
def test_scenario_config_contract(kind, edits):
    # whatever a config's fields hold, scenario exits 0 with a whole table or 3 with one error line and no file
    cfg = json.loads(json.dumps(_CONTRACT_CONFIG))
    for path, value in edits:
        parent = cfg
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if isinstance(parent, dict):
            if value is _DROP:
                parent.pop(path[-1], None)
            else:
                parent[path[-1]] = copy.deepcopy(value)  # the pool's lists and dict stay as they are
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "cfg.json"), "w", encoding="utf-8") as handle:
            json.dump(cfg, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(["scenario", "--kind", kind, "--config", os.path.join(tmp, "cfg.json"),
                          "--out", os.path.join(tmp, "table.csv")])
        err = err.getvalue()
        assert rc in (0, 3) and "Traceback" not in err
        if rc == 3:
            assert err.startswith("error:") and err.count("\n") == 1 and out.getvalue() == ""
            assert os.listdir(tmp) == ["cfg.json"]
            return
        assert err == ""
        with open(os.path.join(tmp, "table.csv"), encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    sweep = cfg.get("sweep", {})
    rows = 5 * len(sweep.get("n_signal", [None])) * len(sweep.get("eta", [None]))
    assert lines[0].split(",") == _CSV_COLUMNS
    assert len(lines) == 1 + rows
    for line in lines[1:]:
        family, *cells = line.split(",")
        assert family in cli.scenarios.TABLE_KINDS and len(cells) == len(_CSV_COLUMNS) - 1
        # homodyne_fi is NaN where its formulas do not apply; every other cell is a finite number
        for name, cell in zip(_CSV_COLUMNS[1:], cells):
            assert np.isfinite(float(cell)) or name == "homodyne_fi" and cell == "nan"


# argv for the other four subcommands: a valid base, then up to three options set from a token pool. "@name"
# tokens are paths: an input file ("@state", "@gen", "@bad-<row>-state"/"-gen" from _BAD_INPUT_FILES), a
# directory, a missing path, or an output in a fresh directory. A count is small or too large to allocate:
# one in between would run for long.
_TOKENS = ["nan", "inf", "-1", "-5e-05", "0", "1e-310", "1e308", _HUGE, "", "x", "0.5", "2", ",".join(["1"] * 40)]
_COUNTS = ["1", "2", "0", "-1", "-5e-05", "1e308", _HUGE, "nan", "", "x"]
_FILES = ["@state", "@gen", "@dir", "@missing"] + sorted(
    f"@bad-{name}-{which}" for name, row in _BAD_INPUT_FILES.items() for which, text in zip(("state", "gen"), row)
    if text is not None)
_OUTS = ["@out/out.json", "@dir", "@missing"]
_CONTRACT_OPTIONS = {
    "qfi": {"--state": _FILES, "--generator": _FILES, "--out": _OUTS, "--full-precision": None},
    "build-state": {
        "--kind": sorted(cli._BUILD_KINDS) + ["x"], "--ns": _TOKENS, "--gbar": _TOKENS, "--dg": _TOKENS,
        "--generator": _FILES, "--out": _OUTS, "--angles": _TOKENS, "--modes": _TOKENS + ["0,1", "1,0"],
        "--spectrum-tol": _TOKENS, "--full-precision": None,
    },
    "homodyne": {
        "--state": _FILES, "--generator": _FILES, "--eta": _TOKENS, "--nb": _TOKENS,
        "--phases": _TOKENS + ["auto", "0,1", "nan,nan"], "--lambda": _TOKENS, "--modes": _TOKENS + ["0,1"],
        "--samples": _COUNTS, "--seed": _TOKENS, "--samples-out": ["@out/s", "@dir", "@missing"], "--out": _OUTS,
        "--full-precision": None,
    },
    "verify": {"--suite": [*verify.SUITES, "all", "x"], "--trials": _COUNTS, "--seed": _TOKENS},
}
_CONTRACT_BASE = {
    "qfi": {"--state": "@state", "--generator": "@gen"},
    "build-state": {"--kind": "optimal", "--ns": "2", "--gbar": "2", "--dg": "1", "--generator": "@gen",
                    "--out": "@out/out.json"},
    "homodyne": {"--state": "@state", "--generator": "@gen"},
    "verify": {"--suite": "bound", "--trials": "1"},
}


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    texts = {"state": _state(f="[[[%r, 0], [0, 0]], [[0, 0], [%r, 0]]]" % ((float(np.arcsinh(1.0)),) * 2)), "gen": _gen()}
    for name, row in _BAD_INPUT_FILES.items():
        texts.update({f"bad-{name}-{which}": text for which, text in zip(("state", "gen"), row) if text is not None})
    for name, text in texts.items():
        (root / f"{name}.json").write_text(text, encoding="utf-8")
    (root / "dir").mkdir()
    return root


@st.composite
def _contract_argv(draw):
    command = draw(st.sampled_from(sorted(_CONTRACT_OPTIONS)))
    options, argv = _CONTRACT_OPTIONS[command], dict(_CONTRACT_BASE[command])
    for option in draw(st.lists(st.sampled_from(sorted(options)), max_size=3)):
        argv[option] = options[option] and draw(st.sampled_from(options[option]))
    return [command] + [t for option, value in argv.items() for t in (option, value) if t is not None]


def _resolve(token, inputs, out_dir):
    """The path an "@name" token names; any other token as it is."""
    head, _, tail = token.partition("/")
    places = {"@out": out_dir, "@dir": str(inputs / "dir"), "@missing": str(inputs / "no" / "f")}
    if head in places:
        return os.path.join(places[head], tail) if tail else places[head]
    return str(inputs / f"{token[1:]}.json") if token.startswith("@") else token


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argv=_contract_argv())
# sample files written before a failed --out write are removed
@example(argv=["homodyne", "--state", "@state", "--generator", "@gen", "--samples", "2", "--samples-out", "@out/s",
               "--out", "@dir"])
@example(argv=["homodyne", "--state", "@state", "--generator", "@gen", "--samples", "1", "--samples-out", "@out/s",
               "--out", "@missing"])
def test_subcommand_contract(contract_inputs, argv):
    # qfi, build-state, homodyne and verify exit 0, 2, 3 or 4 with no traceback; a failed run writes nothing
    inputs = sorted(os.listdir(contract_inputs))
    with tempfile.TemporaryDirectory() as out_dir:
        resolved = [_resolve(token, contract_inputs, out_dir) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(resolved)
        out, err, written = out.getvalue(), err.getvalue(), sorted(os.listdir(out_dir))
        assert rc in (0, 2, 3, 4) and "Traceback" not in err, (resolved, rc, err)
        assert sorted(os.listdir(contract_inputs)) == inputs and not os.listdir(contract_inputs / "dir")
        if rc != 0:
            assert written == [], (resolved, rc, written)
            assert err.startswith({2: "usage error:", 3: "error:", 4: ""}[rc]), (resolved, err)
            return
        assert err == ""
        for name in written:
            with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
                text = handle.read()
            if name.endswith(".csv"):
                assert all(np.isfinite(float(line)) for line in text.splitlines())
            else:
                _strict_json(text)
    if argv[0] == "verify":
        assert all(line.startswith("PASS ") for line in out.splitlines())
    elif "--out" not in argv or argv[0] == "build-state":
        _strict_json(out)


@pytest.mark.parametrize("kind", ["time-shift", "frequency-shift", "beam-displacement", "beam-tilt"])
def test_scenario_tiny_sigma_z_exit_3(tmp_path, capsys, kind):
    # 1/(2 sigma_z) overflows below about 2.8e-309; the message names sigma_z, not G
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "never.csv"
    cfg_path.write_text(json.dumps({"pair": {**_SCENARIO_PAIR, "sigma_z": 1e-310}, "n_signal": 8.0}))
    assert cli.run(["scenario", "--kind", kind, "--config", str(cfg_path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: sigma_z") and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "scenario_golden")
with open(os.path.join(_GOLDEN, "cases.json"), encoding="utf-8") as _handle:
    _GOLDEN_CASES = json.load(_handle)


@pytest.mark.parametrize("case", _GOLDEN_CASES, ids=[case["name"] for case in _GOLDEN_CASES])
@pytest.mark.parametrize("digits", ["12", "17"])
def test_scenario_csv_matches_golden_bytes(case, digits, tmp_path, capsys):
    # the tables of all four kinds, with photon numbers from 1e-30 to 1e8, a repeated photon number and
    # a single (N, eta) cell, stay byte for byte what tests/data/scenario_golden holds, at both precisions
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "table.csv"
    cfg_path.write_text(json.dumps(case["config"]), encoding="utf-8")
    argv = ["scenario", "--kind", case["kind"], "--config", str(cfg_path), "--out", str(out)]
    assert cli.run(argv + ["--full-precision"] * (digits == "17")) == 0, capsys.readouterr().err
    with open(os.path.join(_GOLDEN, f"{case['name']}_{digits}.csv"), "rb") as handle:
        assert out.read_bytes() == handle.read()


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_prints_and_writes_strict_json(fixture_paths, capsys):
    # every stdout and file is standard JSON: no NaN, Infinity or -Infinity
    state_path, gen_path, tmp_path = fixture_paths
    overflow = _overflow_files(tmp_path)
    fixture = ["--state", state_path, "--generator", gen_path]
    commands = [
        ["qfi", *fixture],
        ["homodyne", *fixture, "--lambda", "0.2"],
        ["homodyne", *fixture, "--samples", "2000", "--seed", "3"],
        ["homodyne", *fixture, "--phases", "0.1,0.7", "--eta", "0.6", "--nb", "0.5"],
        ["qfi", *overflow],
        ["homodyne", *overflow],
        ["homodyne", *overflow, "--samples", "100"],
    ]
    for kind in ("optimal", "variance-optimal", "mean-optimal"):
        out = str(tmp_path / f"built-{kind}.json")
        commands.append(["build-state", "--kind", kind, "--ns", "2", "--gbar", "2", "--dg", "1",
                         "--generator", gen_path, "--out", out])
    for k, argv in enumerate(list(commands)):
        if argv[0] != "build-state":
            commands.append(argv + ["--out", str(tmp_path / f"report{k}.json"), "--full-precision"])
    for argv in commands:
        rc = cli.run(argv)
        captured = capsys.readouterr()
        # the r = 400 reports hold an overflow, so they exit 3 with no output
        assert rc == (3 if overflow[1] in argv else 0), (argv, captured.err)
        if captured.out:
            _strict_json(captured.out)
    written = sorted(tmp_path.glob("*.json"))
    assert len(written) > 10
    for path in written:
        _strict_json(path.read_text())


@pytest.mark.parametrize("value", ["-5.3e-05", "-1E+2", "-.5e1"])
def test_negative_exponent_option_value(tmp_path, capsys, value):
    # argparse's own pattern takes -5.3e-05 for an option; the value must
    # read the same whether it follows the option or an '='
    gen_path = _random_dense_generator(tmp_path, 3, seed=1)
    out = tmp_path / "probe.json"
    results = []
    for flag in (["--gbar", value], [f"--gbar={value}"]):
        rc = cli.run(["build-state", "--kind", "optimal", "--ns", "2", "--dg", "1",
                      "--generator", gen_path, "--out", str(out)] + flag)
        assert rc == 0, capsys.readouterr().err
        results.append((capsys.readouterr().out, out.read_bytes()))
    assert results[0] == results[1]


def test_negative_infinite_option_value_exit_3(tmp_path, capsys):
    gen_path = _random_dense_generator(tmp_path, 3, seed=1)
    out = tmp_path / "never.json"
    rc = cli.run(["build-state", "--kind", "optimal", "--ns", "2", "--gbar", "-inf",
                  "--generator", gen_path, "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == "error: target_gmean must be a finite number, got -inf\n"
    assert not out.exists()


def test_homodyne_negative_exponent_lambda(fixture_paths, capsys):
    state_path, gen_path, _ = fixture_paths
    outs = []
    for flag in (["--lambda", "-1e-3"], ["--lambda=-1e-3"]):
        assert cli.run(["homodyne", "--state", state_path, "--generator", gen_path] + flag) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "option, value",
    [("--phases", "-0.2,0.1"), ("--phases", "-2e-1,-1E-1"), ("--phases", "-inf,0.1"),
     ("--angles", "-0.3,0.2"), ("--angles", "-.3"), ("--angles", "-0.3,-inf")],
)
def test_negative_list_option_value(fixture_paths, capsys, option, value):
    # a list whose first value is negative is an option value, as it is after an '='
    state_path, gen_path, tmp_path = fixture_paths
    out = tmp_path / "out.json"
    if option == "--phases":
        command = ["homodyne", "--state", state_path, "--generator", gen_path, "--out", str(out)]
    else:
        command = ["build-state", "--kind", "optimal", "--ns", "2", "--dg", "1",
                   "--generator", gen_path, "--out", str(out)]
    results = []
    for flag in ([option, value], [f"{option}={value}"]):
        rc = cli.run(command + flag)
        captured = capsys.readouterr()
        results.append((rc, captured.out, captured.err, out.read_bytes() if out.exists() else None))
        out.unlink(missing_ok=True)
    assert results[0] == results[1]
    assert results[0][0] == (3 if "inf" in value else 0)


@pytest.mark.parametrize("angles", ["0.3,0.4,9,9", "0.3,0.4,9", "nan", "0.3,inf"])
def test_build_state_bad_angles_exit_3(fixture_paths, capsys, angles):
    _, gen_path, tmp_path = fixture_paths
    out = tmp_path / "never.json"
    rc = cli.run(["build-state", "--kind", "optimal", "--ns", "2", "--dg", "1",
                  "--generator", gen_path, "--out", str(out), "--angles", angles])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: squeeze_angles") and captured.out == ""
    assert not out.exists()


def test_build_state_single_angle_pads_with_zero(fixture_paths, capsys):
    _, gen_path, tmp_path = fixture_paths
    out = tmp_path / "probe.json"
    states = []
    for angles in ("0.7", "0.7,0"):
        rc = cli.run(["build-state", "--kind", "optimal", "--ns", "2", "--dg", "1",
                      "--generator", gen_path, "--out", str(out), "--angles", angles])
        assert rc == 0
        states.append((capsys.readouterr().out, out.read_bytes()))
    assert states[0] == states[1]


def test_homodyne_repeated_modes_exit_3(fixture_paths, capsys):
    # a repeated index would count one mode's FI twice, above the QFI
    state_path, gen_path, _ = fixture_paths
    assert cli.run(["homodyne", "--state", state_path, "--generator", gen_path, "--modes", "1,1"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: measured mode indices must be distinct, got (1, 1)\n"
    assert captured.out == ""


@pytest.mark.parametrize("m", [2, 3, 5])
def test_homodyne_one_mode_of_built_equal_squeezing_pair(tmp_path, capsys, m):
    # one mode of a round-tripped equal-squeezing pair reads its share of the QFI
    gen_path = _random_dense_generator(tmp_path, m, seed=m)
    state_path = str(tmp_path / "probe.json")
    io_args = ["--state", state_path, "--generator", gen_path, "--full-precision"]
    assert cli.run(["build-state", "--kind", "variance-optimal", "--ns", "2", "--gbar", "0.1",
                    "--dg", "0.8", "--generator", gen_path, "--out", state_path]) == 0
    capsys.readouterr()
    assert cli.run(["homodyne"] + io_args) == 0
    joint = json.loads(capsys.readouterr().out)
    shares = []
    for k in range(len(joint["per_mode_fi"])):
        assert cli.run(["homodyne", "--modes", str(k)] + io_args) == 0, capsys.readouterr().err
        shares.append(json.loads(capsys.readouterr().out)["fi"])
    assert shares == joint["per_mode_fi"]


# counts whose arrays exceed the 47-bit address space, so no test allocates them
@pytest.mark.parametrize("count", [10**17, 2**62, 10**19])
@pytest.mark.parametrize("command", ["homodyne", "verify", "verify-oracle"])
def test_counts_past_memory_exit_3(fixture_paths, capsys, count, command):
    state_path, gen_path, tmp_path = fixture_paths
    before = sorted(os.listdir(tmp_path))
    if command == "homodyne":
        argv = ["homodyne", "--state", state_path, "--generator", gen_path, "--samples", str(count),
                "--samples-out", str(tmp_path / "never"), "--out", str(tmp_path / "never.json")]
    else:
        argv = ["verify", "--suite", "oracle" if command == "verify-oracle" else "bound", "--trials", str(count)]
    assert cli.run(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot allocate") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == before


def test_homodyne_estimate_past_the_count_bound_exits_3(fixture_paths, capsys):
    # without --samples-out nothing of the count's size is allocated, so the sample-count bound refuses it
    state_path, gen_path, tmp_path = fixture_paths
    before = sorted(os.listdir(tmp_path))
    argv = ["homodyne", "--state", state_path, "--generator", gen_path, "--samples", str(10**17),
            "--out", str(tmp_path / "never.json")]
    assert cli.run(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot allocate") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("full", [False, True])
def test_homodyne_samples_csv_spans_blocks(fixture_paths, capsys, tmp_path, full):
    # N = B + 3 puts three samples in a second block of CSV text
    state_path, gen_path, _ = fixture_paths
    n, sig, prefix = measurement._BLOCK + 3, 17 if full else 12, str(tmp_path / "blk")
    argv = ["homodyne", "--state", state_path, "--generator", gen_path,
            "--samples", str(n), "--seed", "6", "--samples-out", prefix]
    assert cli.run(argv + ["--full-precision"] * full) == 0, capsys.readouterr().err
    d = disentangle(jsonio.state_from_dict(jsonio.load_json(state_path)))
    gen = jsonio.generator_from_dict(jsonio.load_json(gen_path))
    rows = measurement.sample_homodyne(d, gen, measurement.HomodyneSetup(mode_indices=(0, 1)), n, 6)
    for mode, row in enumerate(rows):
        text = (tmp_path / f"blk_mode{mode}.csv").read_text()
        assert text == "".join(f"%.{sig}g\n" % x for x in row)
