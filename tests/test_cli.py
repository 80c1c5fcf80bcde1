import json
import os
import subprocess
import sys

import numpy as np
import pytest

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
    "string-and-boolean-pair": (_state(beta='[["1.5", true], [0, 0]]'), None, "beta: entries must be numbers"),
    "numeric-string-G": (None, _gen(g00='"1"'), "G: entries must be numbers"),
    "all-boolean-f": (
        _state(f="[[[true, false], [false, false]], [[false, false], [true, false]]]"),
        None,
        "f: entries must be numbers",
    ),
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
    # numpy is the one runtime dependency; scipy.linalg would more than double the start-up of every command
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, gaussmet.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _random_dense_generator(tmp_path, m, seed):
    rng = np.random.default_rng(seed)
    w = verify.random_unitary(rng, m)
    g = (w * np.sort(rng.uniform(-2.0, 2.0, m))) @ w.conj().T
    path = tmp_path / f"dense{m}.json"
    path.write_text(json.dumps({"G": np.stack([g.real, g.imag], -1).tolist()}))
    return str(path)


@pytest.mark.parametrize("kind, m", [("mean-optimal", 3), ("mean-optimal", 5), ("optimal", 5)])
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
