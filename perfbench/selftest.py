"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (perfbench/run.py)

sys.path.insert(0, str(run.SRC))
import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from gaussmet import gaussian, generator, metrology, scenarios  # noqa: E402

COUNT_KEYS = (
    "jsonio.bytes_read",
    "jsonio.bytes_written",
    "focksim.amplitudes_per_state",
    "metrology.workspaces_per_qfi",
    "metrology.projectors_per_qfi",
    "measurement.homodyne_fi_per_empirical",
    "focksim.lifts_per_counting_fi",
    "scenarios.nan_cell_frac",
)


def test_wick_reference_matches_engine():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(1, 9))
        h = ref.random_hermitian(rng, m)
        v = ref.random_unitary(rng, m)
        r = rng.uniform(0.0, 2.0, m)
        alpha = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        d = gaussian.DisentangledForm(V=v, alpha=alpha, r=r)
        engine = metrology.qfi(d, generator.from_matrix(h)).qfi
        state = gaussian.assemble(d)
        assert ref.qfi_from_factors(v, alpha, r, h) == pytest.approx(engine, rel=1e-10)
        assert ref.qfi_from_squeezing_matrix(state.f, state.beta, h) == pytest.approx(engine, rel=1e-10)


@pytest.mark.parametrize("family", scenarios.TABLE_KINDS)
def test_table_closed_forms_match_engine(family):
    state, gen = scenarios.table_probe(family, 7.5, -1.3, 0.6)
    assert ref.table_qfi(family, 7.5, -1.3, 0.6) == pytest.approx(metrology.qfi(state, gen).qfi, rel=1e-10)


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct = run.tail([float(k) for k in range(100)])
    assert (value, pct) == (89.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3.0)


def _traced_counts(name, tmp_path):
    args = argparse.Namespace(seed=5, trace=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        workload = workloads.WORKLOADS[name](args.seed, str(tmp_path))
        values, units, _, _, failed = run.per_layer(workload, args, smoke=True)
    assert failed == 0
    assert set(values) == set(units)
    return {key: values[key] for key in values if key.endswith(".calls") or key in COUNT_KEYS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    first = _traced_counts(name, tmp_path)
    second = _traced_counts(name, tmp_path)
    assert first == second
    expected = {
        "probe_sweep": {"metrology.workspaces_per_qfi": 2.0, "metrology.projectors_per_qfi": 1.0},
        "large_mode": {"metrology.workspaces_per_qfi": 2.0, "metrology.projectors_per_qfi": 1.0},
        "fock_oracle": {"focksim.amplitudes_per_state": 9261, "focksim.lifts_per_counting_fi": 10.0},
        "homodyne_mc": {"measurement.homodyne_fi_per_empirical": 2.0},
    }[name]
    assert {key: first[key] for key in expected} == expected
    if name == "large_mode":
        assert first["jsonio.bytes_read"] > 0 and first["jsonio.bytes_written"] > 0


def test_smoke_mode_matches_benchmark_json():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"], cwd=run.ROOT,
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count(": ok") == 2 * len(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probe_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_benchmark_json_lists_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    import tracer

    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
