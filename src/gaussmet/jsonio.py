"""JSON schemas for states, generators, scenario configs, and reports.

Complex numbers are two-element [re, im] arrays. Files round-trip
bit-exactly (floats are written with shortest-round-trip precision);
stdout reports are separately rounded to a significant-digit budget.
"""

from __future__ import annotations

import contextlib
import json
import os
import secrets
from typing import Any

import numpy as np

from .errors import GaussmetError, InputError
from .gaussian import GaussianPureState
from .generator import Generator, from_matrix
from .measurement import HomodyneResult
from .metrology import QfiReport, ResourceTriple
from .regmodes import RegularizedModePair
from .scenarios import ScenarioConfig


def _c(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _vec(v: np.ndarray) -> list[list[float]]:
    return [_c(z) for z in v]


def _mat(m: np.ndarray) -> list[list[list[float]]]:
    return [[_c(z) for z in row] for row in m]


def _parse_c(obj: Any, where: str) -> complex:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise InputError(f"{where}: complex numbers must be [re, im] pairs")
    try:
        return complex(float(obj[0]), float(obj[1]))
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: non-numeric complex entry") from exc


def _parse_vec(obj: Any, where: str) -> np.ndarray:
    if not isinstance(obj, list):
        raise InputError(f"{where}: expected a list")
    return np.array([_parse_c(z, where) for z in obj], dtype=complex)


def _parse_mat(obj: Any, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise InputError(f"{where}: expected a list of rows")
    rows = [[_parse_c(z, where) for z in row] for row in obj]
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise InputError(f"{where}: ragged matrix")
    return np.array(rows, dtype=complex)


def state_to_dict(state: GaussianPureState) -> dict:
    return {
        "n_modes": state.n_modes,
        "beta": _vec(state.beta),
        "f": _mat(state.f),
        "basis_label": state.basis_label,
    }


def state_from_dict(obj: dict) -> GaussianPureState:
    try:
        n_modes = int(obj["n_modes"])
        beta = _parse_vec(obj["beta"], "beta")
        f = _parse_mat(obj["f"], "f")
        label = str(obj.get("basis_label", "a"))
    except KeyError as exc:
        raise InputError(f"state file missing field: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid state field: {exc}") from exc
    try:
        return GaussianPureState(n_modes=n_modes, beta=beta, f=f, basis_label=label)
    except GaussmetError as exc:
        raise InputError(f"invalid state: {exc}") from exc


def generator_to_dict(gen: Generator) -> dict:
    return {"G": _mat(gen.G), "signal_tol": gen.signal_tol}


def generator_from_dict(obj: dict) -> Generator:
    try:
        g = _parse_mat(obj["G"], "G")
        tol = float(obj.get("signal_tol", 1e-12))
    except KeyError as exc:
        raise InputError("generator file missing field 'G'") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid generator field: {exc}") from exc
    try:
        return from_matrix(g, signal_tol=tol)
    except GaussmetError as exc:
        raise InputError(f"invalid generator: {exc}") from exc


def resources_to_dict(res: ResourceTriple) -> dict:
    return {
        "n_signal": res.n_signal,
        "g_mean": res.g_mean,
        "g_var": res.g_var,
        "well_defined": res.well_defined,
    }


def report_to_dict(report: QfiReport) -> dict:
    return {
        "qfi": report.qfi,
        "resources": resources_to_dict(report.resources),
        "bound": report.bound,
        "bound_satisfied": report.bound_satisfied,
    }


def homodyne_result_to_dict(result: HomodyneResult) -> dict:
    return {
        "fi": result.fi,
        "per_mode_fi": list(result.per_mode_fi),
        "variances": list(result.variances),
        "phases_used": list(result.phases_used),
    }


def pair_from_dict(obj: dict) -> RegularizedModePair:
    try:
        return RegularizedModePair(
            center_z=(float(obj["center_z"][0]), float(obj["center_z"][1])),
            center_p=(float(obj["center_p"][0]), float(obj["center_p"][1])),
            sigma_z=float(obj["sigma_z"]),
            theta=tuple(float(t) for t in obj.get("theta", (0.0, 0.0))),
            r=tuple(float(r) for r in obj.get("r", (0.0, 0.0))),
        )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise InputError(f"invalid mode pair: {exc}") from exc


def scenario_config_from_dict(obj: dict, kind: str | None = None) -> ScenarioConfig:
    try:
        return ScenarioConfig(
            kind=kind or str(obj["kind"]),
            pair=pair_from_dict(obj["pair"]),
            n_signal=float(obj["n_signal"]),
            physical_scale=float(obj.get("physical_scale", 1.0)),
            sweep=dict(obj.get("sweep", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid scenario config: {exc}") from exc


def round_floats(obj: Any, sig_digits: int) -> Any:
    """Round every float in a JSON-ready object to sig_digits digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if not np.isfinite(obj):
            return obj
        return float(f"{obj:.{sig_digits}g}")
    if isinstance(obj, dict):
        return {k: round_floats(v, sig_digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, sig_digits) for v in obj]
    return obj


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except FileNotFoundError as exc:
        raise InputError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{path}: top-level JSON value must be an object")
    return obj


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all.

    The text goes to a new temp file beside ``path``, created as
    ``open(path, "w")`` would create it, and ``os.replace`` then moves it
    over ``path``. On any failure the temp file is removed and an existing
    ``path`` is left as it was.
    """
    tmp = f"{path}.{secrets.token_hex(6)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def dump_json(obj: dict, path: str) -> None:
    # keep text bound while the file is written: freeing it first (a 5 MB text
    # at M = 256) moved glibc's adaptive mmap threshold and peak RSS by ~4 MiB
    text = json.dumps(obj, indent=2)
    _write_atomic(path, text + "\n")
