"""JSON schemas for states, generators and scenario configs.

Complex numbers are two-element [re, im] arrays, converted a whole array
at a time (``_pairs``, ``_parse_array``). Files are the bytes of
``json.dumps(obj, indent=2)``, written by ``format_json``, with
shortest-round-trip floats, so they round-trip bit-exactly. Reports
need no schema here: the CLI converts its result dataclasses with
``dataclasses.asdict`` and rounds them with ``round_floats`` to a
significant-digit budget, which also rejects NaN and infinity.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import secrets
from typing import Any, Iterator

import numpy as np

from .errors import GaussmetError, InputError
from .gaussian import GaussianPureState
from .generator import DEFAULT_SIGNAL_TOL, Generator, from_matrix
from .regmodes import RegularizedModePair
from .scenarios import ScenarioConfig


def _pairs(a: np.ndarray) -> list:
    """Nested lists of [re, im] floats, one per entry of a complex array."""
    return np.stack([a.real, a.imag], -1).tolist()


def _parse_array(obj: Any, where: str, ndim: int) -> np.ndarray:
    """Non-empty (M,) or (M, M') complex array from pairs of shape (M, 2)
    (``ndim`` 2) or (M, M', 2) (``ndim`` 3). Strings and all-boolean
    arrays are rejected; ``null`` and integers wider than 64 bits leave
    numpy an object array, read again as floats (``null`` as NaN), so
    every entry must be finite."""
    try:
        a = np.array(obj)
        if a.dtype.kind == "O":
            a = np.array(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{where}: expected nested lists of numeric [re, im] pairs ({exc})") from exc
    if a.dtype.kind in "Ub":
        raise InputError(f"{where}: entries must be numbers, not strings or booleans")
    a = a.astype(float, copy=False)
    if a.ndim != ndim or a.shape[-1] != 2 or a.size == 0:
        raise InputError(f"{where}: expected a non-empty array of [re, im] pairs, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InputError(f"{where}: entries must be finite numbers")
    return a.view(complex)[..., 0]


def state_to_dict(state: GaussianPureState) -> dict:
    return {
        "n_modes": state.n_modes,
        "beta": _pairs(state.beta),
        "f": _pairs(state.f),
        "basis_label": state.basis_label,
    }


def state_from_dict(obj: dict) -> GaussianPureState:
    try:
        n_modes = int(obj["n_modes"])
        beta = _parse_array(obj["beta"], "beta", 2)
        f = _parse_array(obj["f"], "f", 3)
        label = str(obj.get("basis_label", "a"))
    except KeyError as exc:
        raise InputError(f"state file missing field: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"invalid state field: {exc}") from exc
    try:
        return GaussianPureState(n_modes=n_modes, beta=beta, f=f, basis_label=label)
    except GaussmetError as exc:
        raise InputError(f"invalid state: {exc}") from exc


def generator_to_dict(gen: Generator) -> dict:
    return {"G": _pairs(gen.G), "signal_tol": gen.signal_tol}


def generator_from_dict(obj: dict) -> Generator:
    try:
        g = _parse_array(obj["G"], "G", 3)
        tol = float(obj.get("signal_tol", DEFAULT_SIGNAL_TOL))
    except KeyError as exc:
        raise InputError("generator file missing field 'G'") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"invalid generator field: {exc}") from exc
    try:
        return from_matrix(g, signal_tol=tol)
    except GaussmetError as exc:
        raise InputError(f"invalid generator: {exc}") from exc


def pair_from_dict(obj: dict) -> RegularizedModePair:
    try:
        return RegularizedModePair(
            center_z=(float(obj["center_z"][0]), float(obj["center_z"][1])),
            center_p=(float(obj["center_p"][0]), float(obj["center_p"][1])),
            sigma_z=float(obj["sigma_z"]),
            theta=tuple(float(t) for t in obj.get("theta", (0.0, 0.0))),
            r=tuple(float(r) for r in obj.get("r", (0.0, 0.0))),
        )
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"invalid scenario config: {exc}") from exc


def round_floats(obj: Any, sig_digits: int) -> Any:
    """Round every float in a JSON-ready object to sig_digits digits; reject NaN and inf."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise InputError(f"the report holds {obj}, which JSON cannot represent")
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
    except (ValueError, RecursionError) as exc:  # also non-UTF-8 bytes, huge ints, deep nesting
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


def format_json(obj: Any) -> str:
    """``json.dumps(obj, indent=2)`` byte for byte. ``indent`` sends the
    stdlib to its pure-Python encoder; this walks dicts and lists as that
    encoder does, but formats each list of [float, float] pairs with one
    C-encoder ``json.dumps`` and then indents its separators."""
    return "".join(_chunks(obj, "\n"))


def _chunks(obj: Any, pad: str) -> Iterator[str]:
    inner, keyed = pad + "  ", isinstance(obj, dict)
    if not isinstance(obj, (dict, list, tuple)) or not obj or keyed and not all(type(k) is str for k in obj):
        # scalars, empty containers, and dicts whose keys the stdlib converts to strings
        yield json.dumps(obj, indent=2).replace("\n", pad)
    elif keyed:
        sep = "{"
        for key, value in obj.items():
            yield f"{sep}{inner}{json.dumps(key)}: "
            yield from _chunks(value, inner)
            sep = ","
        yield pad + "}"
    elif set(map(type, obj)) == {list} and set(map(len, obj)) == {2} and set(
        map(type, itertools.chain.from_iterable(obj))
    ) == {float}:
        item = inner + "  "
        body = json.dumps(obj)[2:-2].replace("], [", f"{inner}],{inner}[{item}").replace(", ", "," + item)
        yield f"[{inner}[{item}{body}{inner}]{pad}]"
    else:
        sep = "["
        for value in obj:
            yield sep + inner
            yield from _chunks(value, inner)
            sep = ","
        yield pad + "]"


def dump_json(obj: dict, path: str) -> None:
    # one join: each extra whole-text copy (5 MB at M = 256) raised peak RSS
    _write_atomic(path, "".join(itertools.chain(_chunks(obj, "\n"), ("\n",))))
