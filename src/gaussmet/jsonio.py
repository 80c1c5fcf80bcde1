"""JSON schemas for states, generators and scenario configs.

Complex numbers are two-element [re, im] arrays, read a whole array at a
time (``_parse_array``); ``format_json`` writes a complex ndarray as its
[re, im] pair lists. Files are the bytes of ``json.dumps(obj, indent=2)``, with
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
from typing import Any, Iterable, Iterator

import numpy as np

from .errors import GaussmetError, InputError
from .gaussian import GaussianPureState
from .generator import DEFAULT_SIGNAL_TOL, Generator, from_matrix
from .regmodes import RegularizedModePair
from .scenarios import ScenarioConfig


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
        "beta": state.beta,
        "f": state.f,
        "basis_label": state.basis_label,
    }


def state_from_dict(obj: dict) -> GaussianPureState:
    try:
        n_modes = obj["n_modes"]
        if type(n_modes) is not int:  # not 2.7, "2" or true
            raise InputError(f"invalid state field: n_modes must be an integer, got {n_modes!r}")
        beta = _parse_array(obj["beta"], "beta", 2)
        f = _parse_array(obj["f"], "f", 3)
        label = obj.get("basis_label", "a")
        if type(label) is not str:  # not 7 or null
            raise InputError(f"invalid state field: basis_label must be a string, got {label!r}")
    except KeyError as exc:
        raise InputError(f"state file missing field: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"invalid state field: {exc}") from exc
    try:
        return GaussianPureState(n_modes=n_modes, beta=beta, f=f, basis_label=label)
    except GaussmetError as exc:
        raise InputError(f"invalid state: {exc}") from exc


def generator_to_dict(gen: Generator) -> dict:
    return {"G": gen.G, "signal_tol": gen.signal_tol}


def generator_from_dict(obj: dict) -> Generator:
    try:
        g = _parse_array(obj["G"], "G", 3)
        tol = obj.get("signal_tol", DEFAULT_SIGNAL_TOL)
        if type(tol) not in (int, float):  # not "0.5", false or null
            raise InputError(f"invalid generator field: signal_tol must be a number, got {tol!r}")
        tol = float(tol)
    except KeyError as exc:
        raise InputError("generator file missing field 'G'") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"invalid generator field: {exc}") from exc
    try:
        return from_matrix(g, signal_tol=tol)
    except GaussmetError as exc:
        raise InputError(f"invalid generator: {exc}") from exc


def pair_from_dict(obj: dict) -> RegularizedModePair:
    try:  # the values go through as JSON gave them: RegularizedModePair checks every number
        return RegularizedModePair(
            obj["center_z"], obj["center_p"], obj["sigma_z"], obj.get("theta", (0.0, 0.0)), obj.get("r", (0.0, 0.0))
        )
    except (KeyError, TypeError) as exc:
        raise InputError(f"invalid mode pair: {exc}") from exc


def scenario_config_from_dict(obj: dict, kind: str) -> ScenarioConfig:
    try:  # as in pair_from_dict, ScenarioConfig checks every number
        return ScenarioConfig(
            kind=kind, pair=pair_from_dict(obj["pair"]), n_signal=obj["n_signal"],
            physical_scale=obj.get("physical_scale", 1.0), sweep=obj.get("sweep", {}),
        )
    except KeyError as exc:
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


def _write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to ``path`` whole or not at all.

    The text goes to a new temp file beside ``path``, created as
    ``open(path, "w")`` would create it, and ``os.replace`` then moves it
    over ``path``. On any failure the temp file is removed and an existing
    ``path`` is left as it was; an ``OSError`` names ``path``, not the temp file.
    """
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8") as handle:
                handle.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def format_json(obj: Any) -> str:
    """``json.dumps(obj, indent=2)`` byte for byte, where a complex ndarray
    stands for its nested lists of [re, im] pairs. ``indent`` sends the
    stdlib to its pure-Python encoder; this walks dicts and lists as that
    encoder does, but writes each complex array a list of pairs at a time,
    formatting each of its distinct floats once."""
    return "".join(_chunks(obj, "\n"))


def _chunks(obj: Any, pad: str) -> Iterator[str]:
    inner, keyed = pad + "  ", isinstance(obj, dict)
    if isinstance(obj, np.ndarray) and obj.dtype == complex and obj.ndim:
        # keyed by bit pattern, which keeps 0.0 and -0.0 apart; np.stack copies any strides to C order
        keys, inv = np.unique(np.stack([obj.real, obj.imag], -1).view(np.int64), return_inverse=True)
        texts = np.array(json.dumps(keys.view(float).tolist())[1:-1].split(", "), dtype=object)  # once per key
        yield from _pair_lists(texts[inv.reshape(*obj.shape, 2)], pad)
    elif not isinstance(obj, (dict, list, tuple)) or not obj or keyed and not all(type(k) is str for k in obj):
        # scalars, empty containers, and dicts whose keys the stdlib converts to strings
        yield json.dumps(obj, indent=2).replace("\n", pad)
    elif keyed:
        sep = "{"
        for key, value in obj.items():
            yield f"{sep}{inner}{json.dumps(key)}: "
            yield from _chunks(value, inner)
            sep = ","
        yield pad + "}"
    else:
        sep = "["
        for value in obj:
            yield sep + inner
            yield from _chunks(value, inner)
            sep = ","
        yield pad + "]"


def _pair_lists(texts: np.ndarray, pad: str) -> Iterator[str]:
    """The indented nested lists of [re, im] pairs whose float texts ``texts``
    holds, shape (..., 2): one chunk per list of pairs."""
    inner = pad + "  "
    if not len(texts):
        yield "[]"
    elif texts.ndim > 2:
        sep = "["
        for row in texts:
            yield sep + inner
            yield from _pair_lists(row, inner)
            sep = ","
        yield pad + "]"
    else:
        item = inner + "  "
        cells = np.full((len(texts), 4), f"{inner}],{inner}[{item}", dtype=object)  # re, sep, im, sep
        cells[:, ::2], cells[:, 1], cells[-1, 3] = texts, "," + item, f"{inner}]{pad}]"
        yield f"[{inner}[{item}" + "".join(cells.ravel().tolist())


def dump_json(obj: dict, path: str) -> None:
    # streamed: each whole-text copy (5 MB at M = 256) raised peak RSS
    _write_atomic(path, itertools.chain(_chunks(obj, "\n"), ("\n",)))
