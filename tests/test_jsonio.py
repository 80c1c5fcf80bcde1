import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gaussmet import gaussian, generator, jsonio, optimal, verify
from gaussmet.errors import InputError

_EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                float("nan"), float("inf"), float("-inf")]
_floats = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
_strings = st.one_of(st.text(), st.sampled_from(['"', "\\", "\n\t\r", "é", " ", "\x00", "\U0001f600"]))
_scalars = st.one_of(st.none(), st.booleans(), st.integers(), _floats, _strings)
_pairs = st.lists(st.lists(_floats, min_size=2, max_size=2), max_size=5)
_json_values = st.recursive(
    st.one_of(_scalars, _pairs),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_strings, children, max_size=4),
        # non-string keys, which the stdlib converts to strings
        st.dictionaries(st.one_of(st.integers(), _floats, st.booleans(), st.none()), children, max_size=3),
    ),
    max_leaves=40,
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_json_values)
def test_format_json_matches_stdlib_indent_2(obj):
    assert jsonio.format_json(obj) == json.dumps(obj, indent=2)


def _pair_lists(a):
    """The [re, im] pair lists that a complex array is written as."""
    return np.stack([a.real, a.imag], -1).tolist()


def test_format_json_pair_blocks_match_stdlib():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    z[0, 0] = complex(-0.0, 5e-324)
    obj = {"f": _pair_lists(z), "beta": _pair_lists(z[0]), "empty": [], "nested": [[_pair_lists(z[1])]]}
    assert jsonio.format_json(obj) == json.dumps(obj, indent=2)


# finite floats with few distinct values, so that draws repeat values, mix 0.0 with -0.0 and hit the extremes
_array_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _complex_arrays(draw):
    """1-D and 2-D complex arrays, some exactly symmetric, some transposed or strided views."""
    shape = draw(st.one_of(hnp.array_shapes(min_dims=1, max_dims=1, max_side=6),
                           hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6)))
    parts = draw(hnp.arrays(float, (*shape, 2), elements=_array_floats))
    a = parts.view(complex)[..., 0]  # keeps -0.0, which re + 1j * im may turn into 0.0
    if a.ndim == 2 and a.shape[0] == a.shape[1] and draw(st.booleans()):
        a = np.where(np.triu(np.ones(a.shape, bool)), a, a.T)
    view = draw(st.sampled_from(["plain", "transposed", "strided"]))
    if view == "transposed":
        a = a.T
    elif view == "strided":
        a = a[..., ::2]
    return a


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_complex_arrays())
def test_format_json_writes_complex_arrays_as_pair_lists(a):
    assert jsonio.format_json(a) == json.dumps(_pair_lists(a), indent=2)
    obj = {"f": a, "nested": [a, 1.5]}
    expected = {"f": _pair_lists(a), "nested": [_pair_lists(a), 1.5]}
    assert jsonio.format_json(obj) == json.dumps(expected, indent=2)


def test_built_state_file_is_its_pair_list_form(tmp_path):
    rng = np.random.default_rng(11)
    m = 64
    w = verify.random_unitary(rng, m)
    gen = generator.from_matrix((w * np.sort(rng.uniform(-2.0, 2.0, m))) @ w.conj().T)
    spec = optimal.ProbeSpec(kind="optimal", n_signal=5.0, target_gmean=0.3, target_gvar=0.64)
    state = gaussian.assemble(optimal.build_probe(spec, gen).state)
    assert state.f.tobytes() == state.f.T.copy().tobytes()  # each off-diagonal value twice
    path = tmp_path / "state.json"
    jsonio.dump_json(jsonio.state_to_dict(state), str(path))
    pairs = {"n_modes": m, "beta": _pair_lists(state.beta), "f": _pair_lists(state.f), "basis_label": "a"}
    assert path.read_bytes() == (json.dumps(pairs, indent=2) + "\n").encode()


_STATE_TEXT = """{
  "n_modes": 2,
  "beta": [
    [
      0.1,
      -0.0
    ],
    [
      -2.5,
      1e-17
    ]
  ],
  "f": [
    [
      [
        0.25,
        0.0
      ],
      [
        0.0,
        5e-324
      ]
    ],
    [
      [
        0.0,
        5e-324
      ],
      [
        1.5,
        -0.75
      ]
    ]
  ],
  "basis_label": "b"
}
"""

_GENERATOR_TEXT = """{
  "G": [
    [
      [
        1.0,
        0.0
      ]
    ]
  ],
  "signal_tol": 1e-12
}
"""


def test_state_and_generator_file_bytes_pinned(tmp_path):
    state = gaussian.GaussianPureState(
        n_modes=2,
        beta=np.array([complex(0.1, -0.0), complex(-2.5, 1e-17)]),
        f=np.array([[0.25, 5e-324j], [5e-324j, 1.5 - 0.75j]]),
        basis_label="b",
    )
    path = tmp_path / "state.json"
    jsonio.dump_json(jsonio.state_to_dict(state), str(path))
    assert path.read_bytes() == _STATE_TEXT.encode()
    loaded = jsonio.state_from_dict(jsonio.load_json(str(path)))
    assert np.signbit(loaded.beta[0].imag) and loaded.f[0, 1].imag == 5e-324
    jsonio.dump_json(jsonio.generator_to_dict(generator.from_matrix(np.array([[1.0 + 0j]]))), str(path))
    assert path.read_bytes() == _GENERATOR_TEXT.encode()


_GEN_DICT = {"G": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
_STATE_DICT = {"n_modes": 1, "beta": [[0.5, 0.0]], "f": [[[0.25, 0.0]]]}


@pytest.mark.parametrize("tol", ["0.5", False, True, None, [0.5], {"v": 0.5}])
def test_generator_from_dict_requires_a_number_for_signal_tol(tol):
    with pytest.raises(InputError, match="signal_tol must be a number"):
        jsonio.generator_from_dict({**_GEN_DICT, "signal_tol": tol})


@pytest.mark.parametrize("tol", [0, 0.5, 1e-12])
def test_generator_from_dict_reads_integer_and_float_signal_tol(tol):
    gen = jsonio.generator_from_dict({**_GEN_DICT, "signal_tol": tol})
    assert gen.signal_tol == tol and type(gen.signal_tol) is float
    assert gen.idler_mask.tolist() == [True, False]


@pytest.mark.parametrize("label", [7, 2.5, None, True, ["a"]])
def test_state_from_dict_requires_a_string_for_basis_label(label):
    with pytest.raises(InputError, match="basis_label must be a string"):
        jsonio.state_from_dict({**_STATE_DICT, "basis_label": label})


def test_state_from_dict_keeps_string_basis_label():
    assert jsonio.state_from_dict({**_STATE_DICT, "basis_label": "b"}).basis_label == "b"
    assert jsonio.state_from_dict(_STATE_DICT).basis_label == "a"


def _same(a, b):
    """Equal JSON values of equal types, floats compared by bit pattern (so -0.0 and 0.0 differ, NaN equals NaN)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return np.float64(a).view(np.int64) == np.float64(b).view(np.int64)
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _stdlib_read(path):
    """What the reader gave before orjson: the stdlib's value, or the message of the InputError it raised."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (ValueError, RecursionError) as exc:
        return f"malformed JSON in {path}: {exc}"


def _read(path):
    try:
        return jsonio.load_json(str(path))
    except InputError as exc:
        return str(exc)


def _random_doubles(rng, n):
    """Finite doubles of every exponent and sign, subnormals included, plus the edge values."""
    bits = rng.integers(0, 2**63, n, dtype=np.int64) * rng.choice([1, -1], n)
    spread = bits.view(float)
    scaled = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
             -1.7976931348623157e308, 0.1, 1 / 3, 2.0**53 + 2.0]
    values = np.concatenate([spread[np.isfinite(spread)], scaled, edges])
    return values[: len(values) // 2 * 2].reshape(-1, 2)


@pytest.mark.parametrize("literal", [repr, "%.17g".__mod__, "%.20e".__mod__], ids=["repr", "%.17g", "%.20e"])
def test_load_json_reads_float_literals_as_the_stdlib_does(tmp_path, literal):
    pairs = _random_doubles(np.random.default_rng(17), 6000)
    rows = ",\n".join("[%s, %s]" % (literal(re), literal(im)) for re, im in pairs.tolist())
    # integers wider than 64 bits but inside the float range: orjson makes them floats, the stdlib ints
    wide = "[18446744073709551616, -9223372036854775809], [%s, %s]" % ("9" * 300, "-" + "12345678901234567891" * 15)
    text = '{"n_modes": 1, "beta": [%s, %s], "f": [[[0.0, 0.0]]]}' % (rows, wide)
    path = tmp_path / "state.json"
    path.write_text(text, encoding="utf-8")
    ours, stdlib = jsonio.load_json(str(path)), json.loads(text)
    assert _same(ours["beta"][:-2], stdlib["beta"][:-2])
    got = jsonio._parse_array(ours["beta"], "beta", 2)
    assert got.tobytes() == jsonio._parse_array(stdlib["beta"], "beta", 2).tobytes()


def test_every_json_fixture_reads_as_the_stdlib_reads_it():
    paths = sorted(pathlib.Path(__file__).parent.rglob("*.json"))
    assert paths
    for path in paths:
        assert _same(jsonio._parse(path.read_bytes()), _stdlib_read(path)), path


_AS_BEFORE = {
    # orjson refuses each of these; the stdlib reads them as it always did
    "lone-surrogate": b'{"basis_label": "\\ud800", "b": ["\\udfff x"]}',
    "nan-and-infinity": b'{"a": [NaN, Infinity, -Infinity]}',
    "past-float-range": b'{"a": [1e400, -1e400, %s]}' % (b"1" * 400),
    "over-digit-limit": b'{"a": %s}' % (b"7" * 5000),
    "bom": b'\xef\xbb\xbf{"a": 1}',
    "non-utf8": b'{"a": "\xff"}',
    "non-utf8-late": b'{"a": "%s\xc3"}' % (b"x" * 20000),
    "unterminated": b'{"a": ' + b"[" * 5000,
    "trailing-comma": b'{"a": [1, 2,]}',
    "crlf-syntax-error": b'{\r\n  "a": 1,\r\n}',
    "cr-syntax-error": b'{\r  "a": 1,\r}',
    "control-character": b'{"a": "x\ty"}',
    # deeper than orjson is given: the stdlib's recursion limit refuses it
    "deep-array": b'{"a": %s}' % (b"[" * 2000 + b"]" * 2000),
    "deep-object": b'{"a": ' * 3000 + b"1" + b"}" * 3000,
    "brackets-in-strings": b'{"s": "%s\\"[", "a": %s}' % (b"]" * 3000, b"[" * 2000 + b"]" * 2000),
    # and what both read alike
    "escapes": b'{"a": "\\\\", "b": "\\"[[", "c": [[[-0.0, 5e-324]]], "d": "\\u00e9\\u0000"}',
    "duplicate-keys": b'{"a": 1, "b": 2, "a": [3]}',
    "nested-64": b'{"a": %s}' % (b"[" * 63 + b"]" * 63),
    "integers": b'{"a": [0, -0, 18446744073709551615, -9223372036854775808]}',
}


@pytest.mark.parametrize("data", list(_AS_BEFORE.values()), ids=list(_AS_BEFORE))
def test_load_json_gives_the_stdlib_value_or_message(tmp_path, data):
    path = tmp_path / "in.json"
    path.write_bytes(data)
    assert _same(_read(path), _stdlib_read(path))


@pytest.mark.parametrize(
    "text, depth",
    [("{}", 1), ("[[1], [[2]]]", 3), ('{"a": "[[[", "b": [1]}', 2), ('{"a": "\\"[[", "b": [[1]]}', 3),
     ('{"a": "\\\\", "b": [[1]]}', 3), ('{"a": "\\\\\\"[", "b": []}', 2), ('"]]]]" [[', 2), ("]]][", 0), ("", 0)],
)
def test_nesting_depth_leaves_out_brackets_in_strings(text, depth):
    assert jsonio._nesting_depth(text.encode()) == depth


def test_wide_integer_reads_as_the_nearest_float(tmp_path):
    # the one value orjson reads differently: an integer outside the 64-bit range but inside the float range
    path = tmp_path / "state.json"
    path.write_text('{"n_modes": %s, "beta": [[0, 0]], "f": [[[0, 0]]]}' % (10**30), encoding="utf-8")
    obj = jsonio.load_json(str(path))
    assert obj["n_modes"] == 1e30 and type(obj["n_modes"]) is float
    with pytest.raises(InputError, match=r"n_modes must be an integer, got 1e\+30"):
        jsonio.state_from_dict(obj)


def test_nesting_past_the_c_stack_exits_3_without_a_crash(tmp_path):
    # valid JSON nested 200 000 deep overflows orjson's recursion; it goes to the stdlib, which refuses it
    deep = "[" * 200000 + "]" * 200000
    paths = {"deep": '{"beta": %s}' % deep, "quoted-closers": '{"basis_label": "%s", "beta": %s}' % ("]" * 200000, deep)}
    for name, text in paths.items():
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
    code = "import sys; from gaussmet import jsonio\nfor p in sys.argv[1:]:\n    try: jsonio.load_json(p)\n" \
           "    except jsonio.InputError as exc: print(str(exc).split(': ')[1])"
    src = pathlib.Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code, *(str(tmp_path / f"{n}.json") for n in paths)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["maximum recursion depth exceeded while decoding a JSON array from a unicode string"] * 2
