import json

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
