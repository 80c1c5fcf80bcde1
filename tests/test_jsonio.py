import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmet import gaussian, generator, jsonio

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


def test_format_json_pair_blocks_match_stdlib():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    z[0, 0] = complex(-0.0, 5e-324)
    obj = {"f": jsonio._pairs(z), "beta": jsonio._pairs(z[0]), "empty": [], "nested": [[jsonio._pairs(z[1])]]}
    assert jsonio.format_json(obj) == json.dumps(obj, indent=2)


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
