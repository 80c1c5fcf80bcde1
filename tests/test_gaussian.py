import json

import numpy as np
import pytest

from gaussmet import gaussian, jsonio
from gaussmet.errors import InputError
from gaussmet.matkernel import max_norm
from gaussmet.verify import random_unitary


def _random_state(rng, m):
    return gaussian.DisentangledForm(
        V=random_unitary(rng, m),
        alpha=rng.standard_normal(m) + 1j * rng.standard_normal(m),
        r=rng.uniform(0.0, 1.5, m),
    )


def test_disentangle_already_diagonal():
    state = gaussian.GaussianPureState(
        n_modes=2, beta=np.zeros(2, complex), f=np.diag([0.5, 0.1]).astype(complex)
    )
    d = gaussian.disentangle(state)
    assert np.allclose(d.V, np.eye(2))
    assert np.allclose(d.alpha, 0.0)
    assert np.allclose(d.r, [0.5, 0.1])


def test_disentangle_pure_coherent():
    state = gaussian.GaussianPureState(
        n_modes=2, beta=np.array([1.0, 0.0], complex), f=np.zeros((2, 2), complex)
    )
    d = gaussian.disentangle(state)
    assert np.allclose(d.r, 0.0)
    assert np.allclose(d.V, np.eye(2))
    assert np.allclose(d.alpha, [1.0, 0.0])


def test_disentangle_two_mode_squeezed():
    f = np.array([[0.0, 0.3], [0.3, 0.0]], dtype=complex)
    state = gaussian.GaussianPureState(n_modes=2, beta=np.zeros(2, complex), f=f)
    d = gaussian.disentangle(state)
    assert np.allclose(sorted(d.r), [0.3, 0.3])
    recon = gaussian.assemble(d)
    assert max_norm(recon.f - f) < 1e-9


def test_round_trip_random_states():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = int(rng.integers(1, 9))
        d = _random_state(rng, m)
        state = gaussian.assemble(d)
        d2 = gaussian.disentangle(state)
        state2 = gaussian.assemble(d2)
        assert max_norm(state.f - state2.f) < 1e-9
        assert max_norm(state.beta - state2.beta) < 1e-9


def test_json_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    state = gaussian.assemble(_random_state(rng, 3))
    path = tmp_path / "state.json"
    jsonio.dump_json(jsonio.state_to_dict(state), str(path))
    loaded = jsonio.state_from_dict(jsonio.load_json(str(path)))
    assert np.array_equal(loaded.beta, state.beta)
    assert np.array_equal(loaded.f, state.f)
    assert loaded.basis_label == state.basis_label
    # a second dump is byte-identical
    text1 = path.read_text()
    jsonio.dump_json(jsonio.state_to_dict(loaded), str(path))
    assert path.read_text() == text1


def test_state_validation_rejects_asymmetric_f():
    with pytest.raises(Exception):
        gaussian.GaussianPureState(
            n_modes=2,
            beta=np.zeros(2, complex),
            f=np.array([[0.0, 0.2], [0.1, 0.0]], dtype=complex),
        )


def test_disentangled_form_rejects_bad_input():
    with pytest.raises(InputError, match="unitary"):
        gaussian.DisentangledForm(V=2.0 * np.eye(2), alpha=np.zeros(2), r=np.zeros(2))
    with pytest.raises(InputError, match="nonnegative"):
        gaussian.DisentangledForm(V=np.eye(2), alpha=np.zeros(2), r=np.array([0.3, -0.1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_disentangled_form_rejects_non_finite_squeezing(bad):
    with pytest.raises(InputError, match="r contains NaN or infinite entries"):
        gaussian.DisentangledForm(V=np.eye(2), alpha=np.zeros(2), r=np.array([0.3, bad]))


def test_json_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n_modes": 2, "beta": [[0, 0]], "f": []}')
    with pytest.raises(jsonio.InputError):
        jsonio.state_from_dict(jsonio.load_json(str(path)))
