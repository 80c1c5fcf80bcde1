import numpy as np
import pytest

from gaussmet import metrology, verify
from gaussmet.errors import InputError
from gaussmet.gaussian import DisentangledForm
from gaussmet.generator import from_matrix


@pytest.fixture
def suite_values(monkeypatch):
    """Run a suite; return the per-trial values it hands to its report, and the report."""
    seen = []
    least = verify._least
    monkeypatch.setattr(verify, "_least", lambda name, n, values, *rest: seen.append(values) or least(name, n, values, *rest))

    def run(suite, trials, seed):
        report = verify.SUITES[suite](trials, seed)
        return seen.pop(), report

    return run


def _bound_alone(k, seed):
    """Trial k of the bound suite, drawn and evaluated alone through the public calls."""
    rng = np.random.default_rng(seed + k)
    m = int(rng.integers(1, 9))
    gen = from_matrix(verify.random_hermitian(rng, m))
    r = rng.uniform(0.0, 2.0, m) * rng.integers(0, 2, m)
    alpha = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    report = metrology.qfi(DisentangledForm(V=verify.random_unitary(rng, m), alpha=alpha, r=r), gen)
    return (report.bound - report.qfi) / max(1.0, report.bound)


def _lemma2_alone(k, seed):
    rng = np.random.default_rng(seed + k)
    m = int(rng.integers(1, 11))
    h = verify.random_hermitian(rng, m)
    w = verify.random_unitary(rng, m)
    q = (w * rng.chisquare(2.0, m)) @ w.conj().T
    gap = metrology.lemma2_gap(h, (q + q.conj().T) / 2.0)
    return gap / max(1.0, abs(gap))


@pytest.mark.parametrize("suite, alone", [("bound", _bound_alone), ("lemma2", _lemma2_alone)])
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_stacked_suite_values_match_public_calls(suite_values, suite, alone, seed):
    values, report = suite_values(suite, 120, seed)
    reference = np.array([alone(k, seed) for k in range(120)])
    assert np.abs(values - reference).max() <= 1e-15
    worst = int(np.argmin(reference))
    assert int(np.argmin(values)) == worst and f" at trial {worst} (seed {seed + worst})" in report.summary


@pytest.mark.parametrize("suite", ["bound", "lemma2"])
def test_trial_in_its_group_equals_the_trial_alone(suite_values, suite):
    seed = 11
    grouped, _ = suite_values(suite, 40, seed)
    for k in range(40):
        single, _ = suite_values(suite, 1, seed + k)
        assert single[0].tobytes() == grouped[k].tobytes()


_NOT_INTEGERS = [2.5, True, "3", None, float("nan")]


@pytest.mark.parametrize("value", _NOT_INTEGERS)
@pytest.mark.parametrize("suite", verify.SUITES)
def test_seeds_and_trial_counts_must_be_integers(suite, value):
    with pytest.raises(InputError, match="seed must be non-negative"):
        verify.run_suites([suite], 2, value)
    with pytest.raises(InputError, match="seed must be non-negative"):
        verify.SUITES[suite](2, value)
    with pytest.raises(InputError, match="trial count must be at least 1"):
        verify.run_suites([suite], value, 0)
    with pytest.raises(InputError, match="trial count must be at least 1"):
        verify.SUITES[suite](value, 0)


@pytest.mark.parametrize("trials, seed", [(2.5, None), (0, 0), (2, -1), (True, 0), (2, "3")])
def test_run_suites_checks_its_arguments_with_no_suites(trials, seed):
    with pytest.raises(InputError, match="must be"):
        verify.run_suites([], trials, seed)
    assert verify.run_suites([], 2, 0) == []


@pytest.mark.parametrize("kind", [np.int64, np.uint16])
def test_numpy_integer_seeds_and_trial_counts_read_as_ints(kind):
    names = list(verify.SUITES)
    assert verify.run_suites(names, kind(3), kind(5)) == verify.run_suites(names, 3, 5)
