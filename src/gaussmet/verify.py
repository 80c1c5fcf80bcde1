"""Randomized verification suites: resource bound, Fock oracle, trace
inequality.

Trial k draws its inputs, in order, from its own RNG stream seeded with
seed + k, so any trial reproduces on its own. The bound and trace-inequality
suites then evaluate their trials grouped by mode count, one stacked pass
per group, which gives each trial the value it has alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import focksim, metrology
from .errors import TailTooLargeError, _allocate, _require_integer
from .gaussian import DisentangledForm
from .generator import from_matrix


@dataclass(frozen=True)
class SuiteReport:
    name: str
    trials: int
    passed: bool
    summary: str


def _at(k: int, seed: int) -> str:
    """Name trial k by index and seed, as summaries report it."""
    return f" at trial {k} (seed {seed + k})"


def _require_run(trials: int, seed: int) -> tuple[int, int]:
    return (_require_integer(trials, 1, "trial count must be at least 1 and an integer"),
            _require_integer(seed, 0, "seed must be non-negative and an integer"))


def _least(name: str, trials: int, values: np.ndarray, what: str, seed: int) -> SuiteReport:
    """Report of a suite that passes when every value is at least -1e-9."""
    k = int(np.argmin(values))  # the first trial attaining the minimum
    summary = f"min {what} {values[k]:.3e} (requirement >= -1e-9){_at(k, seed)}"
    return SuiteReport(name=name, trials=trials, passed=bool(values[k] >= -1e-9), summary=summary)


def _gaussian(rng: np.random.Generator, m: int) -> np.ndarray:
    return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))


def _unitary(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from complex Gaussian matrices z, stacked on leading axes."""
    q, r = np.linalg.qr(z)
    diag = r.diagonal(axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def random_unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    return _unitary(_gaussian(rng, m))


def random_hermitian(rng: np.random.Generator, m: int) -> np.ndarray:
    a = _gaussian(rng, m)
    return (a + a.conj().T) / 2.0


def _grouped(trials: int, seed: int, m_max: int, draw) -> list[list[np.ndarray]]:
    """Trial indices and stacked draws of each mode count m; trial k draws
    m in [1, m_max], then the tuple ``draw(rng, m)``, from ``default_rng(seed + k)``."""
    groups: dict[int, list[tuple]] = {}
    for k in range(trials):
        rng = np.random.default_rng(seed + k)
        m = int(rng.integers(1, m_max + 1))
        groups.setdefault(m, []).append((k, *draw(rng, m)))
    return [[np.array(a) for a in zip(*rows)] for rows in groups.values()]


def suite_bound(trials: int, seed: int) -> SuiteReport:
    """QFI never exceeds the resource bound on random states/generators."""
    trials, seed = _require_run(trials, seed)
    def draw(rng, m):  # generator, squeezing, displacement, and the Gaussian matrix of the mode unitary
        h = random_hermitian(rng, m)
        r = rng.uniform(0.0, 2.0, m) * rng.integers(0, 2, m)
        alpha = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        return h, r, alpha, _gaussian(rng, m)

    margins = _allocate(trials, f"{trials} trial results")
    for ks, h, r, alpha, z in _grouped(trials, seed, 8, draw):
        report = metrology.qfi(DisentangledForm(V=_unitary(z), alpha=alpha, r=r), from_matrix(h))
        margins[ks] = (report.bound - report.qfi) / np.maximum(1.0, report.bound)
    return _least("bound", trials, margins, "relative bound margin", seed)


def _oracle_cutoff(m: int) -> int:
    # total-photon cutoffs that keep the suite's draws under tail_tol=1e-12
    return {1: 30, 2: 24, 3: 24, 4: 24}[m]


def random_small_state(rng: np.random.Generator, m: int) -> DisentangledForm:
    """Probe in the oracle regime: s^2 <= 0.05 and |alpha|^2 <= 0.5 total."""
    r = np.arcsinh(np.sqrt(rng.uniform(0.0, 0.05, m)))
    alpha = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    budget = rng.uniform(0.0, 0.5)
    norm = np.linalg.norm(alpha)
    if norm > 0:
        alpha *= np.sqrt(budget) / norm
    return DisentangledForm(V=random_unitary(rng, m), alpha=alpha, r=r)


def suite_oracle(trials: int, seed: int) -> SuiteReport:
    """Gaussian engine agrees with the truncated Fock oracle."""
    trials, seed = _require_run(trials, seed)
    devs, deficits = _allocate((2, trials), f"{trials} trial results")
    for k in range(trials):
        rng = np.random.default_rng(seed + k)
        m = int(rng.integers(1, focksim.MAX_MODES + 1))
        gen = from_matrix(random_hermitian(rng, m))
        d = random_small_state(rng, m)
        cfg = focksim.OracleConfig(cutoff=_oracle_cutoff(m), tail_tol=1e-12)
        try:
            psi = focksim.fock_build(d, cfg)
        except TailTooLargeError:
            devs[k] = deficits[k] = -np.inf  # over tail_tol; never a maximum below
            continue
        exact = metrology.qfi(d, gen).qfi
        oracle = focksim.fock_qfi(psi, gen)
        devs[k] = abs(oracle - exact) / max(abs(exact), 1e-12)
        deficits[k] = psi.norm_deficit
    over_tail = np.flatnonzero(devs == -np.inf)
    # the first trial attaining each maximum is named
    worst_k, deficit_k = int(np.argmax(devs)), int(np.argmax(deficits))
    worst = max(float(devs[worst_k]), 0.0)
    passed = worst <= 1e-6 and not over_tail.size
    summary = f"max relative engine/oracle deviation {worst:.3e} (requirement <= 1e-6)"
    if len(over_tail) < trials:
        summary += (
            f"{_at(worst_k, seed)}; largest norm_deficit"
            f" {deficits[deficit_k]:.3e}{_at(deficit_k, seed)}"
        )
    if over_tail.size:
        first = over_tail[0]
        summary += (
            f"; {len(over_tail)} trial(s) failed with a Fock tail above tail_tol,"
            f" first trial {first} (seed {seed + first})"
        )
    return SuiteReport(name="oracle", trials=trials, passed=passed, summary=summary)


def suite_lemma2(trials: int, seed: int) -> SuiteReport:
    """The trace inequality holds on random Hermitian/PSD pairs."""
    trials, seed = _require_run(trials, seed)
    def draw(rng, m):  # H, then Q's eigenvectors (as the Gaussian matrix they come from) and eigenvalues
        return random_hermitian(rng, m), _gaussian(rng, m), rng.chisquare(2.0, m)

    gaps = _allocate(trials, f"{trials} trial results")
    for ks, h, z, eigvals in _grouped(trials, seed, 10, draw):
        w = _unitary(z)
        q = (w * eigvals[:, None, :]) @ w.conj().mT
        gap = metrology.lemma2_gap(h, (q + q.conj().mT) / 2.0)
        gaps[ks] = gap / np.maximum(1.0, np.abs(gap))
    return _least("lemma2", trials, gaps, "gap", seed)


def run_suites(names: list[str], trials: int, seed: int) -> list[SuiteReport]:
    _require_run(trials, seed)  # as every suite does, so an empty list of names checks them too
    return [SUITES[name](trials, seed) for name in names]


# name -> suite function, in run order; each suite reports under its function's name
SUITES = {suite.__name__.removeprefix("suite_"): suite for suite in (suite_bound, suite_oracle, suite_lemma2)}
