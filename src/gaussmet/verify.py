"""Randomized verification suites: resource bound, Fock oracle, trace
inequality.

Trials run one after another in the calling thread; each derives its
own RNG stream from (seed + trial index), so any trial reproduces on its
own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import focksim, metrology
from .errors import InputError, TailTooLargeError
from .gaussian import DisentangledForm
from .generator import Generator, from_matrix


@dataclass(frozen=True)
class SuiteReport:
    name: str
    trials: int
    passed: bool
    summary: str


def _at(k: int, seed: int) -> str:
    """Name trial k by index and seed, as summaries report it."""
    return f" at trial {k} (seed {seed + k})"


def _require_run(trials: int, seed: int) -> None:
    if trials < 1:
        raise InputError(f"trial count must be at least 1, got {trials}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")


def _least(name: str, trials: int, values: list[float], what: str, seed: int) -> SuiteReport:
    """Report of a suite that passes when every value is at least -1e-9."""
    k = int(np.argmin(values))  # the first trial attaining the minimum
    summary = f"min {what} {values[k]:.3e} (requirement >= -1e-9){_at(k, seed)}"
    return SuiteReport(name=name, trials=trials, passed=values[k] >= -1e-9, summary=summary)


def random_unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng: np.random.Generator, m: int) -> np.ndarray:
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return (a + a.conj().T) / 2.0


def random_state(rng: np.random.Generator, m: int, r_max: float = 2.0,
                 alpha_scale: float = 1.0) -> DisentangledForm:
    r = rng.uniform(0.0, r_max, m) * rng.integers(0, 2, m)
    alpha = alpha_scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return DisentangledForm(V=random_unitary(rng, m), alpha=alpha, r=r)


def suite_bound(trials: int, seed: int) -> SuiteReport:
    """QFI never exceeds the resource bound on random states/generators."""
    _require_run(trials, seed)
    margins = []
    for k in range(trials):
        rng = np.random.default_rng(seed + k)
        m = int(rng.integers(1, 9))
        gen = from_matrix(random_hermitian(rng, m))
        d = random_state(rng, m)
        report = metrology.qfi(d, gen)
        scale = max(1.0, report.bound)
        margins.append((report.bound - report.qfi) / scale)
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
    _require_run(trials, seed)
    devs, deficits, over_tail = {}, {}, []
    for k in range(trials):
        rng = np.random.default_rng(seed + k)
        m = int(rng.integers(1, focksim.MAX_MODES + 1))
        gen = from_matrix(random_hermitian(rng, m))
        d = random_small_state(rng, m)
        cfg = focksim.OracleConfig(cutoff=_oracle_cutoff(m), tail_tol=1e-12)
        try:
            psi = focksim.fock_build(d, cfg)
        except TailTooLargeError:
            over_tail.append(k)
            continue
        exact = metrology.qfi(d, gen).qfi
        oracle = focksim.fock_qfi(psi, gen)
        devs[k] = abs(oracle - exact) / max(abs(exact), 1e-12)
        deficits[k] = psi.norm_deficit
    worst = max(devs.values(), default=0.0)
    passed = worst <= 1e-6 and not over_tail
    summary = f"max relative engine/oracle deviation {worst:.3e} (requirement <= 1e-6)"
    if devs:
        # the first trial attaining each maximum is named
        worst_k, deficit_k = max(devs, key=devs.get), max(deficits, key=deficits.get)
        summary += (
            f"{_at(worst_k, seed)}; largest norm_deficit"
            f" {deficits[deficit_k]:.3e}{_at(deficit_k, seed)}"
        )
    if over_tail:
        first = over_tail[0]
        summary += (
            f"; {len(over_tail)} trial(s) failed with a Fock tail above tail_tol,"
            f" first trial {first} (seed {seed + first})"
        )
    return SuiteReport(name="oracle", trials=trials, passed=passed, summary=summary)


def suite_lemma2(trials: int, seed: int) -> SuiteReport:
    """The trace inequality holds on random Hermitian/PSD pairs."""
    _require_run(trials, seed)
    gaps = []
    for k in range(trials):
        rng = np.random.default_rng(seed + k)
        m = int(rng.integers(1, 11))
        h = random_hermitian(rng, m)
        w = random_unitary(rng, m)
        q = (w * rng.chisquare(2.0, m)) @ w.conj().T
        q = (q + q.conj().T) / 2.0
        gap = metrology.lemma2_gap(h, q)
        scale = max(1.0, abs(gap))
        gaps.append(gap / scale)
    return _least("lemma2", trials, gaps, "gap", seed)


def run_suites(names: list[str], trials: int, seed: int) -> list[SuiteReport]:
    return [SUITES[name](trials, seed) for name in names]


# name -> suite function, in run order; each suite reports under its function's name
SUITES = {suite.__name__.removeprefix("suite_"): suite for suite in (suite_bound, suite_oracle, suite_lemma2)}
