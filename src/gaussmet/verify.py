"""Randomized verification suites: resource bound, Fock oracle, trace
inequality.

Each trial derives its own RNG stream from (seed + trial index), so
results are reproducible regardless of how many workers execute them.
The worker count is capped by the GAUSSMET_THREADS environment variable
(0 or unset picks a small automatic cap).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import focksim, metrology
from .gaussian import DisentangledForm
from .generator import Generator, from_matrix

SUITES = ("bound", "oracle", "lemma2")


@dataclass(frozen=True)
class SuiteReport:
    name: str
    trials: int
    passed: bool
    summary: str


def thread_cap() -> int:
    raw = os.environ.get("GAUSSMET_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        cap = min(8, os.cpu_count() or 1)
    return cap


def _map_trials(fn, trials: int):
    workers = min(thread_cap(), max(1, trials))
    if workers == 1:
        return [fn(k) for k in range(trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(trials)))


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

    def one(k: int) -> float:
        rng = np.random.default_rng(seed + k)
        m = int(rng.integers(1, 9))
        gen = from_matrix(random_hermitian(rng, m))
        d = random_state(rng, m)
        report = metrology.qfi(d, gen)
        scale = max(1.0, report.bound)
        return (report.bound - report.qfi) / scale

    margins = _map_trials(one, trials)
    worst = min(margins)
    passed = worst >= -1e-9
    return SuiteReport(
        name="bound",
        trials=trials,
        passed=passed,
        summary=f"min relative bound margin {worst:.3e} (requirement >= -1e-9)",
    )


def _oracle_cutoff(m: int) -> int:
    # total-photon cutoffs that keep the suite's draws under tail_tol=1e-12
    return {1: 30, 2: 24, 3: 22}[m]


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

    def one(k: int) -> float:
        rng = np.random.default_rng(seed + k)
        m = int(rng.integers(1, 4))
        gen = from_matrix(random_hermitian(rng, m))
        d = random_small_state(rng, m)
        cfg = focksim.OracleConfig(cutoff=_oracle_cutoff(m), tail_tol=1e-12)
        psi = focksim.fock_build(d, cfg)
        exact = metrology.qfi(d, gen).qfi
        oracle = focksim.fock_qfi(psi, gen)
        return abs(oracle - exact) / max(abs(exact), 1e-12)

    devs = _map_trials(one, trials)
    worst = max(devs)
    passed = worst <= 1e-6
    return SuiteReport(
        name="oracle",
        trials=trials,
        passed=passed,
        summary=f"max relative engine/oracle deviation {worst:.3e} (requirement <= 1e-6)",
    )


def suite_lemma2(trials: int, seed: int) -> SuiteReport:
    """The trace inequality holds on random Hermitian/PSD pairs."""

    def one(k: int) -> float:
        rng = np.random.default_rng(seed + k)
        m = int(rng.integers(1, 11))
        h = random_hermitian(rng, m)
        w = random_unitary(rng, m)
        q = (w * rng.chisquare(2.0, m)) @ w.conj().T
        q = (q + q.conj().T) / 2.0
        gap = metrology.lemma2_gap(h, q)
        scale = max(1.0, abs(gap))
        return gap / scale

    gaps = _map_trials(one, trials)
    worst = min(gaps)
    passed = worst >= -1e-9
    return SuiteReport(
        name="lemma2",
        trials=trials,
        passed=passed,
        summary=f"min gap {worst:.3e} (requirement >= -1e-9)",
    )


def run_suites(names: list[str], trials: int, seed: int) -> list[SuiteReport]:
    runners = {"bound": suite_bound, "oracle": suite_oracle, "lemma2": suite_lemma2}
    return [runners[name](trials, seed) for name in names]
