"""Independent references for the benchmark's correctness checks.

Everything here is plain numpy and shares no code with ``gaussmet``: the
QFI is 4 Var(G) evaluated from the Wick moments of the Gaussian state, and
the closed forms are the README table rows and the regularized-probe forms
of acceptance criterion 11.
"""

from __future__ import annotations

import numpy as np


def _wick_qfi(n: np.ndarray, m: np.ndarray, beta: np.ndarray, g: np.ndarray) -> float:
    """4 Var(sum_kl G_kl a_k^dag a_l) of a Gaussian state.

    ``n[k, l] = <da_k^dag da_l>`` and ``m[k, l] = <da_k da_l>`` are the
    fluctuation moments and ``beta = <a>``. The quadratic and linear parts
    of the generator are uncorrelated because odd fluctuation moments vanish.
    """
    quad = np.sum((g @ g) * n) + np.sum(n * (g @ n.T @ g)) + np.sum(np.conj(m) * (g @ m @ g.T))
    u = g.T @ np.conj(beta)
    lin = 2.0 * np.real(u @ m @ u) + np.vdot(u, u) + 2.0 * np.real(np.conj(u) @ n @ u)
    return float(4.0 * np.real(quad + lin))


def qfi_from_factors(v: np.ndarray, alpha: np.ndarray, r: np.ndarray, g: np.ndarray) -> float:
    """QFI of V [prod_k D(alpha_k) S(r_k)] |0> under exp(-i lambda G)."""
    sh = np.sinh(r)
    n = np.conj(v) @ np.diag(sh**2) @ v.T
    m = v @ np.diag(sh * np.cosh(r)) @ v.T  # sign convention drops out of |m|^2 terms
    return _wick_qfi(n, m, v @ alpha, g)


def qfi_from_squeezing_matrix(f: np.ndarray, beta: np.ndarray, g: np.ndarray) -> float:
    """QFI of the state with squeezing matrix f and displacement beta.

    With f = V R V^T, f f^dag = V R^2 V^dag, so the moments are matrix
    functions of f f^dag and no Takagi factorization is needed.
    """
    w, basis = np.linalg.eigh(f @ f.conj().T)
    r = np.sqrt(np.clip(w, 0.0, None))
    n = np.conj((basis * np.sinh(r) ** 2) @ basis.conj().T)
    safe = np.where(r > 0.0, r, 1.0)
    ratio = np.where(r > 0.0, np.sinh(2.0 * r) / (2.0 * safe), 1.0)
    m = (basis * ratio) @ basis.conj().T @ f
    return _wick_qfi(n, m, beta, g)


def table_qfi(kind: str, n: float, gbar: float, dg: float) -> float:
    """README closed form of one table family at resources (N, gbar, dg).

    The derivative-displaced row has only an asymptotic README form; its
    exact value for the 2x2 generator [[gbar, i dg], [-i dg, gbar]], with
    half the photons displaced in mode 0 and half squeezed in mode 1, is
    4 [gbar^2 h + 2 gbar^2 h (h + 1) + dg^2 ((2h + 1) h + h) + 2 dg^2 h sqrt(h (h + 1))]
    with h = N / 2.
    """
    g2, d2 = gbar**2, dg**2
    if kind == "coherent":
        return 4.0 * (g2 + d2) * n
    if kind == "mean_optimal":
        return 8.0 * g2 * n * (n + 1.0) + 4.0 * d2 * n
    if kind == "variance_optimal":
        return 4.0 * (g2 + d2) * n * (n + 2.0)
    if kind == "optimal":
        return (8.0 * g2 + 4.0 * d2) * n**2 + 8.0 * (g2 + d2) * n
    if kind == "derivative_displaced":
        h = 0.5 * n
        return 4.0 * (
            g2 * h
            + 2.0 * g2 * h * (h + 1.0)
            + d2 * ((2.0 * h + 1.0) * h + h)
            + 2.0 * d2 * h * np.sqrt(h * (h + 1.0))
        )
    raise ValueError(f"no closed form for {kind!r}")


P_DOMAIN_KINDS = ("time_shift", "beam_displacement")


def scenario_targets(kind: str, center_z, center_p, sigma_z: float, scale: float) -> tuple[float, float]:
    """(gbar, dg) of a regularized pair: carrier midpoint and half-separation
    combined with the mode width in the estimated domain."""
    if kind in P_DOMAIN_KINDS:
        centers, width = center_p, 1.0 / (2.0 * sigma_z)
    else:
        centers, width = center_z, sigma_z
    gbar = 0.5 * (centers[0] + centers[1]) * scale
    dg = np.hypot(0.5 * (centers[0] - centers[1]), width) * scale
    return float(gbar), float(dg)


def regularization_deficit(kind: str, sigma_z: float, scale: float) -> float:
    """The 1/(4 sigma^2)-type share of the spread a Gaussian mode cannot use."""
    width = 1.0 / (2.0 * sigma_z) if kind in P_DOMAIN_KINDS else sigma_z
    return (scale * width) ** 2


def regularized_variance_optimal_qfi(n: float, g_mean: float, g_var: float, deficit: float) -> float:
    """Criterion 11: 4 N^2 (gbar^2 + dg^2 - deficit) for equal squeezing."""
    return 4.0 * n**2 * (g_mean**2 + g_var - deficit)


def regularized_optimal_qfi(n: float, p0: float, g_var: float, deficit: float) -> float:
    """Criterion 11: (8 p0^2 + 4 (dg^2 - deficit)) N^2 for the optimal split."""
    return (8.0 * p0**2 + 4.0 * (g_var - deficit)) * n**2


def regularized_direct_fi(n: float, g_var: float, deficit: float) -> float:
    """Criterion 11: counting recovers 4 N^2 (dg^2 - deficit)."""
    return 4.0 * n**2 * (g_var - deficit)


def random_unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng: np.random.Generator, m: int) -> np.ndarray:
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return (a + a.conj().T) / 2.0
