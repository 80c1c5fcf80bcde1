"""Quantum Fisher information engine for mode-parameter estimation.

Evaluates the exact pure-Gaussian-state QFI of a passive mode transform,
the resource triple (signal photon number, generator-intensity mean and
variance), the resource upper bound on the QFI, the underlying trace
inequality, and asymptotic optimality coefficients fitted from a family
of probes.

All quantities are evaluated in the basis where the state is a product of
single-mode displaced squeezed vacua; callers pass arbitrary states and
the generator is conjugated internally.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matkernel
from .errors import DimensionMismatchError, FitIllConditionedError, NotPSDError
from .gaussian import DisentangledForm
from .generator import Generator, signal_projector

_ZERO_PHOTON_CUTOFF = 1e-14


@dataclass(frozen=True)
class QfiWorkspace:
    """Conjugated generator and state moments entering the QFI traces.

    Gtilde is the generator in the product basis; C and S hold cosh(r)
    and sinh(r).
    """

    Gtilde: np.ndarray
    C: np.ndarray
    S: np.ndarray


@dataclass(frozen=True)
class ResourceTriple:
    """Signal photon number and generator-intensity mean and variance.

    When the signal photon number vanishes the mean and variance are
    undefined; they are reported as zero with ``well_defined`` False.
    """

    n_signal: float
    g_mean: float
    g_var: float
    well_defined: bool = True


@dataclass(frozen=True)
class QfiReport:
    """QFI with its four-term decomposition, resources, and bound check."""

    qfi: float
    term_squeeze_a: float
    term_squeeze_b: float
    term_disp: float
    term_cross: float
    resources: ResourceTriple
    bound: float
    bound_satisfied: bool


def _check_dims(d: DisentangledForm, gen: Generator) -> None:
    if d.n_modes != gen.n_modes:
        raise DimensionMismatchError(
            f"state has {d.n_modes} modes but generator has {gen.n_modes}"
        )


def build_workspace(d: DisentangledForm, gen: Generator) -> QfiWorkspace:
    _check_dims(d, gen)
    gt = d.V.conj().T @ gen.G @ d.V
    gt = (gt + gt.conj().T) / 2.0
    return QfiWorkspace(Gtilde=gt, C=np.cosh(d.r), S=np.sinh(d.r))


def resources(d: DisentangledForm, gen: Generator) -> ResourceTriple:
    """Resource triple of a probe with respect to a generator.

    N_S counts photons in the signal (nonzero-eigenvalue) modes; the mean
    and variance are moments of the photon distribution over generator
    eigenvalues, normalized by N_S. A negative variance from rounding is
    clamped to zero with a warning.
    """
    ws = build_workspace(d, gen)
    s2 = ws.S**2
    pt = d.V.conj().T @ signal_projector(gen) @ d.V
    n_signal = float(
        np.real(np.sum(np.diag(pt).real * s2) + d.alpha.conj() @ pt @ d.alpha)
    )
    if n_signal <= _ZERO_PHOTON_CUTOFF:
        return ResourceTriple(n_signal=0.0, g_mean=0.0, g_var=0.0, well_defined=False)
    g_alpha = ws.Gtilde @ d.alpha
    first = float(
        np.real(np.sum(np.diag(ws.Gtilde).real * s2) + d.alpha.conj() @ g_alpha)
    )
    second = float(
        np.real(np.sum(np.sum(np.abs(ws.Gtilde) ** 2, axis=0) * s2) + g_alpha.conj() @ g_alpha)
    )
    g_mean = first / n_signal
    g_var = second / n_signal - g_mean**2
    if g_var < 0.0:
        if g_var < -1e-12 * max(1.0, second / n_signal):
            warnings.warn(
                f"generator-intensity variance {g_var:.3e} clamped to zero", stacklevel=2
            )
        g_var = 0.0
    return ResourceTriple(n_signal=n_signal, g_mean=g_mean, g_var=g_var)


def qfi_upper_bound(res: ResourceTriple) -> float:
    """Resource bound on the QFI: (8 gbar^2 + 4 dg^2) N^2 + 8 (gbar^2 + dg^2) N.

    The quadratic coefficient holds for every pure Gaussian probe; the
    linear term is the zero-displacement tight form, which the randomized
    suites also validate on displaced states.
    """
    if not res.well_defined:
        return 0.0
    n, g2, d2 = res.n_signal, res.g_mean**2, res.g_var
    return (8.0 * g2 + 4.0 * d2) * n**2 + 8.0 * (g2 + d2) * n


def qfi_upper_bound_strict(d: DisentangledForm, gen: Generator) -> float:
    """Proven bound variant with the state-dependent linear term.

    Equals (8 gbar^2 + 4 dg^2) N^2 + 12 (gbar^2 + dg^2) N - 4 Tr[Gt^2 S^2];
    for zero displacement it coincides with :func:`qfi_upper_bound`.
    """
    ws = build_workspace(d, gen)
    res = resources(d, gen)
    if not res.well_defined:
        return 0.0
    tr_g2s2 = float(np.real(np.sum(np.sum(np.abs(ws.Gtilde) ** 2, axis=0) * ws.S**2)))
    n, g2, d2 = res.n_signal, res.g_mean**2, res.g_var
    return (8.0 * g2 + 4.0 * d2) * n**2 + 12.0 * (g2 + d2) * n - 4.0 * tr_g2s2


def qfi(d: DisentangledForm, gen: Generator) -> QfiReport:
    """Exact QFI of a pure Gaussian probe under exp(-i lambda G).

    The value is independent of the true parameter. The four terms are the
    squeezing-squeezing, squeezing-number, displacement, and displacement-
    squeezing cross contributions; the report also carries the resource
    triple and the bound check.
    """
    ws = build_workspace(d, gen)
    cs = ws.C * ws.S
    gt = ws.Gtilde
    # Tr[Gt CS Gt* CS] = sum_ij Gt_ij^2 (cs)_i (cs)_j for Hermitian Gt
    term_a = float(np.real(np.sum(gt**2 * np.outer(cs, cs))))
    # Tr[Gt S^2 Gt C^2] = sum_ij |Gt_ij|^2 c_i^2 s_j^2
    term_b = float(np.real(np.sum(np.abs(gt) ** 2 * np.outer(ws.C**2, ws.S**2))))
    g_alpha = gt @ d.alpha
    term_d = float(np.real(np.sum((ws.S**2 + ws.C**2) * np.abs(g_alpha) ** 2)))
    term_c = float(2.0 * np.real(np.sum(cs * g_alpha * g_alpha)))
    value = 4.0 * (term_a + term_b + term_d + term_c)
    res = resources(d, gen)
    bound = qfi_upper_bound(res)
    satisfied = value <= bound + 1e-9 * max(1.0, bound)
    return QfiReport(
        qfi=value,
        term_squeeze_a=term_a,
        term_squeeze_b=term_b,
        term_disp=term_d,
        term_cross=term_c,
        resources=res,
        bound=bound,
        bound_satisfied=satisfied,
    )


def lemma2_gap(h: np.ndarray, q: np.ndarray, tol: float = 1e-10) -> float:
    """Value of 4 Tr[HQ]^2 + 4 Tr[H^2 Q] Tr[Q] - 8 Tr[HQHQ].

    Nonnegative for Hermitian H and positive-semidefinite Q; this is the
    trace inequality behind the resource bound. Raises NotPSDError if Q
    has an eigenvalue below -tol (relative to its scale).
    """
    h = matkernel.require_hermitian(np.asarray(h, dtype=complex), name="H")
    q = matkernel.require_hermitian(np.asarray(q, dtype=complex), name="Q")
    if h.shape != q.shape:
        raise DimensionMismatchError("H and Q must have equal shape")
    min_eig = float(np.min(np.linalg.eigvalsh(q)))
    if min_eig < -tol * max(1.0, matkernel.max_norm(q)):
        raise NotPSDError(f"Q has eigenvalue {min_eig:.3e} below PSD tolerance")
    hq = h @ q
    tr_hq = float(np.real(np.trace(hq)))
    tr_h2q = float(np.real(np.trace(h @ hq)))
    tr_q = float(np.real(np.trace(q)))
    tr_hqhq = float(np.real(np.trace(hq @ hq)))
    return 4.0 * tr_hq**2 + 4.0 * tr_h2q * tr_q - 8.0 * tr_hqhq


ProbeBuilder = Callable[[float, float, float], "tuple[DisentangledForm, Generator] | DisentangledForm"]


def optimality_coefficients(
    builder_handle: ProbeBuilder,
    gen: Generator | None,
    res_targets: ResourceTriple,
    ns_values: tuple[float, ...] = (10.0, 20.0, 40.0, 80.0),
) -> tuple[float, float]:
    """Fit the asymptotic QFI coefficients (c_gbar, c_dg) of a probe family.

    For each of two resource settings derived from ``res_targets`` the
    builder is called at every photon number; qfi / N^2 is regressed on
    1 / N (weighted by 1/N^2) and extrapolated to N -> infinity, and the
    two quadratic coefficients are decomposed onto (gbar^2, dg^2).

    ``builder_handle(n_signal, gbar, dg)`` may return either a state (the
    shared ``gen`` is then used) or a (state, generator) pair for families
    whose generator must track the targets.
    """
    ns = np.asarray(ns_values, dtype=float)
    if len(np.unique(ns)) < 3:
        raise FitIllConditionedError("need at least three distinct photon numbers")
    gbar0, dg0 = res_targets.g_mean, np.sqrt(res_targets.g_var)
    if abs(gbar0) < 1e-12 or dg0 < 1e-12:
        raise FitIllConditionedError(
            "resource targets must have nonzero mean and variance to separate coefficients"
        )
    settings = [(gbar0, dg0), (0.5 * gbar0, dg0)]

    def quad_coeff(gbar: float, dg: float) -> float:
        ys, xs, ws = [], [], []
        for n in ns:
            built = builder_handle(float(n), gbar, dg)
            if isinstance(built, tuple):
                d, g_use = built
            else:
                if gen is None:
                    raise FitIllConditionedError("builder returned no generator and none was given")
                d, g_use = built, gen
            ys.append(qfi(d, g_use).qfi / n**2)
            xs.append(1.0 / n)
            ws.append(1.0 / n**2)
        a = np.column_stack([np.ones_like(ns), np.array(xs)])
        w = np.sqrt(np.array(ws))
        coef, *_ = np.linalg.lstsq(a * w[:, None], np.array(ys) * w, rcond=None)
        return float(coef[0])

    a1 = quad_coeff(*settings[0])
    a2 = quad_coeff(*settings[1])
    design = np.array(
        [
            [settings[0][0] ** 2, settings[0][1] ** 2],
            [settings[1][0] ** 2, settings[1][1] ** 2],
        ]
    )
    if np.linalg.cond(design) > 1e12:
        raise FitIllConditionedError("resource settings do not separate the coefficients")
    c_gbar, c_dg = np.linalg.solve(design, np.array([a1, a2]))
    return float(c_gbar), float(c_dg)
