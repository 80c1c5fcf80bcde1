"""Quantum Fisher information engine for mode-parameter estimation.

Evaluates the exact pure-Gaussian-state QFI of a passive mode transform,
the resource triple (signal photon number, generator-intensity mean and
variance), the resource upper bound on the QFI, the underlying trace
inequality, and asymptotic optimality coefficients fitted from a family
of probes. The kernels take stacks: a probe and a generator with the same
leading axes are evaluated in one pass, and the results carry those axes.
A scalar call is a stack of one, with no leading axes, and returns Python numbers.

All quantities are evaluated in the basis where the state is a product of
single-mode displaced squeezed vacua; callers pass arbitrary states, and
``build_workspace(d, g)`` returns a generator matrix g there, V^dag g V.
There the QFI, 4 Var(G), is the sum of two squared norms,
4 (||W||_F^2 / 2 + ||u||^2): W and u are the two- and one-quasiparticle
amplitudes of (G - <G>) psi, so the value is non-negative by
construction. The generator-intensity variance is likewise a sum of
squares, of the mean-removed generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matkernel
from .errors import InputError
from .gaussian import DisentangledForm
from .generator import Generator, signal_projector

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ResourceTriple:
    """Signal photon number and generator-intensity mean and variance.

    When the signal photon number vanishes (to round-off, see
    :func:`resources`) the mean and variance are undefined; they are
    reported as zero with ``well_defined`` False.
    """

    n_signal: float
    g_mean: float
    g_var: float
    well_defined: bool = True


@dataclass(frozen=True)
class QfiReport:
    """QFI with the probe's resources and the bound check."""

    qfi: float
    resources: ResourceTriple
    bound: float
    bound_satisfied: bool


def _scalar(x):
    """A result with no leading axes as a Python number; a stacked one as it is."""
    return x.item() if x.ndim == 0 else x


def build_workspace(d: DisentangledForm, g: np.ndarray) -> np.ndarray:
    """Generator matrix g in the probe's product basis: V^dag g V, made Hermitian."""
    if d.n_modes != g.shape[-1]:
        raise InputError(f"state has {d.n_modes} modes but generator has {g.shape[-1]}")
    gt = d.V.conj().mT @ g @ d.V
    return (gt + gt.conj().mT) / 2.0


def resources(d: DisentangledForm, gen: Generator) -> ResourceTriple:
    """Resource triple of a probe with respect to a generator.

    N_S counts photons in the signal (nonzero-eigenvalue) modes; the mean
    and variance are moments of the photon distribution over generator
    eigenvalues, normalized by N_S. With rho = S^2 + alpha alpha^dag the
    one-photon density matrix, N_S = Tr[P^2 rho] for the signal projector
    P and the variance is Tr[H^2 rho] / N_S for the mean-removed generator
    H = Gtilde - gbar P; both are summed as squared norms, so neither is
    negative. The resources are undefined when N_S is at most the squared
    round-off of P, (M eps)^2, times the total photon number: such an N_S
    is the eigenvectors' error, not signal photons.
    """
    return _resources(d, build_workspace(d, gen.G), build_workspace(d, signal_projector(gen)))


def _resources(d: DisentangledForm, gt: np.ndarray, pt: np.ndarray) -> ResourceTriple:
    """:func:`resources` from gt and pt, :func:`build_workspace` of G and of its signal projector."""
    s2 = np.sinh(d.r) ** 2
    alpha = d.alpha[..., None]
    n_signal = ((np.abs(pt) ** 2).sum(axis=-2) * s2).sum(-1) + (np.abs(pt @ alpha) ** 2).sum((-2, -1))
    n_total = s2.sum(-1) + np.vecdot(d.alpha, d.alpha).real
    defined = ~(n_signal <= (d.n_modes * _EPS) ** 2 * n_total)
    norm = n_signal + ~defined  # n_signal where defined; where not, about 1, and the entries are zeroed below
    first = (gt.diagonal(axis1=-2, axis2=-1).real * s2).sum(-1) + (alpha.conj().mT @ gt @ alpha)[..., 0, 0].real
    g_mean = first / norm
    h = gt - g_mean[..., None, None] * pt
    g_var = (((np.abs(h) ** 2).sum(axis=-2) * s2).sum(-1) + (np.abs(h @ alpha) ** 2).sum((-2, -1))) / norm
    return ResourceTriple(*map(_scalar, (*np.where(defined, (n_signal, g_mean, g_var), 0.0), defined)))


def qfi_upper_bound(res: ResourceTriple) -> float:
    """Resource bound on the QFI: (8 gbar^2 + 4 dg^2) N^2 + 8 (gbar^2 + dg^2) N.

    The quadratic coefficient holds for every pure Gaussian probe; the
    linear term is the zero-displacement tight form, which the randomized
    suites also validate on displaced states. Undefined resources are
    zero, and so is their bound.
    """
    n, g2, d2 = res.n_signal, res.g_mean * res.g_mean, res.g_var  # products: a float's ** rounds as C pow
    return (8.0 * g2 + 4.0 * d2) * (n * n) + 8.0 * (g2 + d2) * n


def _qfi_value(d: DisentangledForm, gt: np.ndarray) -> float:
    """The QFI sum of :func:`qfi`, from gt = :func:`build_workspace` (d, G)."""
    r = d.r[..., None, :]
    w = gt.real * np.sinh(r.mT + r) + 1j * gt.imag * np.sinh(r - r.mT)
    g_alpha = (gt @ d.alpha[..., None])[..., 0]
    u = np.exp(d.r) * g_alpha.real + 1j * np.exp(-d.r) * g_alpha.imag
    return _scalar(4.0 * (0.5 * np.sum(np.abs(w) ** 2, axis=(-2, -1)) + np.sum(np.abs(u) ** 2, axis=-1)))


def qfi(d: DisentangledForm, gen: Generator) -> QfiReport:
    """Exact QFI of a pure Gaussian probe under exp(-i lambda G).

    The value is independent of the true parameter. It is evaluated as
    4 (||W||_F^2 / 2 + ||u||^2) with

        W_ij = Re Gt_ij sinh(r_i + r_j) + i Im Gt_ij sinh(r_j - r_i),
        u = e^r Re(Gt alpha) + i e^-r Im(Gt alpha),

    the two- and one-quasiparticle amplitudes of (G - <G>) psi. The
    identities c_i s_j +- c_j s_i = sinh(r_j +- r_i) and c +- s = e^(+-r)
    leave no difference of large numbers, so equal squeezing under a real
    rotation gives exactly zero at any r. The report also carries the
    resource triple and the bound check.
    """
    gt = build_workspace(d, gen.G)
    res = _resources(d, gt, build_workspace(d, signal_projector(gen)))
    value, bound = _qfi_value(d, gt), qfi_upper_bound(res)
    satisfied = _scalar(value <= bound + 1e-9 * np.maximum(1.0, bound))
    return QfiReport(qfi=value, resources=res, bound=bound, bound_satisfied=satisfied)


def lemma2_gap(h: np.ndarray, q: np.ndarray) -> float:
    """Value of 4 Tr[HQ]^2 + 4 Tr[H^2 Q] Tr[Q] - 8 Tr[HQHQ].

    Nonnegative for Hermitian H and positive-semidefinite Q; this is the
    trace inequality behind the resource bound. Raises InputError if Q
    has an eigenvalue below -matkernel.DEFAULT_TOL (relative to its scale).
    """
    h = matkernel.require_hermitian(np.asarray(h, dtype=complex), name="H")
    q = matkernel.require_hermitian(np.asarray(q, dtype=complex), name="Q")
    if h.shape != q.shape:
        raise InputError("H and Q must have equal shape")
    min_eig = np.linalg.eigvalsh(q).min(axis=-1)
    low = min_eig < -matkernel.DEFAULT_TOL * np.maximum(1.0, np.abs(q).max(axis=(-2, -1)))
    if low.any():
        raise InputError(f"Q has eigenvalue {min_eig[low].min():.3e} below PSD tolerance")
    hq = h @ q
    tr_hq = np.trace(hq, axis1=-2, axis2=-1).real
    tr_h2q = np.trace(h @ hq, axis1=-2, axis2=-1).real
    tr_q = np.trace(q, axis1=-2, axis2=-1).real
    tr_hqhq = np.trace(hq @ hq, axis1=-2, axis2=-1).real
    return _scalar(4.0 * tr_hq**2 + 4.0 * tr_h2q * tr_q - 8.0 * tr_hqhq)


ProbeBuilder = Callable[[float, float, float], "tuple[DisentangledForm, Generator]"]


def optimality_coefficients(
    builder_handle: ProbeBuilder,
    res_targets: ResourceTriple,
    ns_values: tuple[float, ...] = (10.0, 20.0, 40.0, 80.0),
) -> tuple[float, float]:
    """Fit the asymptotic QFI coefficients (c_gbar, c_dg) of a probe family.

    For each of two resource settings derived from ``res_targets`` the
    builder is called at every photon number; qfi / N^2 is regressed on
    1 / N (weighted by 1/N^2) and extrapolated to N -> infinity, and the
    two quadratic coefficients are decomposed onto (gbar^2, dg^2).

    ``builder_handle(n_signal, gbar, dg)`` returns a (state, generator)
    pair, so the generator can track the targets.
    """
    ns = np.asarray(ns_values, dtype=float)
    if len(np.unique(ns)) < 3:
        raise InputError("need at least three distinct photon numbers")
    gbar0, dg0 = res_targets.g_mean, np.sqrt(res_targets.g_var)
    if abs(gbar0) < 1e-12 or dg0 < 1e-12:
        raise InputError(
            "resource targets must have nonzero mean and variance to separate coefficients"
        )
    settings = [(gbar0, dg0), (0.5 * gbar0, dg0)]

    def quad_coeff(gbar: float, dg: float) -> float:
        ys, xs, ws = [], [], []
        for n in ns:
            d, g_use = builder_handle(float(n), gbar, dg)
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
        raise InputError("resource settings do not separate the coefficients")
    c_gbar, c_dg = np.linalg.solve(design, np.array([a1, a2]))
    return float(c_gbar), float(c_dg)
