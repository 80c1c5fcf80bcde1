"""Fisher information of concrete measurements on Gaussian probes.

Multimode homodyne detection of generator eigenmodes (ideal, lossy, and
thermal-noise variants) with optimal phase selection, Monte Carlo
homodyne sampling with an empirical Fisher information estimator, direct
(photon-counting) detection via the mean-removed generator identity, and
the phase-structure condition under which that identity applies.

Homodyne outcome model: a squeezed-vacuum eigenmode with eigenvalue g,
measured at relative phase phi, has a zero-mean Gaussian outcome. With
t = 2(phi + lambda g), its variance and lambda-derivative are

    v  = [eta (e^{2r} cos^2(t/2) + e^{-2r} sin^2(t/2)) + (1 - eta) sigma_env^2] / 2,
    v' = -eta g sinh(2r) sin t,

and its Fisher information is v'^2 / (2 v^2). Every term of v is
non-negative, so no step cancels at any squeezing. sigma_env^2 is the
environment's quadrature variance, 1 for vacuum (see sigma_env_from_thermal).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import matkernel, metrology
from .errors import ConditionNotVerifiedWarning, InputError, require_finite
from .gaussian import DisentangledForm
from .generator import DiscretizationGrid, Generator, HGParams, hg_mode, signal_projector
from .regmodes import RegularizedModePair

_DIAG_TOL = 1e-9
_PHASE_AMP_FLOOR = 1e-12


@dataclass(frozen=True)
class HomodyneSetup:
    """Modes to homodyne, phases ('auto' or explicit), loss, and noise."""

    mode_indices: tuple[int, ...]
    phases: tuple[float, ...] | str = "auto"
    eta: float = 1.0
    sigma_env_sq: float = 1.0
    true_param: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise InputError("eta must lie in (0, 1]")
        require_finite(sigma_env_sq=self.sigma_env_sq, true_param=self.true_param)
        if not self.sigma_env_sq >= 1.0:
            raise InputError("sigma_env_sq must be at least 1 (vacuum)")
        if isinstance(self.phases, str):
            if self.phases != "auto":
                raise InputError("phases must be 'auto' or an explicit tuple")
        elif len(self.phases) != len(self.mode_indices):
            raise InputError("need one phase per measured mode")
        else:
            require_finite(**{f"phase {k}": phi for k, phi in enumerate(self.phases)})


@dataclass(frozen=True)
class HomodyneResult:
    fi: float
    per_mode_fi: tuple[float, ...]
    variances: tuple[float, ...]
    phases_used: tuple[float, ...]


def sigma_env_from_thermal(n_thermal: float, eta: float) -> float:
    """Environment quadrature variance carrying N_B thermal photons.

    The 1/(1 - eta) factor keeps the injected thermal photon number
    independent of the transmissivity; at eta = 1 the environment is
    irrelevant and the vacuum value is returned.
    """
    require_finite(n_thermal=n_thermal)
    if n_thermal < 0.0:
        raise InputError("n_thermal must be nonnegative")
    if eta >= 1.0 or n_thermal == 0.0:
        return 1.0
    return 2.0 * n_thermal / (1.0 - eta) + 1.0


def _eigenmode_data(d: DisentangledForm, gen: Generator, modes: tuple[int, ...]):
    """Per-mode (g, r) after checking each measured mode is an eigenmode.

    Gtilde = ``metrology.build_workspace(d, gen.G)`` is the generator in
    the probe's product basis. If Gtilde e_n = g_n e_n, the imprint maps
    c_n to e^{-i lambda g_n} c_n, so the outcomes of the measured modes
    depend on no other mode of the product state, and unmeasured modes
    need no check.
    """
    if any(not 0 <= n < d.n_modes for n in modes):
        raise InputError(f"measured mode indices must lie in [0, {d.n_modes}), got {modes}")
    gt = metrology.build_workspace(d, gen.G)
    scale = max(1.0, matkernel.max_norm(gen.G))
    for n in modes:
        col = np.abs(gt[:, n]).copy()
        col[n] = 0.0
        if col.max() > _DIAG_TOL * scale:
            raise InputError(
                f"state mode {n} is not a generator eigenmode (coupling {col.max():.3e})"
            )
    if any(abs(d.alpha[n]) > 0 for n in modes):
        raise InputError(
            "homodyne formulas assume squeezed-vacuum modes; measured mode is displaced"
        )
    return [(float(gt[n, n].real), float(d.r[n])) for n in modes]


def homodyne_fi(d: DisentangledForm, gen: Generator, setup: HomodyneSetup) -> HomodyneResult:
    """Fisher information of multimode homodyne detection.

    Outcomes of distinct eigenmodes are independent Gaussians, so the FI
    is the sum of the per-mode v'^2 / (2 v^2) of the module docstring.
    With phases='auto' each phase is set to its optimum, cos t = -B/A with
    A = eta cosh 2r + (1 - eta) sigma_env^2 and B = eta sinh 2r. There
    v = D / (2A) and the contribution is 2 (eta g sinh 2r)^2 / D, where
    D = A^2 - B^2 = eta^2 + (1 - eta) sigma_env^2 (2 eta cosh 2r +
    (1 - eta) sigma_env^2) is a sum of non-negative terms; at eta = 1
    the contribution is the eigenmode QFI share 8 g^2 s^2 (s^2 + 1).
    """
    data = _eigenmode_data(d, gen, setup.mode_indices)
    eta, lam = setup.eta, setup.true_param
    noise = (1.0 - eta) * setup.sigma_env_sq
    per_mode, variances, phases_used = [], [], []
    for k, (g, r) in enumerate(data):
        b = eta * np.sinh(2.0 * r)
        if setup.phases == "auto":
            c = eta * np.cosh(2.0 * r)
            den = eta**2 + noise * (2.0 * c + noise)
            phi = float(0.5 * np.arctan2(np.sqrt(den), b) - g * lam + 0.5 * np.pi)
            var = den / (2.0 * (c + noise))
            fi_n = 2.0 * (b * g) ** 2 / den
        else:
            phi = float(setup.phases[k])
            half = phi + g * lam
            var = (eta * (np.exp(2.0 * r) * np.cos(half) ** 2 + np.exp(-2.0 * r) * np.sin(half) ** 2)
                   + noise) / 2.0
            fi_n = (b * g * np.sin(2.0 * half)) ** 2 / (2.0 * var**2)
        variances.append(float(var))
        per_mode.append(float(fi_n))
        phases_used.append(phi)
    return HomodyneResult(
        fi=float(sum(per_mode)),
        per_mode_fi=tuple(per_mode),
        variances=tuple(variances),
        phases_used=tuple(phases_used),
    )


def sample_homodyne(
    d: DisentangledForm,
    gen: Generator,
    setup: HomodyneSetup,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Draw homodyne outcomes, one row of n_samples per measured mode.

    Outcomes are independent zero-mean Gaussians at the per-mode variance
    of the setup; fixed non-negative seeds reproduce identical streams.
    """
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    result = homodyne_fi(d, gen, setup)
    out = np.random.default_rng(seed).standard_normal((len(result.variances), n_samples))
    out *= np.sqrt(result.variances)[:, None]
    return out


def empirical_fi(
    d: DisentangledForm,
    gen: Generator,
    setup: HomodyneSetup,
    n_samples: int,
    seed: int,
) -> float:
    """Monte Carlo estimate of the homodyne FI via the squared score.

    Samples are drawn at the true parameter. The score of a zero-mean
    Gaussian outcome x with variance v(lambda) is (x^2/v - 1) v'/(2v), and
    (v'/(2v))^2 = FI_n / 2, so the estimate is the sum over modes of
    FI_n / 2 times the sample mean of (x^2/v - 1)^2, with v and FI_n read
    from :func:`homodyne_fi`.
    """
    return _score_fi(homodyne_fi(d, gen, setup), sample_homodyne(d, gen, setup, n_samples, seed))


def _score_fi(base: HomodyneResult, samples: np.ndarray) -> float:
    """The :func:`empirical_fi` estimate from samples drawn at the setup of ``base``."""
    modes = zip(base.per_mode_fi, base.variances, samples)
    return sum((0.5 * fi_n * float(np.mean((x**2 / v - 1.0) ** 2)) for fi_n, v, x in modes), 0.0)


def direct_detection_fi(
    d: DisentangledForm,
    gen: Generator,
    condition_verified: bool = False,
) -> float:
    """Fisher information of mode- and photon-number-resolved counting.

    For probes diagonal in the eigenbasis of a generator with equally
    spaced spectrum, counting in the Fourier-dual basis is insensitive to
    the mean of the generator-intensity distribution and attains the QFI
    of the mean-removed probe. That identity is realized here by shifting
    the generator, G -> G - gbar P_S, and evaluating the exact QFI value
    alone, without the resources and bound of a :func:`metrology.qfi`
    report. The shifted matrix goes through ``metrology.build_workspace``
    as G does, so no eigendecomposition is formed.

    The phase-structure premise behind the identity is not checkable from
    (state, generator) alone; pass ``condition_verified=True`` after
    running :func:`counting_condition_check` to silence the advisory.
    Regularized probes are only approximately diagonal in the truncated
    eigenbasis, so off-eigenbasis structure is advisory here, not fatal.
    """
    if not condition_verified:
        warnings.warn(
            "direct-detection identity applied without verifying the "
            "phase-structure condition",
            ConditionNotVerifiedWarning,
            stacklevel=2,
        )
    shifted = gen.G - metrology.resources(d, gen).g_mean * signal_projector(gen)
    return metrology._qfi_value(d, metrology.build_workspace(d, shifted))


def counting_condition_check(
    pair: RegularizedModePair,
    grid: DiscretizationGrid,
    shift_samples: np.ndarray | list[float],
) -> tuple[float, bool]:
    """Check the phase condition for counting-based (direct) detection.

    Evaluates the two-photon amplitude g(z + a, z~ + a) of the mean-
    removed two-Gaussian-mode squeezed state on the grid for every shift
    sample and returns the largest magnitude of the shift derivative of
    its phase, Im[conj(g) dg/da] / |g|^2, together with the verdict
    max < 1e-6. Each mode's product m_k(z + a) m_k(z~ + a) has the exact
    derivative -[(z + z~ + 2a - 2 z_k) / (2 sigma^2) + 2i p_k] times
    itself. Points with |g| below 1e-12 are excluded, since the phase is
    undefined at zeros.
    """
    t = np.tanh(pair.r)
    s = np.sinh(pair.r) ** 2
    # mean-removed modes: momentum centers measured from the photon-weighted mean
    p = np.asarray(pair.center_p) - (s @ pair.center_p / s.sum() if s.sum() > 0 else 0.0)
    z = grid.quadrature_nodes()

    worst = 0.0
    for a in np.asarray(shift_samples, dtype=float):
        g0 = np.zeros((z.size, z.size), dtype=complex)
        dg = np.zeros_like(g0)
        for k in range(2):
            m = hg_mode(0, z + a, HGParams(pair.center_z[k], p[k], pair.sigma_z, pair.theta[k]))
            prod = 0.5 * t[k] * np.outer(m, m)
            w = (z + a - pair.center_z[k]) / (2.0 * pair.sigma_z**2) + 1j * p[k]
            g0 += prod
            dg -= (w[:, None] + w[None, :]) * prod
        mag = np.abs(g0)
        # amplitude floor: absolute for undefined phases at zeros, plus a
        # relative conditioning floor so cancellation noise near zeros of
        # the amplitude cannot masquerade as phase rotation
        keep = (mag > _PHASE_AMP_FLOOR) & (mag > 1e-3 * mag.max())
        if not np.any(keep):
            continue
        phase_deriv = np.abs(np.imag(np.conj(g0[keep]) * dg[keep]) / mag[keep] ** 2)
        worst = max(worst, float(phase_deriv.max()))
    return worst, worst < 1e-6
