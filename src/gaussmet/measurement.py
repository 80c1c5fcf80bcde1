"""Fisher information of concrete measurements on Gaussian probes.

Multimode homodyne detection of generator eigenmodes (ideal, lossy, and
thermal-noise variants) with optimal phase selection, Monte Carlo
homodyne sampling with an empirical Fisher information estimator, direct
(photon-counting) detection via the mean-removed generator identity, and
the phase-structure condition under which that identity applies.

Homodyne outcome statistics: a squeezed-vacuum eigenmode measured at
relative phase phi has a zero-mean Gaussian outcome with variance

    sigma^2 = [eta (sinh(2r) cos(2(phi + lambda g)) + cosh(2r))
               + (1 - eta) sigma_env^2] / 2,

where sigma_env^2 = 1 is a vacuum environment and the thermal knob N_B
enters as sigma_env^2 = 2 N_B / (1 - eta) + 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import matkernel, metrology
from .errors import ConditionNotVerifiedWarning, InputError
from .gaussian import DisentangledForm
from .generator import DiscretizationGrid, Generator, from_matrix, signal_projector
from .regmodes import RegularizedModePair, reg_mode_function

_DIAG_TOL = 1e-9
_PHASE_AMP_FLOOR = 1e-12
_SHIFT_STEP = 1e-6  # central-difference step in the shift of counting_condition_check


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
        if self.sigma_env_sq < 1.0:
            raise InputError("sigma_env_sq must be at least 1 (vacuum)")
        if isinstance(self.phases, str):
            if self.phases != "auto":
                raise InputError("phases must be 'auto' or an explicit tuple")
        elif len(self.phases) != len(self.mode_indices):
            raise InputError("need one phase per measured mode")


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
    if eta >= 1.0 or n_thermal == 0.0:
        return 1.0
    return 2.0 * n_thermal / (1.0 - eta) + 1.0


def _eigenmode_data(d: DisentangledForm, gen: Generator, modes: tuple[int, ...]):
    """Per-mode (g, r) after checking each measured mode is an eigenmode.

    If Gtilde e_n = g_n e_n, the imprint maps c_n to e^{-i lambda g_n} c_n,
    so the outcomes of the measured modes depend on no other mode of the
    product state, and unmeasured modes need no check.
    """
    if any(not 0 <= n < d.n_modes for n in modes):
        raise InputError(f"measured mode indices must lie in [0, {d.n_modes}), got {modes}")
    gt = metrology.build_workspace(d, gen).Gtilde
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


def _variance_coefficients(r: float, eta: float, sigma_env_sq: float) -> tuple[float, float]:
    """A = eta cosh 2r + (1 - eta) sigma_env^2 and B = eta sinh 2r."""
    return (
        eta * np.cosh(2.0 * r) + (1.0 - eta) * sigma_env_sq,
        eta * np.sinh(2.0 * r),
    )


def _variance(a: float, b: float, g: float, phase: float, lam: float) -> float:
    """Outcome variance (A + B cos 2(phase + lam g)) / 2."""
    return float((a + b * np.cos(2.0 * (phase + lam * g))) / 2.0)


def homodyne_fi(d: DisentangledForm, gen: Generator, setup: HomodyneSetup) -> HomodyneResult:
    """Fisher information of multimode homodyne detection.

    Outcomes of distinct eigenmodes are independent Gaussians, so the FI
    is the sum of per-mode contributions 2 eta^2 g^2 sinh^2(2r) sin^2(t) /
    (A + B cos t)^2 with t = 2(phi + g lambda), A = eta cosh 2r +
    (1-eta) sigma_env^2, B = eta sinh 2r. With phases='auto' each phase is
    set to its optimum, where the contribution becomes
    2 eta^2 g^2 sinh^2(2r) / (A^2 - B^2); at eta = 1 that equals the
    eigenmode QFI share 8 g^2 s^2 (s^2 + 1).
    """
    data = _eigenmode_data(d, gen, setup.mode_indices)
    lam = setup.true_param
    per_mode, variances, phases_used = [], [], []
    for k, (g, r) in enumerate(data):
        a, b = _variance_coefficients(r, setup.eta, setup.sigma_env_sq)
        if setup.phases == "auto":
            phi = float(0.5 * np.arccos(b / a) - g * lam + 0.5 * np.pi)
            var = _variance(a, b, g, phi, lam)
            fi_n = 2.0 * b**2 * g**2 / (a**2 - b**2) if r > 0 else 0.0
        else:
            phi = float(setup.phases[k])
            var = _variance(a, b, g, phi, lam)
            fi_n = b**2 * g**2 * np.sin(2.0 * (phi + g * lam)) ** 2 / (2.0 * var**2)
        variances.append(var)
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
    rng = np.random.default_rng(seed)
    out = np.empty((len(setup.mode_indices), n_samples))
    for k, var in enumerate(result.variances):
        out[k] = rng.normal(0.0, np.sqrt(var), size=n_samples)
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
    Gaussian outcome x with variance v(lambda) is (x^2/v - 1) v'/(2v),
    where v' = -B g sin 2(phi + lambda g); the FI estimate is the mean
    squared score summed over modes.
    """
    data = _eigenmode_data(d, gen, setup.mode_indices)
    base = homodyne_fi(d, gen, setup)
    samples = sample_homodyne(d, gen, setup, n_samples, seed)
    total = 0.0
    for k, (g, r) in enumerate(data):
        _, b = _variance_coefficients(r, setup.eta, setup.sigma_env_sq)
        v = base.variances[k]
        dv = -b * g * np.sin(2.0 * (base.phases_used[k] + setup.true_param * g))
        score = (samples[k] ** 2 / v - 1.0) * (dv / (2.0 * v))
        total += float(np.mean(score**2))
    return total


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
    the generator, G -> G - gbar P_S, and evaluating the exact QFI.

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
    res = metrology.resources(d, gen)
    shifted = gen.G - res.g_mean * signal_projector(gen)
    gen_shifted = from_matrix(shifted, signal_tol=gen.signal_tol)
    return metrology.qfi(d, gen_shifted).qfi


def counting_condition_check(
    pair: RegularizedModePair,
    grid: DiscretizationGrid,
    shift_samples: np.ndarray | list[float],
) -> tuple[float, bool]:
    """Check the phase condition for counting-based (direct) detection.

    Evaluates the two-photon amplitude g(z + a, z~ + a) of the mean-
    removed two-Gaussian-mode squeezed state on the grid for every shift
    sample and returns the largest magnitude of the shift derivative of
    its phase, computed as Im[conj(g) dg/da] / |g|^2, together with the
    verdict max < 1e-6. Points with |g| below 1e-12 are excluded, since
    the phase is undefined at zeros.
    """
    t_plus, t_minus = np.tanh(pair.r[0]), np.tanh(pair.r[1])
    s_plus, s_minus = np.sinh(pair.r[0]) ** 2, np.sinh(pair.r[1]) ** 2
    n_total = s_plus + s_minus
    p_mean = (
        (s_plus * pair.center_p[0] + s_minus * pair.center_p[1]) / n_total
        if n_total > 0
        else 0.0
    )

    z = grid.quadrature_nodes()
    zz, zz_t = np.meshgrid(z, z, indexing="ij")

    def amplitude(a: float) -> np.ndarray:
        # mean-removed modes: momentum centers measured from p_mean
        m1 = reg_mode_function(zz + a, pair.center_z[0], pair.center_p[0] - p_mean,
                               pair.sigma_z, pair.theta[0])
        m1t = reg_mode_function(zz_t + a, pair.center_z[0], pair.center_p[0] - p_mean,
                                pair.sigma_z, pair.theta[0])
        m2 = reg_mode_function(zz + a, pair.center_z[1], pair.center_p[1] - p_mean,
                               pair.sigma_z, pair.theta[1])
        m2t = reg_mode_function(zz_t + a, pair.center_z[1], pair.center_p[1] - p_mean,
                                pair.sigma_z, pair.theta[1])
        return 0.5 * (t_plus * m1 * m1t + t_minus * m2 * m2t)

    worst = 0.0
    for a in np.asarray(shift_samples, dtype=float):
        g0 = amplitude(a)
        dg = (amplitude(a + _SHIFT_STEP) - amplitude(a - _SHIFT_STEP)) / (2.0 * _SHIFT_STEP)
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
