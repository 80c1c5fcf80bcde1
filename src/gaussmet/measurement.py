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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import matkernel, metrology
from .errors import ConditionNotVerifiedWarning, InputError, _allocate, _require_integer, require_finite
from .gaussian import DisentangledForm
from .generator import DiscretizationGrid, Generator, HGParams, hg_mode, signal_projector
from .regmodes import RegularizedModePair

_DIAG_TOL = 1e-9
_PHASE_AMP_FLOOR = 1e-12
_BLOCK = 1 << 16  # samples scored or written per step, so no temporary grows with the sample count


@dataclass(frozen=True)
class HomodyneSetup:
    """Modes to homodyne, phases ('auto' or explicit), loss, and noise."""

    mode_indices: tuple[int, ...]
    phases: tuple[float, ...] | str = "auto"
    eta: float = 1.0
    sigma_env_sq: float = 1.0
    true_param: float = 0.0

    def __post_init__(self):
        require_finite(eta=self.eta, sigma_env_sq=self.sigma_env_sq, true_param=self.true_param)
        if not (0.0 < self.eta <= 1.0):
            raise InputError("eta must lie in (0, 1]")
        if not self.sigma_env_sq >= 1.0:
            raise InputError("sigma_env_sq must be at least 1 (vacuum)")
        if isinstance(self.phases, str):
            if self.phases != "auto":
                raise InputError("phases must be 'auto' or an explicit tuple")
        elif len(self.phases) != len(self.mode_indices):
            raise InputError("need one phase per measured mode")
        else:
            require_finite(**{f"phase {k}": phi for k, phi in enumerate(self.phases)})
        for n in self.mode_indices:  # a bool is no index; a negative one fails homodyne_fi's range check
            _require_integer(n, -math.inf, "measured mode indices must be integers")
        if len(set(self.mode_indices)) != len(self.mode_indices):
            raise InputError(f"measured mode indices must be distinct, got {self.mode_indices}")


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
    irrelevant and the vacuum value is returned. Like ``HomodyneSetup``, it
    raises InputError unless n_thermal >= 0 and eta in (0, 1] are finite numbers.
    """
    require_finite(n_thermal=n_thermal)
    if n_thermal < 0.0:
        raise InputError("n_thermal must be nonnegative")
    HomodyneSetup(mode_indices=(), eta=eta)  # its eta rule
    if eta == 1.0 or n_thermal == 0.0:
        return 1.0
    return 2.0 * n_thermal / (1.0 - eta) + 1.0


def _eigenmode_data(d: DisentangledForm, gen: Generator, measured: np.ndarray):
    """Per mode of a probe, or of each probe of a stack with its stack of generators: (g, coupling, alpha,
    scale); ``measured`` flags the measured modes. Only a probe with a cluster to turn (see below) loops in Python.

    Gtilde = ``metrology.build_workspace(d, gen.G)`` is the generator in
    the probe's product basis. If Gtilde e_n = g_n e_n, the imprint maps
    c_n to e^{-i lambda g_n} c_n, so the outcomes of the measured modes
    depend on no other mode of the product state, and unmeasured modes
    need no check. Modes whose r ``matkernel.takagi`` counts as equal are
    fixed by ``disentangle`` only up to a real rotation (any unitary if
    unsqueezed), which leaves the state unchanged; so each such cluster that
    holds a measured mode and that Gtilde couples is first turned, with its
    displacements, to the eigenbasis of Re Gtilde (of Gtilde if unsqueezed).
    Then g is the diagonal of Gtilde, and a mode is an eigenmode when its
    coupling, the largest off-diagonal entry of its column, is at most _DIAG_TOL * scale.
    """
    gt = metrology.build_workspace(d, gen.G)
    alpha, m = d.alpha.copy(), d.n_modes
    scale = np.maximum(1.0, np.abs(gen.G).max(axis=(-2, -1)))
    gap = matkernel._R_GAP * np.maximum(1.0, d.r.max(axis=-1))
    off = np.abs(gt - gt.diagonal(axis1=-2, axis2=-1)[..., None, :] * np.eye(m))
    r_sorted = np.sort(d.r, axis=-1, kind="stable")  # a cluster to turn needs two near-equal r and a coupling
    near = (r_sorted[..., 1:] - r_sorted[..., :-1] < gap[..., None]).any(axis=-1)
    turn = near & (off.max(axis=(-2, -1)) > _DIAG_TOL * scale)
    for p in map(tuple, np.argwhere(turn) if turn.any() else ()):
        g_p, a_p, r_p = gt[p], alpha[p], d.r[p]
        order = np.argsort(r_p, kind="stable")  # stable: numpy's default sort kernel costs 0.25 MiB RSS
        for sl in matkernel._cluster_slices(r_p[order], gap[p]):
            c = sorted(order[sl].tolist())  # index order: the order of r would permute the turned modes
            if len(c) < 2 or not measured[p][c].any():
                continue
            block = g_p[np.ix_(c, c)]
            if matkernel.max_norm(block - np.diag(np.diag(block))) > _DIAG_TOL * scale[p]:
                rot = np.linalg.eigh(block if r_p[c].max() <= gap[p] else block.real)[1]
                g_p[:, c] = g_p[:, c] @ rot
                g_p[c, :] = rot.conj().T @ g_p[c, :]
                a_p[c] = rot.conj().T @ a_p[c]
        off[p] = np.abs(g_p - np.diag(g_p.diagonal()))
    return gt.diagonal(axis1=-2, axis2=-1).real, off.max(axis=-2), alpha, scale


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
    modes, eta, m = setup.mode_indices, setup.eta, d.n_modes
    if any(not 0 <= n < m for n in modes):
        raise InputError(f"measured mode indices must lie in [0, {m}), got {modes}")
    idx, measured = list(modes), np.zeros(m, dtype=bool)
    measured[idx] = True
    g, coupling, alpha, scale = _eigenmode_data(d, gen, measured)
    bad = np.flatnonzero(coupling[idx] > _DIAG_TOL * scale)
    if bad.size:
        mode, value = modes[bad[0]], coupling[idx][bad[0]]
        raise InputError(f"state mode {mode} is not a generator eigenmode (coupling {value:.3e})")
    if alpha[idx].any():
        raise InputError("homodyne formulas assume squeezed-vacuum modes; measured mode is displaced")
    parts = _mode_fi(g[idx], d.r[idx], eta, eta**2, (1.0 - eta) * setup.sigma_env_sq, setup.phases, setup.true_param)
    fi, var, phi = (tuple(a.tolist()) for a in parts)
    return HomodyneResult(fi=float(sum(fi)), per_mode_fi=fi, variances=var, phases_used=phi)


def _table_fi(d: DisentangledForm, gen: Generator, setups) -> np.ndarray:
    """Auto-phase :func:`homodyne_fi` of each probe of a stack, measuring its squeezed modes, at each
    setup: one array over the stack's axes and the setups, each entry homodyne_fi's value to the bit,
    and NaN where no mode is squeezed or homodyne_fi would raise InputError."""
    measured = d.r > 0
    g, coupling, alpha, scale = _eigenmode_data(d, gen, measured)
    bad = measured & ((coupling > _DIAG_TOL * scale[..., None]) | (alpha != 0))
    # the setups on an axis of their own; eta**2 is rounded as homodyne_fi's float ** rounds it
    eta, eta_sq, noise = (np.array(v)[:, None] for v in zip(*((s.eta, s.eta**2, (1.0 - s.eta) * s.sigma_env_sq)
                                                                for s in setups)))
    fi = _mode_fi(g[..., None, :], d.r[..., None, :], eta, eta_sq, noise)[0]
    total = np.cumsum(np.where(measured[..., None, :], fi, 0.0), axis=-1)[..., -1]  # homodyne_fi's sum, in mode order
    return np.where((measured.any(axis=-1) & ~bad.any(axis=-1))[..., None], total, np.nan)


def _mode_fi(g: np.ndarray, r: np.ndarray, eta, eta_sq, noise, phases="auto", lam=0.0):
    """Per-mode arrays (fi, variance, phase) of :func:`homodyne_fi` for modes of eigenvalue g and squeezing r,
    at transmissivity eta (eta_sq = eta**2) and environment noise (1 - eta) sigma_env^2, all broadcast."""
    b = eta * np.sinh(2.0 * r)
    if phases == "auto":
        c = eta * np.cosh(2.0 * r)
        den = eta_sq + noise * (2.0 * c + noise)
        phi = 0.5 * np.arctan2(np.sqrt(den), b) - g * lam + 0.5 * np.pi
        var = den / (2.0 * (c + noise))
        fi = 2.0 * (b * g) ** 2 / den
    else:
        phi = np.array(phases, dtype=float)
        half = phi + g * lam
        var = (eta * (np.exp(2.0 * r) * np.cos(half) ** 2 + np.exp(-2.0 * r) * np.sin(half) ** 2)
               + noise) / 2.0
        fi = (b * g * np.sin(2.0 * half)) ** 2 / (2.0 * var**2)
    return fi, var, phi


def sample_homodyne(
    d: DisentangledForm,
    gen: Generator,
    setup: HomodyneSetup,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Draw homodyne outcomes, one row of n_samples per measured mode.

    Outcomes are independent zero-mean Gaussians at the per-mode variance of the setup; a seed (integer >= 0)
    reproduces its stream. n_samples is an integer from 1 to 2**44 (8 * n_samples bytes per row fill at most
    the 47-bit address space); numpy integers count, a bool does not.
    """
    k, rows = _sample_blocks(d, gen, setup, n_samples, seed)
    out = _allocate((k, n_samples), f"{n_samples} samples per measured mode")
    for dest, row in zip(out, rows):
        for start, block in zip(range(0, n_samples, _BLOCK), row):
            dest[start:start + block.size] = block
    return out


def _sample_blocks(d, gen, setup, n_samples, seed):
    """(k, rows) of :func:`sample_homodyne`'s draw for its k measured modes: ``rows`` yields each mode's row in
    mode order from one ``default_rng(seed)`` stream, as an iterator over its consecutive blocks of at most
    ``_BLOCK`` scaled samples. Read each row to its end before the next; every block is one reused buffer, valid
    until the next is drawn. Filled block by block, the stream gives the values of one (k, n_samples) draw."""
    seed = _require_integer(seed, 0, "seed must be non-negative and an integer")
    n_samples = _require_integer(n_samples, 1, "n_samples must be an integer of at least 1")
    scale = np.sqrt(homodyne_fi(d, gen, setup).variances)
    if n_samples > 2**44:  # a row of 8 * n_samples bytes past the 47-bit address space
        raise InputError(f"cannot allocate {n_samples} samples per measured mode")
    rng, buf = np.random.default_rng(seed), np.empty(min(n_samples, _BLOCK))

    def row(s):
        for start in range(0, n_samples, _BLOCK):
            block = rng.standard_normal(out=buf[: min(_BLOCK, n_samples - start)])
            block *= s
            yield block

    return scale.size, map(row, scale)


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
    from :func:`homodyne_fi`. The samples are :func:`sample_homodyne`'s, drawn
    and scored one block of ``_BLOCK`` samples at a time, so memory does not
    grow with n_samples or the number of measured modes.
    """
    return _score_fi(homodyne_fi(d, gen, setup), _sample_blocks(d, gen, setup, n_samples, seed)[1])


def _score_fi(base: HomodyneResult, rows) -> float:
    """:func:`empirical_fi` from ``rows`` drawn at ``base``'s setup, one per measured mode: an array, or any
    iterable of rows. A row is an array, scored ``_BLOCK`` at a time and left unchanged, or, as ``_sample_blocks``
    yields, an iterable of its consecutive blocks."""
    buf, total = np.empty(_BLOCK), 0.0  # rows may come a block at a time, so their length is not known here
    for fi_n, v, row in zip(base.per_mode_fi, base.variances, rows):
        if isinstance(row, np.ndarray):
            row = np.split(row, range(_BLOCK, row.size, _BLOCK))
        sq_sum, size = 0.0, 0
        for x in row:
            y = np.square(x, out=buf[: x.size])
            y /= v
            y -= 1.0
            sq_sum += float(y @ y)
            size += x.size
        total += 0.5 * fi_n * (sq_sum / size)
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
    return _direct_fi(d, gen, metrology.resources(d, gen).g_mean)


def _direct_fi(d: DisentangledForm, gen: Generator, g_mean: float) -> float:
    """:func:`direct_detection_fi` given the resource mean ``g_mean``, one per probe of a stack; warns nothing."""
    shifted = gen.G - np.asarray(g_mean)[..., None, None] * signal_projector(gen)
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
