"""Physical application layer: time-shift, frequency-shift, beam
displacement and beam tilt estimation with regularized two-Gaussian-mode
probes.

Provides the closed-form overlap of the two regularized modes, their 2x2
Schmidt analysis, assembly of the truncated generator in the Schmidt
basis, closed-form QFIs of Hermite-Gauss product probes, and a sweep
runner that tabulates probe families at fixed resources.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import measurement, metrology, optimal
from .errors import ConditionNotVerifiedWarning, GaussmetError, InputError, RegularizationWarning, require_finite
from .gaussian import DisentangledForm
from .generator import SHIFT_DOMAINS as SCENARIO_KINDS, Generator, _hg_ladder, from_matrix
from .metrology import ResourceTriple
from .regmodes import RegularizedModePair

# kinds whose generator is diagonal in the pair's p domain; the others
# estimate shifts of the Fourier-dual variable
_P_DOMAIN_KINDS = ("time_shift", "beam_displacement")

_CLEAN_OVERLAP = 1e-6
_WARN_OVERLAP = 1e-3

# Gaussian-family levels kept per mode of the pair by build_regularized_probe
_HG_LEVELS = 2


@dataclass(frozen=True)
class SchmidtPairResult:
    """Schmidt strengths and mixing angle of two overlapping squeezed modes."""

    r1: float
    r2: float
    chi: float
    overlap: complex


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    pair: RegularizedModePair
    n_signal: float
    physical_scale: float = 1.0
    sweep: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise InputError(f"kind must be one of {SCENARIO_KINDS}")
        require_finite(n_signal=self.n_signal, physical_scale=self.physical_scale)
        if not self.n_signal > 0:
            raise InputError("n_signal must be positive")
        for key, values in self.sweep.items():
            if key not in ("n_signal", "eta") or not isinstance(values, (list, tuple)) or not values:
                raise InputError(f"sweep takes non-empty lists n_signal and eta, got {key}: {values!r}")
            require_finite(**{f"sweep {key} entry {k}": v for k, v in enumerate(values)})


def mode_overlap(pair: RegularizedModePair) -> complex:
    """Overlap <mode 0|mode 1> of the two regularized modes, in closed form.

    With dz = z0 - z1 and dp = p0 - p1 the Gaussian integral gives
    exp(-dz^2/(8 sigma^2) - sigma^2 dp^2/2) exp(i(theta0 - theta1 - (p0 + p1) dz/2)).
    """
    (z0, z1), (p0, p1), (t0, t1) = pair.center_z, pair.center_p, pair.theta
    dz, dp, sigma = z0 - z1, p0 - p1, pair.sigma_z
    return complex(
        np.exp(-(dz**2) / (8.0 * sigma**2) - 0.5 * sigma**2 * dp**2)
        * np.exp(1j * (t0 - t1 - 0.5 * (p0 + p1) * dz))
    )


def schmidt_pair(r_plus: float, r_minus: float, overlap_mag: float) -> SchmidtPairResult:
    """Schmidt strengths and mixing angle for two overlapping squeezed modes.

    r_{1,2} = (r- + r+ +- sqrt(4 r- r+ S^2 + (r+ - r-)^2)) / 2 and
    tan(2 chi) = 2 r- S sqrt(1 - S^2) / (r+ - r- + 2 r- S^2), with the
    branch chi in [0, pi/2]; equal strengths with S > 0 give chi = pi/4.
    """
    if not (0.0 <= overlap_mag <= 1.0):
        raise InputError("overlap magnitude must lie in [0, 1]")
    s2 = overlap_mag**2
    root = np.sqrt(4.0 * r_plus * r_minus * s2 + (r_plus - r_minus) ** 2)
    r1 = 0.5 * (r_minus + r_plus + root)
    r2 = 0.5 * (r_minus + r_plus - root)
    if overlap_mag == 0.0:
        chi = 0.0
    elif abs(r_plus - r_minus) == 0.0:
        chi = np.pi / 4.0
    else:
        num = 2.0 * r_minus * overlap_mag * np.sqrt(1.0 - s2)
        den = r_plus - r_minus + 2.0 * r_minus * s2
        chi = 0.5 * np.arctan2(num, den)
        if chi < 0.0:
            chi += np.pi / 2.0
    return SchmidtPairResult(r1=float(r1), r2=float(r2), chi=float(chi), overlap=complex(overlap_mag))


def build_regularized_probe(cfg: ScenarioConfig) -> tuple[DisentangledForm, Generator, ResourceTriple]:
    """Assemble the regularized two-mode probe and its truncated generator.

    Modes are ordered (Schmidt-0a, Schmidt-0b, plus-1, minus-1): the two
    populated Schmidt modes first, then the first higher Gaussian-family
    level of each, which they couple to. The generator is the two
    families' Hermite-Gauss ladders (``generator._hg_ladder``), interleaved
    as g0 and rotated by the Schmidt mixing angle chi on the
    populated pair: g = O g0 O^T, with O the rotation by chi on modes 0
    and 1 and the identity elsewhere. The pair is read as the kind's
    generator sees it (:func:`_generator_frame`).
    """
    pair, _ = _generator_frame(cfg)
    overlap = mode_overlap(pair)
    s_mag = abs(overlap)
    if s_mag >= _WARN_OVERLAP:
        raise InputError(f"mode overlap {s_mag:.3e} too large for the regularized closed forms")
    if s_mag >= _CLEAN_OVERLAP:
        warnings.warn(
            f"mode overlap {s_mag:.3e} is not negligible; closed forms degrade",
            RegularizationWarning,
            stacklevel=2,
        )
    r_plus, r_minus = pair.r
    theta_gap = (pair.theta[0] - pair.theta[1]) % np.pi
    matched_theta = min(theta_gap, np.pi - theta_gap) < 1e-12
    if matched_theta:
        schmidt = schmidt_pair(r_plus, r_minus, s_mag)
        chi = schmidt.chi
        r_modes = (schmidt.r1, schmidt.r2)
    else:
        # disjoint-support limit: families stay independent Schmidt modes
        chi = 0.0
        r_modes = (r_plus, r_minus)

    m = 2 * _HG_LEVELS
    g = np.zeros((m, m), dtype=complex)
    for k in range(2):  # family k holds modes k, k + 2, ...
        g[k::2, k::2] = _hg_ladder(pair.center_p[k], pair.sigma_z, _HG_LEVELS)
    rot = np.eye(m)
    rot[:2, :2] = [[np.cos(chi), -np.sin(chi)], [np.sin(chi), np.cos(chi)]]
    g = rot @ g @ rot.T
    gen = from_matrix(
        cfg.physical_scale * g,
        basis_label="schmidt",
        meta={"kind": cfg.kind, "overlap": overlap, "chi": chi},
    )
    phases = np.tile(np.exp(-1j * np.asarray(pair.theta)), _HG_LEVELS)
    r_vec = np.zeros(m)
    r_vec[0], r_vec[1] = r_modes
    state = DisentangledForm(V=np.diag(phases), alpha=np.zeros(m, dtype=complex), r=r_vec)
    return state, gen, metrology.resources(state, gen)


def hg_product_qfi(
    s0_sq: float, s1_sq: float, p0: float, sigma_z: float, phase_diff: float
) -> float:
    """Closed-form QFI of a probe squeezed in the two lowest HG modes.

    Squeezing magnitudes sinh^2 r = (s0_sq, s1_sq) with relative squeezing
    angle ``phase_diff``; the generator is the coordinate-shift generator
    of the Hermite-Gauss family with carrier p0 and width sigma_z. For
    equal strengths and phase_diff = pi this reduces to
    2 N (2 p0^2 (N + 2) + dg^2 (N + 3)) with dg^2 = 1/(2 sigma_z^2).
    """
    if s0_sq < 0 or s1_sq < 0:
        raise InputError("squeezing magnitudes must be nonnegative")
    c0_sq, c1_sq = s0_sq + 1.0, s1_sq + 1.0
    cs0 = np.sqrt(s0_sq * c0_sq)
    cs1 = np.sqrt(s1_sq * c1_sq)
    mean_part = 8.0 * p0**2 * (c0_sq * s0_sq + c1_sq * s1_sq)
    spread_part = (
        s1_sq * (c0_sq + 2.0) + s0_sq * c1_sq - 2.0 * cs0 * cs1 * np.cos(phase_diff)
    ) / sigma_z**2
    return float(mean_part + spread_part)


def _generator_frame(cfg: ScenarioConfig) -> tuple[RegularizedModePair, float]:
    """The pair as the kind's generator sees it, and its width in the generator's domain.

    Dual-domain kinds (a frequency shift on a time-separated pair, a tilt on a
    position-separated pair) swap the roles of z and p; their width is ``sigma_z``.
    """
    pair = cfg.pair
    if cfg.kind in _P_DOMAIN_KINDS:
        return pair, 1.0 / (2.0 * pair.sigma_z)
    swapped = replace(pair, center_z=pair.center_p, center_p=pair.center_z, sigma_z=1.0 / (2.0 * pair.sigma_z))
    return swapped, pair.sigma_z


def _scenario_targets(cfg: ScenarioConfig) -> tuple[float, float]:
    """(gbar, dg) resource targets of the regularized pair for this kind."""
    pair, width = _generator_frame(cfg)
    centers = pair.center_p
    gbar = 0.5 * (centers[0] + centers[1]) * cfg.physical_scale
    delta = 0.5 * abs(centers[0] - centers[1]) * cfg.physical_scale
    dg = np.hypot(delta, width * cfg.physical_scale)
    return float(gbar), float(dg)


def table_probe(kind: str, n_signal: float, gbar: float, dg: float):
    """Ideal probe of one table family at exactly the given resources.

    Returns (state, generator); each family gets the smallest generator
    whose spectrum realizes the required eigenvalues exactly. The optimal
    family needs dg > 0 (InputError otherwise).
    """
    if kind == "derivative_displaced":
        gen = from_matrix(np.array([[gbar, 1j * dg], [-1j * dg, gbar]], dtype=complex))
        spec = optimal.ProbeSpec(kind=kind, n_signal=n_signal)
        return optimal.build_probe(spec, gen).state, gen
    if kind in ("coherent", "mean_optimal"):
        gen = from_matrix(np.diag([gbar - dg, gbar + dg]).astype(complex))
        if kind == "coherent":
            amp = np.sqrt(n_signal / 2.0)
            alpha = np.array([amp, amp], complex)
            return DisentangledForm(V=np.eye(2, dtype=complex), alpha=alpha, r=np.zeros(2)), gen
        # squeeze the equal superposition of the two eigenmodes
        spec = optimal.ProbeSpec(
            kind=kind, n_signal=n_signal, mode_vector=np.array([1.0, 1.0], complex) / np.sqrt(2.0)
        )
        return optimal.build_probe(spec, gen).state, gen
    spec = optimal.ProbeSpec(
        kind=kind, n_signal=n_signal, target_gmean=gbar, target_gvar=dg**2
    )
    if kind not in ("optimal", "variance_optimal"):
        raise InputError(f"unknown probe family {kind!r}")
    gen = from_matrix(np.diag(optimal._pair_split(spec)[2:]).astype(complex))
    return optimal.build_probe(spec, gen).state, gen


TABLE_KINDS = ("coherent", "mean_optimal", "derivative_displaced", "variance_optimal", "optimal")


def run_scenario(cfg: ScenarioConfig) -> list[dict]:
    """Tabulate probe families at the scenario's resources.

    One row per (probe kind, signal photon number, transmissivity):
    engine QFI, resource bound, auto-phase homodyne FI at the given
    transmissivity, and direct-detection FI. Homodyne entries are NaN for
    probes with no squeezed mode and for families the eigenmode homodyne
    formulas do not cover (displaced or off-eigenbasis probes).
    """
    gbar, dg = _scenario_targets(cfg)
    ns_values = cfg.sweep.get("n_signal", [cfg.n_signal])
    etas = cfg.sweep.get("eta", [1.0])
    rows = []
    for kind in TABLE_KINDS:
        for n_signal in ns_values:
            state, gen = table_probe(kind, float(n_signal), gbar, dg)
            report = metrology.qfi(state, gen)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", category=ConditionNotVerifiedWarning)
                direct = measurement.direct_detection_fi(state, gen)
            modes = tuple(int(k) for k in np.nonzero(state.r > 0)[0])
            for eta in etas:
                hom = float("nan")
                if modes:
                    setup = measurement.HomodyneSetup(mode_indices=modes, eta=float(eta))
                    try:
                        hom = measurement.homodyne_fi(state, gen, setup).fi
                    except GaussmetError:
                        pass
                rows.append(
                    {
                        "probe_kind": kind,
                        "n_signal": report.resources.n_signal,
                        "g_mean": report.resources.g_mean,
                        "g_sd": float(np.sqrt(report.resources.g_var)),
                        "eta": float(eta),
                        "qfi": report.qfi,
                        "bound": report.bound,
                        "homodyne_fi": hom,
                        "direct_fi": direct,
                    }
                )
    return rows
