"""Physical application layer: time-shift, frequency-shift, beam
displacement and beam tilt estimation with regularized two-Gaussian-mode
probes.

Provides the overlap integral of the two regularized modes, their 2x2
Schmidt analysis, assembly of the truncated generator in the Schmidt
basis, closed-form QFIs of Hermite-Gauss product probes, and a sweep
runner that tabulates probe families at fixed resources.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import measurement, metrology, optimal
from .errors import (
    ConditionNotVerifiedWarning,
    GaussmetError,
    GridTooCoarseError,
    InputError,
    RegularizationPoorError,
    RegularizationWarning,
)
from .gaussian import DisentangledForm
from .generator import DiscretizationGrid, Generator, from_matrix
from .metrology import ResourceTriple
from .regmodes import RegularizedModePair, reg_mode_function

SCENARIO_KINDS = ("time_shift", "frequency_shift", "beam_displacement", "beam_tilt")

# kinds whose generator is diagonal in the pair's p domain; the others
# estimate shifts of the Fourier-dual variable
_P_DOMAIN_KINDS = ("time_shift", "beam_displacement")

_CLEAN_OVERLAP = 1e-6
_WARN_OVERLAP = 1e-3


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
        if not self.n_signal > 0:
            raise InputError("n_signal must be positive")


def mode_overlap(pair: RegularizedModePair, grid: DiscretizationGrid) -> complex:
    """Overlap integral of the two regularized modes on a trapezoid grid.

    The grid must extend at least four widths beyond both centers; the
    integral is re-evaluated at doubled resolution and a deviation above
    1e-8 raises GridTooCoarseError.
    """
    lo = min(pair.center_z) - 4.0 * pair.sigma_z
    hi = max(pair.center_z) + 4.0 * pair.sigma_z
    if grid.z_min > lo or grid.z_max < hi:
        raise GridTooCoarseError("grid does not cover 8 sigma around both centers")

    def integrate(nodes: np.ndarray) -> complex:
        plus = reg_mode_function(nodes, pair.center_z[0], pair.center_p[0], pair.sigma_z, pair.theta[0])
        minus = reg_mode_function(nodes, pair.center_z[1], pair.center_p[1], pair.sigma_z, pair.theta[1])
        return complex(np.trapezoid(np.conj(plus) * minus, nodes))

    coarse = integrate(grid.quadrature_nodes())
    fine = integrate(np.linspace(grid.z_min, grid.z_max, 2 * grid.n_bins + 1))
    if abs(abs(fine) - abs(coarse)) > 1e-8:
        raise GridTooCoarseError(
            f"doubling the grid changes |overlap| by {abs(abs(fine) - abs(coarse)):.3e}"
        )
    return fine


def schmidt_pair(r_plus: float, r_minus: float, overlap_mag: float) -> SchmidtPairResult:
    """Schmidt strengths and mixing angle for two overlapping squeezed modes.

    r_{1,2} = (r- + r+ +- sqrt(4 r- r+ S^2 + (r+ - r-)^2)) / 2 and
    tan(2 chi) = 2 r- S sqrt(1 - S^2) / (r+ - r- + 2 r- S^2), with the
    branch chi in [0, pi/2]; equal strengths with S > 0 give chi = pi/4.
    """
    if not (0.0 <= overlap_mag <= 1.0):
        raise ValueError("overlap magnitude must lie in [0, 1]")
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


def _auto_grid(pair: RegularizedModePair) -> DiscretizationGrid:
    """Grid resolving both the Gaussian widths and the carrier beat."""
    lo = min(pair.center_z) - 6.0 * pair.sigma_z
    hi = max(pair.center_z) + 6.0 * pair.sigma_z
    beat = abs(pair.center_p[0] - pair.center_p[1])
    per_unit = max(16.0 / pair.sigma_z, 8.0 * beat / np.pi, 8.0 / (hi - lo))
    n_bins = min(int(np.ceil((hi - lo) * per_unit)) + 1, 400_000)
    return DiscretizationGrid(z_min=lo, z_max=hi, n_bins=n_bins)


def _ladder_coupling(level: int, sigma_z: float) -> complex:
    # coupling of Gaussian-family level `level` up to `level + 1`
    return -1j * np.sqrt((level + 1) / 2.0) / (np.sqrt(2.0) * sigma_z)


def build_regularized_probe(
    cfg: ScenarioConfig,
    n_hg_levels: int = 2,
    grid: DiscretizationGrid | None = None,
) -> tuple[DisentangledForm, Generator, ResourceTriple]:
    """Assemble the regularized two-mode probe and its truncated generator.

    Modes are ordered (Schmidt-0a, Schmidt-0b, plus-1, minus-1, plus-2,
    minus-2, ...): the two populated Schmidt modes first, then the higher
    Gaussian-family levels they couple to. The generator is the plain
    two-family ladder g0 rotated by the Schmidt mixing angle chi on the
    populated pair: g = O g0 O^T, with O the rotation by chi on modes 0
    and 1 and the identity elsewhere. Estimating the dual-domain
    parameters (a frequency shift on a time-separated pair, a tilt on a
    position-separated pair) swaps the roles of the pair's z and p
    parameters.
    """
    if n_hg_levels < 2:
        raise ValueError("need at least two Gaussian-family levels")
    pair = cfg.pair
    if cfg.kind not in _P_DOMAIN_KINDS:
        # dual-domain estimation: exchange center/width roles
        pair = RegularizedModePair(
            center_z=pair.center_p,
            center_p=pair.center_z,
            sigma_z=1.0 / (2.0 * pair.sigma_z),
            theta=pair.theta,
            r=pair.r,
        )
    overlap = mode_overlap(pair, grid or _auto_grid(pair))
    s_mag = abs(overlap)
    if s_mag >= _WARN_OVERLAP:
        raise RegularizationPoorError(
            f"mode overlap {s_mag:.3e} too large for the regularized closed forms"
        )
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

    m = 2 * n_hg_levels
    g = np.diag(np.tile(np.asarray(pair.center_p, dtype=complex), n_hg_levels))
    for k in range(m - 2):
        g[k + 2, k] = _ladder_coupling(k // 2, pair.sigma_z)
        g[k, k + 2] = np.conj(g[k + 2, k])
    rot = np.eye(m)
    rot[:2, :2] = [[np.cos(chi), -np.sin(chi)], [np.sin(chi), np.cos(chi)]]
    g = rot @ g @ rot.T
    gen = from_matrix(
        cfg.physical_scale * g,
        basis_label="schmidt",
        meta={"kind": cfg.kind, "overlap": overlap, "chi": chi},
    )
    phases = np.tile(np.exp(-1j * np.asarray(pair.theta)), n_hg_levels)
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
        raise ValueError("squeezing magnitudes must be nonnegative")
    c0_sq, c1_sq = s0_sq + 1.0, s1_sq + 1.0
    cs0 = np.sqrt(s0_sq * c0_sq)
    cs1 = np.sqrt(s1_sq * c1_sq)
    mean_part = 8.0 * p0**2 * (c0_sq * s0_sq + c1_sq * s1_sq)
    spread_part = (
        s1_sq * (c0_sq + 2.0) + s0_sq * c1_sq - 2.0 * cs0 * cs1 * np.cos(phase_diff)
    ) / sigma_z**2
    return float(mean_part + spread_part)


def _scenario_targets(cfg: ScenarioConfig) -> tuple[float, float]:
    """(gbar, dg) resource targets of the regularized pair for this kind."""
    pair = cfg.pair
    if cfg.kind in _P_DOMAIN_KINDS:
        centers, width = pair.center_p, 1.0 / (2.0 * pair.sigma_z)
    else:
        centers, width = pair.center_z, pair.sigma_z
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
        raise ValueError(f"unknown probe family {kind!r}")
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
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", category=ConditionNotVerifiedWarning)
                    direct = measurement.direct_detection_fi(state, gen)
            except GaussmetError:
                direct = float("nan")
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
