"""Constructors for the named probe states of mode-parameter estimation.

Each constructor targets a resource triple (signal photons N, generator
mean gbar, generator spread dg) and returns the probe in disentangled
form together with the achieved resources, the residual of matching the
required generator eigenvalues onto the available spectrum, and the exact
QFI the construction predicts.

Probe kinds and their asymptotic QFI coefficients (c_gbar, c_dg) on the
N^2 term: optimal (8, 4), variance_optimal (4, 4), mean_optimal (8, 0),
derivative_displaced (2, 4), idler_assisted (8, 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrology
from .errors import InputError, require_finite
from .gaussian import DisentangledForm
from .generator import Generator

PROBE_KINDS = (
    "optimal",
    "variance_optimal",
    "mean_optimal",
    "derivative_displaced",
    "idler_assisted",
)


@dataclass(frozen=True)
class ProbeSpec:
    """Requested probe kind, resource targets, and optional mode choices."""

    kind: str
    n_signal: float
    target_gmean: float = 0.0
    target_gvar: float = 0.0
    squeeze_angles: tuple[float, float] = (0.0, 0.0)
    mode_choice: tuple[int, ...] | None = None
    mode_vector: np.ndarray | None = None
    spectrum_tol: float = np.inf

    def __post_init__(self):
        if self.kind not in PROBE_KINDS:
            raise InputError(f"kind must be one of {PROBE_KINDS}, got {self.kind!r}")
        require_finite(n_signal=self.n_signal, target_gmean=self.target_gmean, target_gvar=self.target_gvar)
        if not self.n_signal > 0:
            raise InputError("n_signal must be positive")
        if self.target_gvar < 0:
            raise InputError("target_gvar must be nonnegative")
        if self.spectrum_tol != self.spectrum_tol:  # NaN; the default +inf is valid
            raise InputError("spectrum_tol must not be NaN")


@dataclass(frozen=True)
class ProbeResult:
    state: DisentangledForm
    achieved: metrology.ResourceTriple
    eigen_residual: float
    predicted_qfi: float


def _nearest_signal_index(gen: Generator, value: float, taken: set[int]) -> int:
    g = gen.eig.eigvals
    order = np.argsort(np.abs(g - value), kind="stable")
    for idx in order:
        idx = int(idx)
        if idx not in taken and not gen.idler_mask[idx]:
            return idx
    raise InputError("no free signal eigenvalue available")


def _phase_diag(m: int, entries: dict[int, float]) -> np.ndarray:
    t = np.ones(m, dtype=complex)
    for idx, phi in entries.items():
        t[idx] = np.exp(0.5j * phi)
    return np.diag(t)


def _complete_unitary(v: np.ndarray) -> np.ndarray:
    """Unitary whose first column is the given unit vector."""
    m = v.shape[0]
    pivot = int(np.argmax(np.abs(v)))
    others = [np.eye(m, dtype=complex)[:, k] for k in range(m) if k != pivot]
    a = np.column_stack([v] + others)
    q, r = np.linalg.qr(a)
    # undo the arbitrary phase QR put on the first column
    q[:, 0] = q[:, 0] * (r[0, 0] / abs(r[0, 0]))
    return q


# spread target at or below which the idler-assisted probe has no spread to match
_ZERO_SPREAD = 1e-24

# number of mode_choice indices each kind takes; the idler-assisted probe
# names (signal i, idler of i, signal j, idler of j), the others two modes
_MODE_COUNTS = {"mean_optimal": 1, "idler_assisted": 4}


def _checked_modes(spec: ProbeSpec, m: int) -> tuple[int, ...] | None:
    modes = spec.mode_choice
    if modes is None and spec.kind == "derivative_displaced":
        modes = (0, 1)  # the derivative-displaced probe defaults to basis modes 0, 1
    if modes is None:
        return None
    modes = tuple(int(k) for k in modes)
    count = _MODE_COUNTS.get(spec.kind, 2)
    if len(modes) != count or len(set(modes)) != count or min(modes) < 0 or max(modes) >= m:
        raise InputError(
            f"{spec.kind} needs {count} distinct mode indices in [0, {m}), got {modes}"
        )
    return modes


def _splits(spec: ProbeSpec) -> bool:
    """Whether the spread moves q = gbar / hypot(gbar, dg) off +-1, so
    that both modes of a two-mode probe get photons."""
    gbar = spec.target_gmean
    return abs(gbar) < np.hypot(gbar, np.sqrt(spec.target_gvar))


def _pair_split(spec: ProbeSpec) -> tuple[float, float, float, float]:
    """Photon split (si2, sj2) of a two-mode probe and its matched eigenvalues.

    The variance-optimal probe halves N; the others weight the pair by
    q = gbar / sqrt(gbar^2 + dg^2). The eigenvalues gbar - dg sqrt(sj2/si2)
    and gbar + dg sqrt(si2/sj2) give the pair the target mean and spread.
    Where q is +-1 or undefined (dg = 0, or dg too small to move q) one
    mode would get no photons, and InputError is raised.
    """
    gbar, dg = spec.target_gmean, np.sqrt(spec.target_gvar)
    if spec.kind == "variance_optimal":
        si2 = sj2 = 0.5 * spec.n_signal
    else:
        if not _splits(spec):
            raise InputError(f"{spec.kind} needs a spread that splits N over two modes, got dg {dg:g} at gbar {gbar:g}")
        q = gbar / np.hypot(gbar, dg)
        si2 = 0.5 * spec.n_signal * (1.0 - q)
        sj2 = 0.5 * spec.n_signal * (1.0 + q)
    return si2, sj2, gbar - dg * np.sqrt(sj2 / si2), gbar + dg * np.sqrt(si2 / sj2)


def _build_two_mode(spec: ProbeSpec, gen: Generator, modes: tuple[int, ...] | None) -> ProbeResult:
    """Squeeze the eigenmodes matched to the pair's eigenvalues.

    The idler-assisted kind sends each of them through a zero-phase 50:50
    beamsplitter with an idler. With equal squeezing angles inside a pair
    the beamsplitter leaves the pair's squeezing matrix invariant, which
    keeps the QFI and resources those of the idler-less probe (an angle
    offset of pi would entangle the pair and halve the leading term).
    """
    si2, sj2, want_i, want_j = _pair_split(spec)
    with_idlers = spec.kind == "idler_assisted"
    if modes is not None:
        (i, j), idlers = (modes[::2], modes[1::2]) if with_idlers else (modes, ())
    else:
        idlers = tuple(gen.idler_indices[:2]) if with_idlers else ()
        if with_idlers and len(idlers) < 2:
            raise InputError("generator provides fewer than two idler modes")
        i = _nearest_signal_index(gen, want_i, set())
        j = _nearest_signal_index(gen, want_j, {i})
    g = gen.eig.eigvals
    residual = max(abs(g[i] - want_i), abs(g[j] - want_j))
    if residual > spec.spectrum_tol:
        raise InputError(
            f"eigenvalue residual {residual:.3e} exceeds tolerance {spec.spectrum_tol:.3e}"
        )
    m = gen.n_modes
    r = np.zeros(m)
    r[i] = np.arcsinh(np.sqrt(si2))
    r[j] = np.arcsinh(np.sqrt(sj2))
    phases = {i: spec.squeeze_angles[0], j: spec.squeeze_angles[1]}
    v = gen.eig.U
    if with_idlers:
        bs = np.eye(m, dtype=complex)
        c = 1.0 / np.sqrt(2.0)
        for a, b in zip((i, j), idlers):
            bs[a, a] = bs[b, a] = bs[b, b] = c
            bs[a, b] = -c
            r[b], phases[b] = r[a], phases[a]
        v = v @ bs
    state = DisentangledForm(V=v @ _phase_diag(m, phases), alpha=np.zeros(m, dtype=complex), r=r)
    return ProbeResult(
        state=state,
        achieved=metrology.resources(state, gen),
        eigen_residual=residual,
        predicted_qfi=8.0 * (g[i] ** 2 * si2 * (si2 + 1.0) + g[j] ** 2 * sj2 * (sj2 + 1.0)),
    )


def _build_mean_optimal(spec: ProbeSpec, gen: Generator, modes: tuple[int, ...] | None) -> ProbeResult:
    m = gen.n_modes
    if spec.mode_vector is not None:
        vec = np.asarray(spec.mode_vector, dtype=complex)
        if vec.shape != (m,):
            raise InputError("mode_vector must have length n_modes")
        vec = vec / np.linalg.norm(vec)
        v = _complete_unitary(vec)
    else:
        idx = modes[0] if modes is not None else int(np.argmax(np.abs(gen.eig.eigvals)))
        cols = [idx] + [k for k in range(m) if k != idx]
        v = gen.eig.U[:, cols]
    v = v @ _phase_diag(m, {0: spec.squeeze_angles[0]})
    r = np.zeros(m)
    r[0] = np.arcsinh(np.sqrt(spec.n_signal))
    state = DisentangledForm(V=v, alpha=np.zeros(m, dtype=complex), r=r)
    achieved = metrology.resources(state, gen)
    n, g2, d2 = achieved.n_signal, achieved.g_mean**2, achieved.g_var
    # exact for a single squeezed mode: 8 gbar^2 N (N+1) + 4 dg^2 N
    predicted = 8.0 * g2 * n * (n + 1.0) + 4.0 * d2 * n
    return ProbeResult(
        state=state, achieved=achieved, eigen_residual=0.0, predicted_qfi=predicted
    )


def _build_derivative_displaced(spec: ProbeSpec, gen: Generator, modes: tuple[int, ...]) -> ProbeResult:
    m = gen.n_modes
    i, j = modes
    g_mat = gen.G
    scale = max(1.0, float(np.max(np.abs(g_mat))))
    off_support = [abs(g_mat[k, i]) for k in range(m) if k not in (i, j)]
    if off_support and max(off_support) > 1e-9 * scale:
        raise InputError("base-mode derivative couples outside the chosen pair")
    if abs(g_mat[i, i] - g_mat[j, j]) > 1e-9 * scale:
        raise InputError("diagonal generator entries of the pair differ")
    half = 0.5 * spec.n_signal
    # relative squeezing angle chosen so the displacement-squeezing cross
    # term adds constructively (real coupling, real displacement)
    phi_j = 2.0 * np.angle(g_mat[j, i]) if abs(g_mat[j, i]) > 0 else 0.0
    v = _phase_diag(m, {i: 0.0, j: phi_j})
    alpha = np.zeros(m, dtype=complex)
    alpha[i] = np.sqrt(half)
    r = np.zeros(m)
    r[j] = np.arcsinh(np.sqrt(half))
    state = DisentangledForm(V=v, alpha=alpha, r=r)
    s2, c2 = half, half + 1.0
    sc = np.sqrt(s2 * c2)
    gd = float(g_mat[i, i].real)
    g01 = abs(g_mat[i, j])
    col_extra = sum(abs(g_mat[k, j]) ** 2 for k in range(m) if k not in (i, j))
    predicted = 4.0 * (
        gd**2 * half
        + 2.0 * gd**2 * s2 * c2
        + g01**2 * ((2.0 * s2 + 1.0) * half + s2)
        + 2.0 * g01**2 * half * sc
        + col_extra * s2
    )
    return ProbeResult(
        state=state,
        achieved=metrology.resources(state, gen),
        eigen_residual=0.0,
        predicted_qfi=predicted,
    )


def build_probe(spec: ProbeSpec, gen: Generator) -> ProbeResult:
    """Build the requested probe against a generator's spectrum.

    Eigenvalue matching is nearest-neighbor with ties toward the smaller
    index; the residual is reported so callers on coarse spectra can
    refine. A spread target too small to split N over two modes (dg = 0,
    or dg/|gbar| below about 1e-8) degenerates the optimal kind to the
    single-mode mean-optimal construction; the idler-assisted kind has no
    such limit and raises InputError at zero spread. An explicit ``mode_choice``
    holds one index for the mean-optimal kind, four (signal, idler,
    signal, idler) for the idler-assisted kind and two for the others.
    The indices count generator eigenmodes in ascending eigenvalue order,
    except for the derivative-displaced kind, whose two indices (default
    0, 1) are basis modes of G. They must be distinct and in range, else
    InputError.
    """
    modes = _checked_modes(spec, gen.n_modes)
    if spec.kind == "idler_assisted" and spec.target_gvar <= _ZERO_SPREAD:
        raise InputError(f"idler_assisted needs target_gvar above {_ZERO_SPREAD:g}, got {spec.target_gvar:g}")
    if spec.kind == "mean_optimal" or (spec.kind == "optimal" and not _splits(spec)):
        return _build_mean_optimal(spec, gen, modes)
    if spec.kind == "derivative_displaced":
        return _build_derivative_displaced(spec, gen, modes)
    return _build_two_mode(spec, gen, modes)
