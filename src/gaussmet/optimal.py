"""Constructors for the named probe states of mode-parameter estimation.

Each constructor targets a resource triple (signal photons N, generator
mean gbar, generator spread dg), for one N or a stack of them, and
returns the probe in disentangled form together with the achieved
resources, the residual of matching the required generator eigenvalues
onto the available spectrum, and the exact QFI the construction predicts.

Probe kinds and their asymptotic QFI coefficients (c_gbar, c_dg) on the
N^2 term: optimal (8, 4), variance_optimal (4, 4), mean_optimal (8, 0),
derivative_displaced (2, 4), idler_assisted (8, 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    """Requested probe kind, resource targets, and optional mode choices.

    ``n_signal`` is a number, or an array of them: a photon-number axis that
    :func:`build_probe` returns as one stack of probes.
    """

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
        if np.ndim(self.n_signal):  # a photon-number axis is checked entry by entry, then held as floats
            require_finite(**{f"n_signal[{k}]": n for k, n in enumerate(np.ravel(self.n_signal))})
            object.__setattr__(self, "n_signal", np.asarray(self.n_signal, dtype=float))
        else:
            require_finite(n_signal=self.n_signal)
        require_finite(target_gmean=self.target_gmean, target_gvar=self.target_gvar)
        if not (np.asarray(self.n_signal) > 0).all():
            raise InputError("n_signal must be positive")
        if self.target_gvar < 0:
            raise InputError("target_gvar must be nonnegative")
        if self.spectrum_tol != self.spectrum_tol:  # NaN; the default +inf is valid
            raise InputError("spectrum_tol must not be NaN")
        if len(self.squeeze_angles) != 2:
            raise InputError(f"squeeze_angles must be two finite numbers, got {self.squeeze_angles}")
        require_finite(**{f"squeeze_angles[{k}]": a for k, a in enumerate(self.squeeze_angles)})


@dataclass(frozen=True)
class ProbeResult:
    """A built probe: its state, resources, eigenvalue-matching residual, and the QFI its construction predicts."""

    state: DisentangledForm
    achieved: metrology.ResourceTriple
    eigen_residual: float
    predicted_qfi: float


def _nearest_signal_index(gen: Generator, value, taken) -> np.ndarray:
    """Per stack entry, the free signal eigenmode whose eigenvalue is nearest ``value``: ties go to the
    smaller index, and index ``taken`` (None, or an index per entry) is not free."""
    m = gen.n_modes
    order = np.abs(gen.eig.eigvals - np.asarray(value)[..., None]).argsort(axis=-1, kind="stable")
    rank = order.argsort(axis=-1, kind="stable")  # stable: numpy's default sort kernel costs 0.25 MiB RSS
    free = ~gen.idler_mask if taken is None else ~gen.idler_mask & (np.arange(m) != taken[..., None])
    rank = np.where(free, rank, m)
    if not (rank.min(axis=-1) < m).all():
        raise InputError("no free signal eigenvalue available")
    return rank.argmin(axis=-1)


def _phase_diag(shape: tuple, m: int, entries) -> np.ndarray:
    """Diagonal matrices, stacked over ``shape``: exp(i phi / 2) at each (index, phi) of ``entries``, else 1."""
    d, lead = np.zeros(shape + (m * m,), dtype=complex), np.indices(shape, sparse=True)
    d[..., :: m + 1] = 1.0
    for idx, phi in entries:  # idx: an index, or one per stack entry
        d[(*lead, np.asarray(idx) * (m + 1))] = np.exp(0.5j * phi)
    return d.reshape(shape + (m, m))


@lru_cache(maxsize=64)
def _complete_unitary(key: bytes) -> np.ndarray:
    """Read-only unitary whose first column is the unit vector with the bytes ``key``. Cached: its QR
    is the dearest step of a mean-optimal build, and every scenario table completes the same vector."""
    v = np.frombuffer(key, dtype=complex)
    m = v.shape[0]
    pivot = int(np.argmax(np.abs(v)))
    a = np.eye(m, dtype=complex)[:, [pivot] + [k for k in range(m) if k != pivot]]
    a[:, 0] = v
    q, r = np.linalg.qr(a)
    # undo the arbitrary phase QR put on the first column
    q[:, 0] = q[:, 0] * (r[0, 0] / abs(r[0, 0]))
    q.flags.writeable = False
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


def _build_two_mode(spec: ProbeSpec, gen: Generator, modes: tuple[int, ...] | None, shape: tuple) -> tuple:
    """Squeeze the eigenmodes matched to the pair's eigenvalues.

    The idler-assisted kind sends each of them through a zero-phase 50:50
    beamsplitter with an idler. With equal squeezing angles inside a pair
    the beamsplitter leaves the pair's squeezing matrix invariant, which
    keeps the QFI and resources those of the idler-less probe (an angle
    offset of pi would entangle the pair and halve the leading term).
    Stacked over ``shape``, each probe is matched to its own generator.
    """
    si2, sj2, want_i, want_j = _pair_split(spec)
    with_idlers = spec.kind == "idler_assisted"
    m, lead = gen.n_modes, np.indices(shape, sparse=True)
    if modes is not None:
        (i, j), idlers = (modes[::2], modes[1::2]) if with_idlers else (modes, ())
    else:
        idlers = ()
        if with_idlers:  # the first two idlers of each generator
            idler = np.broadcast_to(gen.idler_mask, shape + (m,))
            if not (idler.sum(axis=-1) >= 2).all():
                raise InputError("generator provides fewer than two idler modes")
            idlers = tuple(np.moveaxis(np.argsort(~idler, axis=-1, kind="stable")[..., :2], -1, 0))
        i = _nearest_signal_index(gen, want_i, None)
        j = _nearest_signal_index(gen, want_j, i)
    g = np.broadcast_to(gen.eig.eigvals, shape + (m,))
    g_i, g_j = g[(*lead, i)], g[(*lead, j)]
    residual = np.maximum(abs(g_i - want_i), abs(g_j - want_j))
    if (residual > spec.spectrum_tol).any():
        raise InputError(f"eigenvalue residual {np.max(residual):.3e} exceeds tolerance {spec.spectrum_tol:.3e}")
    r = np.zeros(shape + (m,))
    r[(*lead, i)], r[(*lead, j)] = np.arcsinh(np.sqrt(si2)), np.arcsinh(np.sqrt(sj2))
    phases = [(i, spec.squeeze_angles[0]), (j, spec.squeeze_angles[1])]
    v = gen.eig.U
    if with_idlers:
        bs = _phase_diag(shape, m, [])
        c = 1.0 / np.sqrt(2.0)
        for (a, angle), b in zip(phases[:2], idlers):
            bs[(*lead, a, a)] = bs[(*lead, b, a)] = bs[(*lead, b, b)] = c
            bs[(*lead, a, b)] = -c
            r[(*lead, b)] = r[(*lead, a)]
            phases.append((b, angle))
        v = v @ bs
    state = (v @ _phase_diag(shape, m, phases), np.zeros(shape + (m,), dtype=complex), r)
    return state, (residual, lambda _: 8.0 * (g_i**2 * si2 * (si2 + 1.0) + g_j**2 * sj2 * (sj2 + 1.0)))


def _build_mean_optimal(spec: ProbeSpec, gen: Generator, modes: tuple[int, ...] | None, shape: tuple) -> tuple:
    """Squeeze one mode: ``mode_vector``, else an eigenmode of each generator; stacked over ``shape``."""
    m = gen.n_modes
    if spec.mode_vector is not None:
        vec = np.asarray(spec.mode_vector, dtype=complex)
        if vec.shape != (m,):
            raise InputError("mode_vector must have length n_modes")
        vec = vec / np.linalg.norm(vec)
        v = _complete_unitary(vec.tobytes())
    else:  # the chosen eigenmode first, then the others in order
        idx = modes[0] if modes is not None else np.argmax(np.abs(gen.eig.eigvals), axis=-1)
        cols = np.argsort(np.arange(m) != np.asarray(idx)[..., None], axis=-1, kind="stable")
        v = np.take_along_axis(gen.eig.U, np.broadcast_to(cols, gen.G.shape[:-2] + (m,))[..., None, :], axis=-1)
    v = v @ _phase_diag(shape, m, [(0, spec.squeeze_angles[0])])
    r = np.zeros(shape + (m,))
    r[..., 0] = np.arcsinh(np.sqrt(spec.n_signal))
    def predict(res):  # exact for a single squeezed mode: 8 gbar^2 N (N+1) + 4 dg^2 N
        return 8.0 * res.g_mean**2 * res.n_signal * (res.n_signal + 1.0) + 4.0 * res.g_var * res.n_signal

    return (v, np.zeros(shape + (m,), dtype=complex), r), (0.0, predict)


def _build_derivative_displaced(spec: ProbeSpec, gen: Generator, modes: tuple[int, ...], shape: tuple) -> tuple:
    """Displace basis mode i and squeeze mode j, N/2 photons each; stacked over ``shape``."""
    m = gen.n_modes
    i, j = modes
    g_mat = gen.G
    scale = np.maximum(1.0, np.abs(g_mat).max(axis=(-2, -1)))
    others = [k for k in range(m) if k not in (i, j)]
    if others and (np.abs(g_mat[..., others, i]).max(axis=-1) > 1e-9 * scale).any():
        raise InputError("base-mode derivative couples outside the chosen pair")
    if (abs(g_mat[..., i, i] - g_mat[..., j, j]) > 1e-9 * scale).any():
        raise InputError("diagonal generator entries of the pair differ")
    half = 0.5 * spec.n_signal
    # relative squeezing angle chosen so the displacement-squeezing cross
    # term adds constructively (real coupling, real displacement)
    phi_j = np.where(abs(g_mat[..., j, i]) > 0, 2.0 * np.angle(g_mat[..., j, i]), 0.0)
    v = _phase_diag(shape, m, [(i, 0.0), (j, phi_j)])
    alpha = np.zeros(shape + (m,), dtype=complex)
    alpha[..., i] = np.sqrt(half)
    r = np.zeros(shape + (m,))
    r[..., j] = np.arcsinh(np.sqrt(half))
    s2, c2 = half, half + 1.0
    sc = np.sqrt(s2 * c2)
    gd = g_mat[..., i, i].real
    g01 = abs(g_mat[..., i, j])
    col_extra = sum(abs(g_mat[..., k, j]) ** 2 for k in others)
    predicted = 4.0 * (
        gd**2 * half
        + 2.0 * gd**2 * s2 * c2
        + g01**2 * ((2.0 * s2 + 1.0) * half + s2)
        + 2.0 * g01**2 * half * sc
        + col_extra * s2
    )
    return (v, alpha, r), (0.0, lambda _: predicted)


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

    An array ``n_signal`` and a stacked generator broadcast: the result's
    state is one stack of probes over their common leading axes, each
    built as it would be alone. Resources and predicted QFI are evaluated here; the result holds no ``gen``.
    """
    (v, alpha, r), (residual, predict) = _probe_factors(spec, gen)
    state = DisentangledForm(V=v, alpha=alpha, r=r)
    achieved = metrology.resources(state, gen)
    return ProbeResult(state, achieved, residual, predict(achieved))


def _probe_factors(spec: ProbeSpec, gen: Generator) -> tuple:
    """((V, alpha, r), (eigen_residual, predict)) of :func:`build_probe`, before DisentangledForm checks them."""
    modes = _checked_modes(spec, gen.n_modes)
    shape = np.broadcast_shapes(np.shape(spec.n_signal), gen.G.shape[:-2])
    if spec.kind == "idler_assisted" and spec.target_gvar <= _ZERO_SPREAD:
        raise InputError(f"idler_assisted needs target_gvar above {_ZERO_SPREAD:g}, got {spec.target_gvar:g}")
    if spec.kind == "mean_optimal" or (spec.kind == "optimal" and not _splits(spec)):
        return _build_mean_optimal(spec, gen, modes, shape)
    if spec.kind == "derivative_displaced":
        return _build_derivative_displaced(spec, gen, modes, shape)
    return _build_two_mode(spec, gen, modes, shape)
