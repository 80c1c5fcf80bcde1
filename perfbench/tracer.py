"""Span tracing of gaussmet's public functions, installed from outside.

The tracer rebinds each traced function in every ``gaussmet`` module that
binds it, so calls through ``from .generator import from_matrix`` and the
like are seen too; classes are traced by wrapping their ``__init__``.
Spans stay in memory as tuples until the run ends. A span opened in a
thread with no open span of its own (``verify``'s worker pool) takes the
innermost open span of the thread that runs the operations as its parent
and belongs to the current operation.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

# layer -> traced public names, as named by the per-layer metrics
LAYERS = {
    "cli": ("run",),
    "jsonio": ("load_json", "state_from_dict", "generator_from_dict", "state_to_dict", "dump_json", "round_floats"),
    "matkernel": ("takagi", "hermitian_eig", "require_hermitian"),
    "gaussian": ("disentangle", "assemble", "DisentangledForm"),
    "generator": ("from_matrix", "signal_projector"),
    "metrology": ("qfi", "resources", "build_workspace", "lemma2_gap"),
    "optimal": ("build_probe",),
    "scenarios": ("run_scenario", "table_probe", "build_regularized_probe", "mode_overlap"),
    "verify": ("run_suites",),
    "measurement": ("homodyne_fi", "sample_homodyne", "empirical_fi", "direct_detection_fi"),
    "focksim": ("fock_build", "apply_mode_transform", "fock_qfi", "fock_counting_fi"),
}

# derived per-layer metrics: name -> unit
DERIVED = {
    "jsonio.bytes_read": "bytes",
    "jsonio.bytes_written": "bytes",
    "metrology.workspaces_per_qfi": "ratio",
    "metrology.projectors_per_qfi": "ratio",
    "scenarios.nan_cell_frac": "ratio",
    "measurement.homodyne_fi_per_empirical": "ratio",
    "measurement.samples_per_s": "1/s",
    "focksim.amplitudes_per_state": "count",
    "focksim.lifts_per_counting_fi": "ratio",
}

# (child, ancestor, metric): child spans nested in an ancestor span, per ancestor
NESTED_RATIOS = (
    ("metrology.build_workspace", "metrology.qfi", "metrology.workspaces_per_qfi"),
    ("generator.signal_projector", "metrology.qfi", "metrology.projectors_per_qfi"),
    ("measurement.homodyne_fi", "measurement.empirical_fi", "measurement.homodyne_fi_per_empirical"),
    ("focksim.apply_mode_transform", "focksim.fock_counting_fi", "focksim.lifts_per_counting_fi"),
)

_SCENARIO_NUMERIC = ("n_signal", "g_mean", "g_sd", "eta", "qfi", "bound", "homodyne_fi", "direct_fi")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, names in LAYERS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_ms"] = "ms"
    units.update(DERIVED)
    units["trace.overhead_pct"] = "%"
    return units


def _count_bytes_read(tracer, args, kwargs, result):
    tracer.counters["jsonio.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])


def _count_bytes_written(tracer, args, kwargs, result):
    tracer.counters["jsonio.bytes_written"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _count_nan_cells(tracer, args, kwargs, result):
    for row in result:
        for col in _SCENARIO_NUMERIC:
            tracer.counters["scenarios.cells"] += 1
            tracer.counters["scenarios.nan_cells"] += row[col] != row[col]


def _count_samples(tracer, args, kwargs, result):
    setup = args[2] if len(args) > 2 else kwargs["setup"]
    n_samples = args[3] if len(args) > 3 else kwargs["n_samples"]
    tracer.counters["measurement.samples"] += n_samples * len(setup.mode_indices)


def _largest_state(tracer, args, kwargs, result):
    size = result.amplitudes.size
    tracer.counters["focksim.amplitudes_per_state"] = max(tracer.counters["focksim.amplitudes_per_state"], size)


_HOOKS = {
    "jsonio.load_json": _count_bytes_read,
    "jsonio.dump_json": _count_bytes_written,
    "scenarios.run_scenario": _count_nan_cells,
    "measurement.empirical_fi": _count_samples,
    "focksim.fock_build": _largest_state,
}


class Tracer:
    """In-memory span recorder; spans are (id, parent, op, name, start, end)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self.recording = False  # spans are kept only while an operation runs
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._owner = threading.get_ident()
        self._sites = self._find_sites()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:  # a worker thread: adopt the operation's innermost span
                owner = tracer._owner_stack
                parent = owner[-1] if owner else None
            with tracer._lock:
                sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append((sid, parent, tracer.op, name, start, end))
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def _find_sites(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every binding to rewrite."""
        modules = [mod for key, mod in sys.modules.items() if key == "gaussmet" or key.startswith("gaussmet.")]
        sites = []
        for layer, names in LAYERS.items():
            home = sys.modules[f"gaussmet.{layer}"]
            for name in names:
                original = getattr(home, name)
                span_name = f"{layer}.{name}"
                if isinstance(original, type):
                    sites.append((original, "__init__", original.__init__, self._wrap(span_name, original.__init__)))
                    continue
                wrapper = self._wrap(span_name, original)
                for mod in modules:
                    sites.extend((mod, attr, original, wrapper) for attr, value in vars(mod).items() if value is original)
        return sites

    def install(self) -> None:
        """Rebind every traced name in every loaded gaussmet module."""
        self._owner = threading.get_ident()
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and derived counts from the spans."""
        children = defaultdict(list)
        by_id = {}
        for span in self.spans:
            by_id[span[0]] = span
            children[span[1]].append(span)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - _covered(start, end, children.get(sid, ()))
        out = {}
        for layer, names in LAYERS.items():
            for name in names:
                key = f"{layer}.{name}"
                out[f"{key}.calls"] = calls[key]
                out[f"{key}.self_ms"] = 1e3 * self_s[key]
        out["jsonio.bytes_read"] = self.counters["jsonio.bytes_read"]
        out["jsonio.bytes_written"] = self.counters["jsonio.bytes_written"]
        for child, ancestor, metric in NESTED_RATIOS:
            nested = sum(1 for span in self.spans if span[3] == child and _has_ancestor(span, ancestor, by_id))
            out[metric] = nested / calls[ancestor] if calls[ancestor] else 0.0
        cells = self.counters["scenarios.cells"]
        out["scenarios.nan_cell_frac"] = self.counters["scenarios.nan_cells"] / cells if cells else 0.0
        empirical_s = sum(end - start for _, _, _, name, start, end in self.spans if name == "measurement.empirical_fi")
        out["measurement.samples_per_s"] = self.counters["measurement.samples"] / empirical_s if empirical_s else 0.0
        out["focksim.amplitudes_per_state"] = self.counters["focksim.amplitudes_per_state"]
        return out


def _covered(start: float, end: float, kids) -> float:
    """Length of [start, end] covered by the union of the children's spans."""
    total, reach = 0.0, start
    for _, _, _, _, lo, hi in sorted(kids, key=lambda s: s[4]):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _has_ancestor(span, name: str, by_id) -> bool:
    parent = by_id.get(span[1])
    while parent is not None:
        if parent[3] == name:
            return True
        parent = by_id.get(parent[1])
    return False
