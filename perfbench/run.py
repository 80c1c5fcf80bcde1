"""gaussmet benchmark: runs one workload and prints its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload probe_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload large_mode --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke                 # every workload, a few operations
    python3 perfbench/run.py --workload large_mode --seed 1 --seconds 20 --trace 0 --blas default

One closed-loop client in this process calls gaussmet and checks every
result outside the timed interval. With ``--trace 0`` the last stdout
line is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run of a fixed set of operations
(spans are written to ``.perfbench_out/``). Earlier lines record the
environment and a readable summary. Failed operations are reported on
stderr with their seed; the exit code is 1 if any operation failed and 2
if the checkout holds no gaussmet sources. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
E2E_UNITS = {
    "throughput_ops_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "pass_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
TIMED, WARMUP, TRACED = 0, 1, 2  # phases: separate random streams per purpose
_IMPORT_PROBE = "import time; t = time.perf_counter(); import gaussmet.cli; print(time.perf_counter() - t)"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("probe_sweep", "large_mode", "fock_oracle", "homodyne_mc"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few operations per workload; check metric names")
    parser.add_argument(
        "--blas", choices=("pinned", "default"), default="pinned",
        help="'default' leaves BLAS threading alone (an ungated diagnostic)",
    )
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")
    return args


def measure_setup(repeats: int) -> list[float]:
    """Seconds a fresh interpreter takes to import gaussmet.cli.

    One unmeasured import first writes the bytecode caches, which a user
    pays once per install, not per command.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for k in range(repeats + 1):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=120,
        )
        if k:
            times.append(float(done.stdout))
    return times


def run_ops(workload, phase, indices, seconds=math.inf, tracer=None):
    """Run operations in a closed loop; returns (latencies in s, failures).

    With a time budget the loop stops at the first cycle boundary after
    ``seconds`` of timed work, so every run has the same operation mix.
    """
    cycle = len(workload.cycle)
    latencies, failures, busy = [], 0, 0.0
    for index in indices:
        if index and busy >= seconds and index % cycle == 0:
            break
        op = workload.prepare(phase, index)
        if tracer is not None:
            tracer.op, tracer.recording = index, True
        start = perf_counter()
        try:
            out = op.run()
            reason = None
        except Exception as exc:  # a failed operation is counted, never dropped
            reason = f"raised {exc!r}"
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.recording = False
        if reason is None:
            try:
                reason = op.check(out)
            except Exception as exc:
                reason = f"check raised {exc!r}"
        busy += elapsed
        latencies.append(elapsed)
        if reason is not None:
            failures += 1
            print(
                f"FAIL {workload.name} op {index} ({op.kind}), inputs from seed "
                f"[{phase}, {workload.seed}, {index}]: {reason}",
                file=sys.stderr,
            )
    return latencies, failures


def first_of_each_kind(workload) -> list[int]:
    return [workload.cycle.index(kind) for kind in dict.fromkeys(workload.cycle)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 operations beyond it."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def blas_threads() -> dict[str, int]:
    """Thread counts reported by the OpenBLAS builds numpy and scipy load."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir, f"{pkg.__name__}.libs")
        for lib in glob.glob(os.path.join(libdir, "*openblas*")):
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(ctypes.CDLL(lib), symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[pkg.__name__] = fn()
                    break
    return found


def environment(args, workload, operations: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "blas_pin": (
            "=".join(PIN_VARS) + "=1 in the environment before numpy loads"
            if args.blas == "pinned" else "none: library default"
        ),
        "openblas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "workload": workload.name,
        "seed": args.seed,
        "operations": operations,
        "trace": args.trace,
    }


def end_to_end(workload, args, setup_times, smoke=False):
    if smoke:
        warm, warm_failed = [], 0
        latencies, failed = run_ops(workload, TIMED, first_of_each_kind(workload))
    else:
        warm, warm_failed = run_ops(workload, WARMUP, first_of_each_kind(workload))
        latencies, failed = run_ops(workload, TIMED, itertools.count(), seconds=args.seconds)
    attempted = len(warm) + len(latencies)
    failed_all = warm_failed + failed
    tail_value, tail_pct = tail(latencies)
    values = {
        "throughput_ops_s": (len(latencies) - failed) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_value,
        "pass_rate": (attempted - failed_all) / attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "op_tail_ms": f"p{tail_pct:.4g} of {len(latencies)} timed operations",
        "pass_rate": f"error_rate {failed_all / attempted:.4g} ({failed_all} failed of {attempted} attempted)",
        "setup_s": f"median of {len(setup_times)} fresh imports of gaussmet.cli",
        "throughput_ops_s": f"{len(latencies)} operations in {sum(latencies):.3f} s timed",
    }
    return values, E2E_UNITS, notes, attempted, failed_all


def per_layer(workload, args, smoke=False):
    if smoke:
        warm, failed = [], 0
        indices = first_of_each_kind(workload)
    else:
        warm, failed = run_ops(workload, WARMUP, first_of_each_kind(workload))
        indices = range(workload.trace_cycles * len(workload.cycle))
    # each operation runs untraced and traced, in alternating order, so
    # drift in machine speed cancels from the overhead estimate
    tracer = tracing.Tracer()
    plain, traced = [], []
    for k, index in enumerate(indices):
        for tracing_on in (k % 2 == 1, k % 2 == 0):
            if tracing_on:
                tracer.install()
            try:
                latencies, failures = run_ops(workload, TRACED, [index], tracer=tracer if tracing_on else None)
            finally:
                tracer.uninstall()
            (traced if tracing_on else plain).extend(latencies)
            failed += failures
    values = tracer.metrics()
    values["trace.overhead_pct"] = 100.0 * (statistics.median(t / p for t, p in zip(traced, plain)) - 1.0)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl", "w", encoding="utf-8") as handle:
        for sid, parent, op, name, start, end in tracer.spans:
            handle.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name, "start": start, "end": end}) + "\n")
    notes = {
        "trace.overhead_pct": (
            f"median over {len(traced)} operations of traced / untraced time; "
            f"totals {sum(traced):.3f} s vs {sum(plain):.3f} s"
        ),
    }
    attempted = len(warm) + len(plain) + len(traced)
    return values, tracing.per_layer_units(), notes, attempted, failed


def measure(args, name: str, smoke=False):
    """Run one workload; returns (result dict, readable lines)."""
    from workloads import WORKLOADS

    setup_times = [] if args.trace else measure_setup(1 if smoke else SETUP_REPEATS)
    workdir = ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](args.seed, str(workdir))
        if args.trace:
            values, units, notes, attempted, failed = per_layer(workload, args, smoke)
        else:
            values, units, notes, attempted, failed = end_to_end(workload, args, setup_times, smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }
    lines = ["env " + json.dumps(environment(args, workload, attempted))]
    for key, unit in units.items():
        note = f"  ({notes[key]})" if key in notes else ""
        lines.append(f"  {key:<44} {values[key]:>14.6g} {unit}{note}")
    return result, lines


def smoke(args) -> int:
    """Run every workload briefly, untraced and traced, and check that
    the metric names and units match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    problems = 0
    for name in names:
        for trace in (0, 1):
            args.trace = trace
            start = perf_counter()
            result, _ = measure(args, name, smoke=True)
            got = {key: metric["unit"] for key, metric in result["metrics"].items()}
            bad = [key for key in got.keys() | want[trace].keys() if not got.get(key) or got.get(key) != want[trace].get(key)]
            ok = not bad and result["correct"]
            problems += not ok
            print(
                f"smoke {name} trace {trace}: {'ok' if ok else 'FAILED'} "
                f"({result['attempted']} ops, {perf_counter() - start:.1f} s)"
                + (f"; metric names or units differ from BENCHMARK.json: {sorted(bad)}" if bad else "")
            )
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gaussmet" / "__init__.py").is_file():
        print(f"error: no gaussmet sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.blas == "pinned":
        # before numpy is first imported, here and in the setup probes
        os.environ.update({var: "1" for var in PIN_VARS})
    sys.path.insert(0, str(SRC))
    # advisory warnings (direct-detection premise, Richardson step size) would
    # bury the failure reports on stderr
    warnings.simplefilter("ignore")
    if args.smoke:
        return smoke(args)
    result, lines = measure(args, args.workload)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
