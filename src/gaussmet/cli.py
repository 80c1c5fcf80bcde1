"""Command-line front end.

Subcommands: ``qfi`` (evaluate a state/generator pair), ``build-state``
(construct a named probe), ``homodyne`` (measurement Fisher information,
optionally with Monte Carlo sampling), ``scenario`` (sweep CSV), and
``verify`` (randomized verification suites).

Exit codes: 0 success, 2 usage error, 3 input validation error,
4 verification failure. Outputs are deterministic for identical
arguments and seeds; floats print at 12 significant digits unless
``--full-precision`` selects 17.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import re
import sys

import numpy as np

from . import generator, jsonio, measurement, metrology, optimal, scenarios, verify
from .errors import GaussmetError, InputError
from .gaussian import assemble, disentangle

_BUILD_KINDS = {
    "optimal": "optimal",
    "variance-optimal": "variance_optimal",
    "mean-optimal": "mean_optimal",
    "derivative": "derivative_displaced",
    "idler": "idler_assisted",
}

_SCENARIO_KINDS = {k.replace("_", "-"): k for k in generator.SHIFT_DOMAINS}

# jsonio.round_floats and the scenario table reject every non-finite value, so numpy's warnings would only repeat it
_finite_checked = np.errstate(over="ignore", invalid="ignore")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # subparsers are _Parser too
        super().__init__(*args, **kwargs)
        # argparse's negative-number test, widened to exponent form (-5.3e-05), -inf, -nan and lists (-0.3,0.2)
        num = r"((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)"
        self._negative_number_matcher = re.compile(rf"^-{num}(,-?{num})*$", re.IGNORECASE)

    def error(self, message):  # exit 2 without killing the caller
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _numbers(kind, noun: str):
    """argparse type: a comma-separated list of ``kind`` values."""

    def numbers(text: str) -> tuple:
        try:
            return tuple(kind(x) for x in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}") from None

    return numbers


_floats = _numbers(float, "numbers")
_ints = _numbers(int, "integers")


def _phases(text: str) -> tuple[float, ...] | str:
    return "auto" if text == "auto" else _floats(text)


@functools.cache  # built on the first run, not at import
def _build_parser() -> _Parser:
    parser = _Parser(prog="gaussmet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_qfi = sub.add_parser("qfi", help="quantum Fisher information of a state")
    p_qfi.add_argument("--state", required=True)
    p_qfi.add_argument("--generator", required=True)
    p_qfi.add_argument("--out")
    p_qfi.add_argument("--full-precision", action="store_true")
    p_qfi.set_defaults(handler=_cmd_qfi)

    p_build = sub.add_parser("build-state", help="construct a named probe state")
    p_build.add_argument("--kind", required=True, choices=sorted(_BUILD_KINDS))
    p_build.add_argument("--ns", type=float, required=True)
    p_build.add_argument("--gbar", type=float, default=0.0)
    p_build.add_argument("--dg", type=float, default=0.0)
    p_build.add_argument("--generator", required=True)
    p_build.add_argument("--out", required=True)
    p_build.add_argument("--angles", type=_floats, default=(0.0, 0.0), help="phi_i,phi_j squeeze angles")
    p_build.add_argument("--modes", type=_ints, default=None, help="explicit mode indices")
    p_build.add_argument("--spectrum-tol", type=float, default=None)
    p_build.add_argument("--full-precision", action="store_true")
    p_build.set_defaults(handler=_cmd_build)

    p_hom = sub.add_parser("homodyne", help="homodyne Fisher information")
    p_hom.add_argument("--state", required=True)
    p_hom.add_argument("--generator", required=True)
    p_hom.add_argument("--eta", type=float, default=1.0)
    p_hom.add_argument("--nb", type=float, default=0.0, help="thermal photons in the environment")
    p_hom.add_argument("--phases", type=_phases, default="auto")
    p_hom.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p_hom.add_argument("--modes", type=_ints, default=None, help="modes to homodyne (default: squeezed ones)")
    p_hom.add_argument("--samples", type=_int_at_least(0), default=0)
    p_hom.add_argument("--seed", type=_int_at_least(0), default=0)
    p_hom.add_argument("--samples-out", default=None, help="CSV path prefix, one file per mode")
    p_hom.add_argument("--out")
    p_hom.add_argument("--full-precision", action="store_true")
    p_hom.set_defaults(handler=_cmd_homodyne)

    p_scn = sub.add_parser("scenario", help="probe-family sweep table")
    p_scn.add_argument("--kind", required=True, choices=sorted(_SCENARIO_KINDS))
    p_scn.add_argument("--config", required=True)
    p_scn.add_argument("--out", required=True)
    p_scn.add_argument("--full-precision", action="store_true")
    p_scn.set_defaults(handler=_cmd_scenario)

    p_ver = sub.add_parser("verify", help="randomized verification suites")
    p_ver.add_argument("--suite", default="all", choices=[*verify.SUITES, "all"])
    p_ver.add_argument("--trials", type=_int_at_least(1), default=200)
    p_ver.add_argument("--seed", type=_int_at_least(0), default=0)
    p_ver.set_defaults(handler=_cmd_verify)
    return parser


def _sig_digits(args) -> int:
    return 17 if getattr(args, "full_precision", False) else 12


def _emit(rounded: dict, out_path: str | None) -> None:
    if out_path:
        jsonio.dump_json(rounded, out_path)
    else:
        print(jsonio.format_json(rounded))


def _read_probe(args):
    """The disentangled ``--state`` and the ``--generator``, read in that order."""
    state = jsonio.state_from_dict(jsonio.load_json(args.state))
    gen = jsonio.generator_from_dict(jsonio.load_json(args.generator))
    return disentangle(state), gen


@_finite_checked
def _cmd_qfi(args) -> int:
    report = metrology.qfi(*_read_probe(args))
    _emit(jsonio.round_floats(dataclasses.asdict(report), _sig_digits(args)), args.out)
    return 0


@_finite_checked
def _cmd_build(args) -> int:
    gen = jsonio.generator_from_dict(jsonio.load_json(args.generator))
    spec = optimal.ProbeSpec(
        kind=_BUILD_KINDS[args.kind],
        n_signal=args.ns,
        target_gmean=args.gbar,
        target_gvar=args.dg**2,
        squeeze_angles=args.angles if len(args.angles) > 1 else args.angles + (0.0,),  # pads one angle
        mode_choice=args.modes,
        spectrum_tol=args.spectrum_tol if args.spectrum_tol is not None else np.inf,
    )
    result = optimal.build_probe(spec, gen)
    del gen  # frees the generator and its cached projector before the state is written
    summary = {
        "state_path": args.out,
        "achieved": dataclasses.asdict(result.achieved),
        "eigen_residual": result.eigen_residual,
        "predicted_qfi": result.predicted_qfi,
    }
    summary = jsonio.round_floats(summary, _sig_digits(args))  # raises before any file is written
    jsonio.dump_json(jsonio.state_to_dict(assemble(result.state)), args.out)
    print(jsonio.format_json(summary))
    return 0


@_finite_checked
def _cmd_homodyne(args) -> int:
    if args.samples_out and not args.samples:
        raise _UsageError("argument --samples-out: needs --samples of at least 1")
    d, gen = _read_probe(args)
    modes = args.modes or tuple(int(k) for k in np.nonzero(d.r > 1e-12)[0])
    setup = measurement.HomodyneSetup(
        mode_indices=modes,
        phases=args.phases,
        eta=args.eta,
        sigma_env_sq=measurement.sigma_env_from_thermal(args.nb, args.eta),
        true_param=args.lam,
    )
    result = measurement.homodyne_fi(d, gen, setup)
    payload = dataclasses.asdict(result)
    if args.samples > 0:  # --samples-out keeps every row, as its files are written only after the report is checked
        samples = (measurement.sample_homodyne(d, gen, setup, args.samples, args.seed) if args.samples_out
                   else measurement._sample_blocks(d, gen, setup, args.samples, args.seed)[1])
        payload["empirical_fi"] = measurement._score_fi(result, samples)
    sig = _sig_digits(args)
    payload = jsonio.round_floats(payload, sig)
    line, block, written = f"%.{sig}g\n".__mod__, measurement._BLOCK, []  # one block of text at a time
    try:
        for k, row in enumerate(samples if args.samples_out else ()):
            chunks = ("".join(map(line, row[i:i + block].tolist())) for i in range(0, row.size, block))
            jsonio._write_atomic(path := f"{args.samples_out}_mode{modes[k]}.csv", chunks)
            written.append(path)
        _emit(payload, args.out)
    except OSError:  # a failed run leaves none of its files: the sample files written so far go
        for path in written:
            os.remove(path)
        raise
    return 0


@_finite_checked
def _cmd_scenario(args) -> int:
    cfg = jsonio.scenario_config_from_dict(jsonio.load_json(args.config), _SCENARIO_KINDS[args.kind])
    rows = scenarios.run_scenario(cfg)
    sig = _sig_digits(args)
    lines = [",".join(rows[0])]  # run_scenario's keys name the columns
    for row in rows:
        # a homodyne cell is NaN where its formulas do not apply; any other non-finite cell is an overflow
        if any(np.isinf(v) or v != v and key != "homodyne_fi" for key, v in list(row.items())[1:]):
            raise InputError(f"the table overflows the float range: {row}")
        lines.append(",".join(v if isinstance(v, str) else f"{v:.{sig}g}" for v in row.values()))
    jsonio._write_atomic(args.out, ["\n".join(lines) + "\n"])
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    reports = verify.run_suites(names, args.trials, args.seed)
    all_passed = True
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {report.name} ({report.trials} trials): {report.summary}")
        all_passed &= report.passed
    return 0 if all_passed else 4


def run(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (GaussmetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:  # a float's ** past the float range raises; numpy's gives inf
        print(f"error: a value overflows the float range ({exc})", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
