"""The four benchmark workloads.

Each workload is a fixed cycle of operation kinds. Operation ``i`` draws
its inputs from ``numpy.random.default_rng([phase, seed, i])``, so a seed
fixes every input; ``phase`` separates warm-up, timed and traced
operations. ``prepare`` builds an operation's inputs outside the timed
interval and returns an :class:`Op` whose ``run`` is the timed call into
gaussmet's public API (or ``gaussmet.cli.run``) and whose ``check``
compares the result with a reference that shares no code with it.

Import this module only after the BLAS thread count is fixed in the
environment: it imports numpy and gaussmet.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from gaussmet import cli, focksim, gaussian, generator, matkernel, measurement, metrology, optimal, scenarios, verify
from gaussmet.regmodes import RegularizedModePair
from gaussmet.scenarios import ScenarioConfig

import reference as ref


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # reason for failure, or None


def _rel(a: float, b: float, floor: float = 1.0) -> float:
    return abs(a - b) / max(abs(b), floor)


def _bound_violation(qfi: float, bound: float) -> str | None:
    if qfi > bound + 1e-9 * max(1.0, bound):
        return f"qfi {qfi!r} exceeds bound {bound!r}"
    return None


class Workload:
    name = ""
    cycle: tuple[str, ...] = ()
    trace_cycles = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def prepare(self, phase: int, index: int) -> Op:
        kind = self.cycle[index % len(self.cycle)]
        return self._op(kind, np.random.default_rng([phase, self.seed, index]))

    def _op(self, kind: str, rng: np.random.Generator) -> Op:
        return getattr(self, "_op_" + kind.split(":")[0])(kind, rng)


# ---------------------------------------------------------------- probe_sweep


class ProbeSweep(Workload):
    """Many small API calls at M <= 8: per-call Python overhead.

    One operation is a sweep of 55 calls. Single calls take 0.3-70 ms, and
    with thousands of them per run the tail was set by a few stalls; a
    sweep's time is a sum over its parts, so its median and tail are steady.
    """

    name = "probe_sweep"
    cycle = ("sweep",)
    parts = (
        ("random",) * 40
        + tuple(f"table:{k}" for k in scenarios.TABLE_KINDS)
        + tuple(f"scenario:{k}" for k in scenarios.SCENARIO_KINDS)
        + tuple(f"regularized:{k}" for k in scenarios.SCENARIO_KINDS)
        + ("regularized_optimal:time_shift", "suites")
    )
    trace_cycles = 20

    def _op_sweep(self, kind, rng):
        ops = [self._op(part, rng) for part in self.parts]

        def run():
            return [op.run() for op in ops]

        def check(outs):
            for op, out in zip(ops, outs):
                reason = op.check(out)
                if reason is not None:
                    return f"{op.kind}: {reason}"
            return None

        return Op(kind, run, check)

    def _op_random(self, kind, rng):
        # the verify bound-suite distribution
        m = int(rng.integers(1, 9))
        h = ref.random_hermitian(rng, m)
        r = rng.uniform(0.0, 2.0, m) * rng.integers(0, 2, m)
        alpha = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v = ref.random_unitary(rng, m)

        def run():
            gen = generator.from_matrix(h)
            return metrology.qfi(gaussian.DisentangledForm(V=v, alpha=alpha, r=r), gen)

        def check(rep):
            want = ref.qfi_from_factors(v, alpha, r, h)
            if _rel(rep.qfi, want) > 1e-8:
                return f"qfi {rep.qfi!r} vs Wick reference {want!r}"
            return _bound_violation(rep.qfi, rep.bound)

        return Op(kind, run, check)

    def _op_table(self, kind, rng):
        family = kind.split(":")[1]
        n = rng.uniform(0.5, 40.0)
        gbar = rng.uniform(0.2, 2.0) * rng.choice((-1.0, 1.0))
        dg = rng.uniform(0.1, 2.0)

        def run():
            state, gen = scenarios.table_probe(family, n, gbar, dg)
            return metrology.qfi(state, gen)

        def check(rep):
            want = ref.table_qfi(family, n, gbar, dg)
            if _rel(rep.qfi, want) > 1e-9:
                return f"qfi {rep.qfi!r} vs closed form {want!r}"
            return _bound_violation(rep.qfi, rep.bound)

        return Op(kind, run, check)

    @staticmethod
    def _pair(kind, rng):
        """Well-separated regularized pair (overlap below 1e-6) for a kind."""
        if kind in ref.P_DOMAIN_KINDS:
            sigma = rng.uniform(0.5, 2.0)
            half = 0.5 * rng.uniform(8.0, 12.0) / sigma
            mid = rng.uniform(-3.0, 3.0)
            center_z, center_p = (0.0, 0.0), (mid + half, mid - half)
        else:
            sigma = rng.uniform(0.25, 1.0)
            half = rng.uniform(8.0, 12.0) * sigma
            mid = rng.uniform(-3.0, 3.0)
            center_z, center_p = (mid + half, mid - half), (0.0, 0.0)
        scale = rng.uniform(1.0, 3.0) if kind == "beam_tilt" else 1.0
        return center_z, center_p, sigma, scale

    def _op_scenario(self, kind, rng):
        scn = kind.split(":")[1]
        center_z, center_p, sigma, scale = self._pair(scn, rng)
        ns = sorted(rng.uniform(1.0, 50.0, 3))
        etas = [1.0, rng.uniform(0.5, 0.95), rng.uniform(0.1, 0.5)]
        cfg = ScenarioConfig(
            kind=scn,
            pair=RegularizedModePair(center_z=center_z, center_p=center_p, sigma_z=sigma),
            n_signal=ns[0],
            physical_scale=scale,
            sweep={"n_signal": ns, "eta": etas},
        )
        gbar, dg = ref.scenario_targets(scn, center_z, center_p, sigma, scale)

        def run():
            return scenarios.run_scenario(cfg)

        def check(rows):
            if len(rows) != len(scenarios.TABLE_KINDS) * len(ns) * len(etas):
                return f"{len(rows)} rows"
            for row in rows:
                n = row["n_signal"]
                if min(_rel(n, x) for x in ns) > 1e-9:
                    return f"row photon number {n!r} not in sweep"
                if _rel(row["g_mean"], gbar) > 1e-9 or _rel(row["g_sd"], dg) > 1e-9:
                    return f"row resources ({row['g_mean']!r}, {row['g_sd']!r}) vs ({gbar!r}, {dg!r})"
                want = ref.table_qfi(row["probe_kind"], n, gbar, dg)
                if _rel(row["qfi"], want) > 1e-9:
                    return f"{row['probe_kind']} qfi {row['qfi']!r} vs closed form {want!r}"
                bad = _bound_violation(row["qfi"], row["bound"])
                if bad:
                    return bad
                if row["probe_kind"] in ("variance_optimal", "optimal"):
                    hom = row["homodyne_fi"]
                    if row["eta"] == 1.0 and _rel(hom, row["qfi"]) > 1e-9:
                        return f"ideal homodyne {hom!r} != qfi {row['qfi']!r}"
                    if not hom <= row["qfi"] * (1.0 + 1e-9):
                        return f"homodyne {hom!r} exceeds qfi {row['qfi']!r}"
            return None

        return Op(kind, run, check)

    def _op_regularized(self, kind, rng):
        scn = kind.split(":")[1]
        n = 10.0 ** rng.uniform(5.0, 6.0)
        r = float(np.arcsinh(np.sqrt(n / 2.0)))
        center_z, center_p, sigma, scale = self._pair(scn, rng)
        cfg = ScenarioConfig(
            kind=scn,
            pair=RegularizedModePair(center_z=center_z, center_p=center_p, sigma_z=sigma, r=(r, r)),
            n_signal=n,
            physical_scale=scale,
        )
        gbar, dg = ref.scenario_targets(scn, center_z, center_p, sigma, scale)
        deficit = ref.regularization_deficit(scn, sigma, scale)
        return self._regularized_op(
            kind,
            cfg,
            ref.regularized_variance_optimal_qfi(n, gbar, dg**2, deficit),
            ref.regularized_direct_fi(n, dg**2, deficit),
        )

    def _op_regularized_optimal(self, kind, rng):
        n = 10.0 ** rng.uniform(5.0, 6.0)
        sigma = rng.uniform(1.0, 1.5)
        p0, delta = rng.uniform(2.0, 5.0), rng.uniform(3.0, 4.0)
        q = p0 / np.hypot(p0, delta)
        si2, sj2 = 0.5 * n * (1.0 - q), 0.5 * n * (1.0 + q)
        pair = RegularizedModePair(
            center_z=(0.0, 0.0),
            center_p=(p0 + delta * np.sqrt(si2 / sj2), p0 - delta * np.sqrt(sj2 / si2)),
            sigma_z=sigma,
            r=(float(np.arcsinh(np.sqrt(sj2))), float(np.arcsinh(np.sqrt(si2)))),
        )
        cfg = ScenarioConfig(kind="time_shift", pair=pair, n_signal=n)
        deficit = ref.regularization_deficit("time_shift", sigma, 1.0)
        return self._regularized_op(kind, cfg, ref.regularized_optimal_qfi(n, p0, delta**2 + deficit, deficit), None)

    @staticmethod
    def _regularized_op(kind, cfg, want_qfi, want_direct):
        def run():
            state, gen, _ = scenarios.build_regularized_probe(cfg)
            return metrology.qfi(state, gen), measurement.direct_detection_fi(state, gen)

        def check(out):
            rep, direct = out
            # the criterion-11 forms drop O(N) terms; 1e-4 is criterion 11's tolerance
            if _rel(rep.qfi, want_qfi) > 1e-4:
                return f"qfi {rep.qfi!r} vs criterion-11 form {want_qfi!r}"
            if want_direct is not None and _rel(direct, want_direct) > 1e-4:
                return f"direct-detection FI {direct!r} vs criterion-11 form {want_direct!r}"
            return _bound_violation(rep.qfi, rep.bound)

        return Op(kind, run, check)

    def _op_suites(self, kind, rng):
        suite_seed = int(rng.integers(0, 2**31))

        def run():
            return verify.run_suites(["bound", "lemma2"], 50, suite_seed)

        def check(reports):
            failed = [f"{rep.name}: {rep.summary}" for rep in reports if not rep.passed]
            return "; ".join(failed) or None

        return Op(kind, run, check)


# ---------------------------------------------------------------- large_mode


def _write_json_streaming(path: str, head: dict, name: str, matrix: np.ndarray, tail: dict) -> None:
    """Write {**head, name: [[re, im], ...] rows, **tail} one row at a time,
    so building the input files costs the benchmark process little memory."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(head)[:-1] + (", " if head else "") + f'"{name}": [')
        for k, row in enumerate(matrix):
            pairs = np.column_stack([row.real, row.imag]).tolist()
            handle.write(("," if k else "") + json.dumps(pairs))
        handle.write("], " + json.dumps(tail)[1:] + "\n")


class LargeMode(Workload):
    """In-process CLI at M = 64 and 256: JSON I/O and O(M^3) dense kernels.

    The cycle is weighted so the median lands inside the M = 64 build-state
    group and the tail inside the M = 256 build-state group, away from the
    boundaries between groups.
    """

    name = "large_mode"
    cycle = ("qfi:64", "build:64", "qfi:64", "build:64", "qfi:64", "qfi:256", "build:256", "build:256")
    trace_cycles = 2
    pool_size = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.inputs = {}
        for m in (64, 256):
            for k in range(self.pool_size):
                self.inputs[m, k] = self._make_input(m, k)

    def _make_input(self, m, k):
        rng = np.random.default_rng([3, self.seed, m, k])
        h = ref.random_hermitian(rng, m)
        v = ref.random_unitary(rng, m)
        r = rng.uniform(0.0, 1.0, m) * rng.integers(0, 2, m)
        alpha = 0.5 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        f = v @ np.diag(r) @ v.T
        f = (f + f.T) / 2.0
        beta = v @ alpha
        state_path = os.path.join(self.workdir, f"state{m}_{k}.json")
        gen_path = os.path.join(self.workdir, f"gen{m}_{k}.json")
        _write_json_streaming(
            state_path,
            {"n_modes": m, "beta": np.column_stack([beta.real, beta.imag]).tolist()},
            "f",
            f,
            {"basis_label": "a"},
        )
        _write_json_streaming(gen_path, {}, "G", h, {"signal_tol": 1e-12})
        return {
            "state": state_path,
            "generator": gen_path,
            "G": h,
            "qfi": ref.qfi_from_squeezing_matrix(f, beta, h),
        }

    def _op_qfi(self, kind, rng):
        m = int(kind.split(":")[1])
        item = self.inputs[m, int(rng.integers(0, self.pool_size))]
        argv = ["qfi", "--state", item["state"], "--generator", item["generator"]]

        def run():
            return _run_cli(argv)

        def check(out):
            code, text = out
            if code != 0:
                return f"exit code {code}"
            report = json.loads(text)
            # stdout carries 12 significant digits
            if _rel(report["qfi"], item["qfi"]) > 1e-8:
                return f"qfi {report['qfi']!r} vs Wick reference {item['qfi']!r}"
            return _bound_violation(report["qfi"], report["bound"])

        return Op(kind, run, check)

    def _op_build(self, kind, rng):
        m = int(kind.split(":")[1])
        item = self.inputs[m, int(rng.integers(0, self.pool_size))]
        out_path = os.path.join(self.workdir, f"built{m}.json")
        argv = [
            "build-state", "--kind", "optimal",
            "--ns", repr(rng.uniform(1.0, 10.0)),
            "--gbar", repr(rng.uniform(-1.0, 1.0)),
            "--dg", repr(rng.uniform(0.5, 2.0)),
            "--generator", item["generator"],
            "--out", out_path,
        ]

        def run():
            return _run_cli(argv)

        def check(out):
            code, text = out
            if code != 0:
                return f"exit code {code}"
            predicted = json.loads(text)["predicted_qfi"]
            with open(out_path, encoding="utf-8") as handle:
                state = json.load(handle)
            f = np.array(state["f"], dtype=float)
            beta = np.array(state["beta"], dtype=float)
            want = ref.qfi_from_squeezing_matrix(
                f[..., 0] + 1j * f[..., 1], beta[:, 0] + 1j * beta[:, 1], item["G"]
            )
            if _rel(predicted, want) > 1e-8:
                return f"predicted_qfi {predicted!r} vs Wick reference of the written state {want!r}"
            return None

        return Op(kind, run, check)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.run(argv)
    return code, buffer.getvalue()


# ---------------------------------------------------------------- fock_oracle


def _small_state(rng, m):
    """The verify oracle-suite distribution: s^2 <= 0.05, |alpha|^2 <= 0.5."""
    r = np.arcsinh(np.sqrt(rng.uniform(0.0, 0.05, m)))
    alpha = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    alpha *= np.sqrt(rng.uniform(0.0, 0.5)) / np.linalg.norm(alpha)
    return ref.random_unitary(rng, m), alpha, r


_CUTOFFS = {1: 30, 2: 24, 3: 20}


class FockOracle(Workload):
    """Fock-lattice oracle rounds plus photon-counting FI.

    A round is one oracle trial at each of M = 1, 2, 3, so M is uniform
    over 1-3 as in ``verify`` and every round costs about the same; a
    single trial's cost varies threefold with its random mode mixer. One
    counting operation follows every three rounds (nine trials),
    alternating M = 2 and M = 3.
    """

    name = "fock_oracle"
    cycle = ("round",) * 3 + ("count:2",) + ("round",) * 3 + ("count:3",)

    def _op_round(self, kind, rng):
        trials = []
        for m in (1, 2, 3):
            v, alpha, r = _small_state(rng, m)
            cfg = focksim.OracleConfig(cutoff=_CUTOFFS[m])
            trials.append((ref.random_hermitian(rng, m), v, alpha, r, cfg))

        def run():
            out = []
            for h, v, alpha, r, cfg in trials:
                gen = generator.from_matrix(h)
                d = gaussian.DisentangledForm(V=v, alpha=alpha, r=r)
                out.append((focksim.fock_qfi(focksim.fock_build(d, cfg), gen), metrology.qfi(d, gen).qfi))
            return out

        def check(out):
            for (h, v, alpha, r, _), (oracle, exact) in zip(trials, out):
                if abs(oracle - exact) / max(abs(exact), 1e-12) > 1e-6:
                    return f"M={len(r)}: oracle {oracle!r} vs engine {exact!r}"
                want = ref.qfi_from_factors(v, alpha, r, h)
                if _rel(exact, want, 1e-12) > 1e-8:
                    return f"M={len(r)}: engine {exact!r} vs Wick reference {want!r}"
            return None

        return Op(kind, run, check)

    def _op_count(self, kind, rng):
        m = int(kind.split(":")[1])
        h = ref.random_hermitian(rng, m)
        v, alpha, r = _small_state(rng, m)
        counting_basis = ref.random_unitary(rng, m)
        cfg = focksim.OracleConfig(cutoff=_CUTOFFS[m])

        def imprinted(lam):
            mixed = matkernel.unitary_exp(h, lam) @ v
            return focksim.fock_build(gaussian.DisentangledForm(V=mixed, alpha=alpha, r=r), cfg)

        def run():
            return focksim.fock_counting_fi(imprinted, counting_basis, 0.0, cfg, richardson=True)

        def check(fi):
            psi = focksim.fock_build(gaussian.DisentangledForm(V=v, alpha=alpha, r=r), cfg)
            qfi = focksim.fock_qfi(psi, generator.from_matrix(h))
            if not 0.0 <= fi <= qfi * (1.0 + 1e-6):
                return f"counting FI {fi!r} outside [0, oracle QFI {qfi!r}]"
            return None

        return Op(kind, run, check)


# ---------------------------------------------------------------- homodyne_mc


class HomodyneMC(Workload):
    """Analytic homodyne FI and its 10^6-sample Monte Carlo estimate.

    One operation takes one probe on one generator through all four
    loss and thermal-noise channels.
    """

    name = "homodyne_mc"
    cycle = tuple(
        f"homodyne:{probe}:{m}:{shape}"
        for probe in ("optimal", "variance_optimal", "mean_optimal")
        for m in (2, 8)
        for shape in ("diagonal", "dense")
    )
    channels = ((1.0, 0.0), (1.0, 0.5), (0.75, 0.0), (0.75, 0.5))  # (eta, N_B)
    samples = 10**6

    def _op_homodyne(self, kind, rng):
        _, probe, m, shape = kind.split(":")
        m = int(m)
        # eigenvalues kept away from 0 so every measured mode carries FI
        g = np.sort(rng.uniform(0.3, 2.0, m) * rng.choice((-1.0, 1.0), m))
        if shape == "diagonal":
            h = np.diag(g).astype(complex)
        else:
            w = ref.random_unitary(rng, m)
            h = (w * g) @ w.conj().T
        gen = generator.from_matrix(h)
        spec = optimal.ProbeSpec(
            kind=probe,
            n_signal=rng.uniform(0.5, 4.0),
            target_gmean=rng.uniform(-1.0, 1.0),
            target_gvar=rng.uniform(0.3, 1.5) ** 2,
        )
        state = optimal.build_probe(spec, gen).state
        modes = tuple(int(k) for k in np.nonzero(state.r > 0)[0])
        setups = [
            measurement.HomodyneSetup(
                mode_indices=modes, eta=eta, sigma_env_sq=measurement.sigma_env_from_thermal(nb, eta)
            )
            for eta, nb in self.channels
        ]
        sample_seeds = [int(x) for x in rng.integers(0, 2**31, len(setups))]

        def run():
            return [
                (
                    measurement.homodyne_fi(state, gen, setup).fi,
                    measurement.empirical_fi(state, gen, setup, self.samples, sample_seed),
                )
                for setup, sample_seed in zip(setups, sample_seeds)
            ]

        def check(out):
            for (eta, nb), (analytic, empirical) in zip(self.channels, out):
                # criterion 8's bound on the Monte Carlo estimate
                if not analytic > 0.0 or abs(empirical - analytic) > 0.02 * analytic:
                    return f"eta {eta}, N_B {nb}: empirical FI {empirical!r} vs analytic {analytic!r}"
            return None

        return Op(kind, run, check)


WORKLOADS = {cls.name: cls for cls in (ProbeSweep, LargeMode, FockOracle, HomodyneMC)}
