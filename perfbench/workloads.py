"""The three workloads: inputs from a seed, one round of CLI calls, checks.

Every operation is one in-process call of ``soliton_tbp.cli.main``.  A
round always makes the same calls, so the share of failed operations is
fixed by the program, not by the seed or the run length.  Checks compare the
outputs with `oracles`, which share no code with the package.
"""

from __future__ import annotations

import ast
import contextlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

# phase-grid: T_hat/B_hat may undershoot the M=16 brute force by this much.
# Both sides evaluate the same 256 pulses; the program's 512-sample grid has
# frequency cells of 1.7% of B, and the cell-constant window model leaves a
# relative error of ~3e-4 on B and ~4e-5 on T against the 8192-sample oracle.
BRUTE_FORCE_RTOL = 2e-3
RATIO_TOL = 0.03


@dataclass
class Op:
    """One CLI call: exit code (None when it raised), wall time and output."""

    argv: list
    seconds: float
    code: int | None
    stdout: str
    stderr: str
    error: str = ""

    @property
    def failed(self) -> bool:
        return self.code != 0


def call_cli(argv, tracer=None) -> Op:
    from soliton_tbp.cli import main

    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    span = tracer.span("cli." + argv[0]) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
    except Exception as exc:  # an uncaught fault of the program is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return Op(list(argv), seconds, code, out.getvalue(), err.getvalue(), error)


def report_fields(stdout: str) -> dict:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def _output(op: Op, path: str):
    """Text of an operation's output file, None when the operation failed."""
    return None if op.failed else Path(path).read_text()


@dataclass
class Round:
    """One round's CLI calls and the wall times of its timed calls, by kind.

    The round's `solve_s` is the sum of `times`; the resume of `link-sweep`
    and the `synth` calls of `nft-link` are not timed.
    """

    ops: list
    times: dict
    outputs: dict = field(default_factory=dict)


class PhaseGrid:
    """`measure --phases 128` on the Table-1 N=3 optimum (16 384 pulses)."""

    name = "phase-grid"

    def prepare(self, work: Path, seed: int):
        row = oracles.TABLE1[3]
        (work / "table1_n3.yaml").write_text(
            oracles.spectrum_yaml(row["sigmas"], (0.0,) * 3, row["dts"], (0.0,) * 3))

    def round(self, work: Path, seed: int, tracer) -> Round:
        op = call_cli(["measure", "--spectrum", work / "table1_n3.yaml", "--phases", 128], tracer)
        return Round([op], {"measure_s": op.seconds})

    def check(self, rounds, seed: int) -> list:
        problems = []
        t_bf, b_bf = oracles.phase_grid_brute_force()
        for r in rounds:
            op = r.ops[0]
            if op.failed:
                continue
            f = report_fields(op.stdout)
            ratio = float(f["TBP_per_eigenvalue_ratio"])
            t_hat, b_hat = float(f["T_hat"]), float(f["B_hat"])
            if abs(ratio - oracles.TABLE1[3]["ratio"]) > RATIO_TOL:
                problems.append(f"ratio {ratio} not within 0.84 +- 0.03")
            if t_hat < t_bf * (1 - BRUTE_FORCE_RTOL) or b_hat < b_bf * (1 - BRUTE_FORCE_RTOL):
                problems.append(f"(T_hat, B_hat) = ({t_hat}, {b_hat}) below the M=16 "
                                f"brute force ({t_bf}, {b_bf})")
        return problems


class LinkSweep:
    """Desk real-axis N=2 sweep, then a resume from a torn copy of its trace."""

    name = "link-sweep"
    argv = ["optimize", "--constellation", "real", "--n", 2, "--trace"]
    n_params = 2
    coarse_steps = {"omega_1": 0.1, "dt_1": 0.4}

    def prepare(self, work: Path, seed: int):
        pass  # the sweep's grid is fixed by the desk defaults

    def round(self, work: Path, seed: int, tracer) -> Round:
        trace, torn = work / "trace.csv", work / "torn.csv"
        trace.unlink(missing_ok=True)
        fresh = call_cli(self.argv + [trace], tracer)
        # a crash mid-write leaves the last row cut after its parameter columns
        text = trace.read_bytes().decode().rstrip("\r\n") if trace.exists() else ""
        start = text.rfind("\n") + 1
        last = ",".join(text[start:].split(",")[: self.n_params])
        torn.write_bytes((text[:start] + last).encode())
        resume = call_cli(self.argv + [torn], tracer)
        return Round([fresh, resume], {"sweep_s": fresh.seconds})

    def check(self, rounds, seed: int) -> list:
        problems = []
        for r in rounds:
            fresh, resume = r.ops
            if not fresh.failed:
                f = report_fields(fresh.stdout)
                best = ast.literal_eval(f["best_params"])
                table = oracles.TABLE2_N2
                for key, step in self.coarse_steps.items():
                    if abs(best[key] - table[key]) > step + 1e-9:
                        problems.append(f"optimum {best} more than a coarse step from Table 2")
                ratio = float(f["tbp_per_eigenvalue_ratio"])
                if abs(ratio - table["ratio"]) > RATIO_TOL:
                    problems.append(f"ratio {ratio} not within 0.74 +- 0.03")
                l_star = abs(best["dt_1"] / (2.0 * best["omega_1"]))
                if not math.isclose(float(f["L_star"]), l_star, rel_tol=1e-12):
                    problems.append(f"L_star {f['L_star']} != |dt_1 / (2 omega_1)| = {l_star}")
            if not resume.failed and resume.stdout != fresh.stdout:
                problems.append("resumed sweep printed another result than the fresh sweep")
        return problems


class NftLink:
    """synth -> propagate -> nft of phase-modulated Table-1 N=2 and N=3 pulses."""

    name = "nft-link"
    distances = (0.5, 0.875, 1.25, 1.625, 2.0)
    orders = (2, 3)
    phase_points = 16

    def pulses(self, seed: int):
        """(order, z, phases) of every pulse; the phases come from the seed."""
        rng = np.random.default_rng(seed)
        return [(n, z, 2.0 * math.pi * rng.integers(0, self.phase_points, n) / self.phase_points)
                for n in self.orders for z in self.distances]

    def prepare(self, work: Path, seed: int):
        for i, (n, z, phis) in enumerate(self.pulses(seed)):
            row = oracles.TABLE1[n]
            (work / f"p{i}.yaml").write_text(
                oracles.spectrum_yaml(row["sigmas"], (0.0,) * n, row["dts"], phis))

    def round(self, work: Path, seed: int, tracer) -> Round:
        ops, times, outputs = [], {"propagate_s": 0.0, "nft_s": 0.0}, {}
        for i, (n, z, _) in enumerate(self.pulses(seed)):
            p = work / f"p{i}"
            synth = call_cli(["synth", "--spectrum", f"{p}.yaml", "--out", f"{p}.csv"], tracer)
            prop = call_cli(["propagate", "--signal", f"{p}.csv", "--z", z, "--dz", 2e-4,
                             "--out", f"{p}_z.csv"], tracer)
            nft = call_cli(["nft", "--signal", f"{p}_z.csv", "--out", f"{p}_nft.yaml"], tracer)
            ops += [synth, prop, nft]
            times["propagate_s"] += prop.seconds
            times["nft_s"] += nft.seconds
            outputs[i] = {
                "in": Path(f"{p}.yaml").read_text(),
                "signal": _output(synth, f"{p}.csv"),
                "propagated": _output(prop, f"{p}_z.csv"),
                "recovered": _output(nft, f"{p}_nft.yaml"),
            }
        return Round(ops, times, outputs)

    def check(self, rounds, seed: int) -> list:
        problems = []
        for r in rounds:
            for i, (n, z, _) in enumerate(self.pulses(seed)):
                out = r.outputs[i]
                if out["signal"] is not None and out["propagated"] is not None:
                    e0 = oracles.energy(*oracles.read_signal_csv(out["signal"]))
                    e1 = oracles.energy(*oracles.read_signal_csv(out["propagated"]))
                    if abs(e1 - e0) > 1e-9 * e0:
                        problems.append(f"pulse {i}: energy {e0} -> {e1}")
                if out["recovered"] is None:
                    continue
                lams, amps = oracles.read_spectrum_yaml(out["in"])
                found, found_amps = oracles.read_spectrum_yaml(out["recovered"])
                if len(found) != n:
                    problems.append(f"pulse {i}: {len(found)} eigenvalues found, {n} sent")
                    continue
                for k, lam in enumerate(lams):
                    j = int(np.argmin(np.abs(found - lam)))
                    if abs(found[j] - lam) >= 1e-3:
                        problems.append(f"pulse {i}: eigenvalue {found[j]} for {lam}")
                    expected = oracles.evolved_amplitude(lams, amps, k, z)
                    got = found_amps[j] * oracles.canonical_amplitude(found, j)
                    if abs(got - expected) >= 0.01 * abs(expected):
                        problems.append(f"pulse {i}: amplitude {got} for {expected}")
        return problems


WORKLOADS = {w.name: w for w in (PhaseGrid(), LinkSweep(), NftLink())}
