"""Command-line interface.

One subcommand per workflow: pulse synthesis (synth), forward transform
(nft), split-step propagation (propagate), duration/bandwidth measurement
(measure), temporal-shift sweeps (sweep), brute-force optimization
(optimize), bound-curve evaluation (bound), and regeneration of the
figure-style CSV data sets (figures).

Exit codes: 0 success, 1 validation error (usage errors, out-of-range flag
values, invalid files, an OS error on any input or output path), 2 numeric
or degenerate-input error.  Diagnostics and warnings go to stderr; every
output file is byte-deterministic for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import io as sio
from .asymptotics import lower_bound_curve
from .darboux import auto_grid, denormalize, synthesize
from .errors import InvalidParameterError, SolitonError, SpectrumFileError
from .metrics import DEFINITIONS, MeasureConfig, measure, t_hat_b_hat, tbp_per_eigenvalue_ratio
from .optimizer import (TABLE_OPTIMA, default_sweep, evaluate_point, grid_axis, run_sweep,
                        spectrum_for_point)
from .propagation import DEFAULT_DZ, PropagationPlan, propagate, propagate_with_snapshots
from .spectrum import DiscreteSpectrum, evolve

CONSTELLATION_FLAGS = {"imag": "imaginary", "real": "real_axis"}
_FIGURES = ("fig3", "fig5", "fig6")


def _measure_config(args, phase_default=16) -> MeasureConfig:
    z_samples = getattr(args, "z_samples", None)
    return MeasureConfig(
        epsilon=args.epsilon,
        alpha=args.alpha,
        definition=args.definition,
        phase_points=phase_default if args.phases is None else args.phases,
        z_samples=MeasureConfig.z_samples if z_samples is None else z_samples,
    )


def _write_rows(path, rows):
    Path(path).write_text("\n".join(rows) + "\n")


def _cmd_synth(args) -> int:
    spectrum, scaling = sio.load_spectrum(args.spectrum)
    if args.z:
        spectrum = evolve(spectrum, args.z)
    grid = auto_grid(spectrum, args.epsilon, oversampling=args.oversampling)
    signal = synthesize(spectrum, grid)
    if args.physical:
        if scaling is None:
            raise SpectrumFileError("--physical requires a 'physical' block in the spectrum file")
        signal = denormalize(signal, scaling)
    sio.save_signal(args.out, signal)
    print(f"wrote {signal.grid.n_samples} samples to {args.out}")
    return 0


def _cmd_nft(args) -> int:
    from .scattering import recover_spectrum

    signal = sio.load_signal(args.signal)
    region = None
    if args.region:
        re_lo, re_hi, im_lo, im_hi = args.region
        region = ((re_lo, re_hi), (im_lo, im_hi))
    spectrum = recover_spectrum(signal, region=region)
    sio.save_spectrum(args.out, spectrum)
    print(f"located {spectrum.n} eigenvalues; wrote {args.out}")
    return 0


def _cmd_propagate(args) -> int:
    signal = sio.load_signal(args.signal)
    if args.steps is not None:
        plan = PropagationPlan(z_total=args.z, n_steps=args.steps)
    else:
        plan = PropagationPlan.with_dz(args.z, args.dz)
    if args.snapshots:
        shots = propagate_with_snapshots(signal, plan, args.snapshots)
        stem = Path(args.out)
        for i, (z, shot) in enumerate(shots):
            path = stem.with_name(f"{stem.stem}_z{i:03d}{stem.suffix}")
            sio.save_signal(path, shot)
        print(f"wrote {len(shots)} snapshots ({stem.stem}_z***{stem.suffix}), z up to {plan.z_total}")
    else:
        sio.save_signal(args.out, propagate(signal, plan))
        print(f"propagated z={plan.z_total} in {plan.n_steps} steps; wrote {args.out}")
    return 0


def _report(lines, path):
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if path:
        Path(path).write_text(text)


def _cmd_measure(args) -> int:
    config = _measure_config(args)
    if (args.signal is None) == (args.spectrum is None):
        raise InvalidParameterError("measure needs exactly one of --signal or --spectrum")
    head = [f"definition: {config.definition}", f"epsilon: {config.epsilon!r}"]
    if args.signal is not None:
        spectrum_only = [flag for flag, value in (("--phases", args.phases), ("--L", args.L),
                         ("--z-samples", args.z_samples), ("--csv", args.csv)) if value is not None]
        if spectrum_only:
            raise InvalidParameterError(f"{', '.join(spectrum_only)} apply only to --spectrum input")
        report = measure(sio.load_signal(args.signal), config)
        _report(
            head + [
                f"alpha: {config.alpha!r}",
                f"T: {report.t!r}",
                f"T_interval: [{report.t_interval.lo!r}, {report.t_interval.hi!r}]",
                f"B: {report.b!r}",
                f"B_interval: [{report.b_interval.lo!r}, {report.b_interval.hi!r}]",
                f"TB: {report.tbp!r}",
            ],
            args.report,
        )
        return 0
    spectrum, _ = sio.load_spectrum(args.spectrum)
    link_length = 0.0 if args.L is None else args.L
    link = t_hat_b_hat(spectrum, config, link_length, profile=bool(args.csv))
    tbp = link.t_hat * link.b_hat
    _report(
        head + [
            f"phases: {config.phase_points}",
            f"L: {link_length!r}",
            f"T_hat: {link.t_hat!r}",
            f"B_hat: {link.b_hat!r}",
            f"TBP: {tbp!r}",
            f"TBP_per_eigenvalue_ratio: {tbp_per_eigenvalue_ratio(tbp, spectrum.n, config)!r}",
        ],
        args.report,
    )
    if args.csv:
        rows = ["z,t_max,b_max"] + [f"{z!r},{t!r},{b!r}" for z, t, b in link.profile]
        _write_rows(args.csv, rows)
    return 0


def _dt_sweep_rows(spectrum, entry, dts, config):
    rows = []
    sigma, etas = spectrum.sigmas[entry].item(), spectrum.etas.copy()
    for dt in dts:
        etas[entry] = math.exp(2.0 * sigma * float(dt))
        shifted = DiscreteSpectrum(spectrum.sigmas, spectrum.omegas, etas, spectrum.phis)
        link = t_hat_b_hat(shifted, config, 0.0)
        rows.append((float(dt), link.t_hat, link.b_hat))
    return rows


def _cmd_sweep(args) -> int:
    spectrum, _ = sio.load_spectrum(args.spectrum)
    if not 0 <= args.entry < spectrum.n:
        raise InvalidParameterError(f"--entry {args.entry} out of range for N={spectrum.n}")
    dts = grid_axis(args.dt_min, args.dt_max, args.dt_step)
    config = _measure_config(args)
    rows = _dt_sweep_rows(spectrum, args.entry, dts, config)
    _write_rows(args.out, ["dt,t_max,b_max"] + [f"{d!r},{t!r},{b!r}" for d, t, b in rows])
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_optimize(args) -> int:
    constellation = CONSTELLATION_FLAGS[args.constellation]
    config = _measure_config(args, phase_default=128 if args.paper_fidelity else 16)
    spec = default_sweep(constellation, args.n, paper_fidelity=args.paper_fidelity, measure=config)
    result = run_sweep(spec, trace_path=args.trace)
    lines = [
        f"constellation: {constellation}",
        f"n: {args.n}",
        f"phases: {config.phase_points}",
        f"best_params: {result.best_params}",
        f"T_hat: {result.best.t_hat!r}",
        f"B_hat: {result.best.b_hat!r}",
        f"objective: {result.best.objective!r}",
        f"tbp_per_eigenvalue_ratio: {result.tbp_per_ev_ratio!r}",
    ]
    if result.l_star is not None:
        lines.append(f"L_star: {result.l_star!r}")
    _report(lines, args.report)
    if args.out_spectrum:
        sio.save_spectrum(args.out_spectrum, result.best_spectrum)
    return 0


def _joined(values) -> str:
    return ";".join(repr(v) for v in values)


def _cmd_bound(args) -> int:
    constellation = CONSTELLATION_FLAGS[args.constellation]
    rows = ["n,normalized_bound,converged,params"]
    for e in lower_bound_curve(args.n_max, constellation, args.epsilon):
        rows.append(f"{e.n},{e.normalized_bound!r},{int(e.converged)},{_joined(e.params)}")
    _write_rows(args.out, rows)
    print(f"wrote bound curve for N <= {args.n_max} to {args.out}")
    return 0


def _fig3(config: MeasureConfig) -> dict:
    cases = {
        "imaginary": DiscreteSpectrum([0.5, 1.0]),
        "real_axis": DiscreteSpectrum([0.5, 0.5], [0.8, -0.6]),
    }
    dts = grid_axis(0.0, 6.0, 0.25)
    rows = ["case,dt,t_max,b_max"]
    for name, base in cases.items():
        for dt, t, b in _dt_sweep_rows(base, 1, dts, config):
            rows.append(f"{name},{dt!r},{t!r},{b!r}")
    return {"fig3.csv": rows}


def _fig5(config: MeasureConfig) -> dict:
    rows = ["n,z,t_max,b_max"]
    for n in (2, 3):
        params = TABLE_OPTIMA[("real_axis", n)]
        spectrum, l_star = spectrum_for_point(
            "real_axis", n, tuple(params.keys()), tuple(params.values())
        )
        link = t_hat_b_hat(spectrum, config, l_star, profile=True)
        for z, t, b in link.profile:
            rows.append(f"{n},{z!r},{t!r},{b!r}")
    return {"fig5.csv": rows}


def _fig6(config: MeasureConfig, n_max: int) -> dict:
    files = {}
    for constellation in CONSTELLATION_FLAGS.values():
        rows = ["kind,n,value,params"]
        for e in lower_bound_curve(n_max, constellation, config.epsilon):
            rows.append(f"bound,{e.n},{e.normalized_bound!r},{_joined(e.params)}")
        for n in (2, 3):
            params = TABLE_OPTIMA[(constellation, n)]
            _, ratio, _ = evaluate_point(constellation, n, params, config)
            packed = ";".join(f"{k}={v!r}" for k, v in params.items())
            rows.append(f"achieved,{n},{ratio!r},{packed}")
        files[f"fig6_{constellation}.csv"] = rows
    return files


def _cmd_figures(args) -> int:
    config = _measure_config(args)
    wanted = set(args.which or _FIGURES)
    # an unusable directory fails before minutes of computation, not after
    out_dir = Path(args.out_dir)
    made = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    try:
        if "fig3" in wanted:
            files.update(_fig3(config))
        if "fig5" in wanted:
            files.update(_fig5(config))
        if "fig6" in wanted:
            files.update(_fig6(config, args.n_max))
    except BaseException:
        for path in made:  # leaf first; a failed run leaves no directory behind
            path.rmdir()
        raise
    for name, rows in files.items():
        _write_rows(out_dir / name, rows)
    print("wrote " + ", ".join(str(out_dir / name) for name in files))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soliton-tbp",
        description="Multi-soliton synthesis and time-bandwidth product analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_measure_flags(p):
        p.add_argument("--epsilon", type=float, default=MeasureConfig.epsilon)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--def", dest="definition", choices=DEFINITIONS, default="energy")
        p.add_argument("--phases", type=int, default=None,
                       help="phase-grid size per eigenvalue (default 16; 128 under --paper-fidelity)")

    p = sub.add_parser("synth", help="synthesize a pulse from a spectrum file")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epsilon", type=float, default=MeasureConfig.epsilon)
    p.add_argument("--oversampling", type=float, default=8.0)
    p.add_argument("--z", type=float, default=0.0, help="evolve the spectrum before synthesis")
    p.add_argument("--physical", action="store_true",
                   help="emit physical units using the file's physical block")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("nft", help="recover the discrete spectrum of a signal")
    p.add_argument("--signal", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--region", type=float, nargs=4, metavar=("RE_LO", "RE_HI", "IM_LO", "IM_HI"))
    p.set_defaults(func=_cmd_nft)

    p = sub.add_parser("propagate", help="split-step propagation of a signal CSV")
    p.add_argument("--signal", required=True)
    p.add_argument("--z", type=float, required=True)
    step = p.add_mutually_exclusive_group()
    step.add_argument("--steps", type=int, default=None)
    step.add_argument("--dz", type=float, default=DEFAULT_DZ)
    p.add_argument("--out", required=True)
    p.add_argument("--snapshots", type=int, default=0)
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("measure", help="duration/bandwidth of a signal or spectrum")
    p.add_argument("--signal")
    p.add_argument("--spectrum")
    add_measure_flags(p)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--z-samples", dest="z_samples", type=int, default=None)
    p.add_argument("--report")
    p.add_argument("--csv", help="write (z, T_max, B_max) profile for spectrum input")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("sweep", help="T_max/B_max versus the temporal shift of one entry")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--entry", type=int, default=1)
    p.add_argument("--dt-min", type=float, default=0.0)
    p.add_argument("--dt-max", type=float, default=6.0)
    p.add_argument("--dt-step", type=float, default=0.25)
    add_measure_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimize", help="brute-force minimization of T_hat * B_hat")
    p.add_argument("--constellation", choices=list(CONSTELLATION_FLAGS), required=True)
    p.add_argument("--n", type=int, required=True)
    add_measure_flags(p)
    p.add_argument("--paper-fidelity", action="store_true",
                   help="published grids and 128 phases instead of desk-scale defaults")
    p.add_argument("--trace", help="append-only CSV of every evaluated point (resumable)")
    p.add_argument("--report")
    p.add_argument("--out-spectrum", help="write the optimum as a spectrum file")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("bound", help="normalized lower-bound estimate per soliton order")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--constellation", choices=list(CONSTELLATION_FLAGS), required=True)
    p.add_argument("--epsilon", type=float, default=MeasureConfig.epsilon)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("figures", help="regenerate the figure-style CSV bundles")
    p.add_argument("--which", nargs="*", choices=_FIGURES)
    p.add_argument("--out-dir", default="figures")
    add_measure_flags(p)
    p.add_argument("--n-max", type=int, default=10)
    p.set_defaults(func=_cmd_figures)
    return parser


def _retain_freed_memory() -> None:
    """On glibc, keep numpy's freed temporaries in the heap: by default each evaluation
    unmaps them and the next faults them in again.  The mmap threshold is glibc's
    64-bit ceiling and the trim threshold twice it; forked workers inherit both."""
    import ctypes

    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # glibc only
    except (OSError, AttributeError, TypeError):
        return
    libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def main(argv=None) -> int:
    _retain_freed_memory()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or the help
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (InvalidParameterError, SpectrumFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolitonError, ArithmeticError, ValueError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
