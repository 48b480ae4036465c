"""Brute-force minimization of the link-aware time-bandwidth product.

Two eigenvalue families are searched.  On the imaginary axis the amplitude
magnitudes are distance-invariant, so the objective is the phase-maximized
T*B at z = 0 over a grid of the free sigmas and temporal shifts (smallest
sigma pinned to 0.5, one shift pinned to 0, shift of the second-smallest
kept non-negative; these pins cost nothing by the invariance
transformations).  Parallel to the real axis the frequency offsets are
mirrored (omega_2 = -omega_1, dt_2 = -dt_1) with signs chosen so the
components drift together, collide, and separate; the link length is then
fixed by the precompensation, L = |dt_1 / (2*omega_1)|, and T is maximized
over [0, L].

The grids are one table, `SWEEP_GRIDS`: a desk-scale and a published grid
per supported (constellation, order), over exactly that pair's parameters
(any other pair or names raise `InvalidParameterError`), refined around the
coarse argmin with the family steps of `FINE_STEPS`; every axis is a
`grid_axis`, which never passes hi.  Both families share one objective,
`t_hat_b_hat` at the point's link length (zero on the imaginary axis),
without its per-distance profile, evaluated by one function for the sweep
workers and `evaluate_point` alike.
The sweep is best first (Land & Doig's branch and bound, Econometrica 28,
1960).  A first pass bounds every point from below with
`t_hat_b_hat_bound`, the T max * B max of a two-point phase sub-grid at the
link's endpoints (-inf when M is not a power of two); a second pass takes
the points in ascending (bound, params) order, `BATCH_SIZE` at a time, and
prunes each point whose bound lies strictly above the best objective of the
earlier batches.  The rest are evaluated in full.  So every point that could
be the argmin, ties included, is evaluated, and the coarse argmin and the
reported optimum are those of an exhaustive sweep; which points are
evaluated depends on the batch size alone.
Both passes run in worker processes forked from the caller (at most
`SOLITON_TBP_THREADS` of them), because each point is thousands of short
numpy calls and threads would serialize on the GIL; only a point's
parameters, its bound and its `TracePoint` cross between processes, so
pooled and serial sweeps agree bit for bit.  With one worker, at most one
point to decide, other threads running in the caller, or no "fork" start
method, the points are decided in-process.
No worker outlives the sweep, on success or error.
Every grid point lands in an append-only trace (CSV) with a status: "ok",
"pruned" (NaN values), or the class of the error that made a NaN row (a
degenerate spectrum, such as coinciding eigenvalues or unordered sigmas, or
a failed measurement).  Rows are written in decision order: the points
whose bound fails, then the second pass's, regardless of worker scheduling.
A resume bounds every point again but evaluates only the points the trace
lacks, so it writes the rows the whole sweep would have; the reported
optimum is always the argmin over the full trace.  The trace header records
what fixes a point's value (constellation, order, parameter names and
measurement config) and the columns, and a resume under another header,
such as a trace written before the status column, is refused.
"""

from __future__ import annotations

import csv
import math
import os
import threading
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from itertools import product, zip_longest
from pathlib import Path

import numpy as np

from .errors import DegenerateSpectrumError, InvalidParameterError, SolitonError, SpectrumFileError
from .io import _decode_text
from .metrics import MeasureConfig, t_hat_b_hat, t_hat_b_hat_bound, tbp_per_eigenvalue_ratio
from .spectrum import DiscreteSpectrum

THREADS_ENV = "SOLITON_TBP_THREADS"
# Points decided together in the best-first pass of a sweep: the incumbent is
# updated between batches, so the points evaluated depend on this size alone.
BATCH_SIZE = 8
# What makes a NaN row: a point that is degenerate or whose measurement fails.
POINT_ERRORS = (SolitonError, ArithmeticError, ValueError)


def grid_axis(lo: float, hi: float, step: float) -> list[float]:
    """Points lo, lo + step, ... up to hi (within 1e-9 steps) and never past it."""
    if not (all(map(math.isfinite, (lo, hi, step))) and step > 0 and lo <= hi):
        raise InvalidParameterError(f"range needs finite lo <= hi and step > 0, got {(lo, hi, step)}")
    k = math.floor((hi - lo) / step + 1e-9)
    return np.round(lo + step * np.arange(k + 1), 12).tolist()


@dataclass(frozen=True)
class SweepSpec:
    """Exhaustive sweep description.

    Attributes:
        constellation: "imaginary" or "real_axis".
        n: soliton order, 2 or 3.
        ranges: ordered {param name: (lo, hi, step)}, each a `grid_axis`;
            the names are exactly the pair's parameters in `SWEEP_GRIDS`,
            and their order sets the trace columns.
        refine: whether to refine around the coarse argmin, over a box of
            +-1 coarse step (within the range) at the `FINE_STEPS` steps.
        measure: measurement configuration (epsilon, definition, M,
            distance samples of the real-axis objective, ...).
    """

    constellation: str
    n: int
    ranges: dict
    refine: bool = False
    measure: MeasureConfig = field(default_factory=MeasureConfig)

    def __post_init__(self):
        for lo, hi, step in self.ranges.values():
            grid_axis(lo, hi, step)
        _grids(self.constellation, self.n, self.ranges)


def default_sweep(
    constellation: str,
    n: int,
    paper_fidelity: bool = False,
    measure: MeasureConfig | None = None,
) -> SweepSpec:
    """Published grids (paper_fidelity) or 2x-thinned desk-scale grids.

    Both come from `SWEEP_GRIDS`.  Published grids and the desk N=2 grids
    are refined with the steps of `FINE_STEPS`.  Desk-scale sweeps sample
    each real-axis link at 9 distances.
    """
    if measure is None:
        measure = MeasureConfig(phase_points=128 if paper_fidelity else 16)
    if not paper_fidelity:
        measure = replace(measure, z_samples=9)
    desk, published = _grids(constellation, n)
    ranges = dict(published if paper_fidelity else desk)
    return SweepSpec(constellation, n, ranges, paper_fidelity or n == 2, measure)


@dataclass(frozen=True)
class TracePoint:
    """One trace row; ``status`` is "ok", "pruned" or the class of the error behind a NaN row."""

    params: tuple[float, ...]
    t_hat: float
    b_hat: float
    objective: float
    status: str = "ok"

    @property
    def ok(self) -> bool:
        return math.isfinite(self.objective)


@dataclass(frozen=True)
class SweepResult:
    """Optimizer output with the full trace, pruned points included."""

    param_names: tuple[str, ...]
    best: TracePoint
    best_spectrum: DiscreteSpectrum
    tbp_per_ev_ratio: float
    l_star: float | None
    trace: tuple[TracePoint, ...]

    @property
    def best_params(self) -> dict:
        return dict(zip(self.param_names, self.best.params))


# (constellation, n) -> (desk grid, published grid), each an ordered
# {param name: (lo, hi, step)}.  The desk grids halve the published density;
# their imaginary-axis sigmas are offset from the pinned smallest sigma (0.5)
# so that ordered pairs near it stay reachable.
SWEEP_GRIDS = {
    ("imaginary", 2): (
        {"sigma_1": (0.54, 1.54, 0.2), "dt_1": (0.0, 5.0, 0.5)},
        {"sigma_1": (0.5, 1.5, 0.1), "dt_1": (0.0, 5.0, 0.25)},
    ),
    ("imaginary", 3): (
        {"sigma_1": (0.7, 1.5, 0.2), "sigma_2": (0.6, 1.4, 0.2),
         "dt_1": (-5.0, 5.0, 1.0), "dt_2": (0.0, 5.0, 0.5)},
        {"sigma_1": (0.5, 1.5, 0.1), "sigma_2": (0.5, 1.5, 0.1),
         "dt_1": (-5.0, 5.0, 0.25), "dt_2": (0.0, 5.0, 0.25)},
    ),
    ("real_axis", 2): (
        {"omega_1": (0.0, 1.0, 0.1), "dt_1": (-4.0, 0.0, 0.4)},
        {"omega_1": (0.0, 1.0, 0.05), "dt_1": (-4.0, 0.0, 0.2)},
    ),
    ("real_axis", 3): (
        {"omega_1": (0.0, 1.0, 0.1), "dt_1": (-4.0, 0.0, 0.4),
         "omega_3": (-1.0, 1.0, 0.2), "dt_3": (-3.0, 0.0, 0.4)},
        {"omega_1": (0.0, 1.0, 0.05), "dt_1": (-4.0, 0.0, 0.2),
         "omega_3": (-1.0, 1.0, 0.1), "dt_3": (-3.0, 0.0, 0.2)},
    ),
}
# refinement step of each parameter family (the name before "_")
FINE_STEPS = {"sigma": 0.02, "omega": 0.01, "dt": 0.05}

# published optimum parameter vectors, reproduced by `optimize` and plotted
# as the achieved points of the bound figure
TABLE_OPTIMA = {
    ("imaginary", 2): {"sigma_1": 0.58, "dt_1": 2.0},
    ("imaginary", 3): {"sigma_1": 0.7, "sigma_2": 0.62, "dt_1": -2.85, "dt_2": 1.05},
    ("real_axis", 2): {"omega_1": 0.075, "dt_1": -0.9},
    ("real_axis", 3): {"omega_1": 0.55, "dt_1": -2.2, "omega_3": 0.0, "dt_3": 0.0},
}


def _grids(constellation: str, n: int, names=None) -> tuple[dict, dict]:
    """(desk, published) grids of a supported pair whose parameters are `names`, if given."""
    grids = SWEEP_GRIDS.get((constellation, n))
    if grids is None:
        raise InvalidParameterError("sweeps support constellation 'imaginary' or 'real_axis' "
                                    f"with n = 2 or 3, got {(constellation, n)}")
    if names is not None and sorted(names) != sorted(grids[0]):
        raise InvalidParameterError(f"parameters of {constellation} n = {n} are "
                                    f"{tuple(grids[0])}, got {tuple(names)}")
    return grids


def spectrum_for_point(constellation: str, n: int, names, values) -> tuple[DiscreteSpectrum, float]:
    """Map sweep parameters to a spectrum and its link length.

    Raises InvalidParameterError for names other than the pair's parameters
    or a value count other than theirs, and DegenerateSpectrumError (or
    ValueError) for points a sweep skips.
    """
    _grids(constellation, n, names)
    if len(values) != len(names):
        raise InvalidParameterError(f"parameters {tuple(names)} need {len(names)} values, "
                                    f"got {len(values)}")
    p = dict(zip(names, values))
    if constellation == "imaginary":
        sigmas = [p[f"sigma_{k}"] for k in range(1, n)] + [0.5]
        for a, b in zip(sigmas, sigmas[1:]):
            if not a > b:  # enforce the sorted-eigenvalue convention
                raise DegenerateSpectrumError(f"sigmas not strictly decreasing: {sigmas}")
        dts = [p[f"dt_{k}"] for k in range(1, n)] + [0.0]
        return DiscreteSpectrum.from_delta_t(sigmas, None, dts), 0.0
    # real_axis: mirrored pair (+ optional third component for n = 3)
    w1, d1 = p["omega_1"], p["dt_1"]
    omegas = [w1, -w1]
    dts = [d1, -d1]
    if n == 3:
        omegas.append(p["omega_3"])
        dts.append(p["dt_3"])
    spec = DiscreteSpectrum.from_delta_t([0.5] * n, omegas, dts)
    l_star = abs(d1 / (2.0 * w1)) if w1 != 0.0 and d1 != 0.0 else 0.0
    return spec, l_star


def _grid_points(ranges: dict) -> list[tuple[float, ...]]:
    return list(product(*(grid_axis(*axis) for axis in ranges.values())))


def _key(params) -> tuple:
    return tuple(round(float(v), 9) for v in params)


def _trace_header(spec: SweepSpec, names) -> list[list[str]]:
    """Header rows: what fixes a point's value, then the column names."""
    fixed = {"constellation": spec.constellation, "n": spec.n, **asdict(spec.measure)}
    return [["#"] + [f"{k}={v}" for k, v in fixed.items()],
            list(names) + ["T_hat", "B_hat", "objective", "status"]]


def _read_trace(path: Path | None, header: list) -> dict:
    """Points of an existing trace, which must carry this sweep's header.

    Every row ends with a line terminator, so a final line without one was
    cut by a crash mid-write: once every complete row has parsed, it is
    dropped and the file truncated back to the last complete row, and the
    sweep evaluates that point again.  A refused trace is left as it is.
    """
    if path is None or not path.exists():
        return {}
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1
    rows = list(csv.reader(_decode_text(data[:end], f"trace {path}").splitlines()))
    if rows:
        if len(rows) < 2 or rows[0][:1] != ["#"]:
            raise SpectrumFileError(f"trace {path} has no measurement header")
        for theirs, ours in zip_longest(rows[0] + rows[1], header[0] + header[1], fillvalue=""):
            if theirs != ours:
                raise SpectrumFileError(f"trace {path} has {theirs!r} where this sweep has {ours!r}")
    n_params = len(header[1]) - 4
    done = {}
    for line, row in enumerate(rows[2:], start=3):
        if len(row) != n_params + 4:
            raise SpectrumFileError(f"trace {path}:{line}: expected {n_params + 4} columns, "
                                    f"got {len(row)}")
        *cells, status = row
        if not status.isidentifier():
            raise SpectrumFileError(f"trace {path}:{line}: status {status!r} is not a name")
        try:
            values = tuple(float(v) for v in cells)
        except ValueError as exc:
            raise SpectrumFileError(f"trace {path}:{line}: {exc}") from exc
        done[_key(values[:n_params])] = TracePoint(values[:n_params], *values[n_params:], status)
    if end < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(end)
    return done


def _worker_count() -> int:
    env = os.environ.get(THREADS_ENV)
    if env:
        count = int(env) if env.strip().isdecimal() else 0
        if count < 1:
            raise InvalidParameterError(f"{THREADS_ENV} must be an integer >= 1, got {env!r}")
        return count
    # the CPUs this process may run on: a cpuset-limited container's, not the host's
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(4, cpus or 1)


def _evaluate(constellation: str, n: int, names, values, measure: MeasureConfig):
    """(TracePoint, link length) of one parameter vector: T-hat, B-hat and their product."""
    spectrum, l_star = spectrum_for_point(constellation, n, names, values)
    r = t_hat_b_hat(spectrum, measure, l_star, profile=False)
    return TracePoint(values, r.t_hat, r.b_hat, r.t_hat * r.b_hat), l_star


def _nan_point(values, status: str) -> TracePoint:
    return TracePoint(values, math.nan, math.nan, math.nan, status)


def _evaluate_or_nan(constellation: str, n: int, names, measure: MeasureConfig, values) -> TracePoint:
    """The evaluation task: `_evaluate`'s point, or a NaN row where the point fails."""
    try:
        return _evaluate(constellation, n, names, values, measure)[0]
    except POINT_ERRORS as exc:
        return _nan_point(values, type(exc).__name__)


def _bound_or_nan(constellation: str, n: int, names, measure: MeasureConfig, values):
    """The bound task: `t_hat_b_hat_bound` of the point, or its NaN row where that fails.

    A sub-grid row is a row of the full grid, so a point whose bound fails
    would fail in full too.
    """
    try:
        spectrum, l_star = spectrum_for_point(constellation, n, names, values)
        return t_hat_b_hat_bound(spectrum, measure, l_star)
    except POINT_ERRORS as exc:
        return _nan_point(values, type(exc).__name__)


def _run_points(spec: SweepSpec, names, points, done, fh, workers: int, incumbent: float):
    """Decide the points not in `done`, best first, appending rows to `fh` in decision order.

    Pass 1 bounds every point (`_bound_or_nan`) and records the points whose
    bound fails as NaN rows, in enumeration order.  Pass 2 takes the others
    in ascending (bound, params) order, `BATCH_SIZE` at a time: a point
    whose bound lies strictly above ``incumbent`` is recorded as pruned, the
    rest are evaluated, and after each batch ``incumbent`` falls to the best
    objective in it.  Points already in `done` keep their rows and
    are not evaluated again, but they are bounded and take their places, so
    a resume from an interrupted trace writes the rows the whole run would.
    Returns the points' trace rows in enumeration order.
    """
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    unique = {}
    for params in points:
        unique.setdefault(_key(params), params)
    todo = [key for key in unique if key not in done]
    pool = None
    # Fork, not spawn or forkserver: those re-import __main__, which breaks a caller's
    # script without a __main__ guard, and re-import numpy and the package in every
    # worker.  A fork copies only the calling thread, so a caller with other threads
    # (whose locks the copy could inherit held) evaluates in-process.
    if (workers > 1 and len(todo) > 1 and threading.active_count() == 1
            and "fork" in multiprocessing.get_all_start_methods()):
        if fh is not None:  # a forked worker holds a copy of the buffered rows
            fh.flush()
        pool = ProcessPoolExecutor(min(workers, len(todo)),
                                   mp_context=multiprocessing.get_context("fork"))
    run = pool.map if pool is not None else map
    writer = csv.writer(fh) if fh is not None else None

    def record(point):
        done[_key(point.params)] = point
        if writer is not None:
            writer.writerow([repr(v) for v in point.params] + [repr(point.t_hat), repr(point.b_hat),
                                                               repr(point.objective), point.status])

    try:
        ranked = []
        if todo:
            bound = partial(_bound_or_nan, spec.constellation, spec.n, names, spec.measure)
            for (key, params), low in zip(unique.items(), run(bound, unique.values())):
                if not isinstance(low, TracePoint):
                    ranked.append((low, params))
                elif key not in done:
                    record(low)
        ranked.sort()
        evaluate = partial(_evaluate_or_nan, spec.constellation, spec.n, names, spec.measure)
        for start in range(0, len(ranked), BATCH_SIZE):
            batch = ranked[start : start + BATCH_SIZE]
            fresh = [params for low, params in batch
                     if _key(params) not in done and not low > incumbent]
            evaluated = iter(run(evaluate, fresh) if fresh else ())
            for low, params in batch:
                if _key(params) not in done:
                    record(_nan_point(params, "pruned") if low > incumbent else next(evaluated))
            incumbent = min([incumbent] + [done[_key(params)].objective for _, params in batch
                                           if done[_key(params)].ok])
    finally:
        if pool is not None:  # after an error, cancel what has not started and reap every worker
            pool.shutdown(wait=True, cancel_futures=True)
    return [done[_key(params)] for params in points]


def run_sweep(spec: SweepSpec, trace_path: str | os.PathLike | None = None) -> SweepResult:
    """Best-first sweep with optional refinement and resumable trace.

    The reported optimum is the argmin of the objective over every point
    (coarse and refined), as an exhaustive sweep would report it: a pruned
    point's bound, and so its objective, lies above it.  Ties resolve to the
    lexicographically smallest parameter vector.  The coarse pass starts
    with no incumbent, the refinement pass with the coarse argmin.
    """
    workers = _worker_count()  # before the trace is touched
    names = tuple(spec.ranges.keys())
    points = _grid_points(spec.ranges)
    trace_path = Path(trace_path) if trace_path is not None else None
    header = _trace_header(spec, names)
    done = _read_trace(trace_path, header)

    fh = None
    if trace_path is not None:
        new_file = not trace_path.exists() or trace_path.stat().st_size == 0
        fh = open(trace_path, "a", newline="")
        if new_file:
            csv.writer(fh).writerows(header)
    try:
        coarse = _argmin(_run_points(spec, names, points, done, fh, workers, math.inf))
        if spec.refine and coarse is not None:
            fine = {name: (max(lo, center - step), min(hi, center + step),
                           FINE_STEPS[name.split("_")[0]])
                    for (name, (lo, hi, step)), center in zip(spec.ranges.items(), coarse.params)}
            _run_points(spec, names, _grid_points(fine), done, fh, workers, coarse.objective)
    finally:
        if fh is not None:
            fh.close()

    best = _argmin(list(done.values()))
    if best is None:
        raise DegenerateSpectrumError("no evaluable grid point in the sweep")
    spectrum, l_star = spectrum_for_point(spec.constellation, spec.n, names, best.params)
    return SweepResult(
        param_names=names,
        best=best,
        best_spectrum=spectrum,
        tbp_per_ev_ratio=tbp_per_eigenvalue_ratio(best.objective, spec.n, spec.measure),
        l_star=l_star if spec.constellation == "real_axis" else None,
        trace=tuple(sorted(done.values(), key=lambda p: p.params)),
    )


def _argmin(points) -> TracePoint | None:
    best = None
    for p in points:
        if not p.ok:
            continue
        if best is None or (p.objective, p.params) < (best.objective, best.params):
            best = p
    return best


def evaluate_point(
    constellation: str,
    n: int,
    params: dict,
    measure: MeasureConfig,
) -> tuple[TracePoint, float, float]:
    """Objective at one parameter vector plus its normalized ratio.

    Used for direct checks of published optima without running a sweep.
    """
    values = tuple(float(v) for v in params.values())
    point, l_star = _evaluate(constellation, n, tuple(params.keys()), values, measure)
    return point, tbp_per_eigenvalue_ratio(point.objective, n, measure), l_star
