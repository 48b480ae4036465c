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
1960), with lazily tightened bounds.  A point's bound is the T max * B max
of an M_s-phase sub-grid at the link's endpoints (`t_hat_b_hat_bounds`;
-inf when M is not a power of two).  For M_s a power of two the sub-grid's
rows are rows of the next sub-grid and of the full grid, so the bound only
rises with M_s and never passes the objective.  A first pass bounds every
point at M_s = 2.  A second pass, the cascade, keeps entries (bound, level
M_s, params) and takes the `BATCH_SIZE` lowest at a time: an entry whose
bound lies strictly above the best objective of the earlier batches is
pruned, one below the top level, min(`TOP_SUB_GRID`, M/2), is tightened to
twice the phases and put back, and one at the top level is evaluated in
full.  So every point that could be the argmin, ties included, is
evaluated, and the coarse argmin and the reported optimum are those of an
exhaustive sweep; which points are evaluated depends on the points and
the batch size alone.
A task of the first pass bounds a run of `BOUND_CHUNK` consecutive points
together (`t_hat_b_hat_bounds`: their grids are sized in lockstep and their
sub-grid rows measured in shared blocks), each point getting the bound or
the error class it has alone.  A tightening task does the same for some of
a batch's entries at one level, measuring only the rows their coarser
sub-grid lacks; an evaluation task evaluates one point, its floors started
at the maxima of its top sub-grid.
Both passes run in worker processes forked from the caller
(`pool.ordered_pool`, at most `SOLITON_TBP_THREADS` of them), which
measure their points' phase grids in-process; only parameters, bounds and
`TracePoint`s cross between processes, so pooled and serial sweeps agree
bit for bit.  The parent submits the tasks of a pass as results come
back, at most `pool.PENDING_PER_WORKER` per worker ahead of the results it
has read, and unpacks them in submission order.  With one worker, at most
one task in the first pass and one point to decide, other threads running
in the caller, or no "fork" start method, the points are decided
in-process.  No worker outlives the sweep, on success or error.
Every grid point lands in an append-only trace (CSV) with a status: "ok",
"pruned" (NaN values), or the class of the error that made a NaN row (a
degenerate spectrum, such as coinciding eigenvalues or unordered sigmas, or
a failed measurement).  Rows are written in decision order: the points
whose first bound fails, then the cascade's, regardless of worker
scheduling.  A resume bounds every point again and replays the cascade,
tightening the points the trace holds as the whole sweep did, but it
evaluates only the points the trace lacks, so it writes the rows the whole
sweep would have.  A trace decided otherwise, such as one written before
the cascade (on the M_s = 2 bound alone), resumes too: its rows are kept,
and the reported optimum is always the argmin over the full trace.  The
trace header records what fixes a point's value (constellation, order,
parameter names and measurement config) and the columns, and a resume
under another header, such as a trace written before the status column,
is refused.
"""

from __future__ import annotations

import csv
import heapq
import math
import os
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from itertools import chain, product, zip_longest
from pathlib import Path

import numpy as np

from .errors import DegenerateSpectrumError, InvalidParameterError, SolitonError, SpectrumFileError
from .io import _decode_text
from .metrics import MeasureConfig, t_hat_b_hat, t_hat_b_hat_bounds, tbp_per_eigenvalue_ratio
from .pool import _worker_count, ordered_pool
from .spectrum import DiscreteSpectrum

# Points decided together in the best-first pass of a sweep: the incumbent is
# updated between batches, so the points evaluated depend on this size alone.
BATCH_SIZE = 8
# What makes a NaN row: a point that is degenerate or whose measurement fails.
POINT_ERRORS = (SolitonError, ArithmeticError, ValueError)
# Consecutive points bounded by one task of the first pass: their grids are
# sized and their sub-grid rows measured together.
BOUND_CHUNK = 16
# The largest phase sub-grid the cascade tightens a bound to (M/2 when M is
# smaller): each level costs about twice the one before, and a full
# evaluation measures every distance of the link.
TOP_SUB_GRID = 16


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


def _evaluate(constellation: str, n: int, names, values, measure: MeasureConfig, floors=None):
    """(TracePoint, link length) of one parameter vector: T-hat, B-hat and their product.

    ``floors`` are widths that rows of the point's phase grid realize (see
    `t_hat_b_hat`); they change which rows are scanned, not the values.
    """
    spectrum, l_star = spectrum_for_point(constellation, n, names, values)
    r = t_hat_b_hat(spectrum, measure, l_star, profile=False, floors=floors)
    return TracePoint(values, r.t_hat, r.b_hat, r.t_hat * r.b_hat), l_star


def _nan_point(values, status: str) -> TracePoint:
    return TracePoint(values, math.nan, math.nan, math.nan, status)


def _evaluate_or_nan(constellation: str, n: int, names, measure: MeasureConfig, floors,
                     values) -> TracePoint:
    """The evaluation task: `_evaluate`'s point, or a NaN row where the point fails."""
    try:
        return _evaluate(constellation, n, names, values, measure, floors)[0]
    except POINT_ERRORS as exc:
        return _nan_point(values, type(exc).__name__)


def _bound_chunk(constellation: str, n: int, names, measure: MeasureConfig, chunk, sub_points=2,
                 coarser=None) -> list:
    """The bound task: per point of ``chunk``, its `SubGridBound` or its NaN row where that fails.

    The bound is that of the ``sub_points``-phase sub-grid; ``coarser``
    optionally holds each point's bound at half as many phases, which it
    tightens (see `t_hat_b_hat_bounds`).  The chunk's points are bounded
    together, each with the bound or the error class it has alone.  A
    sub-grid row is a row of the full grid, so a point whose bound fails
    would fail in full too.
    """
    lows, items, bounded = [], [], []
    for values in chunk:
        try:
            items.append(spectrum_for_point(constellation, n, names, values))
            bounded.append(len(lows))
            lows.append(None)
        except POINT_ERRORS as exc:
            lows.append(_nan_point(values, type(exc).__name__))
    if coarser is not None:
        coarser = [coarser[i] for i in bounded]
    for i, low in zip(bounded, t_hat_b_hat_bounds(items, measure, sub_points, coarser)):
        if isinstance(low, Exception):
            if not isinstance(low, POINT_ERRORS):
                raise low
            low = _nan_point(chunk[i], type(low).__name__)
        lows[i] = low
    return lows


def _top_level(phase_points: int) -> int:
    """The sub-grid size at which the cascade stops tightening: min(`TOP_SUB_GRID`, M/2), at least 2.

    2 when M is not a power of two: its bounds are -inf, and no tightening
    changes them.
    """
    if phase_points & (phase_points - 1):
        return 2
    return max(2, min(TOP_SUB_GRID, phase_points // 2))


def _split(items, parts: int) -> list:
    """``items`` cut into at most ``parts`` consecutive runs of near-equal length."""
    size = -(-len(items) // max(1, parts))
    return [items[start : start + size] for start in range(0, len(items), size)]


def _run_points(spec: SweepSpec, names, points, done, fh, workers: int, incumbent: float):
    """Decide the points not in `done`, best first, appending rows to `fh` in decision order.

    Pass 1 bounds every point by its two-phase sub-grid, `BOUND_CHUNK`
    consecutive points per task (`_bound_chunk`), and records the points
    whose bound fails as NaN rows, in enumeration order.  Pass 2 is a lazy
    cascade over the others, held as entries (bound, level, params), the
    level being the bound's sub-grid size.  It takes the `BATCH_SIZE`
    lowest entries at a time.  An entry whose bound lies strictly above
    ``incumbent`` is recorded as pruned.  One below the top level
    (`_top_level`) is tightened to the sub-grid of twice the phases, which
    measures only the rows the coarser sub-grid lacks, and put back, or
    recorded as a NaN row if that fails.  One at the top level is
    evaluated in full, its floors started at the top sub-grid's maxima.
    After each batch ``incumbent`` falls to the best objective evaluated in
    it.  Each level's sub-grid nests in the next and in the full grid, so a
    bound only rises as it is tightened and never passes the objective:
    the decisions are those of an exhaustive sweep wherever the argmin is
    concerned.  The tightenings of a batch run in at most `workers` tasks
    per level alongside its evaluations; a bound does not depend on the
    points it is computed with, so neither does the order.
    Points already in `done` keep their rows and are not evaluated again,
    but they are bounded, tightened and take their places, so a resume
    from an interrupted trace replays the cascade and writes the rows the
    whole run would.  The worker pool starts when either pass has more than
    one task, so a resume with one point left still bounds its pass in the
    pool.  Returns the points' trace rows in enumeration order.
    """
    unique = {}
    for params in points:
        unique.setdefault(_key(params), params)
    todo = [key for key in unique if key not in done]
    values = list(unique.values())
    chunks = [values[start : start + BOUND_CHUNK] for start in range(0, len(values), BOUND_CHUNK)]
    # the most tasks either pass hands out: every chunk is bounded when any point is to decide
    tasks = max(len(todo), len(chunks)) if todo else 0
    if fh is not None:  # a forked worker holds a copy of the buffered rows
        fh.flush()
    writer = csv.writer(fh) if fh is not None else None

    def record(point):
        if _key(point.params) in done:
            return
        done[_key(point.params)] = point
        if writer is not None:
            writer.writerow([repr(v) for v in point.params] + [repr(point.t_hat), repr(point.b_hat),
                                                               repr(point.objective), point.status])

    with ordered_pool(workers, tasks) as (size, run):
        entries = []  # (bound, level, params, SubGridBound)
        bound = partial(_bound_chunk, spec.constellation, spec.n, names, spec.measure)
        if todo:
            lows = chain.from_iterable(run((bound, (chunk,)) for chunk in chunks))
            for params, low in zip(values, lows):
                if isinstance(low, TracePoint):
                    record(low)
                else:
                    entries.append((low.value, 2, params, low))
        heapq.heapify(entries)
        top = _top_level(spec.measure.phase_points)
        evaluate = partial(_evaluate_or_nan, spec.constellation, spec.n, names, spec.measure)
        while entries:
            batch = [heapq.heappop(entries) for _ in range(min(BATCH_SIZE, len(entries)))]
            kept = [entry for entry in batch if not entry[0] > incumbent]
            finals = [entry for entry in kept if entry[1] == top and _key(entry[2]) not in done]
            jobs = [(evaluate, (low[1:], params)) for _, _, params, low in finals]
            tightened = []
            for level in sorted({entry[1] for entry in kept if entry[1] < top}):
                for part in _split([entry for entry in kept if entry[1] == level], size):
                    tightened += part
                    jobs.append((bound, ([entry[2] for entry in part], 2 * level,
                                         [entry[3] for entry in part])))
            results = iter(run(jobs))
            found = {_key(entry[2]): point for entry, point in zip(finals, results)}
            found.update((_key(entry[2]), low) for entry, low in zip(tightened, chain.from_iterable(results)))
            objectives = [incumbent]
            for low_value, level, params, _ in batch:
                key = _key(params)
                if low_value > incumbent:
                    record(_nan_point(params, "pruned"))
                elif level < top:
                    low = found[key]
                    if isinstance(low, TracePoint):
                        record(low)
                    else:
                        heapq.heappush(entries, (low.value, 2 * level, params, low))
                else:
                    if key in found:
                        record(found[key])
                    if done[key].ok:
                        objectives.append(done[key].objective)
            incumbent = min(objectives)
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
