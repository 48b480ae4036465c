"""Pulse duration, bandwidth, and time-bandwidth product measurement.

Two window definitions are supported:

- energy: the smallest interval containing a fraction (1 - epsilon) of the
  total energy, found by scanning the interpolated cumulative energy from
  both families of window edges (the density is treated as piecewise
  constant per sample cell, which makes the scan exact).
- threshold: the smallest interval outside which the magnitude stays below
  alpha times the peak.  By default alpha = sqrt(2*epsilon), the unique
  value for which both definitions coincide on a first-order soliton (the
  sech is self-dual, so one alpha serves time and frequency).

One block evaluator, `_windows`, serves every measurement: for a (rows x
samples) block of runs of rows, each run on its own grid, it returns the
first maximal T and B window of each run.  One body runs per domain, on the
|q|^2 dt and the |Q|^2 df
cells: it checks the block's energy and edge shares (`_edge_share`:
leakage past the time grid, aliasing at the Nyquist edge) and then works in
two steps: the rows that can still win (`_candidates`: under the energy
definition a cheap per-row bracket on the window width, `_window_bracket`,
rules out every row that provably lies below a floor or below another row
of its block), then an exact scan of those rows (`_first_max`), so the
maxima and argmaxes are those of a full scan.  The block may be an
approximation of the exact rows within a per-sample bound: the brackets and
the checks then widen by what that bound allows, and `_windows` reads the
exact samples of the rows it scans, or cannot decide a check on, from a
callable.  Exact samples are the case of a zero bound.  `measure` is a
block of one without floors.
`t_max_b_max` takes the first maximal T and B of a spectrum over the
spectral-phase grid at a list of distances on a given time grid, T over
every distance and B over the first and last, block by block, with the
widest windows of earlier blocks as floors; its ``floors`` argument seeds
them, so it returns max(floor, maximum).  A block holds at most
`CHUNK_SIZE` rows: a phase grid of fewer rows packs as many whole distances
into one block as fit, so a short link costs one `_windows` call; a larger
one is measured distance by distance in chunks of `CHUNK_SIZE` rows.  For
such an energy-definition grid of three eigenvalues, on a time grid the
direct recursion serves, each chunk is first evaluated from the Gram form
(`darboux._gram_rows`) and only the rows `_windows` reads exactly go
through the recursion.  A guard checks every such row against its Gram
bound; if one lies outside it, the chunk is evaluated again from the exact
rows of the whole chunk.  Smaller grids, such as N=2 and the desk N=3 sweep,
keep the recursion for every row: there the Gram coefficients cost more
than they save.  A call with at least as many full blocks as workers runs
its blocks in forked workers (`pool.ordered_pool`): each block is floored
by the maxima of the blocks read so far, and the parent merges the results
in block order, so the maxima, the argmaxes and the error raised are those
of the serial loop.
`t_hat_b_hat`, the one way from a spectrum to T-hat and B-hat, picks that
time grid (`_link_grid`: the lean grids at z = 0, L/2 and L share their
bandwidth estimate and tail coefficients) and measures the distances of a
link (z = 0 alone when imaginary or zero-length): T is maximized over all of
them, B over the two endpoints only (the bandwidth matters only where the
signal is sampled).  With ``profile`` it records the true T and B maxima at
every distance, one `t_max_b_max` call each; without, one call measures the
whole link, so only the rows that could raise the maxima of the blocks
before them are scanned exactly.
`t_hat_b_hat_bound` is a cheap lower bound on T-hat * B-hat: the T and B
maxima of a phase sub-grid of M_s phases (2 by default) at z = 0 and
z = L, on the same grid, in one block.  When M and M_s are powers of two
the sub-grid rows are rows of every larger power-of-two sub-grid and of the
full grid, so the bound rises with M_s and never exceeds the product; a
bound at M_s can be tightened to 2*M_s by measuring only the rows the
smaller sub-grid lacks, floored by its maxima.  A large energy-definition
grid starts its floors at the M_s = 2 maxima, or at given ones.
`t_hat_b_hat_bounds` bounds many points together and is what the sweep
calls: their grids are sized in lockstep, and the sub-grid rows of points
whose grids share a sample count are synthesized in one call and measured
in one block, one run per point.  Each point gets the bound (a
`SubGridBound`, with the maxima behind it), or the class of error, it has
alone; `t_hat_b_hat_bound` is the value of the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .asymptotics import _check_epsilon, _solved
from .darboux import (SampledSignal, TimeGrid, _gram_coefficients, _gram_rows, _lean_grids,
                      _seeds_in_range, _synthesize_axes, auto_grid, synthesize, synthesize_phases,
                      union_grid)
from .errors import InvalidParameterError, MeasurementUnreliableError
from .pool import _worker_count, ordered_pool
from .spectrum import DiscreteSpectrum, evolve

# Energy fraction at the grid edge cells above which the energy-window search
# is meaningless (relative to the epsilon actually being resolved).
EDGE_LEAKAGE_FRACTION = 1e-2
# Spectral energy fraction in the four bins next to the Nyquist edge above
# which the DFT is considered aliased.
ALIASING_FRACTION = 1e-8

# Smallest epsilon a measurement accepts: below it the cumulative energy sum no longer
# resolves 1 - eps (one-soliton T misses ln((2-eps)/eps) by 3e-5 at 1e-12, 39% at 1e-17).
_EPSILON_FLOOR = 1e-12

DEFINITIONS = ("energy", "threshold")
# Phase combinations synthesized per batch in `t_max_b_max`.
CHUNK_SIZE = 512
# Left-tail shares K of the window bracket that lets `t_max_b_max` skip rows
# (`_window_bracket`): more shares tighten it at a higher cost per row.
BRACKET_SHARES = 8


@dataclass(frozen=True)
class MeasureConfig:
    """Measurement parameters.

    Attributes:
        epsilon: discarded energy fraction, in [1e-12, 1); below 0.5 when alpha is derived.
        alpha: magnitude threshold for the threshold definition; derived as
            sqrt(2*epsilon) when not given.
        definition: "energy" or "threshold".
        phase_points: M, phase-grid size per modulated eigenvalue.
        z_samples: number of distance samples when maximizing T over a link.
    """

    epsilon: float = 1e-4
    alpha: float | None = None
    definition: str = "energy"
    phase_points: int = 16
    z_samples: int = 41

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if self.epsilon < _EPSILON_FLOOR:
            raise InvalidParameterError(f"epsilon must be >= {_EPSILON_FLOOR} for a measurement "
                                        f"to resolve it, got {self.epsilon}")
        if self.alpha is None:
            object.__setattr__(self, "alpha", math.sqrt(2.0 * self.epsilon))
            if not self.alpha < 1.0:
                raise InvalidParameterError("epsilon must lie below 0.5 when alpha is derived as "
                                            f"sqrt(2*epsilon), got {self.epsilon}")
        if not (0.0 < self.alpha < 1.0):
            raise InvalidParameterError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.definition not in DEFINITIONS:
            raise InvalidParameterError(f"definition must be one of {DEFINITIONS}")
        if self.phase_points < 2:
            raise InvalidParameterError("phase_points must be >= 2")
        if self.z_samples < 2:
            raise InvalidParameterError("z_samples must be >= 2")


@dataclass(frozen=True)
class Band:
    """An interval [lo, hi] on the time or frequency axis."""

    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class TBReport:
    """Measured duration and bandwidth windows of one signal."""

    t_interval: Band
    b_interval: Band

    @property
    def t(self) -> float:
        return self.t_interval.width

    @property
    def b(self) -> float:
        return self.b_interval.width

    @property
    def tbp(self) -> float:
        return self.t * self.b


def _smallest_energy_window(cells: np.ndarray, x0: float, dx: float, epsilon: float) -> Band:
    """Smallest interval capturing (1-epsilon) of sum(cells), cells >= 0.

    Cell i occupies [x0 + i*dx, x0 + (i+1)*dx] with uniform density.  The
    cumulative is piecewise linear, so the minimal window has at least one
    edge on a cell boundary; both edge families are scanned.  The sum is
    finite and above 1e-300 (`_windows` refuses other rows).
    """
    # strip zero-density margins so interpolation never sits on a plateau edge
    nz = np.nonzero(cells)[0]
    cells = cells[nz[0] : nz[-1] + 1]
    x0 = x0 + nz[0] * dx
    bounds = x0 + dx * np.arange(len(cells) + 1)
    cum = np.concatenate([[0.0], np.cumsum(cells)])
    capture = (1.0 - epsilon) * cum[-1]

    best = (math.inf, 0.0, 0.0)
    mask = cum + capture <= cum[-1]
    if mask.any():
        hi = np.interp(cum[mask] + capture, cum, bounds)
        widths = hi - bounds[mask]
        i = int(np.argmin(widths))
        best = min(best, (float(widths[i]), float(bounds[mask][i]), float(hi[i])))
    mask = cum - capture >= 0.0
    if mask.any():
        lo = np.interp(cum[mask] - capture, cum, bounds)
        widths = bounds[mask] - lo
        i = int(np.argmin(widths))
        best = min(best, (float(widths[i]), float(lo[i]), float(bounds[mask][i])))
    return Band(best[1], best[2])


def _threshold_window(mags: np.ndarray, x: np.ndarray, alpha: float) -> Band:
    """Smallest interval outside which mags <= alpha * max(mags), max(mags) > 0."""
    thresh = alpha * mags.max()
    above = np.nonzero(mags > thresh)[0]
    i0, i1 = int(above[0]), int(above[-1])
    if i0 == 0 or i1 == len(mags) - 1:
        raise MeasurementUnreliableError("threshold crossing lies outside the grid")
    # linear crossing between the last below-threshold sample and the first above
    lo = x[i0 - 1] + (x[i0] - x[i0 - 1]) * (thresh - mags[i0 - 1]) / (mags[i0] - mags[i0 - 1])
    hi = x[i1] + (x[i1 + 1] - x[i1]) * (mags[i1] - thresh) / (mags[i1] - mags[i1 + 1])
    return Band(float(lo), float(hi))


def _edge_share(power: np.ndarray, k: int) -> np.ndarray:
    """Share of ``power`` in the k cells at either end of the last axis; 0 where it sums to 0."""
    total = power.sum(axis=-1)
    edge = power[..., :k].sum(axis=-1) + power[..., -k:].sum(axis=-1)
    return np.divide(edge, total, out=np.zeros(np.shape(total)), where=total > 0)


def _window_bracket(cells: np.ndarray, x0: float, dx: float, epsilon: float, spread=0.0):
    """Bounds lower <= W <= upper on each row's `_smallest_energy_window` width W.

    Cell i of a row occupies [x0 + i*dx, x0 + (i+1)*dx], with x0 and dx
    one value for the block or one per row; E is the row's
    piecewise-linear cumulative and C = (1-epsilon)*E_total the scan's
    capture.  With the one quantile q(v) = sup{x : E(x) <= v}, +inf at or
    above E_total, a level margin m > 0 and left-tail levels
    l_0 = 0 < ... < l_K covering [0, E_total - C + m]:

    - E is continuous, so E(q(v)) = v and the window [q(l_i), q(l_i + C + m)]
      captures C + m: W <= q(l_i + C + m) - q(l_i);
    - the left edge of any window capturing C has a level in some
      [l_i, l_(i+1)], and its right edge lies at or past
      inf{x : E(x) >= l_i + C} >= q(l_i + C - m): W >= q(l_i + C - m) - q(l_(i+1)).

    K is `BRACKET_SHARES`.  The margin m = 2^-46 E_total covers the rounding
    of the scan's own levels however steep E is, and a position slack covers
    the rounding of its interpolation.  Rows whose bounds are not finite get
    (-inf, inf); so does every row whose total is too small for the margin, a
    row without energy included.

    When the cells only approximate the scanned ones, ``spread`` (one value
    per row) bounds the sum of their differences.  The cumulative and the
    total of the scanned cells then lie within it of these, and the capture
    within (1-epsilon)*spread, so both bounds hold for the scanned cells with
    the margin m + 3*spread.
    """
    rows, n = cells.shape
    x0, dx = np.asarray(x0, dtype=float), np.asarray(dx, dtype=float)
    cum = np.zeros((rows, n + 1))
    np.cumsum(cells, axis=-1, out=cum[:, 1:])
    total = cum[:, -1]
    # below this the level margin would leave the normal floating-point range
    sound = np.isfinite(total) & (total > 1e-200) & np.isfinite(spread)
    cum[~sound] = 0.0  # keeps the search keys ordered
    total = cum[:, -1:]
    capture = (1.0 - epsilon) * total
    margin = 2.0**-46 * total + 3.0 * np.where(sound, spread, 0.0)[:, None]
    levels = ((total - capture) + margin) * (np.arange(BRACKET_SHARES + 1) / BRACKET_SHARES)
    tail = levels[:, :-1]
    levels = np.concatenate([levels, tail + (capture + margin), tail + (capture - margin)], axis=1)
    # one search for the whole block: complex keys order lexicographically, so
    # (row, level) lands among the keys (row, cum) of its own row
    keys = np.empty(cum.shape, dtype=complex)
    keys.real = np.arange(rows)[:, None]
    keys.imag = cum
    query = np.empty(levels.shape, dtype=complex)
    query.real = np.arange(rows)[:, None]
    query.imag = levels
    row_start = (n + 1) * np.arange(rows)[:, None]
    k = np.searchsorted(keys.ravel(), query.ravel(), side="right").reshape(levels.shape) - row_start
    j = np.minimum(np.maximum(k, 1), n) - 1  # the cell holding the level
    flat = cum.ravel()
    c0 = flat[row_start + j]
    c1 = flat[row_start + j + 1]
    frac = np.divide(levels - c0, c1 - c0, out=np.zeros(levels.shape), where=c1 > c0)
    # a level below 0 (capture - margin, at epsilon within 2^-46 of 1) has no position
    x = np.where(k <= 0, -math.inf, np.where(k > n, math.inf,
                                               x0.reshape(-1, 1) + dx.reshape(-1, 1) * (j + frac)))
    starts, ends = x[:, : BRACKET_SHARES + 1], x[:, BRACKET_SHARES + 1 :]
    with np.errstate(invalid="ignore"):  # inf - inf on the rows zeroed above
        upper = (ends[:, :BRACKET_SHARES] - starts[:, :-1]).min(axis=1)
        lower = (ends[:, BRACKET_SHARES:] - starts[:, 1:]).min(axis=1)
    slack = 1e-12 * (np.abs(x0) + (n + 1) * dx)
    sound &= np.isfinite(lower) & np.isfinite(upper)
    return np.where(sound, lower - slack, -math.inf), np.where(sound, upper + slack, math.inf)


def _candidates(cells: np.ndarray, x0, dx, config: MeasureConfig, floor, cuts,
                spread=0.0) -> list:
    """Per run ``cuts[r]:cuts[r + 1]``, the rows that can still be its first maximum and beat its floor.

    ``floor`` is one value for every run or one per run.  The energy
    definition keeps only the rows whose `_window_bracket` upper bound
    reaches max(floor, the run's largest lower bound); every other row is
    narrower than the floor or than some row of its run.  A row's upper
    bound is at least its lower bound, so without a floor a run of one is
    always kept.  The threshold definition keeps every row, so each reports
    its own grid error.  ``x0`` and ``dx`` hold one value per row.
    """
    runs = list(zip(cuts[:-1], cuts[1:]))
    if config.definition == "threshold":
        return [np.arange(lo, hi) for lo, hi in runs]
    lower, upper = _window_bracket(cells, x0, dx, config.epsilon, spread)
    floors = np.broadcast_to(floor, len(runs)).tolist()
    return [lo + np.nonzero(~(upper[lo:hi] < max(floor, lower[lo:hi].max())))[0] if hi > lo
            else np.arange(0) for floor, (lo, hi) in zip(floors, runs)]


def _first_max(mags: np.ndarray, rows: np.ndarray, x: np.ndarray, dx: float, config: MeasureConfig):
    """(row, Band) of the first widest window among ``rows``, from their exact magnitudes ``mags``.

    Cell i is centred on x[i], dx wide.  Returns None when no row is given.
    """
    if config.definition == "threshold":
        bands = [_threshold_window(m, x, config.alpha) for m in mags]
    else:
        x0 = x[0] - 0.5 * dx
        bands = [_smallest_energy_window(c, x0, dx, config.epsilon) for c in mags**2 * dx]
    if not bands:
        return None
    i = int(np.argmax([band.width for band in bands]))
    return int(rows[i]), bands[i]


def _spectrum_mags(samples: np.ndarray, dt: float) -> np.ndarray:
    """Unitary DFT magnitudes of each row, in fftshift order."""
    return np.abs(np.fft.fftshift(np.fft.fft(samples, axis=-1), axes=-1)) * dt


def _passes(approx: np.ndarray, exact_passes, message: str):
    """Raise unless every row passes a check: the rows that ``approx`` does not clear, exactly."""
    rows = np.nonzero(~approx)[0]
    if len(rows) and not np.all(exact_passes(rows)):
        raise MeasurementUnreliableError(message)


def _windows(samples: np.ndarray, runs, config: MeasureConfig, b_rows=slice(None),
             floors: tuple[float, float] = (-math.inf, -math.inf), delta=None, exact=None) -> list:
    """First maximal duration and bandwidth windows of each run of a (rows x samples) block.

    ``runs`` lists (grid, count): the first count rows of the block lie on
    the first grid, the next on the second, and so on; every grid has the
    block's sample count.  Returns, per run, the (row index, Band) of the
    first widest T window over the run's rows and of the first widest B
    window over those of its rows that ``b_rows`` selects (a slice or a
    sorted index array of block rows; None when it selects none).  Each
    row is measured on its run's grid: the cell widths, the time or
    frequency axis and the DFT's dt enter per row, so a run's windows are
    those of its rows alone.  ``floors`` (T, B), each one value or one per
    run, let the energy definition skip rows that cannot exceed them, see
    `_candidates`; a run's family is None when no row can.  One body runs
    for T and, on its rows, again for B.
    Before its scans each checks all its rows, so one row reports the same
    error it would alone: first the energy, under both definitions (it
    must be finite and above 1e-300), then the `_edge_share` of k cells per
    side (time: 1, against leakage; frequency: 2, at the Nyquist edge).

    ``samples`` are the exact rows unless ``delta`` is given.  Then
    |samples - exact| <= delta on every sample, and ``exact(rows)`` returns
    the exact samples of the given rows.  With l2 = ||delta||_2 (dt-weighted)
    each row's cells are within Delta = 2*sqrt(E)*l2 + l2^2 of the exact
    ones in sum, E the row's approximate energy (Cauchy-Schwarz on
    ||q|^2 - |q_exact|^2| <= (2|q| + delta)*delta); by Parseval the same
    holds for the frequency cells with l2 grown by the FFT's rounding
    (Higham, ch. 24), and each DFT bin is within ||delta||_1 plus that
    rounding.  This error model is all the two domains do differently.  The
    brackets take Delta as their spread, and a check passes on the
    approximation when its bounds clear the limit by a relative 2^-40, which
    covers the rounding of the exact check.  Every row the bounds leave
    open, and every row that can still win, is read through ``exact`` and
    decided or scanned on its exact samples, so every error, width and row
    is that of the exact block.  Exact samples are the case delta = 0.
    """
    grids = [grid for grid, _ in runs]
    cuts = np.cumsum([0] + [count for _, count in runs])
    run_of = np.repeat(np.arange(len(runs)), np.diff(cuts))  # each row's run
    dt = np.array([grid.dt for grid in grids])[run_of][:, None]
    everything = np.arange(len(samples))
    axes = [grid.times for grid in grids]
    domains = [(False, slice(None), axes, [grid.dt for grid in grids], 1,
                EDGE_LEAKAGE_FRACTION * config.epsilon, floors[0],
                "grid edges carry too much energy for the requested epsilon")]
    if everything[b_rows].size:
        axes = [np.fft.fftshift(np.fft.fftfreq(grid.n_samples, d=grid.dt)) for grid in grids]
        domains.append((True, b_rows, axes, [float(f[1] - f[0]) for f in axes], 2, ALIASING_FRACTION,
                        floors[1], "spectral energy reaches the Nyquist edge (aliasing)"))
    rel, l2_rows = ((0.0, None) if delta is None
                    else (2.0**-40, np.sqrt((delta * delta).sum(-1) * dt[:, 0])))
    found = [[None, None] for _ in runs]
    for d, (spectral, selected, xs, widths, k, limit, floor, message) in enumerate(domains):
        index = everything[selected]  # the block's row of each of the domain's rows
        dx = np.array(widths)[run_of[index]]
        x0 = np.array([x[0] - 0.5 * w for x, w in zip(xs, widths)])[run_of[index]]
        dx_col = dx[:, None]

        def magnitudes(q, rows=slice(None)):
            return _spectrum_mags(q, dt[index[rows]]) if spectral else np.abs(q)

        def exact_mags(rows):
            return mags[rows] if delta is None else magnitudes(exact(index[rows]), rows)

        def exact_cells(rows):
            with np.errstate(over="ignore"):  # an overflowing energy is refused
                return exact_mags(rows) ** 2 * dx_col[rows]

        mags = magnitudes(samples[selected])
        with np.errstate(over="ignore"):  # an overflowing energy is refused below
            cells = mags**2 * dx_col
        total = cells.sum(-1)
        err = spread = 0.0
        if delta is not None:
            bound, l2 = delta[selected], l2_rows[selected]
            if spectral:
                # 16u log2(n) of each transform's norm, both transforms
                rounding = 2.0**-49 * math.log2(samples.shape[-1]) * (2.0 * np.sqrt(total) + l2)
                err = (bound.sum(-1) * dt[index, 0] + rounding / np.sqrt(dx))[:, None]
                l2 = (l2 + rounding) * (1.0 + 2.0**-20)
            else:
                err = bound[:, [0, -1]]
            spread = (2.0 * np.sqrt(total) + l2) * l2
        _passes(np.isfinite((total + spread) * (1.0 + rel)),
                lambda rows: np.isfinite(exact_cells(rows).sum(-1)), "signal energy overflows")
        clear = total - spread
        _passes(clear > 1e-300 * (1.0 + rel), lambda rows: exact_cells(rows).sum(-1) > 1e-300,
                "signal carries no energy")
        edge = (mags[:, list(range(k)) + list(range(-k, 0))] + err) ** 2 * dx_col
        edge = edge[:, :k].sum(-1) + edge[:, k:].sum(-1)
        share = np.divide(edge, clear, out=np.full(len(edge), math.inf), where=clear > 0)
        _passes(share * (1.0 + rel) <= limit,
                lambda rows: ~(_edge_share(exact_cells(rows), k) > limit), message)
        # the domain's rows of each run
        ends = np.searchsorted(index, cuts)
        for r, rows in enumerate(_candidates(cells, x0, dx, config, floor, ends, spread)):
            found[r][d] = _first_max(exact_mags(rows), index[rows], xs[r], widths[r], config)
    return [tuple(pair) for pair in found]


def measure(signal: SampledSignal, config: MeasureConfig) -> TBReport:
    """Duration and bandwidth of one signal under the configured definition."""
    [((_, t_band), (_, b_band))] = _windows(signal.samples[None], [(signal.grid, 1)], config)
    return TBReport(t_band, b_band)


def phase_combinations(n: int, m: int, conjugation_reduced: bool = False) -> np.ndarray:
    """Lexicographic grid of spectral phases, last entry pinned to 0.

    Returns an (m^(n-1), n) array with the free phases running over
    {0, 2*pi/m, ..., 2*pi*(m-1)/m}, first entry slowest.  With
    ``conjugation_reduced`` only the lexicographic representative of each
    {phi, -phi} pair is kept; for imaginary-axis spectra the two give
    mirror-image pulses with identical T and B.
    """
    if n == 1:
        return np.zeros((1, 1))
    idx = np.stack(np.meshgrid(*([np.arange(m)] * (n - 1)), indexing="ij"), axis=-1)
    idx = idx.reshape(-1, n - 1)
    if conjugation_reduced:
        # idx <= mirror lexicographically: compare at the first differing column
        mirror = (m - idx) % m
        first = np.argmax(idx != mirror, axis=1)  # 0 when idx is its own mirror
        rows = np.arange(len(idx))
        idx = idx[idx[rows, first] <= mirror[rows, first]]
    free = 2.0 * math.pi * idx / m
    return np.concatenate([free, np.zeros((free.shape[0], 1))], axis=1)


def _phase_rows(n: int, m: int, conjugation_reduced: bool) -> int:
    """len(phase_combinations(n, m, conjugation_reduced)), without building the grid."""
    rows = m ** (n - 1)
    if not conjugation_reduced:
        return rows
    # mirroring pairs the rows up, except those whose every free index is 0 or m/2
    own_mirror = (2 if m % 2 == 0 else 1) ** (n - 1)
    return (rows + own_mirror) // 2


class _GuardTripped(Exception):
    """A row synthesized by the recursion lies outside its Gram-form error bound."""


def _ranked_windows(spectrum: DiscreteSpectrum, grid: TimeGrid, block: np.ndarray, gram,
                    config: MeasureConfig, b_rows, floors: tuple[float, float]):
    """`_windows` of a chunk of phase rows ranked by their Gram form; None if the guard trips.

    Only the rows `_windows` reads exactly go through `synthesize_phases`.
    Each of them must lie within its bound of the Gram-form row on every
    sample; when one does not, the chunk is left to the caller to evaluate
    from the exact rows of the whole chunk.
    """
    q, delta = _gram_rows(gram, block)
    synthesized = {}

    def exact(rows):
        new = [r for r in rows if r not in synthesized]
        if new:
            q_new = synthesize_phases(spectrum, grid, block[new])
            if np.any(np.abs(q_new - q[new]) > delta[new]):
                raise _GuardTripped
            synthesized.update(zip(new, q_new))
        exact_rows = np.array([synthesized[r] for r in rows], dtype=complex)
        return exact_rows.reshape(len(rows), grid.n_samples)

    try:
        return _windows(q, [(grid, len(q))], config, b_rows, floors, delta, exact)[0]
    except _GuardTripped:
        return None


@dataclass(frozen=True)
class PhaseSweepResult:
    """Phase-grid maxima of T and B at one propagation distance."""

    t_max: float
    b_max: float
    t_argmax: tuple[float, ...] | None
    b_argmax: tuple[float, ...] | None


def t_max_b_max(
    spectrum: DiscreteSpectrum,
    config: MeasureConfig,
    grid: TimeGrid,
    with_b: bool = True,
    floors: tuple[float, float] = (-math.inf, -math.inf),
    zs=(0.0,),
) -> PhaseSweepResult:
    """Maximize T (and optionally B) over the spectral-phase grid at distances ``zs`` on ``grid``.

    At each distance z the rows are those of the spectrum `_at` gives: the
    spectrum evolved by z, or ``spectrum`` itself at z = 0.  All m^(N-1)
    phase combinations are evaluated at every distance (one phase is
    pinned: a global phase does not change magnitudes); for an
    imaginary-axis spectrum only one of each conjugate pair {phi, -phi},
    see `phase_combinations`.  T is maximized over every distance, B, with
    ``with_b``, over the first and the last only: a link's endpoints, where
    the signal is sampled.  The argmax names a row's phases, not its
    distance; ties resolve to the first maximal row in the order of
    ``zs``, lexicographic within a distance.  ``floors`` (T, B) start the
    two maxima: a family whose rows are none wider than its floor returns
    the floor with a None argmax, and the energy definition skips exactly
    the rows that cannot beat it.

    Rows are measured in blocks of at most `CHUNK_SIZE` rows, in (distance,
    block) order (`_grid_block`): a phase grid of fewer than `CHUNK_SIZE`
    rows packs as many whole distances into a block as fit, a larger one
    goes distance by distance, ranked by the Gram form where the module
    docstring says.  Each block is floored by the maxima of the blocks read
    before it starts, and the results are merged in block order, an equal
    width in a later block keeping the earlier row.  A lower floor leaves a
    block's widest row unchanged, so the maxima and argmaxes are those of
    the serial loop.  A call with at least as many full blocks as workers
    (rows over all distances >= workers * `CHUNK_SIZE`) runs its blocks in
    forked workers (`pool.ordered_pool`), whose floors lag by the blocks
    still pending; the first block, in order, that raises has its error
    raised here.
    """
    global _grid_call
    combos = phase_combinations(
        spectrum.n, config.phase_points, conjugation_reduced=spectrum.is_imaginary()
    )
    per_block = max(1, CHUNK_SIZE // len(combos))
    groups = [range(first, min(first + per_block, len(zs))) for first in range(0, len(zs), per_block)]
    tasks = [(g, start) for g in range(len(groups)) for start in range(0, len(combos), CHUNK_SIZE)]
    workers = _worker_count()
    if len(combos) * len(zs) < workers * CHUNK_SIZE:
        workers = 1
    best = [(floor, None) for floor in floors]  # (width, phases) of T and B
    call = _GridCall(spectrum, config, grid, combos, zs, groups, {0, len(zs) - 1} if with_b else set())
    with ordered_pool(workers, len(tasks)) as (size, run):
        if size > 1:  # the workers, forked at the first task, read the call from their copy
            _grid_call, call = call, None
        try:
            blocks = run((_grid_block, (g, start, (best[0][0], best[1][0]), call)) for g, start in tasks)
            for (_, start), chunk in zip(tasks, blocks):
                rows = min(CHUNK_SIZE, len(combos) - start)
                for k, found in enumerate(chunk):
                    # strict >: an equal width in a later block keeps the earlier row
                    if found is not None and found[1] > best[k][0]:
                        phases = combos[start + found[0] % rows]
                        best[k] = (found[1], tuple(float(v) for v in phases))
        finally:
            _grid_call = None
    (t_max, t_argmax), (b_max, b_argmax) = best
    return PhaseSweepResult(t_max, b_max if with_b else math.nan, t_argmax, b_argmax)


@dataclass
class _GridCall:
    """The phase grid of the `t_max_b_max` call being measured, and the last distances' set-up.

    ``groups`` holds the distance indices of each block group, ``ends``
    those measured for B; ``last`` is (group, spectra, Gram form or None)
    of the group measured last in this process.
    """

    spectrum: DiscreteSpectrum
    config: MeasureConfig
    grid: TimeGrid
    combos: np.ndarray
    zs: object
    groups: list
    ends: set
    last: tuple = (None, None, None)


# The call a pooled `t_max_b_max` measures: set before its workers fork, read by them.
_grid_call: _GridCall | None = None


def _grid_block(g: int, start: int, floors: tuple[float, float], call: _GridCall | None) -> list:
    """(row, width) or None of T and B in the block at ``start`` of group ``g`` of ``call``.

    ``call`` is None in a worker, which reads `_grid_call`.  The row
    indexes the block's rows, the group's distances one after another.  A
    group of one distance of a large enough energy-definition grid of three
    eigenvalues is ranked by its Gram form, built once per group in each
    process.
    """
    call = call or _grid_call
    group = call.groups[g]
    if call.last[0] != g:
        spectra = [_at(call.spectrum, call.zs[i]) for i in group]
        gram = None
        if (call.config.definition == "energy" and call.spectrum.n == 3
                and len(call.combos) >= CHUNK_SIZE
                and _seeds_in_range(spectra[0].lams, np.log(spectra[0].etas), call.grid.times)):
            gram = _gram_coefficients(spectra[0], call.grid.times)  # a block of one distance
        call.last = (g, spectra, gram)
    _, spectra, gram = call.last
    block = call.combos[start : start + CHUNK_SIZE]
    # the rows of distance i in `ends` are measured for B
    measured = np.repeat([i in call.ends for i in group], len(block))
    b_rows = slice(None) if measured.all() else np.flatnonzero(measured)
    chunk = None if gram is None else _ranked_windows(spectra[0], call.grid, block, gram,
                                                      call.config, b_rows, floors)
    if chunk is None:
        parts = [synthesize_phases(s, call.grid, block) for s in spectra]
        samples = parts[0] if len(parts) == 1 else np.concatenate(parts)
        chunk = _windows(samples, [(call.grid, len(samples))], call.config, b_rows, floors)[0]
    return [None if found is None else (found[0], found[1].width) for found in chunk]


@dataclass(frozen=True)
class LinkSweepResult:
    """T maximized over a link, B over its endpoints."""

    t_hat: float
    b_hat: float
    profile: tuple[tuple[float, float, float], ...]  # (z, t_max, b_max); () without profile


@dataclass(frozen=True)
class _Link:
    """A link's distances, the one time grid they are measured on, and its endpoint spectra.

    ``ends`` holds the spectrum at z = 0 (the spectrum itself) and, when the
    link has more than one distance, the spectrum at z = L.
    """

    zs: object
    grid: TimeGrid
    ends: tuple


def _link_grids(items, config: MeasureConfig) -> list:
    """The `_Link` of each (spectrum, link length) of ``items``, or the exception building it raises.

    A link is z = 0 alone when its spectrum is imaginary or its length is
    0, else ``config.z_samples`` distances over [0, L].  Its grid is the
    lean `auto_grid` at z = 0, or the `union_grid` of those at z = 0, L/2
    and L; the grids of every link are sized together by
    `darboux._lean_grids`, which solves their tail crossings in lockstep.
    The spectrum at L is the one the rows at L are synthesized from (see
    `_at`).  An entry is what building that link alone gives, bit for bit.
    """
    plans = []
    for spectrum, link_length in items:
        try:
            if not (math.isfinite(link_length) and link_length >= 0.0):
                raise InvalidParameterError(f"link length must be finite and >= 0, got {link_length}")
            if spectrum.is_imaginary() or link_length == 0.0:
                plans.append(([0.0], [spectrum], (spectrum,)))
            else:
                sized = [evolve(spectrum, 0.0), evolve(spectrum, link_length / 2.0),
                         _at(spectrum, link_length)]
                plans.append((np.linspace(0.0, link_length, config.z_samples), sized,
                              (spectrum, sized[-1])))
        except Exception as exc:  # reported in the link's place
            plans.append(exc)
    grids = iter(_lean_grids([plan[1] for plan in plans if not isinstance(plan, Exception)],
                             config.epsilon))
    links = []
    for plan in plans:
        if not isinstance(plan, Exception):
            zs, _, ends = plan
            try:
                sized = _solved([next(grids)])[0]
                plan = _Link(zs, sized[0] if len(sized) == 1 else union_grid(sized), ends)
            except Exception as exc:  # reported in the link's place
                plan = exc
        links.append(plan)
    return links


def _link_grid(spectrum: DiscreteSpectrum, config: MeasureConfig, link_length: float):
    """The distances of a link and the one time grid `t_hat_b_hat` measures them on (`_link_grids`)."""
    link = _solved(_link_grids([(spectrum, link_length)], config))[0]
    return link.zs, link.grid


# The spectrum `_at` evolved last, with its base and distance.
_last_evolved = (None, None, None)


def _at(spectrum: DiscreteSpectrum, z) -> DiscreteSpectrum:
    """The spectrum at distance z: ``spectrum`` itself at z = 0, else evolved by z.

    evolve(s, 0.0) can move an eta by one ulp.  The last evolution is kept,
    so that a link's grid and its rows at z = L share one evolve.
    """
    global _last_evolved
    if z == 0.0:
        return spectrum
    base, at, evolved = _last_evolved
    if base is not spectrum or at != z:
        evolved = evolve(spectrum, float(z))
        _last_evolved = (spectrum, z, evolved)
    return evolved


def _sub_grid_maxima(spectrum: DiscreteSpectrum, config: MeasureConfig, zs, grid):
    """(T, B) maxima of the two-point phase sub-grid (phases 0 and pi) at the link's endpoints.

    None unless ``config.phase_points`` is a power of two: only then are the
    sub-grid's phases 2*pi*idx/m bitwise phases of the full grid, so that its
    rows are rows of the full grid and its maxima at most the full maxima.
    """
    m = config.phase_points
    if m & (m - 1):
        return None
    ends = (spectrum,) if len(zs) == 1 else (spectrum, _at(spectrum, zs[-1]))
    return _solved(_endpoint_maxima([_Link(zs, grid, ends)], config))[0]


def _sub_grid_rows(spectrum: DiscreteSpectrum, sub_points: int, new_only: bool) -> np.ndarray:
    """The phase rows of the ``sub_points``-phase grid; with ``new_only`` those the half grid lacks.

    The half grid's phases are the even indices of this one's: 2*pi*(2k)/m
    equals 2*pi*k/(m/2) bit for bit, as m is a power of two.
    """
    combos = phase_combinations(spectrum.n, sub_points, conjugation_reduced=spectrum.is_imaginary())
    if not new_only:
        return combos
    odd = np.rint(combos[:, :-1] * (sub_points / (2.0 * math.pi))) % 2 == 1
    return combos[odd.any(axis=1)]


def _endpoint_maxima(links, config: MeasureConfig, sub_points: int = 2, coarser=None) -> list:
    """(T max, B max) of each link's ``sub_points``-phase sub-grid at its endpoints, or the exception raised.

    The rows of a link are the sub-grid rows of each of its endpoint
    spectra on its grid, T and B maximized over all of them.  With
    ``coarser``, per link the (T, B) maxima of the sub-grid of half as many
    phases, only the rows that sub-grid lacks are measured, and the maxima
    start at its own: the maximum over the whole sub-grid, bit for bit.
    Links whose grids share a sample count and whose spectra share an
    eigenvalue count are synthesized in one `darboux._synthesize_axes` call
    and measured in one `_windows` block of at most `CHUNK_SIZE` rows, one
    run per link, floored by that link's maxima so far; a link with more
    rows is measured in runs of at most `CHUNK_SIZE` rows of one endpoint.
    A row's windows do not depend on the block it is measured in, so the
    maxima are those of `t_max_b_max` at the endpoints.  When a block
    raises, each of its links is measured again alone, so that each reports
    its own error.
    """
    runs = []  # (link, [(spectrum, phase rows), ...]) of each run
    for i, link in enumerate(links):
        combos = _sub_grid_rows(link.ends[0], sub_points, coarser is not None)
        if len(combos) * len(link.ends) <= CHUNK_SIZE:
            runs.append((i, [(s, combos) for s in link.ends]))
        else:
            runs += [(i, [(s, combos[start : start + CHUNK_SIZE])])
                     for s in link.ends for start in range(0, len(combos), CHUNK_SIZE)]
    sizes = [sum(len(rows) for _, rows in pairs) for _, pairs in runs]
    maxima = [[-math.inf, -math.inf] if coarser is None else list(coarser[i])
              for i in range(len(links))]
    times = [link.grid.times for link in links]

    def blocks(members):
        """The runs ``members`` packed into blocks that share a sample count and an eigenvalue count."""
        groups = {}
        for r in members:
            link = links[runs[r][0]]
            groups.setdefault((link.grid.n_samples, link.ends[0].n), []).append(r)
        return [block for group in groups.values()
                for block in _packed(group, [sizes[r] for r in group])]

    def measure_block(block):
        axes = [(times[runs[r][0]], runs[r][1]) for r in block]
        grids = [(links[runs[r][0]].grid, sizes[r]) for r in block]
        floors = np.array([maxima[runs[r][0]] if isinstance(maxima[runs[r][0]], list)
                           else (-math.inf, -math.inf) for r in block]).T
        found = _windows(_synthesize_axes(axes), grids, config, floors=floors)
        for r, pair in zip(block, found):
            best = maxima[runs[r][0]]
            if not isinstance(best, Exception):
                best[:] = [b if f is None else max(b, f[1].width) for b, f in zip(best, pair)]

    for block in blocks(range(len(runs))):
        try:
            measure_block(block)
        except Exception as exc:  # each link of the block reports its own error
            owners = sorted({runs[r][0] for r in block})
            if len(owners) == 1:
                maxima[owners[0]] = exc
                continue
            for i in owners:
                try:
                    for own in blocks([r for r in range(len(runs)) if runs[r][0] == i]):
                        measure_block(own)
                except Exception as own_exc:  # reported in the link's place
                    maxima[i] = own_exc
    return [best if isinstance(best, Exception) else tuple(best) for best in maxima]


def _packed(items, sizes) -> list:
    """``items`` cut into consecutive blocks whose ``sizes`` add up to at most `CHUNK_SIZE`."""
    blocks, rows = [], CHUNK_SIZE
    for item, size in zip(items, sizes):
        if rows + size > CHUNK_SIZE:
            blocks.append([])
            rows = 0
        blocks[-1].append(item)
        rows += size
    return blocks


class SubGridBound(NamedTuple):
    """A lower bound on T-hat * B-hat: the T and B maxima of a phase sub-grid and their product.

    ``value`` is -inf, and the maxima too, when the phase grid has no
    sub-grid of its own phases.
    """

    value: float
    t_max: float
    b_max: float


NO_SUB_GRID = SubGridBound(-math.inf, -math.inf, -math.inf)


def t_hat_b_hat_bounds(items, config: MeasureConfig, sub_points: int = 2, coarser=None) -> list:
    """The `SubGridBound` of each (spectrum, link length) of ``items``, or the exception it raises.

    A bound is that of the ``sub_points``-phase sub-grid, a power of two up
    to M = ``config.phase_points``, on the link's own grid at z = 0 and
    z = L: its rows are rows `t_hat_b_hat` scans, so the bound never exceeds
    T-hat * B-hat, and it only rises with ``sub_points``.  It is
    `NO_SUB_GRID` when M is not a power of two.  ``coarser`` optionally
    holds each point's bound at ``sub_points / 2``; then only the rows that
    sub-grid lacks are measured (`_endpoint_maxima`), for the same bound.
    The points are bounded together: their link grids are sized in
    lockstep (`_link_grids`), and the sub-grid rows of points whose grids
    share a sample count are synthesized and measured in blocks.  Each
    entry is that point's bound, bit for bit, or an exception of the class
    that point raises alone.
    """
    links = _link_grids(items, config)
    m = config.phase_points
    if m & (m - 1):
        return [link if isinstance(link, Exception) else NO_SUB_GRID for link in links]
    if not (2 <= sub_points <= m and sub_points & (sub_points - 1) == 0):
        raise InvalidParameterError(f"sub_points must be a power of two in [2, {m}], got {sub_points}")
    valid = [i for i, link in enumerate(links) if not isinstance(link, Exception)]
    floors = None if coarser is None else [coarser[i][1:] for i in valid]
    for i, maxima in zip(valid, _endpoint_maxima([links[i] for i in valid], config, sub_points, floors)):
        links[i] = maxima if isinstance(maxima, Exception) else SubGridBound(maxima[0] * maxima[1], *maxima)
    return links


def t_hat_b_hat_bound(spectrum: DiscreteSpectrum, config: MeasureConfig, link_length: float,
                      sub_points: int = 2) -> float:
    """A lower bound on T-hat * B-hat of `t_hat_b_hat`: -inf or the sub-grid's T max * B max.

    The maxima are those of the ``sub_points``-phase sub-grid on the link's
    own grid at z = 0 and z = L, so every row behind them is a row
    `t_hat_b_hat` scans; when ``config.phase_points`` is not a power of two
    there is no such sub-grid and the bound is -inf.  Raises whatever
    `t_hat_b_hat` would raise on those rows.  The value of the batch of one
    of `t_hat_b_hat_bounds`.
    """
    return _solved(t_hat_b_hat_bounds([(spectrum, link_length)], config, sub_points))[0].value


def t_hat_b_hat(
    spectrum: DiscreteSpectrum,
    config: MeasureConfig,
    link_length: float,
    profile: bool = True,
    floors: tuple[float, float] | None = None,
) -> LinkSweepResult:
    """Evaluate the link-aware maxima T-hat and B-hat.

    T is maximized over the phase grid and over ``config.z_samples``
    distances in [0, L]; B over the phase grid at z in {0, L} only.  For
    spectra with all eigenvalues on the imaginary axis the amplitude magnitudes are
    z-invariant, so the distance sweep collapses to z = 0, as for L = 0.  All
    distances share one grid: the lean `auto_grid` (the union of those at
    z = 0, L/2 and L for a link).

    With ``profile`` the result's profile holds (z, T max, B max) at every
    distance, each from its own `t_max_b_max` call.  Without it one
    `t_max_b_max` call measures every distance, T over all and B at the
    endpoints, its blocks floored by the maxima of the blocks before them,
    and the profile is empty.  Those floors start at ``floors`` (T, B), if
    given: widths that rows of the link's phase grid at its endpoints
    realize, such as the maxima behind a `t_hat_b_hat_bounds` bound.
    Otherwise, under the energy definition, a phase grid of at least
    `CHUNK_SIZE` rows starts them at the two-point sub-grid maxima of
    `t_hat_b_hat_bound`.  T-hat and B-hat are the same, and so is the class
    of every error of the T scans (a block checks all its distances before
    it scans, so of two failing distances it may report the later one), but
    B is then measured at the endpoints only: aliasing at the Nyquist edge
    of an interior distance raises with ``profile`` alone.
    """
    zs, grid = _link_grid(spectrum, config, link_length)
    if profile:
        rows = []
        for z in zs:
            r = t_max_b_max(spectrum, config, grid, zs=(z,))
            rows.append((float(z), r.t_max, r.b_max))
        t_hat = max(t for _, t, _ in rows)
        b_hat = max(b for z, _, b in rows if z == 0.0 or z == link_length)
        return LinkSweepResult(t_hat, b_hat, tuple(rows))
    if floors is None:
        floors = (-math.inf, -math.inf)
        if (config.definition == "energy"
                and _phase_rows(spectrum.n, config.phase_points, spectrum.is_imaginary()) >= CHUNK_SIZE):
            floors = _sub_grid_maxima(spectrum, config, zs, grid) or floors
    r = t_max_b_max(spectrum, config, grid, floors=floors, zs=zs)
    return LinkSweepResult(r.t_max, r.b_max, ())


def tbp_per_eigenvalue_ratio(tbp: float, n: int, config: MeasureConfig) -> float:
    """T-hat * B-hat per eigenvalue relative to one soliton: (tbp / N) / `single_soliton_tbp`."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tbp / n / single_soliton_tbp(config)


def single_soliton_tbp(config: MeasureConfig) -> float:
    """Measured T*B of the reference first-order soliton (sigma = 0.5).

    The product is invariant under dilation, so this one number normalizes
    every per-eigenvalue ratio for the configured definition and epsilon.
    """
    ref = DiscreteSpectrum([0.5])
    report = measure(synthesize(ref, auto_grid(ref, config.epsilon)), config)
    return report.tbp
