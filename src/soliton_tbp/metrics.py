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
samples) block on one grid it returns the first maximal T and B window of
the block.  One body runs per domain, on the |q|^2 dt and the |Q|^2 df
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
spectral-phase grid on a given time grid, chunk by chunk, with the widest
windows of earlier chunks as floors; its ``floors`` argument seeds them, so
it returns max(floor, maximum).  For an energy-definition grid of three
eigenvalues with at least `CHUNK_SIZE` rows, on a time grid the direct
recursion serves, each chunk is first evaluated from the Gram form
(`darboux._gram_rows`) and only the rows `_windows` reads exactly go
through the recursion.  A guard checks every such row against its Gram
bound; if one lies outside it, the chunk is evaluated again from the exact
rows of the whole chunk.  Smaller grids, such as N=2 and the desk N=3 sweep,
keep the recursion for every row: there the Gram coefficients cost more
than they save.
`t_hat_b_hat`, the one way from a spectrum to T-hat and B-hat, picks that
time grid and loops over the distances of a link (z = 0 alone when imaginary
or zero-length): T is maximized over all of them, B over the two endpoints
only (the bandwidth matters only where the signal is sampled).  With
``profile`` it records the true T and B maxima at every distance; without,
it passes the running T-hat and B-hat as floors to each later distance, so
only the rows that could raise them are scanned exactly.
`t_hat_b_hat_bound` is a cheap lower bound on T-hat * B-hat: the T and B
maxima of a two-point phase sub-grid at z = 0 and z = L, on the same grid.
When M is a power of two the sub-grid rows are full-grid rows, so the bound
never exceeds the product; a large energy-definition grid also starts its
floors at those maxima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .asymptotics import _check_epsilon
from .darboux import (SampledSignal, TimeGrid, _gram_coefficients, _gram_rows, _seeds_in_range,
                      auto_grid, synthesize, synthesize_phases, union_grid)
from .errors import InvalidParameterError, MeasurementUnreliableError
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

    Cell i of a row occupies [x0 + i*dx, x0 + (i+1)*dx]; E is the row's
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
    x = np.where(k <= 0, -math.inf, np.where(k > n, math.inf, x0 + dx * (j + frac)))
    starts, ends = x[:, : BRACKET_SHARES + 1], x[:, BRACKET_SHARES + 1 :]
    with np.errstate(invalid="ignore"):  # inf - inf on the rows zeroed above
        upper = (ends[:, :BRACKET_SHARES] - starts[:, :-1]).min(axis=1)
        lower = (ends[:, BRACKET_SHARES:] - starts[:, 1:]).min(axis=1)
    slack = 1e-12 * (abs(x0) + (n + 1) * dx)
    sound &= np.isfinite(lower) & np.isfinite(upper)
    return np.where(sound, lower - slack, -math.inf), np.where(sound, upper + slack, math.inf)


def _candidates(cells: np.ndarray, x0: float, dx: float, config: MeasureConfig, floor: float,
                spread=0.0) -> np.ndarray:
    """Indices of the rows that can still be the block's first maximum and beat ``floor``.

    The energy definition keeps only the rows whose `_window_bracket` upper
    bound reaches max(floor, the block's largest lower bound); every other
    row is narrower than the floor or than some row of the block.  A row's
    upper bound is at least its lower bound, so without a floor a block of
    one is always kept.  The threshold definition keeps every row, so each
    reports its own grid error.
    """
    if config.definition == "threshold":
        return np.arange(len(cells))
    lower, upper = _window_bracket(cells, x0, dx, config.epsilon, spread)
    return np.nonzero(~(upper < max(floor, lower.max())))[0]


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


def _windows(samples: np.ndarray, grid: TimeGrid, config: MeasureConfig, with_b: bool = True,
             floors: tuple[float, float] = (-math.inf, -math.inf), delta=None, exact=None):
    """First maximal duration and bandwidth windows of a (rows x samples) block.

    Returns the (row index, Band) of the first widest T window and, with
    ``with_b``, of the first widest B window (None otherwise).  ``floors``
    (T, B) lets the energy definition skip rows that cannot exceed them, see
    `_candidates`; a family is None when no row can.  One body runs for T
    and, with ``with_b``, again for B.  Before its scans each checks the
    whole block, so one row reports the same error it would alone: first
    the energy, under both definitions (it must be finite and above 1e-300),
    then the `_edge_share` of k cells per side (time: 1, against leakage;
    frequency: 2, at the Nyquist edge).

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
    dt = grid.dt
    domains = [(False, grid.times, dt, 1, EDGE_LEAKAGE_FRACTION * config.epsilon, floors[0],
                "grid edges carry too much energy for the requested epsilon")]
    if with_b:
        freqs = np.fft.fftshift(np.fft.fftfreq(grid.n_samples, d=dt))
        domains.append((True, freqs, float(freqs[1] - freqs[0]), 2, ALIASING_FRACTION, floors[1],
                        "spectral energy reaches the Nyquist edge (aliasing)"))
    rel, l2 = (0.0, None) if delta is None else (2.0**-40, np.sqrt((delta * delta).sum(-1) * dt))
    found = [None, None]
    for d, (spectral, x, dx, k, limit, floor, message) in enumerate(domains):

        def magnitudes(q):
            return _spectrum_mags(q, dt) if spectral else np.abs(q)

        def exact_mags(rows):
            return mags[rows] if delta is None else magnitudes(exact(rows))

        def exact_cells(rows):
            with np.errstate(over="ignore"):  # an overflowing energy is refused
                return exact_mags(rows) ** 2 * dx

        mags = magnitudes(samples)
        with np.errstate(over="ignore"):  # an overflowing energy is refused below
            cells = mags**2 * dx
        total = cells.sum(-1)
        err = spread = 0.0
        if delta is not None:
            if spectral:
                # 16u log2(n) of each transform's norm, both transforms
                rounding = 2.0**-49 * math.log2(grid.n_samples) * (2.0 * np.sqrt(total) + l2)
                err = (delta.sum(-1) * dt + rounding / math.sqrt(dx))[:, None]
                l2 = (l2 + rounding) * (1.0 + 2.0**-20)
            else:
                err = delta[:, [0, -1]]
            spread = (2.0 * np.sqrt(total) + l2) * l2
        _passes(np.isfinite((total + spread) * (1.0 + rel)),
                lambda rows: np.isfinite(exact_cells(rows).sum(-1)), "signal energy overflows")
        clear = total - spread
        _passes(clear > 1e-300 * (1.0 + rel), lambda rows: exact_cells(rows).sum(-1) > 1e-300,
                "signal carries no energy")
        edge = (mags[:, list(range(k)) + list(range(-k, 0))] + err) ** 2 * dx
        edge = edge[:, :k].sum(-1) + edge[:, k:].sum(-1)
        share = np.divide(edge, clear, out=np.full(len(edge), math.inf), where=clear > 0)
        _passes(share * (1.0 + rel) <= limit,
                lambda rows: ~(_edge_share(exact_cells(rows), k) > limit), message)
        rows = _candidates(cells, x[0] - 0.5 * dx, dx, config, floor, spread)
        found[d] = _first_max(exact_mags(rows), rows, x, dx, config)
    return tuple(found)


def measure(signal: SampledSignal, config: MeasureConfig) -> TBReport:
    """Duration and bandwidth of one signal under the configured definition."""
    (_, t_band), (_, b_band) = _windows(signal.samples[None], signal.grid, config)
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
                    config: MeasureConfig, with_b: bool, floors: tuple[float, float]):
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
        return _windows(q, grid, config, with_b, floors, delta, exact)
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
) -> PhaseSweepResult:
    """Maximize T (and optionally B) over the spectral-phase grid, on ``grid``.

    All m^(N-1) phase combinations are evaluated (one phase is pinned: a
    global phase does not change magnitudes); for an imaginary-axis spectrum
    only one of each conjugate pair {phi, -phi}, see `phase_combinations`.
    Ties resolve to the first maximal combination in lexicographic order.
    ``floors`` (T, B) start the two maxima: a family whose rows are none
    wider than its floor returns the floor with a None argmax, and the
    energy definition skips exactly the rows that cannot beat it.
    """
    combos = phase_combinations(
        spectrum.n, config.phase_points, conjugation_reduced=spectrum.is_imaginary()
    )
    gram = None
    if (config.definition == "energy" and spectrum.n == 3 and len(combos) >= CHUNK_SIZE
            and _seeds_in_range(spectrum.lams, np.log(spectrum.etas), grid.times)):
        gram = _gram_coefficients(spectrum, grid.times)
    best = [(floor, None) for floor in floors]  # (width, phases) of T and B
    for start in range(0, len(combos), CHUNK_SIZE):
        block = combos[start : start + CHUNK_SIZE]
        floors = (best[0][0], best[1][0])
        chunk = None if gram is None else _ranked_windows(spectrum, grid, block, gram, config,
                                                          with_b, floors)
        if chunk is None:
            chunk = _windows(synthesize_phases(spectrum, grid, block), grid, config, with_b, floors)
        for k, found in enumerate(chunk):
            # strict >: an equal width in a later chunk keeps the earlier row
            if found is not None and found[1].width > best[k][0]:
                best[k] = (found[1].width, tuple(float(v) for v in block[found[0]]))
    (t_max, t_argmax), (b_max, b_argmax) = best
    return PhaseSweepResult(t_max, b_max if with_b else math.nan, t_argmax, b_argmax)


@dataclass(frozen=True)
class LinkSweepResult:
    """T maximized over a link, B over its endpoints."""

    t_hat: float
    b_hat: float
    profile: tuple[tuple[float, float, float], ...]  # (z, t_max, b_max); () without profile


def _link_grid(spectrum: DiscreteSpectrum, config: MeasureConfig, link_length: float):
    """The distances of a link and the one time grid `t_hat_b_hat` measures them on."""
    if not (math.isfinite(link_length) and link_length >= 0.0):
        raise InvalidParameterError(f"link length must be finite and >= 0, got {link_length}")
    if spectrum.is_imaginary() or link_length == 0.0:
        return [0.0], auto_grid(spectrum, config.epsilon, boundary_clean=False)
    zs = np.linspace(0.0, link_length, config.z_samples)
    grid = union_grid([auto_grid(evolve(spectrum, z), config.epsilon, boundary_clean=False)
                       for z in (0.0, link_length / 2.0, link_length)])
    return zs, grid


def _at(spectrum: DiscreteSpectrum, z) -> DiscreteSpectrum:
    # evolve(s, 0.0) can move an eta by one ulp
    return evolve(spectrum, float(z)) if z != 0.0 else spectrum


def _sub_grid_maxima(spectrum: DiscreteSpectrum, config: MeasureConfig, zs, grid):
    """(T, B) maxima of the two-point phase sub-grid (phases 0 and pi) at the link's endpoints.

    None unless ``config.phase_points`` is a power of two: only then are the
    sub-grid's phases 2*pi*idx/m bitwise phases of the full grid, so that its
    rows are rows of the full grid and its maxima at most the full maxima.
    """
    m = config.phase_points
    if m & (m - 1):
        return None
    sub = replace(config, phase_points=2)
    t_max, b_max = -math.inf, -math.inf
    for z in sorted({zs[0], zs[-1]}):
        r = t_max_b_max(_at(spectrum, z), sub, grid, floors=(t_max, b_max))
        t_max, b_max = r.t_max, r.b_max
    return t_max, b_max


def t_hat_b_hat_bound(spectrum: DiscreteSpectrum, config: MeasureConfig, link_length: float) -> float:
    """A lower bound on T-hat * B-hat of `t_hat_b_hat`: -inf or the sub-grid's T max * B max.

    The maxima are those of the two-point phase sub-grid on the link's own
    grid at z = 0 and z = L, so every row behind them is a row
    `t_hat_b_hat` scans; when ``config.phase_points`` is not a power of two
    there is no such sub-grid and the bound is -inf.  Raises whatever
    `t_hat_b_hat` would raise on those rows.
    """
    zs, grid = _link_grid(spectrum, config, link_length)
    maxima = _sub_grid_maxima(spectrum, config, zs, grid)
    return -math.inf if maxima is None else maxima[0] * maxima[1]


def t_hat_b_hat(
    spectrum: DiscreteSpectrum,
    config: MeasureConfig,
    link_length: float,
    profile: bool = True,
) -> LinkSweepResult:
    """Evaluate the link-aware maxima T-hat and B-hat.

    T is maximized over the phase grid and over ``config.z_samples``
    distances in [0, L]; B over the phase grid at z in {0, L} only.  For
    spectra with all eigenvalues on the imaginary axis the amplitude magnitudes are
    z-invariant, so the distance sweep collapses to z = 0, as for L = 0.  All
    distances share one grid: the lean `auto_grid` (the union of those at
    z = 0, L/2 and L for a link).

    With ``profile`` the result's profile holds (z, T max, B max) at every
    distance.  Without it each distance is scanned with the T-hat and B-hat
    of the distances before it as `t_max_b_max` floors and the profile is
    empty; under the energy definition, a phase grid of at least
    `CHUNK_SIZE` rows starts those floors at the sub-grid maxima of
    `t_hat_b_hat_bound`.  T-hat and B-hat are the same, and so is every
    error of the T scans, but B is then measured at the endpoints only:
    aliasing at the Nyquist edge of an interior distance raises with
    ``profile`` alone.
    """
    zs, grid = _link_grid(spectrum, config, link_length)
    t_hat, b_hat = -math.inf, -math.inf
    if (not profile and config.definition == "energy"
            and _phase_rows(spectrum.n, config.phase_points, spectrum.is_imaginary()) >= CHUNK_SIZE):
        t_hat, b_hat = _sub_grid_maxima(spectrum, config, zs, grid) or (t_hat, b_hat)
    rows = []
    for z in zs:
        endpoint = z == 0.0 or z == link_length
        floors = (-math.inf, -math.inf) if profile else (t_hat, b_hat)
        r = t_max_b_max(_at(spectrum, z), config, grid, with_b=endpoint or profile, floors=floors)
        t_hat = max(t_hat, r.t_max)
        if endpoint:
            b_hat = max(b_hat, r.b_max)
        if profile:
            rows.append((float(z), r.t_max, r.b_max))
    return LinkSweepResult(t_hat, b_hat, tuple(rows))


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
