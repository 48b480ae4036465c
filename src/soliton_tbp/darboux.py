"""Exact multi-soliton synthesis from a purely discrete spectrum.

The recursive construction is evaluated independently at every time sample:
each intermediate ratio rho_k is seeded as ``eta_k * exp(j*phi_k) *
exp(2j*omega_k*t) * exp(-2*sigma_k*t)`` and folded in one eigenvalue at a
time, accumulating the signal as ``q += -4*sigma_p*conj(rho_p) / (1 +
|rho_p|^2)``, which is ``-2*sigma_p*sech(ln|rho_p|) * exp(-j*arg(rho_p))``.

One entry, `synthesize_samples(spectrum, phis, t)`, serves `synthesize` and
`synthesize_phases`; it is the batch of one of `_synthesize_axes`, which
evaluates the phase rows of many spectra, each on its own time axis, in one
pass.  Each spectrum takes one of two evaluations of the recursion:

- Direct: plain complex arithmetic on rho, batched over phase rows (and
  over the spectra of a batch, whose parameters enter row by row).  It is
  taken whenever every seed exponent |ln eta_k - 2*sigma_k*t| stays below
  ``DIRECT_EXPONENT_LIMIT`` at both ends of the time range, so |rho|^2 stays
  far inside the double range.  The choice depends on the spectrum and ``t``
  only, never on the phases.
- Stabilized: the seeds span e^(-2*sigma*t) over the full grid, which
  overflows doubles for |t| of a few hundred over sigma.  Every rho is then
  carried as a complex logarithm zeta = ln|rho| + j*arg(rho) and the two-term
  numerator/denominator of the update is combined with a log-sum-exp, so no
  intermediate ever leaves the representable range.  It serves grids past
  the bound, and any row whose direct result has a non-finite sample (a
  pole of an intermediate rho) is evaluated again this way.

Both are exact up to floating-point rounding; there is no discretization
error in the construction itself.

For three eigenvalues, `_gram_coefficients` and `_gram_rows` evaluate the
same pulses from the determinant (Gram) form instead, cheaply for many
phase rows at once: phi_1 and phi_2 enter only as a 3x3 trigonometric
polynomial per sample.  Each sample comes with a proven bound on its
distance from `synthesize_samples` (see `_gram_coefficients`).  That form
is off the recursion by 1e-12 of the peak and more where eigenvalues lie
close together, against 1e-15 for the recursion, so it only ranks rows:
`metrics.t_max_b_max` sends the rows that can still win through the
recursion and reports those.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .asymptotics import (_bandwidth_lanes, _check_epsilon, _duration_lanes, _edges, _solved,
                          envelope_bandwidth, envelope_duration, tail_coefficients, tail_crossings,
                          tail_envelope)
from .errors import DegenerateSpectrumError, GridTooNarrowWarning, InvalidParameterError
from .spectrum import DiscreteSpectrum, PhysicalScaling

# Fraction of the peak magnitude tolerated at the grid edges before the
# synthesized pulse is flagged as truncated.
BOUNDARY_FRACTION = 1e-12

# Largest seed exponent |ln eta - 2*sigma*t| served by direct arithmetic:
# |rho|^2 then stays below e^600, inside the double range (e^709).
DIRECT_EXPONENT_LIMIT = 300.0

# Default samples per period of the highest frequency the bandwidth estimate
# admits, in `auto_grid`.
OVERSAMPLING = 8.0


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with a power-of-two sample count.

    Attributes:
        t_start: time of the first sample.
        dt: sample spacing, > 0.
        n_samples: number of samples, a power of two >= 2.
    """

    t_start: float
    dt: float
    n_samples: int

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        n = self.n_samples
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"n_samples must be a power of two >= 2, got {n}")

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_samples)

    @property
    def t_end(self) -> float:
        return self.t_start + self.dt * (self.n_samples - 1)


@dataclass(frozen=True)
class SampledSignal:
    """Complex envelope sampled on a `TimeGrid`."""

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        object.__setattr__(self, "samples", samples)
        if samples.shape != (self.grid.n_samples,):
            raise ValueError(
                f"expected {self.grid.n_samples} samples, got shape {samples.shape}"
            )
        if not np.all(np.isfinite(samples.view(float))):
            raise ValueError("samples must be finite")

    @property
    def energy(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) * self.grid.dt)


def denormalize(signal: SampledSignal, scaling: PhysicalScaling) -> SampledSignal:
    """Map a normalized sampled signal to physical units.

    The physical envelope is ``sqrt(P0) * q(tau/T0)`` on the time axis
    ``tau = t*T0`` (seconds), amplitudes in sqrt(W).
    """
    grid = TimeGrid(
        t_start=signal.grid.t_start * scaling.T0,
        dt=signal.grid.dt * scaling.T0,
        n_samples=signal.grid.n_samples,
    )
    return SampledSignal(grid=grid, samples=signal.samples * math.sqrt(scaling.p0))


def _complex_logsumexp(w1, w2):
    """log(exp(w1) + exp(w2)) for complex w, safe for huge/-inf real parts."""
    m = np.maximum(w1.real, w2.real)
    m = np.where(np.isfinite(m), m, 0.0)
    return m + np.log(np.exp(w1 - m) + np.exp(w2 - m))


def _sech(x):
    ax = np.abs(x)
    e = np.exp(-ax)
    return 2.0 * e / (1.0 + e * e)


def synthesize_samples(spectrum: DiscreteSpectrum, phis, t) -> np.ndarray:
    """Evaluate the multi-soliton of ``spectrum`` under spectral phases ``phis``.

    Args:
        spectrum: eigenvalues and amplitude scalings; its phases are not read.
        phis: (N,) spectral phases, or a (C, N) batch of phase rows.
        t: (n,) sample times.

    Returns:
        Complex samples with shape (n,), or (C, n) for a batch.
    """
    t = np.asarray(t, dtype=float)
    phis = np.asarray(phis, dtype=float)
    if phis.ndim not in (1, 2) or phis.shape[-1] != spectrum.n:
        raise ValueError(f"phase rows must have length {spectrum.n}, got shape {phis.shape}")
    q = _synthesize_axes([(t, [(spectrum, np.atleast_2d(phis))])])
    return q if phis.ndim > 1 else q[0]


def _synthesize_axes(axes) -> np.ndarray:
    """Samples of many spectra under their phase rows, on time axes of one length.

    ``axes`` lists (t, [(spectrum, phis), ...]): a time axis t (n,) and the
    spectra synthesized on it, each with its (C_i, N) phase rows.  The
    spectra of one axis share their eigenvalues (they are evolved copies of
    one spectrum), and every spectrum has N eigenvalues.  Returns the rows
    of every pair in order, (sum C_i, n), each bit for bit its
    `synthesize_samples`: the direct or stabilized path is chosen per
    spectrum, the direct rows of every spectrum are evaluated in one
    `_synthesize_direct` call, and a direct row with a non-finite sample is
    evaluated again on the stabilized path.
    """
    pieces = []  # (axis, lams, ln_etas, phis, t, direct)
    for a, (t, pairs) in enumerate(axes):
        for spectrum, phis in pairs:
            lams, ln_etas = spectrum.lams, np.log(spectrum.etas)
            pieces.append((a, lams, ln_etas, phis, t, _seeds_in_range(lams, ln_etas, t)))
    offsets = np.cumsum([0] + [len(piece[3]) for piece in pieces])
    direct = [i for i, piece in enumerate(pieces) if piece[5]]
    if len(direct) == len(pieces):
        q = _direct_rows([pieces[i] for i in direct])
    else:
        q = np.empty((offsets[-1], axes[0][0].size), dtype=complex)
        if direct:
            q[np.concatenate([np.arange(offsets[i], offsets[i + 1]) for i in direct])] = \
                _direct_rows([pieces[i] for i in direct])
    for i, (_, lams, ln_etas, phis, t, in_range) in enumerate(pieces):
        rows = q[offsets[i] : offsets[i + 1]]
        if not in_range:
            rows[:] = _synthesize_log(lams, ln_etas, phis, t)
            continue
        bad = ~np.all(np.isfinite(rows.view(float)), axis=-1)
        if bad.any():
            rows[bad] = _synthesize_log(lams, ln_etas, phis[bad], t)
    return q


def _direct_rows(pieces) -> np.ndarray:
    """`_synthesize_direct` of the rows of ``pieces``: one axis per run of pieces on one axis."""
    lams, times, counts, axis = [], [], [], None
    for a, piece_lams, _, phis, t, _ in pieces:
        if a != axis:
            lams.append(piece_lams)
            times.append(t)
            counts.append(0)
            axis = a
        counts[-1] += len(phis)
    ln_etas = np.concatenate([np.broadcast_to(p[2], p[3].shape) for p in pieces])
    phis = np.concatenate([p[3] for p in pieces])
    return _synthesize_direct(np.array(lams), ln_etas, phis, np.array(times), counts)


def _seeds_in_range(lams, ln_etas, t) -> bool:
    """True when every seed exponent stays below `DIRECT_EXPONENT_LIMIT`.

    The exponent ln eta_k - 2*sigma_k*t is linear in t, so its extremes sit
    at the two ends of the time range.
    """
    if t.size == 0:
        return False  # nothing to evaluate; the stabilized path takes any shape
    ends = np.array([t.min(), t.max()])
    exponents = ln_etas[:, None] - 2.0 * lams.imag[:, None] * ends
    return bool(np.all(np.abs(exponents) < DIRECT_EXPONENT_LIMIT))


def _synthesize_direct(lams, ln_etas, phis, t, counts=None) -> np.ndarray:
    """The recursion in plain complex arithmetic; (C, N) phase rows to (C, n).

    One spectrum gives its eigenvalues ``lams`` (N,), amplitude logarithms
    ``ln_etas`` (N,) and time axis ``t`` (n,).  A batch gives A axes, ``lams``
    (A, N) and ``t`` (A, n), with ``counts[a]`` consecutive rows on axis a,
    and one row of ``ln_etas`` (C, N) per phase row.  Each parameter enters
    a row as a per-row column, so a row's samples are those of its spectrum
    alone, bit for bit.  Only valid while |rho|^2 stays finite (see
    `_seeds_in_range`); a pole of an intermediate rho shows up as a
    non-finite sample.
    """
    lams, t = np.atleast_2d(lams), np.atleast_2d(t)
    counts = [len(phis)] if counts is None else counts
    axis = np.repeat(np.arange(len(counts)), counts)  # each row's axis
    lam = lams[axis]
    sig = lam.imag
    ln_etas = np.broadcast_to(ln_etas, phis.shape)
    # rho_k = eta_k exp(j phi_k) exp(2j lambda_k t), shape (C, n), split at
    # the earliest time t0 into a per-row and a per-sample factor: the row
    # factor's exponent is the seed exponent at t0 and the sample factor's
    # at most twice the bound, so neither over- nor underflows.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t0 = t.min(axis=-1, keepdims=True)
        rows = np.exp((ln_etas - 2.0 * sig * t0[axis]) + 1j * (phis + 2.0 * lam.real * t0[axis]))
        steps = np.exp(2j * lams[:, :, None] * (t - t0)[:, None, :])  # (A, N, n)
        ends = np.cumsum([0] + list(counts))
        rhos = [np.empty((len(phis), t.shape[1]), dtype=complex) for _ in range(lams.shape[1])]
        for a in range(len(counts)):
            on_axis = slice(ends[a], ends[a + 1])
            for k, step in enumerate(steps[a]):
                np.multiply(rows[on_axis, k, None], step, out=rhos[k][on_axis])
        q = np.zeros(rhos[0].shape, dtype=complex)
        for j, p in enumerate(rhos):
            inv_denom = 1.0 / (1.0 + (p.real * p.real + p.imag * p.imag))
            q += (-4.0 * sig[:, j, None]) * inv_denom * np.conj(p)
            # c = (lambda_j - conj(lambda_j)) / (1 + |rho_j|^2)
            c = (2j * sig[:, j, None]) * inv_denom
            for k in range(j + 1, len(rhos)):
                rk = rhos[k]
                # num = (lambda_k - lambda_j) rho_k + c (rho_k - rho_j)
                num = rk - p
                num *= c
                num += (lam[:, k] - lam[:, j])[:, None] * rk
                # den = lambda_k - conj(lambda_j) - c (1 + conj(rho_j) rho_k)
                den = np.conj(p)
                den *= rk
                den += 1.0
                den *= c
                np.subtract((lam[:, k] - np.conj(lam[:, j]))[:, None], den, out=den)
                num /= den
                rhos[k] = num
    return q


def _synthesize_log(lams, ln_etas, phis, t) -> np.ndarray:
    """The recursion on complex logarithms of rho; (C, N) phase rows to (C, n).

    Stays finite at any |t|; the fallback of `synthesize_samples`.
    """
    sig = lams.imag
    om = lams.real
    n_ev = len(lams)

    # zeta[k] = ln eta_k - 2 sigma_k t + j (phi_k + 2 omega_k t), shape (C, n)
    zetas = [
        (ln_etas[k] - 2.0 * sig[k] * t)
        + 1j * (phis[:, k, None] + 2.0 * om[k] * t)
        for k in range(n_ev)
    ]
    q = np.zeros(zetas[0].shape, dtype=complex)

    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(n_ev):
            zp = zetas[j]
            x = zp.real
            q += -2.0 * sig[j] * _sech(x) * np.exp(-1j * zp.imag)
            if j == n_ev - 1:
                break
            # c = 2j*sigma_p / (1 + |rho_p|^2), evaluated without overflow;
            # log(1 + e^(2x)) kept separately so zeta_p + log(-c) stays
            # finite even across poles of rho_p (x -> +inf).
            e2 = np.exp(-2.0 * np.abs(x))
            g = np.where(x > 0.0, e2 / (1.0 + e2), 1.0 / (1.0 + e2))
            c = 2j * sig[j] * g
            log_minus_c = np.log(-2j * sig[j]) - (2.0 * np.maximum(x, 0.0) + np.log1p(e2))
            for k in range(j + 1, n_ev):
                zk = zetas[k]
                ln_num = _complex_logsumexp(
                    zk + np.log((lams[k] - lams[j]) + c),
                    zp + log_minus_c,
                )
                ln_den = _complex_logsumexp(
                    np.log((lams[k] - np.conj(lams[j])) - c),
                    np.conj(zp) + zk + log_minus_c,
                )
                zetas[k] = ln_num - ln_den

    return q


@dataclass(frozen=True)
class _GramForm:
    """The Gram form of an N=3 multi-soliton on fixed sample times, as trigonometric polynomials.

    ``coeffs[a + 1, b + 1]``, of shape (2n,), holds the coefficients of
    e^(j(a*phi_1 + b*phi_2)) in 2j*P (the first n entries) and in D (the
    last n), with q = 2j*P/D (see `_gram_coefficients`).  ``p_err`` and
    ``d_err`` (n,) bound the error of 2j*P and D evaluated at any phases by
    `_gram_rows`, and of the division; ``allowance`` is the recursion's own
    deviation, which `_gram_rows` adds to its bound.
    """

    coeffs: np.ndarray
    p_err: np.ndarray
    d_err: np.ndarray
    allowance: float


def _gram_coefficients(spectrum: DiscreteSpectrum, t) -> _GramForm:
    """Coefficients of the Gram form of a three-eigenvalue spectrum, for phases with phi_3 = 0.

    With the seeds s_k = eta_k e^(2j lambda_k t) and K_jk = 1/(lambda_k -
    conj(lambda_j)), the pulse under phases phi is the determinant (Gram)
    form of the recursion: q = 2j * sum_j e^(-j phi_j) (X^-1 conj(s))_j with
    X_jk = e^(j(phi_j - phi_k)) K_jk + conj(s_j) K_jk s_k (Faddeev &
    Takhtajan, 1987).  Rows and columns are scaled by d_j = 1/max(1, |s_j|),
    so every entry stays below 2|K_jk|; then q = 2j*P/D with D = det X' and
    P = sum_j e^(-j phi_j) d_j (adj(X') conj(u))_j, u = d*s.  Each phase
    exponent of P and D lies in {-1, 0, 1}, so both are fixed by their values
    on the lattice phi_1, phi_2 in {0, 2pi/3, 4pi/3}: an inverse 3x3 DFT
    gives their 9 coefficients exactly.

    Error bound (first order in u = 2^-53, constants rounded up; Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 3): det X' and
    adj(X')conj(u) are expanded by cofactors, so each lattice value is a
    sum of products of at most five computed factors and its error is at
    most gamma times the same sum taken over magnitudes, which for D is
    perm(|X'|).  gamma = (160 + 16x)u covers every rounding on the way and
    the relative error of the seeds, whose exponents reach x = max_k
    (|ln eta_k - 2 sigma_k t| + |2 omega_k t|).  The DFT adds 48u of the
    lattice magnitudes and the 9-term evaluation 32u of the coefficient
    magnitudes; neither bound depends on the phases.  The identity is
    exact, so the remaining gap to `synthesize_samples` is the recursion's
    own rounding: measured at 1.5e-15 of the peak against a 50-digit
    evaluation, it is allowed 2^-32 of the bound 2*sum(sigma) on |q|.
    """
    lams = spectrum.lams
    t = np.asarray(t, dtype=float)
    u = 2.0**-53
    exponent = np.log(spectrum.etas)[:, None] + 2j * lams[:, None] * t  # (3, n)
    s = np.exp(exponent)
    scale = 1.0 / np.maximum(1.0, np.abs(s))
    us = scale * s
    us_bar, us_mag = np.conj(us), np.abs(us)
    cauchy = 1.0 / (lams[None, :] - np.conj(lams)[:, None])
    phase_part = [[scale[j] * scale[k] * cauchy[j, k] for k in range(3)] for j in range(3)]
    seed_part = [[us_bar[j] * cauchy[j, k] * us[k] for k in range(3)] for j in range(3)]
    mag = [[np.abs(phase_part[j][k]) + np.abs(seed_part[j][k]) for k in range(3)] for j in range(3)]
    # cofactor (i, j) of a 3x3 matrix: rows and columns other than i and j, in cyclic order
    others = ((1, 2), (2, 0), (0, 1))

    def cofactors(m, plus):
        return [[m[others[i][0]][others[j][0]] * m[others[i][1]][others[j][1]]
                 + plus * (m[others[i][0]][others[j][1]] * m[others[i][1]][others[j][0]])
                 for j in range(3)] for i in range(3)]

    c_mag = cofactors(mag, 1.0)
    d_mag = sum(mag[0][j] * c_mag[0][j] for j in range(3))
    p_mag = 2.0 * sum(scale[j] * sum(c_mag[i][j] * us_mag[i] for i in range(3)) for j in range(3))
    lattice = np.exp(2j * np.pi * np.arange(3) / 3)
    p_vals = np.empty((3, 3, t.size), dtype=complex)
    d_vals = np.empty((3, 3, t.size), dtype=complex)
    for a in range(3):
        for b in range(3):
            e = (lattice[a], lattice[b], 1.0)  # e^(j phi_k), phi_3 = 0
            x = [[e[j] * np.conj(e[k]) * phase_part[j][k] + seed_part[j][k] for k in range(3)]
                 for j in range(3)]
            c = cofactors(x, -1.0)
            d_vals[a, b] = x[0][0] * c[0][0] + x[0][1] * c[0][1] + x[0][2] * c[0][2]
            p_vals[a, b] = 2j * sum(np.conj(e[j]) * scale[j] * (
                c[0][j] * us_bar[0] + c[1][j] * us_bar[1] + c[2][j] * us_bar[2]) for j in range(3))
    # inverse 3x3 DFT, index k + 1 for the exponent k in {-1, 0, 1}
    w = np.exp(-2j * np.pi * np.outer(np.arange(-1, 2), np.arange(3)) / 3)
    twiddles = (w[:, None, :, None] * w[None, :, None, :])[..., None] / 9.0

    def coefficients(vals):
        return (twiddles * vals).sum(axis=(2, 3))

    p, d = coefficients(p_vals), coefficients(d_vals)
    x = np.max(np.abs(exponent.real) + np.abs(exponent.imag), axis=0)
    gamma = (160.0 + 16.0 * x) * u

    def error(vals, mags, coeffs):
        per_coefficient = gamma * mags + 48.0 * u * np.abs(vals).sum(axis=(0, 1)) / 9.0
        return 9.0 * per_coefficient + 32.0 * u * np.abs(coeffs).sum(axis=(0, 1))

    # the division's rounding, 4u|q|, is 4u|D| |q| / |D| with |D| <= sum |d_ab|;
    # the factor 1 + 2^-20 covers the rounding of the bound itself
    d_err = error(d_vals, d_mag, d) + 4.0 * u * np.abs(d).sum(axis=(0, 1))
    return _GramForm(np.concatenate([p, d], axis=-1), (1.0 + 2.0**-20) * error(p_vals, p_mag, p),
                     (1.0 + 2.0**-20) * d_err, 2.0**-32 * 2.0 * float(spectrum.sigmas.sum()))


def _gram_rows(gram: _GramForm, phis) -> tuple[np.ndarray, np.ndarray]:
    """Samples of the (C, 3) phase rows ``phis`` (phi_3 = 0) from their Gram form, with bounds.

    Returns (q, delta), both (C, n): delta = (p_err + |q| d_err) / (|D| -
    d_err) + allowance bounds |q - synthesize_samples| on every sample, and
    is inf where |D| does not exceed d_err.  The polynomials are separable:
    along each run of rows that share phi_1 the phi_1 sum is taken once,
    and the phi_2 sum is a 3-term contraction per row, so no matrix product
    library is involved.
    """
    n = gram.p_err.size
    pd = np.empty((len(phis), 2 * n), dtype=complex)
    e2 = np.exp(1j * np.arange(-1, 2) * phis[:, 1, None])  # e^(j b phi_2), b = -1, 0, 1
    cuts = np.concatenate([[0], np.flatnonzero(np.diff(phis[:, 0])) + 1, [len(phis)]])
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        e1 = np.exp(1j * np.arange(-1, 2) * phis[lo, 0])
        np.einsum("rb,bn->rn", e2[lo:hi], np.einsum("a,abn->bn", e1, gram.coeffs), out=pd[lo:hi])
    p, d = pd[:, :n], pd[:, n:]
    slack = np.abs(d)
    slack -= gram.d_err
    np.maximum(slack, 0.0, out=slack)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = p / d
        delta = np.abs(q)
        delta *= gram.d_err
        delta += gram.p_err
        delta /= slack
    delta += gram.allowance
    return q, delta


def synthesize(spectrum: DiscreteSpectrum, grid: TimeGrid) -> SampledSignal:
    """Synthesize the pulse of a discrete spectrum on a time grid.

    Warns with `GridTooNarrowWarning` when the edge samples carry more than
    ``BOUNDARY_FRACTION`` of the peak magnitude (truncation perturbs the
    spectrum of the sampled pulse).
    """
    q = synthesize_samples(spectrum, spectrum.phis, grid.times)
    signal = SampledSignal(grid=grid, samples=q)
    mags = np.abs(q)
    peak = mags.max()
    if peak > 0 and max(mags[0], mags[-1]) > BOUNDARY_FRACTION * peak:
        warnings.warn(
            f"grid [{grid.t_start:.3g}, {grid.t_end:.3g}] truncates the pulse: "
            f"edge magnitude {max(mags[0], mags[-1]) / peak:.2e} of peak",
            GridTooNarrowWarning,
            stacklevel=2,
        )
    return signal


def synthesize_phases(spectrum: DiscreteSpectrum, grid: TimeGrid, phis) -> np.ndarray:
    """Synthesize one signal per row of ``phis`` (shape (C, N)) on ``grid``."""
    return synthesize_samples(spectrum, np.atleast_2d(phis), grid.times)


def auto_grid(
    spectrum: DiscreteSpectrum,
    epsilon: float,
    oversampling: float = OVERSAMPLING,
    boundary_clean: bool = True,
) -> TimeGrid:
    """Size a grid from the tail-envelope duration and bandwidth estimates.

    The window is centered on the edge span (T-, T+) with half-width 1.5
    times half that span plus one decay length of the slowest tail, and dt
    keeps the bandwidth estimate oversampled by ``oversampling``.  With
    ``boundary_clean`` (the default) the edges are where the tail envelopes
    sit a decade below the edge-magnitude check of `synthesize`; turning it
    off puts them where the tails hold epsilon*1e-4 of the energy, a leaner
    grid that is still safe for the energy-window measurements at this
    epsilon.  Either edge lies outside the epsilon/100 duration estimate (the
    magnitude edge for epsilon >= 1e-24), so the window spans at least 1.5
    times that duration.
    """
    _check_epsilon(epsilon)
    if not (math.isfinite(oversampling) and oversampling > 0.0):
        raise InvalidParameterError(f"oversampling must be finite and > 0, got {oversampling}")
    band = envelope_bandwidth(spectrum, epsilon)
    if boundary_clean:
        # reference the threshold to the smallest component peak, conservatively
        env = tail_envelope(spectrum)
        target = 0.1 * BOUNDARY_FRACTION * 2.0 * spectrum.sigmas.min()
        span = _envelope_magnitude_crossing(env, target)
    else:
        span = envelope_duration(spectrum, epsilon * 1e-4)
    return _sized_grid(spectrum, span, band, oversampling)


def _lean_grids(links, epsilon: float) -> list:
    """``auto_grid(s, epsilon, boundary_clean=False)`` of every spectrum ``s`` of each link.

    A link is a list of evolved copies of one spectrum.  Evolution leaves
    sigma, omega and the energy alone, so the bandwidth estimate and the
    tail coefficients of a link's first spectrum serve all of its spectra.
    The tail crossings of every link are solved together, in lockstep
    (`tail_crossings`).  Returns, per link, the list of its grids or the
    exception that sizing it alone raises: its steps are taken in the order
    of one link, the bandwidth, the tail coefficients, then each spectrum's
    duration and grid.
    """
    _check_epsilon(epsilon)
    lanes, plans = [], []
    for spectra in links:
        start = len(lanes)
        lanes += _bandwidth_lanes(spectra[0], epsilon)
        try:
            tc = tail_coefficients(spectra[0].lams)
        except DegenerateSpectrumError as exc:
            tc = exc
        else:
            for s in spectra:
                lanes += _duration_lanes(s, epsilon * 1e-4, tc)
        plans.append((start, spectra, tc))
    roots = tail_crossings(lanes)
    grids = []
    for start, spectra, tc in plans:
        try:
            band = _edges(_solved(roots[start : start + 2]))
            if isinstance(tc, Exception):
                raise tc
            spans = roots[start + 2 : start + 2 + 2 * len(spectra)]
            grids.append([_sized_grid(s, _edges(_solved(spans[2 * i : 2 * i + 2])), band,
                                      OVERSAMPLING) for i, s in enumerate(spectra)])
        except Exception as exc:  # reported in the link's place
            grids.append(exc)
    return grids


def _sized_grid(spectrum: DiscreteSpectrum, span, band, oversampling: float) -> TimeGrid:
    """The `auto_grid` of an edge span (T-, T+) and a bandwidth estimate (B-, B+)."""
    t_minus, t_plus = span
    f_minus, f_plus = band
    center = 0.5 * (t_plus + t_minus)
    half_width = 1.5 * 0.5 * (t_plus - t_minus) + 1.0 / spectrum.sigmas.min()
    b_est = max(f_plus - f_minus, 2.0 * max(abs(f_plus), abs(f_minus)))
    dt_max = 1.0 / (oversampling * b_est)
    n = 2 ** max(8, math.ceil(math.log2(2.0 * half_width / dt_max)))
    if n > 2**22:
        raise ValueError(
            f"auto grid would need {n} samples; spectrum spans too many scales"
        )
    dt = 2.0 * half_width / n
    return TimeGrid(t_start=center - half_width, dt=dt, n_samples=n)


def _envelope_magnitude_crossing(env, target: float) -> tuple[float, float]:
    """Times beyond which each tail envelope stays below ``target``.

    Bounds every term of the envelope sum by target/n_terms, which is exact
    enough for grid sizing and immune to over/underflow.
    """
    keep = (env.right_coeffs > 0.0) | (env.left_coeffs > 0.0)
    rc, lc, rates = env.right_coeffs[keep], env.left_coeffs[keep], env.rates[keep]
    n_terms = len(rates)
    with np.errstate(divide="ignore"):
        t_plus = float(np.max(np.log(rc * n_terms / target) / rates))
        t_minus = -float(np.max(np.log(lc * n_terms / target) / rates))
    return t_minus, t_plus


def union_grid(grids) -> TimeGrid:
    """Smallest grid covering all the given grids at the finest spacing."""
    t_lo = min(g.t_start for g in grids)
    t_hi = max(g.t_end for g in grids)
    dt_max = min(g.dt for g in grids)
    n = 2 ** math.ceil(math.log2((t_hi - t_lo) / dt_max + 1))
    dt = (t_hi - t_lo) / (n - 1)
    return TimeGrid(t_start=t_lo, dt=dt, n_samples=n)
