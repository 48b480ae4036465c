"""Forward scattering: Jost coefficients, eigenvalue search, amplitudes.

The two-component scattering system is integrated across the sampled signal
with a piecewise-constant-potential transfer matrix (the matrix exponential
per sample cell is exact, samples are taken as cell midpoints).  Working
variables are the phase-compensated components, so the boundary condition is
exactly (1, 0) at the left edge and ``a = u1``, ``b = u2`` at the right edge
up to explicit exponential factors applied in log space.

Every pass is one sweep of a start vector across a run of cells.  A cell's
inverse is the same cell at step -dt (sin is odd and cos even), so a
backward pass is the forward sweep over the reversed cells at -dt.

The derivative da/dlambda rides along as an augmented pair whose per-cell
update differentiates the matrix exponential analytically, which keeps the
Newton eigenvalue search quadratically convergent.

Extracting b at the right edge is exact for real lambda but ill-conditioned
at eigenvalues: round-off seeded into the growing mode is amplified by
exp(sigma * span).  At an eigenvalue the left solution is proportional to
the right-boundary solution everywhere, so `discrete_amplitude` instead
takes b from two sweeps that meet at the energy centroid, one from (1, 0) at
the left edge and one from (0, 1) at the right edge, as the component ratio
of the two there, where both are still well-conditioned.
"""

from __future__ import annotations

import numpy as np

from .darboux import SampledSignal
from .errors import DegenerateRootError, DegenerateSpectrumError, InvalidParameterError
from .spectrum import DiscreteSpectrum, qd_init

ROOT_TOL = 1e-6  # |a| below which a Newton iterate counts as an eigenvalue
NEWTON_MAX_ITER = 50
DEDUP_DISTANCE = 1e-4
APRIME_TOL = 1e-10

# Renormalize the propagated components whenever they exceed this magnitude;
# the accumulated log scale cancels in a/a' and is restored on extraction.
RESCALE_LIMIT = 1e100


def _cell_matrices(q: complex, dt: float, lams, lam2, with_derivative: bool):
    """Exact exponential of the constant-potential cell, and its lambda derivative."""
    aq2 = q.real * q.real + q.imag * q.imag
    kappa2 = lam2 + aq2
    kappa = np.sqrt(kappa2)
    kd = kappa * dt
    small = np.abs(kd) < 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(small, dt * (1.0 - kd * kd / 6.0), np.sin(kd) / kappa)
    c = np.cos(kd)
    e = (c - 1j * lams * s, q * s, -np.conj(q) * s, c + 1j * lams * s)
    if not with_derivative:
        return e, None
    dc = -lams * dt * s
    with np.errstate(divide="ignore", invalid="ignore"):
        ds = np.where(small, -lams * dt**3 / 3.0, lams * (dt * c - s) / kappa2)
    de_diag = 1j * (s + lams * ds)
    de = (dc - de_diag, q * ds, -np.conj(q) * ds, dc + de_diag)
    return e, de


def _sweep(samples, dt, lams, w1, w2, with_derivative=False):
    """Carry the start vector (w1, w2) across the cells of ``samples`` in order.

    Returns (w1, w2, wl1, wl2, log_scale): the end vector, its lambda
    derivative (zero unless ``with_derivative``) and the log of the factor
    divided out of all four.  A negative ``dt`` applies the inverse cells.
    """
    m = len(lams)
    w1 = np.full(m, w1, dtype=complex)
    w2 = np.full(m, w2, dtype=complex)
    wl1 = np.zeros(m, dtype=complex)
    wl2 = np.zeros(m, dtype=complex)
    log_scale = np.zeros(m)
    lam2 = lams * lams
    for i, q in enumerate(samples):
        (e11, e12, e21, e22), de = _cell_matrices(q, dt, lams, lam2, with_derivative)
        if with_derivative:
            d11, d12, d21, d22 = de
            wl1, wl2 = (
                e11 * wl1 + e12 * wl2 + d11 * w1 + d12 * w2,
                e21 * wl1 + e22 * wl2 + d21 * w1 + d22 * w2,
            )
        w1, w2 = e11 * w1 + e12 * w2, e21 * w1 + e22 * w2
        if (i & 0xFF) == 0xFF:
            mag = np.maximum(np.abs(w1), np.abs(w2))
            big = mag > RESCALE_LIMIT
            if np.any(big):
                scale = np.where(big, mag, 1.0)
                w1, w2, wl1, wl2 = w1 / scale, w2 / scale, wl1 / scale, wl2 / scale
                log_scale += np.log(scale)
    return w1, w2, wl1, wl2, log_scale


def scatter_many(signal: SampledSignal, lams):
    """Jost coefficients a, b and a' = da/dlambda for a batch of lambdas.

    Every lambda must lie in the closed upper half-plane.  b is taken at the
    right edge, which is accurate on and near the real axis; use
    `discrete_amplitude` for amplitudes at eigenvalues.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    if np.any(lams.imag < 0.0):
        raise ValueError(
            f"lambda must lie in the closed upper half-plane, got {lams[lams.imag < 0.0]}"
        )
    grid = signal.grid
    t_start = grid.t_start - 0.5 * grid.dt
    t_end = grid.t_end + 0.5 * grid.dt
    w1, w2, wl1, wl2, log_scale = _sweep(signal.samples, grid.dt, lams, 1, 0, True)
    span = t_end - t_start
    a = w1 * np.exp(1j * lams * span + log_scale)
    # combine the exponents before exponentiating: the edge value of b for
    # eigenvalues far off the real axis can overflow even when meaningless
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b_expo = np.log(w2) - 1j * lams * (t_end + t_start) + log_scale
        b = np.where(w2 == 0.0, 0.0, np.exp(b_expo))
    a_prime = (wl1 + 1j * span * w1) * np.exp(1j * lams * span + log_scale)
    return a, b, a_prime


def _bound_state_b(signal: SampledSignal, lams) -> np.ndarray:
    """b at eigenvalues via the midpoint component ratio of both Jost solutions.

    At a root of a the left solution equals b times the right one everywhere,
    so the ratio at the energy centroid avoids the exponential error
    amplification of an edge extraction.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    grid = signal.grid
    t_start = grid.t_start - 0.5 * grid.dt
    t_end = grid.t_end + 0.5 * grid.dt
    samples = signal.samples
    mags2 = np.abs(samples) ** 2
    total = mags2.sum()
    centroid = float((grid.times * mags2).sum() / total) if total > 0 else 0.0
    mid = int(np.clip(round((centroid - grid.t_start) / grid.dt), 1, grid.n_samples - 1))
    # both chains end at the cell boundary in front of samples[mid]
    m1, m2, _, _, sm = _sweep(samples[:mid], grid.dt, lams, 1, 0)
    r1, r2, _, _, sr = _sweep(samples[:mid - 1:-1], -grid.dt, lams, 0, 1)
    use_first = np.abs(r1) >= np.abs(r2)
    num = np.where(use_first, m1, m2)
    den = np.where(use_first, r1, r2)
    # the left chain starts from (1,0) at t_start and the right one from
    # (0,1) at t_end; restoring their boundary phases gives b itself
    return num / den * np.exp(sm - sr - 1j * lams * (t_start + t_end))


def _default_region(signal: SampledSignal):
    # scale from the amplitude/energy of the signal: a first-order component
    # of size sigma peaks at 2*sigma and carries energy 4*sigma
    peak = float(np.abs(signal.samples).max())
    sigma_scale = 1.25 * max(peak / 2.0, signal.energy / 4.0, 0.1)
    return (-2.0 * sigma_scale, 2.0 * sigma_scale), (0.0, 2.0 * sigma_scale)


def find_eigenvalues(
    signal: SampledSignal,
    region: tuple[tuple[float, float], tuple[float, float]] | None = None,
    seeds_per_axis: int = 20,
) -> list[complex]:
    """Locate simple upper-half-plane roots of a(lambda) by seeded Newton.

    Args:
        signal: sampled pulse, decaying at the grid edges.
        region: ((re_min, re_max), (im_min, im_max)) search rectangle with
            im bounds >= 0; sized from the signal when omitted.
        seeds_per_axis: seed grid resolution per axis.

    Returns:
        Deduplicated converged roots inside the region, sorted by real then
        imaginary part.  No roots found is an empty list, not an error.
    """
    if seeds_per_axis < 1:
        raise InvalidParameterError(f"seeds_per_axis must be >= 1, got {seeds_per_axis}")
    if region is None:
        region = _default_region(signal)
    (re_lo, re_hi), (im_lo, im_hi) = region
    if im_hi <= 0.0 or im_lo < 0.0:
        raise InvalidParameterError("region must lie in the upper half-plane")
    res = np.linspace(re_lo, re_hi, seeds_per_axis)
    ims = np.linspace(max(im_lo, im_hi / seeds_per_axis), im_hi, seeds_per_axis)
    lam = (res[:, None] + 1j * ims[None, :]).ravel()

    margin = 0.5 * (im_hi - im_lo) + 0.5
    active = np.ones(len(lam), dtype=bool)
    roots: list[complex] = []
    for _ in range(NEWTON_MAX_ITER):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        a, _, a_prime = scatter_many(signal, lam[idx])
        converged = (np.abs(a) < ROOT_TOL) & (np.abs(a_prime) > 0.0)
        # record one quadratic step past the tolerance so that duplicates
        # from different seeds cluster far inside the merge radius
        for i, aa, ap in zip(idx[converged], a[converged], a_prime[converged]):
            roots.append(complex(lam[i] - aa / ap))
        active[idx[converged]] = False
        ok = ~converged & (np.abs(a_prime) > 0.0) & np.isfinite(a) & np.isfinite(a_prime)
        step = np.zeros_like(a)
        step[ok] = a[ok] / a_prime[ok]
        new = lam[idx] - step
        out = (
            ~ok
            | (new.imag <= 0.0)
            | (new.real < re_lo - margin)
            | (new.real > re_hi + margin)
            | (new.imag > im_hi + margin)
        )
        active[idx[out]] = False
        lam[idx] = new

    # deduplicate, restrict to the region, deterministic order
    roots.sort(key=lambda r: (r.real, r.imag))
    merged: list[complex] = []
    for r in roots:
        if any(abs(r - m) < DEDUP_DISTANCE for m in merged):
            continue
        if re_lo - 1e-9 <= r.real <= re_hi + 1e-9 and im_lo < r.imag <= im_hi + 1e-9:
            merged.append(r)
    return merged


def discrete_amplitude(signal: SampledSignal, lam_k: complex) -> complex:
    """Spectral amplitude b(lambda_k) / a'(lambda_k) at a located eigenvalue.

    The given eigenvalue is first polished onto the root of the discretized
    a; the proportionality between the two Jost solutions (and with it the
    midpoint ratio for b) holds only there.
    """
    lam_k = complex(lam_k)
    if lam_k.imag <= 0.0:
        raise ValueError(f"eigenvalues lie strictly above the real axis, got {lam_k}")
    a, a_prime = None, None
    for _ in range(8):
        a, _, a_prime = scatter_many(signal, [lam_k])
        if abs(a_prime[0]) < APRIME_TOL:
            raise DegenerateRootError(f"a'({lam_k}) = {a_prime[0]}; root is not simple")
        step = a[0] / a_prime[0]
        lam_k = lam_k - step
        if lam_k.imag <= 0.0:
            raise DegenerateRootError(f"polishing left the upper half-plane at {lam_k}")
        if abs(step) < 1e-13:
            break
    b = _bound_state_b(signal, [lam_k])
    return complex(b[0] / a_prime[0])


def recover_spectrum(
    signal: SampledSignal,
    region=None,
    seeds_per_axis: int = 20,
) -> DiscreteSpectrum:
    """Full inverse of synthesis: eigenvalues plus (eta, phi) parameters.

    The measured amplitude at each eigenvalue equals
    ``eta * exp(j*phi) * qd_init`` for the synthesis convention of this
    package, so eta and phi follow by dividing out the canonical amplitude
    of the recovered eigenvalue set.
    """
    lams = find_eigenvalues(signal, region=region, seeds_per_axis=seeds_per_axis)
    if not lams:
        raise DegenerateSpectrumError("no eigenvalues found in the search region")
    shell = DiscreteSpectrum.from_arrays(
        [l.imag for l in lams], [l.real for l in lams]
    )
    sigmas, omegas, etas, phis = [], [], [], []
    for k, lam in enumerate(lams):
        qd = discrete_amplitude(signal, lam)
        ref = qd_init(shell, k)
        sigmas.append(lam.imag)
        omegas.append(lam.real)
        etas.append(abs(qd) / abs(ref))
        phis.append(float(np.angle(qd / ref)))
    return DiscreteSpectrum.from_arrays(sigmas, omegas, etas, phis)
