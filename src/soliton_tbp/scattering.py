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

A sweep is a blocked transfer-matrix product, the divide-and-conquer scheme
of Wahls & Poor, "Fast numerical nonlinear Fourier transforms" (IEEE Trans.
Inf. Theory, 2015).  The cells are cut into blocks of SWEEP_BUDGET // m
samples for a batch of m lambdas, so one block always holds about
SWEEP_BUDGET cell matrices: a single lambda takes the whole signal as one
block, a batch of 256 sixteen samples at a time.  Each block's cell
matrices are built in one vectorized pass, then multiplied pairwise, the
later cell on the left, in log2(block) levels; an odd last matrix is carried
to the next level.  A level whose largest entry passes RESCALE_LIMIT is
divided, per matrix and lambda, by a power of two near that entry, and the
log of the factor is kept beside it.  The start vector is carried from block
to block under the same rule.

The derivative da/dlambda rides along: each cell's lambda derivative comes
from differentiating its matrix exponential analytically, and every product
carries its derivative by the product rule (AB)' = A'B + AB'.  This keeps the
Newton eigenvalue search quadratically convergent.

The eigenvalue search counts before it searches.  By the argument principle
the number K of roots of a inside the search rectangle is
(1/2 pi i) oint a'/a dlambda around it, and the higher moments of the same
integral, oint lambda^p a'/a dlambda for p = 1..K, are the power sums of
those roots (Delves & Lyness, "A numerical method for locating the zeros of
an analytic function", Math. Comp. 1967).  One `scatter_many` at
Gauss-Legendre nodes on the four sides gives them all.  The count is taken
when it lies within COUNT_TOL of an integer, with 64, 128 or 256 nodes per
side; the roots of the polynomial with those power sums seed Newton's
method, which runs every seed to a fixed point of the discretized a.  When
no node count gives an integer, the rectangle is widened by shares of its
size until one does, and the roots are filtered back to it; when m < K
converge, the moments less their power sums seed the rest.  No certified
count, or a round that adds no root, raises `EigenvalueCountError`.
Nodes and polynomial roots are computed by plain iteration (Newton on the
Legendre recurrence, Aberth-Ehrlich), not by an eigenvalue solver.  Roots
go by real part, then by descending sigma where real parts tie within ORDER_TOL.

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
from .errors import (
    DegenerateRootError,
    DegenerateSpectrumError,
    EigenvalueCountError,
    InvalidParameterError,
)
from .spectrum import DiscreteSpectrum, qd_init

NEWTON_MAX_ITER = 50
STEP_TOL = 1e-13  # a Newton step below this ends the iteration at a fixed point
DEDUP_DISTANCE = 1e-4
ORDER_TOL = 1e-3  # real parts closer than this share a column of the root order
APRIME_TOL = 1e-10

# The contour count of roots is taken when it lies this close to an integer,
# trying each number of Gauss-Legendre nodes per side in turn.
COUNT_TOL = 1e-3
CONTOUR_NODES = (64, 128, 256)
POLY_MAX_ITER = 200  # Aberth-Ehrlich iterations for the seeds' polynomial
WIDEN_SHARES = (0.0, 0.01, 0.02, 0.04)  # of the region's size, widening the contour in turn

# Renormalize the propagated components whenever they exceed this magnitude;
# the accumulated log scale cancels in a/a' and is restored on extraction.
RESCALE_LIMIT = 1e100

# Cells x lambdas per block of a sweep.  A sweep's buffers then take about
# 1.5 MB whatever the batch size, and larger blocks gain little.
SWEEP_BUDGET = 1 << 12


class _BlockProduct:
    """Cell matrices of a block of samples, and their ordered product.

    Matrices are stored as (2, 2, cells, lambdas) arrays.  Every buffer is
    sized for the longest block and reused by each block of a sweep, since
    fresh arrays of this size would be paged in again every time.
    """

    def __init__(self, n_cells: int, dt: float, lams):
        m = len(lams)
        half = (n_cells + 1) // 2
        self.dt = dt
        self.lams = lams
        # the levels of the product alternate between the two buffers
        self.mats = (np.empty((2, 2, n_cells, m), complex), np.empty((2, 2, half, m), complex))
        self.dmats = (np.empty_like(self.mats[0]), np.empty_like(self.mats[1]))
        self.scales = (np.empty((n_cells, m)), np.empty((half, m)))
        self.tmp = np.empty((2, 2, n_cells // 2, m), complex)
        self.cplx = np.empty((6, n_cells, m), complex)
        self.real = np.empty((8, n_cells, m))
        self.flags = np.empty((2, n_cells, m), dtype=bool)
        self.lam2 = lams * lams
        self.ilam = 1j * lams
        self.minus_lam_dt = -lams * dt
        self.small_ds = -lams * dt**3 / 3.0

    def _cells(self, q):
        """Write the exact exponential of each cell of ``q`` (and its lambda
        derivative) into the first buffer.

        Per cell, with kappa^2 = lambda^2 + |q|^2, c = cos(kappa dt) and
        s = sin(kappa dt) / kappa (dt (1 - (kappa dt)^2 / 6) for
        |kappa dt| < 1e-6), the matrix is [[c - i lambda s, q s],
        [-q* s, c + i lambda s]].  Both it and its derivative are even in
        kappa, so any square root of kappa^2 serves.  The complex sqrt, sin
        and cos are assembled from real functions of the real and imaginary
        parts, which numpy evaluates several times faster.
        """
        k = len(q)
        dt, lams = self.dt, self.lams
        kappa2, kappa, c, s, t1, t2 = (b[:k] for b in self.cplx)
        a, r, u, v, x, y, f1, f2 = (b[:k] for b in self.real)
        flip, small = (b[:k] for b in self.flags)
        q = q[:, None]
        # kappa^2 = a + ib; b depends on lambda alone
        np.add(self.lam2.real, q.real * q.real + q.imag * q.imag, out=a)
        b = self.lam2.imag
        np.copyto(kappa2.real, a)
        np.copyto(kappa2.imag, b)
        # a root of a + ib: u + iv for a >= 0 and v + iu for a < 0, with
        # u = sqrt((|a + ib| + |a|) / 2) and v = b / (2u)
        np.multiply(a, a, out=r)
        r += b * b
        np.sqrt(r, out=r)
        np.abs(a, out=u)
        u += r
        u *= 0.5
        np.sqrt(u, out=u)
        np.multiply(0.5, b, out=v)
        np.divide(v, u, out=v, where=u > 0.0)
        np.less(a, 0.0, out=flip)
        np.copyto(kappa.real, u)
        np.copyto(kappa.imag, v)
        np.copyto(kappa.real, v, where=flip)
        np.copyto(kappa.imag, u, where=flip)
        # kappa dt = x + iy
        np.multiply(kappa.real, dt, out=x)
        np.multiply(kappa.imag, dt, out=y)
        np.multiply(x, x, out=r)
        np.multiply(y, y, out=f1)
        r += f1
        np.less(r, 1e-12, out=small)
        # cos(x + iy) = cos x cosh y - i sin x sinh y
        # sin(x + iy) = sin x cosh y + i cos x sinh y
        np.cosh(y, out=f1)
        np.sinh(y, out=f2)
        np.sin(x, out=u)
        np.cos(x, out=v)
        np.multiply(v, f1, out=c.real)
        np.multiply(u, f2, out=c.imag)
        np.negative(c.imag, out=c.imag)
        np.multiply(u, f1, out=s.real)
        np.multiply(v, f2, out=s.imag)
        with np.errstate(divide="ignore", invalid="ignore"):
            s /= kappa
        any_small = small.any()
        if any_small:
            kd = kappa[small] * dt
            s[small] = dt * (1.0 - kd * kd / 6.0)
        e = self.mats[0][:, :, :k]
        np.multiply(self.ilam, s, out=t1)
        np.subtract(c, t1, out=e[0, 0])
        np.add(c, t1, out=e[1, 1])
        np.multiply(q, s, out=e[0, 1])
        np.multiply(-np.conj(q), s, out=e[1, 0])
        # ds = lambda (dt c - s) / kappa^2 (-lambda dt^3 / 3 for small kappa dt),
        # dc = -lambda dt s, and the diagonal of de is dc -+ i (s + lambda ds)
        ds, diag, dc = t1, t2, kappa
        np.multiply(c, dt, out=ds)
        ds -= s
        ds *= lams
        with np.errstate(divide="ignore", invalid="ignore"):
            ds /= kappa2
        if any_small:
            ds[small] = np.broadcast_to(self.small_ds, ds.shape)[small]
        np.multiply(lams, ds, out=diag)
        diag += s
        diag *= 1j
        np.multiply(self.minus_lam_dt, s, out=dc)
        de = self.dmats[0][:, :, :k]
        np.subtract(dc, diag, out=de[0, 0])
        np.add(dc, diag, out=de[1, 1])
        np.multiply(q, ds, out=de[0, 1])
        np.multiply(-np.conj(q), ds, out=de[1, 0])

    def product(self, q):
        """The product of the cells of ``q``, the latest on the left.

        Returns (M, M', log_scale): the (2, 2, m) product with the factor
        exp(log_scale) divided out, and its lambda derivative.  The arrays
        are views of the buffers, valid until the next call.
        """
        self._cells(q)
        k = len(q)
        src = 0
        scales = self.scales[0][:k]
        scales[:] = 0.0
        while k > 1:
            h = k // 2
            dst = 1 - src
            mats, out = self.mats[src][:, :, :k], self.mats[dst][:, :, :k - h]
            later, earlier = mats[:, :, 1:2 * h:2], mats[:, :, 0:2 * h:2]
            tmp = self.tmp[:, :, :h]
            _mat_mul(later, earlier, out[:, :, :h], tmp)
            # (AB)' = A'B + AB'
            dmats, dout = self.dmats[src][:, :, :k], self.dmats[dst][:, :, :k - h]
            _mat_mul(dmats[:, :, 1:2 * h:2], earlier, dout[:, :, :h], tmp)
            _mat_mul(later, dmats[:, :, 0:2 * h:2], dout[:, :, :h], tmp, add=True)
            out_scales = self.scales[dst][:k - h]
            np.add(scales[1:2 * h:2], scales[0:2 * h:2], out=out_scales[:h])
            if k % 2:
                out[:, :, h] = mats[:, :, k - 1]
                out_scales[h] = scales[k - 1]
                dout[:, :, h] = dmats[:, :, k - 1]
            _renormalize(out, dout, out_scales, axes=(0, 1))
            k, src, scales = k - h, dst, out_scales
        return self.mats[src][:, :, 0], self.dmats[src][:, :, 0], scales[0]


def _mat_mul(a, b, out, tmp, add=False):
    """out = a @ b (out += a @ b with ``add``) for (2, 2, ...) stacks of 2x2 matrices.

    ``tmp`` is scratch of the shape of ``out``.
    """
    if add:
        np.multiply(a[:, 0:1], b[0:1], out=tmp)
        out += tmp
    else:
        np.multiply(a[:, 0:1], b[0:1], out=out)
    np.multiply(a[:, 1:2], b[1:2], out=tmp)
    out += tmp


def _renormalize(w, dw, log_scale, axes):
    """Rescale the entries of ``w`` (and ``dw``) that outgrew RESCALE_LIMIT.

    Each matrix or vector (reduced over ``axes``) whose largest entry passes
    the limit is divided by a power of two near that entry, which is exact,
    and the log of the factor is added to ``log_scale`` in place.
    """
    flat = w.view(float)
    if not flat.size or max(flat.max(), -flat.min()) <= RESCALE_LIMIT:
        return
    mag = np.abs(w).max(axis=axes)
    _, exponent = np.frexp(mag)
    exponent[mag <= RESCALE_LIMIT] = 0
    factor = np.ldexp(1.0, -exponent)
    w *= factor
    dw *= factor
    log_scale += exponent * np.log(2.0)


def _sweep(samples, dt, lams, w1, w2):
    """Carry the start vector (w1, w2) across the cells of ``samples`` in order.

    Returns (w1, w2, wl1, wl2, log_scale): the end vector, its lambda
    derivative and the log of the factor divided out of all four.  A
    negative ``dt`` applies the inverse cells.

    The cells go in blocks of SWEEP_BUDGET // len(lams) samples.  Each block
    is reduced to one matrix by a pairwise product in log2(block) levels
    (`_BlockProduct.product`), and the vector is carried from block to block.
    """
    samples = np.asarray(samples)
    m = len(lams)
    w = np.empty((2, m), dtype=complex)
    w[0], w[1] = w1, w2
    wl = np.zeros((2, m), dtype=complex)
    log_scale = np.zeros(m)
    block = max(1, SWEEP_BUDGET // max(m, 1))
    work = _BlockProduct(min(block, len(samples)), dt, lams)
    for start in range(0, len(samples), block):
        mat, dmat, scale = work.product(samples[start:start + block])
        wl = mat[:, 0] * wl[0] + mat[:, 1] * wl[1] + dmat[:, 0] * w[0] + dmat[:, 1] * w[1]
        w = mat[:, 0] * w[0] + mat[:, 1] * w[1]
        log_scale += scale
        _renormalize(w, wl, log_scale, axes=0)
    return w[0], w[1], wl[0], wl[1], log_scale


def _cell_edges(grid) -> tuple[float, float]:
    """Outer edges of the first and last sample cells: the ends of the scattering span."""
    return grid.t_start - 0.5 * grid.dt, grid.t_end + 0.5 * grid.dt


def scatter_many(signal: SampledSignal, lams):
    """Jost coefficients a, b and a' = da/dlambda for a batch of lambdas.

    Every lambda must be finite and lie in the closed upper half-plane.  b is
    taken at the right edge, which is accurate on and near the real axis; use
    `discrete_amplitude` for amplitudes at eigenvalues.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    bad = ~np.isfinite(lams) | (lams.imag < 0.0)
    if bad.any():
        raise InvalidParameterError(
            f"lambda must be finite and lie in the closed upper half-plane, got {lams[bad]}"
        )
    t_start, t_end = _cell_edges(signal.grid)
    w1, w2, wl1, wl2, log_scale = _sweep(signal.samples, signal.grid.dt, lams, 1, 0)
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
    grid = signal.grid
    t_start, t_end = _cell_edges(grid)
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


def _gauss_legendre(n: int):
    """Gauss-Legendre nodes (ascending) and weights of order ``n`` on [-1, 1].

    Newton's method on P_n, evaluated by the three-term recurrence
    k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2}, from Tricomi's estimates
    -cos(pi (i - 1/4) / (n + 1/2)); the weights are 2 / ((1 - x^2) P_n'(x)^2).
    """
    x = -np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(10):
        p0, p1 = np.ones(n), x.copy()
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / dp
        x -= step
        if np.abs(step).max() < 1e-15:
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # the rule is symmetric about 0
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def _poly_roots(coeffs) -> np.ndarray:
    """Roots of the monic polynomial with ``coeffs`` (highest power first).

    Aberth-Ehrlich iteration: every root estimate z_i moves by
    w_i / (1 - w_i sum_{j != i} 1 / (z_i - z_j)) with w_i = p(z_i) / p'(z_i),
    from a circle around the roots' centroid that holds them all.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    k = len(coeffs) - 1
    if k < 1:
        return np.empty(0, complex)
    dcoeffs = coeffs[:-1] * np.arange(k, 0, -1)
    radius = max(abs(c) ** (1.0 / i) for i, c in enumerate(coeffs[1:], 1))
    z = -coeffs[1] / k + max(radius, 1e-3) * np.exp(2j * np.pi * (np.arange(k) + 0.25) / k)
    off_diagonal = ~np.eye(k, dtype=bool)
    for _ in range(POLY_MAX_ITER):
        p, dp = np.zeros(k, complex), np.zeros(k, complex)
        for c, dc in zip(coeffs, dcoeffs):
            p, dp = p * z + c, dp * z + dc
        p = p * z + coeffs[-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            w = p / dp
            repel = np.where(off_diagonal, 1.0 / (z[:, None] - z[None, :]), 0.0).sum(axis=1)
            step = w / (1.0 - w * repel)
        step[~np.isfinite(step)] = 0.0
        z -= step
        if (np.abs(step) <= 1e-15 * np.maximum(np.abs(z), 1.0)).all():
            break
    return z


def _contour_seeds(signal: SampledSignal, region):
    """The number K of roots of a inside ``region``, and their seeds.

    The moments s_p = (1/2 pi i) oint ((lambda - c)/h)^p a'/a dlambda around
    the rectangle (centre c, half-size h) are Gauss-Legendre sums over its
    four sides, from one `scatter_many` at every node.  s_0 is the count: it
    is taken when within COUNT_TOL of an integer, with CONTOUR_NODES per side
    in turn.  s_1..s_K are the power sums of the scaled roots.

    Returns (K, seeds), or (None, None) when no node count certifies K.
    ``seeds(found)`` takes the m found roots' power sums from s_1..s_{K-m}, and
    the roots of the monic polynomial those give (Newton's identities) seed the rest.
    """
    (re_lo, re_hi), (im_lo, im_hi) = region
    centre = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
    half_size = 0.5 * max(re_hi - re_lo, im_hi - im_lo)
    # counterclockwise from the lower left corner
    starts = np.array([complex(re_lo, im_lo), complex(re_hi, im_lo),
                       complex(re_hi, im_hi), complex(re_lo, im_hi)])
    half_sides = 0.5 * (np.roll(starts, -1) - starts)
    for n in CONTOUR_NODES:
        x, w = _gauss_legendre(n)
        lams = (starts + half_sides)[:, None] + half_sides[:, None] * x
        a, _, a_prime = scatter_many(signal, lams.ravel())
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = (a_prime / a).reshape(4, n) * half_sides[:, None] * w / (2j * np.pi)
        count = terms.sum()
        k = round(count.real) if np.isfinite(count) else -1
        if k < 0 or abs(count - k) > COUNT_TOL:
            continue
        z = (lams - centre) / half_size
        power_sums = [(terms * z**p).sum() for p in range(1, k + 1)]

        def seeds(found):
            z_found = (np.asarray(found, dtype=complex) - centre) / half_size
            rest = [s - (z_found**p).sum() for p, s in enumerate(power_sums[:k - len(found)], 1)]
            # Newton's identities: c_j = -(1/j) sum_{i=1..j} c_{j-i} s_i, c_0 = 1
            coeffs = [1.0 + 0j]
            for j in range(1, len(rest) + 1):
                coeffs.append(-sum(coeffs[j - i] * rest[i - 1] for i in range(1, j + 1)) / j)
            return centre + half_size * _poly_roots(coeffs)

        return k, seeds
    return None, None


def _newton(signal: SampledSignal, lams, box=((-np.inf, np.inf), np.inf)):
    """Newton's method on the discretized a from every lambda of ``lams``.

    Each of at most NEWTON_MAX_ITER iterations is one `scatter_many` over the
    lambdas still moving.  A lambda converges once its step is below STEP_TOL:
    it is then a fixed point of the iteration, whatever its seed.  It is dropped
    where a' is below APRIME_TOL or not finite (not stepped), or where its step
    leaves the upper half-plane or ``box`` = ((re_min, re_max), im_max) (stepped).

    Returns (lams, a_prime, converged): the last iterates, a' at the lambda
    each last step started from, and which converged.
    """
    lams = np.array(lams, dtype=complex)
    a_prime = np.zeros_like(lams)
    converged = np.zeros(len(lams), dtype=bool)
    (re_min, re_max), im_max = box
    active = np.arange(len(lams))
    for _ in range(NEWTON_MAX_ITER):
        if not active.size:
            break
        a, _, a_prime[active] = scatter_many(signal, lams[active])
        ok = (np.abs(a_prime[active]) >= APRIME_TOL) & np.isfinite(a) & np.isfinite(a_prime[active])
        active = active[ok]
        step = a[ok] / a_prime[active]
        lams[active] -= step
        new = lams[active]
        inside = (new.imag > 0.0) & (new.real >= re_min) & (new.real <= re_max) & (new.imag <= im_max)
        still = np.abs(step) >= STEP_TOL
        converged[active[inside & ~still]] = True
        active = active[inside & still]
    return lams, a_prime, converged


def _roots_from(signal: SampledSignal, seeds, region, found=()) -> list[complex]:
    """The distinct roots inside ``region`` among ``found`` (kept as is) and those Newton reaches from the
    finite ``seeds`` above the real axis, by real part, then by descending imaginary part within ORDER_TOL."""
    (re_lo, re_hi), (im_lo, im_hi) = region
    margin = 0.5 * (im_hi - im_lo) + 0.5
    box = ((re_lo - margin, re_hi + margin), im_hi + margin)
    lams, _, converged = _newton(signal, [s for s in seeds if np.isfinite(s) and s.imag > 0.0], box)
    merged: list[complex] = []
    for r in [*found, *sorted((complex(r) for r in lams[converged]), key=lambda r: (r.real, r.imag))]:
        if any(abs(r - m) < DEDUP_DISTANCE for m in merged):
            continue
        if re_lo - 1e-9 <= r.real <= re_hi + 1e-9 and im_lo < r.imag <= im_hi + 1e-9:
            merged.append(r)
    columns: list[list[complex]] = []
    for r in sorted(merged, key=lambda r: (r.real, r.imag)):  # a gap of ORDER_TOL starts a column
        if not columns or r.real - columns[-1][-1].real >= ORDER_TOL:
            columns.append([])
        columns[-1].append(r)
    return [r for column in columns for r in sorted(column, key=lambda r: -r.imag)]


def find_eigenvalues(
    signal: SampledSignal,
    region: tuple[tuple[float, float], tuple[float, float]] | None = None,
) -> list[complex]:
    """Locate simple upper-half-plane roots of a(lambda), counted by the
    argument principle and seeded from the same contour integral.

    One `scatter_many` at Gauss-Legendre nodes on the sides of the region,
    widened by the first of WIDEN_SHARES of its size that certifies a count,
    gives the count K of roots inside it and K seeds (`_contour_seeds`).
    Newton runs from the seeds to fixed points of the discretized a; while it
    has found m < K, it runs from K - m seeds with those m deflated out.  The
    K roots are then filtered to the region.

    Args:
        signal: sampled pulse, decaying at the grid edges.
        region: ((re_min, re_max), (im_min, im_max)) search rectangle, finite,
            with min < max on both axes and im_min >= 0; sized from the signal
            when omitted.

    Returns:
        Deduplicated converged roots inside the region by real part, then by
        descending imaginary part where real parts tie within ORDER_TOL,
        whatever the seeds.  No roots found is an empty list, not an error.

    Raises:
        EigenvalueCountError: no widened rectangle certifies a count, or a
            round of seeds adds no root before K are found.
    """
    if region is None:
        region = _default_region(signal)
    (re_lo, re_hi), (im_lo, im_hi) = region
    if not (np.isfinite(region).all() and re_lo < re_hi and 0.0 <= im_lo < im_hi):
        raise InvalidParameterError(f"region must be finite, lo < hi, im >= 0; got {region}")
    for share in WIDEN_SHARES:
        pad = share * max(re_hi - re_lo, im_hi - im_lo)
        contour = ((re_lo - pad, re_hi + pad), (max(0.0, im_lo - pad), im_hi + pad))
        count, seeds = _contour_seeds(signal, contour)
        if count is not None:
            break
    else:
        raise EigenvalueCountError(f"no contour around {region} certifies an eigenvalue count")
    roots: list[complex] = []
    while len(roots) < count:
        more = _roots_from(signal, seeds(roots), contour, roots)
        if len(more) == len(roots):
            raise EigenvalueCountError(f"the contour integral counts {count} eigenvalues in {contour}, "
                                       f"Newton from its deflated seeds finds {len(roots)}")
        roots = more
    return _roots_from(signal, (), region, roots)  # no seeds: filter and order


def discrete_amplitude(signal: SampledSignal, lams) -> np.ndarray:
    """Spectral amplitudes b(lambda_k) / a'(lambda_k) at a batch of eigenvalues.

    Each eigenvalue is first polished onto the root of the discretized a; the
    proportionality between the two Jost solutions (and with it the midpoint
    ratio for b) holds only there.  The polish is `find_eigenvalues`' Newton
    loop, run to a fixed point; a root it already found takes one step.  A
    polish that reaches no simple root raises `DegenerateRootError`.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    if np.any(lams.imag <= 0.0):
        raise InvalidParameterError(f"eigenvalues lie strictly above the real axis, got {lams}")
    roots, a_prime, converged = _newton(signal, lams)
    flat = np.abs(a_prime) < APRIME_TOL
    if flat.any():
        raise DegenerateRootError(f"a'({roots[flat]}) = {a_prime[flat]}; root is not simple")
    below = roots[roots.imag <= 0.0]
    if below.size:
        raise DegenerateRootError(f"polishing left the upper half-plane at {below}")
    if not converged.all():
        raise DegenerateRootError(f"no fixed point within {NEWTON_MAX_ITER} steps from {lams[~converged]}")
    return _bound_state_b(signal, roots) / a_prime


def recover_spectrum(signal: SampledSignal, region=None) -> DiscreteSpectrum:
    """Full inverse of synthesis: eigenvalues plus (eta, phi) parameters.

    The roots of `find_eigenvalues`, in its order, are measured by one
    `discrete_amplitude` call.  The amplitude at each equals
    ``eta * exp(j*phi) * qd_init`` for the synthesis convention of this
    package, so eta and phi follow by dividing out the canonical amplitude
    of the recovered eigenvalue set.
    """
    lams = np.array(find_eigenvalues(signal, region=region))
    if not lams.size:
        raise DegenerateSpectrumError("no eigenvalues found in the search region")
    shell = DiscreteSpectrum(lams.imag, lams.real)
    ref = np.array([qd_init(shell, k) for k in range(shell.n)])
    qd = discrete_amplitude(signal, lams)
    return DiscreteSpectrum(lams.imag, lams.real, abs(qd) / abs(ref), np.angle(qd / ref))
