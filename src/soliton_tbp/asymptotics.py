"""Closed-form tail machinery: duration/bandwidth approximations and bounds.

The recursive synthesis intermediates become, for |t| -> inf, linear
combinations of the seed exponentials with eigenvalue-only weights a[r, k]
(`tail_coefficients`).  Those weights give explicit exponential envelopes of
the pulse tails, closed-form duration estimates for the condensed
(equal-shift) regime, bandwidth estimates for the fully separated regime, and
a numerically minimized estimate of the smallest achievable time-bandwidth
product per eigenvalue (`lower_bound_curve`).  The envelope estimates
size every time grid through tail crossings (`exp_tail_crossing`), and
`tail_crossings` solves many at once, in lockstep, each as it would alone.

Conventions: the recursion assumes eigenvalues ordered by non-increasing
sigma; inputs are sorted internally (stable, so equal-sigma sets keep their
listed order) and the applied permutation is part of the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, InvalidParameterError
from .spectrum import DiscreteSpectrum

# Below this gap between the smallest sigma and any other, the log term of the
# condensed-regime duration estimate diverges and the estimate is meaningless.
SIGMA_GAP_TOL = 0.02

PI2 = math.pi**2


@dataclass(frozen=True)
class TailCoefficients:
    """Limit weights a[r, k] (nonzero for r <= k) and aggregates A_r.

    Attributes:
        a: (N, N) complex matrix, a[r, k] = weight of seed exponential r in
           the k-th fully-updated intermediate; zero for r > k.
        A: A[r] = |sum_k a[r, k]|.
        order: permutation applied to the input eigenvalues (non-increasing
           sigma, stable).
    """

    a: np.ndarray
    A: np.ndarray
    order: np.ndarray


def tail_coefficients(lams) -> TailCoefficients:
    """Run the |t| -> inf limit of the recursive update on an eigenvalue set."""
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    n = len(lams)
    for i in range(n):
        for m in range(i + 1, n):
            if abs(lams[i] - lams[m]) < 1e-12:
                raise DegenerateSpectrumError(f"eigenvalues {lams[i]} and {lams[m]} coincide")
    order = np.argsort(-lams.imag, kind="stable")
    lams = lams[order]
    sig = lams.imag

    a = np.eye(n, dtype=complex)
    for j in range(n - 1):
        for k in range(j + 1, n):
            a[:, k] = ((lams[k] - np.conj(lams[j])) * a[:, k] - 2j * sig[j] * a[:, j]) / (
                lams[k] - lams[j]
            )
    return TailCoefficients(a=a, A=np.abs(a.sum(axis=1)), order=order)


def t_lim_imaginary(sigmas, epsilon: float) -> float:
    """Duration estimate for equal-shift imaginary-eigenvalue pulses.

    ``(1/(2*s_N)) * (ln((2/eps) * s_N/sum(s)) + 2*sum_{k<N} ln|(s_N+s_k)/(s_N-s_k)|)``
    with s_N the smallest sigma.  Requires all sigmas separated by more than
    ``SIGMA_GAP_TOL`` from the smallest.
    """
    _check_epsilon(epsilon)
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    s_min = sigmas.min()
    others = np.delete(sigmas, np.argmin(sigmas))
    if not np.all(np.abs(others - s_min) > SIGMA_GAP_TOL):  # a NaN gap fails too
        raise DegenerateSpectrumError(
            f"sigmas {sigmas} not separated from the minimum by > {SIGMA_GAP_TOL}"
        )
    coupling = 2.0 * np.sum(np.log(np.abs((s_min + others) / (s_min - others))))
    return float(
        (math.log((2.0 / epsilon) * s_min / sigmas.sum()) + coupling) / (2.0 * s_min)
    )


def t_approx_real(sigma: float, omegas, etas, epsilon: float) -> float:
    """Duration estimate for a common-sigma constellation with scalings eta.

    ``(1/(2*sigma)) * ln((2/(N*eps)) * sum(eta_r*A_r) * sum(A_r/eta_r))``
    using the A_r aggregates from `tail_coefficients`.
    """
    _check_epsilon(epsilon)
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    if np.any(etas <= 0):
        raise ValueError("etas must be positive")
    n = len(omegas)
    tc = tail_coefficients(omegas + 1j * sigma)
    etas = etas[tc.order]
    s_plus = float(np.sum(etas * tc.A))
    s_minus = float(np.sum(tc.A / etas))
    return float(math.log((2.0 / (n * epsilon)) * s_plus * s_minus) / (2.0 * sigma))


def t_lim_real(sigma: float, omegas, epsilon: float) -> float:
    """Minimum of `t_approx_real` over the scalings (attained at equal eta)."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    return t_approx_real(sigma, omegas, np.ones(len(omegas)), epsilon)


def b_lim_imaginary(sigmas, epsilon: float) -> float:
    """Bandwidth estimate for an imaginary-eigenvalue pulse split into
    separated first-order components: ``(2*s_1/pi^2) * ln((2/eps)*s_1/sum(s))``
    with s_1 the largest sigma."""
    _check_epsilon(epsilon)
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    s_max = sigmas.max()
    return float((2.0 * s_max / PI2) * math.log((2.0 / epsilon) * s_max / sigmas.sum()))


def b_lim_real(sigma: float, omegas, epsilon: float) -> float:
    """Bandwidth estimate for a separated common-sigma constellation:
    ``(2*sigma/pi^2) * (ln(2/(eps*N)) + ln(sum(exp(pi*w/2s)) * sum(exp(-pi*w/2s))))``."""
    _check_epsilon(epsilon)
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    n = len(omegas)
    x = math.pi * omegas / (2.0 * sigma)
    cross = float(np.sum(np.exp(x)) * np.sum(np.exp(-x)))
    return float((2.0 * sigma / PI2) * (math.log(2.0 / (epsilon * n)) + math.log(cross)))


@dataclass(frozen=True)
class TailEnvelope:
    """Exponential envelopes of |q(t)| in both tails.

    Each side holds coefficient/decay-rate pairs: the right tail envelope is
    ``sum_r coeff[r] * exp(-rate[r] * t)`` as t -> +inf and the left tail is
    ``sum_r coeff[r] * exp(+rate[r] * t)`` as t -> -inf (rates positive).
    """

    right_coeffs: np.ndarray
    left_coeffs: np.ndarray
    rates: np.ndarray


def tail_envelope(spectrum: DiscreteSpectrum) -> TailEnvelope:
    """Phase-maximized tail envelopes of the synthesized pulse.

    In sorted (non-increasing sigma) order r, the right/left tail carries
    ``4 * eta_r^{+/-1} * |sum_{k>=r} sigma_k a[r,k]| * exp(-/+ 2*sigma_r*t)``.
    """
    return _tail_envelope(spectrum, tail_coefficients(spectrum.lams))


def _tail_envelope(spectrum: DiscreteSpectrum, tc: TailCoefficients) -> TailEnvelope:
    """`tail_envelope` from the `tail_coefficients` of the spectrum's eigenvalues."""
    sig = spectrum.sigmas[tc.order]
    etas = spectrum.etas[tc.order]
    weights = np.abs((sig[None, :] * tc.a).sum(axis=1))  # |sum_k sigma_k a[r, k]|
    return TailEnvelope(
        right_coeffs=4.0 * etas * weights,
        left_coeffs=4.0 * weights / etas,
        rates=2.0 * sig,
    )


def exp_tail_crossing(coeffs, rates, target: float) -> float:
    """Solve ``integral_T^inf (sum_r c_r e^{-a_r t})^2 dt = target`` for T.

    The integral is evaluated in closed form; the equation is solved with a
    bracketed root find on the log residual (monotone in T).  This is the
    one-lane case of `tail_crossings`.
    """
    return _solved(tail_crossings([(coeffs, rates, target)]))[0]


def tail_crossings(lanes) -> list:
    """`exp_tail_crossing` of each (coeffs, rates, target) lane, solved in lockstep.

    Returns one entry per lane: the root, or the exception the lane raised
    (ValueError for a target <= 0, vanishing coefficients or a NaN
    residual; ArithmeticError when the bracket or the iteration fails).
    Every lane runs its own `_tail_root` iteration, and each step evaluates
    the log residual of all active lanes with the same term count in one
    numpy expression.  The result is the single lane's bit for bit: the
    elementwise operations, the row-wise ``max`` and ``sum`` of a lane's
    terms and the scalar ``math.log`` are those of one lane alone.  Lanes
    are never padded to a common term count, because ``np.sum`` of 8 or
    more terms adds them pairwise rather than in order.
    """
    results = [None] * len(lanes)
    groups = {}  # term count -> [(lane, log terms, rate sums, log target)]
    for lane, (coeffs, rates, target) in enumerate(lanes):
        try:
            terms = _tail_terms(coeffs, rates, target)
        except ValueError as exc:
            results[lane] = exc
            continue
        groups.setdefault(terms[0].size, []).append((lane, *terms))
    for members in groups.values():
        owners, log_terms, rsum, log_targets = zip(*members)
        log_terms, rsum = np.array(log_terms), np.array(rsum)
        roots = [_tail_root() for _ in members]
        xs = [next(root) for root in roots]
        while roots:  # the lanes still searching, in step
            expo = log_terms - rsum * np.array(xs)[:, None]
            top = expo.max(axis=1)
            sums = np.exp(expo - top[:, None]).sum(axis=1)
            keep = []
            for k, (m, s) in enumerate(zip(top.tolist(), sums.tolist())):
                try:
                    xs[k] = roots[k].send(m + math.log(s) - log_targets[k])
                    keep.append(k)
                except StopIteration as stop:
                    results[owners[k]] = stop.value
                except (ArithmeticError, ValueError) as exc:
                    results[owners[k]] = exc
            if len(keep) < len(roots):
                log_terms, rsum = log_terms[keep], rsum[keep]
                owners, log_targets, roots, xs = ([v[k] for k in keep]
                                                  for v in (owners, log_targets, roots, xs))
    return results


def _solved(results) -> list:
    """The entries of ``results``, or the first exception among them raised."""
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def _tail_terms(coeffs, rates, target: float):
    """(log terms, rate sums, log target) of one crossing: its residual's pieces."""
    coeffs = np.asarray(coeffs, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if target <= 0:
        raise ValueError("target must be positive")
    keep = coeffs > 0
    coeffs, rates = coeffs[keep], rates[keep]
    if len(coeffs) == 0:
        raise ValueError("all envelope coefficients vanish")
    rsum = rates[:, None] + rates[None, :]
    log_terms = (np.log(coeffs)[:, None] + np.log(coeffs)[None, :] - np.log(rsum)).ravel()
    return log_terms, rsum.ravel(), math.log(target)


def _tail_root():
    """One crossing's search as a generator: yields each T and receives its log residual.

    The residual is monotone and falls in T.  The bracket grows from
    [0, 1] until the residual changes sign; its last residuals at lo and hi
    are the ones `_brent` starts from.
    """
    lo, hi = 0.0, 1.0
    f_lo = yield lo
    while f_lo < 0.0:
        lo -= max(1.0, abs(lo))
        if lo < -1e6:
            raise ArithmeticError("tail crossing bracket expansion failed (low side)")
        f_lo = yield lo
    f_hi = yield hi
    while f_hi > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise ArithmeticError("tail crossing bracket expansion failed (high side)")
        f_hi = yield hi
    return (yield from _brent(lo, hi, 1e-10, f_lo, f_hi))


_BRENTQ_RTOL = 4.0 * float(np.finfo(float).eps)
_BRENTQ_MAXITER = 100


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent 1973): `_brent` driven by f."""
    steps = _brent(xa, xb, xtol)
    try:
        x = next(steps)
        while True:
            x = steps.send(float(f(x)))
    except StopIteration as stop:
        return stop.value


def _brent(xa: float, xb: float, xtol: float, fa=None, fb=None):
    """Brent's method as a generator: yields each x and receives f(x); returns the root.

    A step-for-step port of scipy's ``Zeros/brentq.c`` behind
    ``scipy.optimize.brentq``, so it returns the same double for the same
    function, bracket and xtol at scipy's defaults (`_BRENTQ_RTOL`, its
    smallest accepted rtol, and 100 iterations).  The tail crossing sizes every grid,
    and this keeps the CLI from importing ``scipy.optimize`` for one call.
    ``fa`` and ``fb``, when given, are f(xa) and f(xb), which are then not
    asked for.  Like scipy, it returns an endpoint where f vanishes and
    raises ValueError when f is NaN or f(xa), f(xb) share a sign; it raises
    ArithmeticError where scipy raises RuntimeError (no convergence).
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = _not_nan(xpre, (yield xpre) if fa is None else fa)
    fcur = _not_nan(xcur, (yield xcur) if fb is None else fb)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENTQ_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _not_nan(xcur, (yield xcur))
    raise ArithmeticError(f"brentq did not converge in {_BRENTQ_MAXITER} iterations (at x={xcur!r})")


def _not_nan(x: float, fx: float) -> float:
    if math.isnan(fx):
        raise ValueError(f"the function value at x={x:.6g} is NaN")
    return fx


def envelope_duration(spectrum: DiscreteSpectrum, epsilon: float) -> tuple[float, float]:
    """(T-, T+) such that each tail envelope holds epsilon/2 of the energy.

    General-spectrum duration estimate built from `tail_envelope`; reduces to
    the closed-form imaginary/common-sigma estimates in their regimes.
    """
    _check_epsilon(epsilon)
    lanes = _duration_lanes(spectrum, epsilon, tail_coefficients(spectrum.lams))
    return _edges(_solved(tail_crossings(lanes)))


def _duration_lanes(spectrum: DiscreteSpectrum, epsilon: float, tc: TailCoefficients):
    """The (right, left) `tail_crossings` lanes of `envelope_duration`, given `tail_coefficients`."""
    env = _tail_envelope(spectrum, tc)
    target = 0.5 * epsilon * spectrum.energy
    return [(env.right_coeffs, env.rates, target), (env.left_coeffs, env.rates, target)]


def _edges(crossings) -> tuple[float, float]:
    """(lower, upper) edge of a pair of (right, left) tail crossings."""
    right, left = crossings
    return -left, right


def envelope_bandwidth(spectrum: DiscreteSpectrum, epsilon: float) -> tuple[float, float]:
    """(B-, B+) from the separated-component spectral envelope tails."""
    _check_epsilon(epsilon)
    return _edges(_solved(tail_crossings(_bandwidth_lanes(spectrum, epsilon))))


def _bandwidth_lanes(spectrum: DiscreteSpectrum, epsilon: float):
    """The (right, left) `tail_crossings` lanes of `envelope_bandwidth`."""
    sig = spectrum.sigmas
    om = spectrum.omegas
    rates = PI2 / (2.0 * sig)
    target = 0.5 * epsilon * spectrum.energy
    # sech tail ~ 2 exp(-|arg|); the component centered at -omega_k/pi shifts it
    right = 2.0 * math.pi * np.exp(-rates * om / math.pi)
    left = 2.0 * math.pi * np.exp(rates * om / math.pi)
    return [(right, rates, target), (left, rates, target)]


@dataclass(frozen=True)
class BoundPoint:
    n: int
    normalized_bound: float
    params: tuple[float, ...]
    converged: bool = True


def _single_soliton_product(epsilon: float) -> float:
    # T*B of one soliton from the two estimates; sigma-independent.
    return math.log(2.0 / epsilon) ** 2 / PI2


def _too_close(x):
    return len(x) > 1 and np.min(np.abs(np.subtract.outer(x, x))[~np.eye(len(x), dtype=bool)]) < 1e-4


def _imag_objective(free_sigmas, epsilon):
    sig = np.concatenate([np.asarray(free_sigmas, dtype=float), [0.5]])
    if np.any(sig[:-1] <= 0.5 + SIGMA_GAP_TOL) or np.any(sig > 20.0):
        return math.inf
    if _too_close(sig):
        return math.inf
    try:
        return t_lim_imaginary(sig, epsilon) * b_lim_imaginary(sig, epsilon)
    except (DegenerateSpectrumError, ValueError):
        return math.inf


def _real_objective(free_omegas, epsilon):
    om = np.concatenate([np.asarray(free_omegas, dtype=float), [0.0]])
    if np.any(np.abs(om) > 20.0):
        return math.inf
    if _too_close(om):
        return math.inf
    return t_lim_real(0.5, om, epsilon) * b_lim_real(0.5, om, epsilon)


def _minimize_multistart(objective, starts):
    from scipy.optimize import minimize  # only `bound` and `figures` get here

    best_x, best_f, converged = None, math.inf, False
    for x0 in starts:
        x0 = np.asarray(x0, dtype=float)
        if objective(x0) == math.inf:
            continue
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"xatol": 1e-6, "fatol": 1e-10, "maxiter": 4000})
        if res.fun < best_f:
            best_x, best_f, converged = res.x, float(res.fun), bool(res.success)
    return best_x, best_f, converged


def lower_bound_curve(n_max: int, constellation: str, epsilon: float = 1e-4) -> tuple[BoundPoint, ...]:
    """Minimize the duration*bandwidth estimate per eigenvalue for each order.

    For the imaginary family the free parameters are the sigmas above the
    pinned smallest one (0.5); for the real-axis family the frequency offsets
    with one pinned to 0 and sigma = 0.5.  Coarse multi-start seeds feed a
    Nelder-Mead refinement.  Returns one `BoundPoint` per order 1..n_max,
    normalized so the N=1 entry is 1; non-convergence is flagged on the entry.
    """
    if n_max < 1:
        raise InvalidParameterError("n_max must be >= 1")
    if constellation not in ("imaginary", "real_axis"):
        raise InvalidParameterError(f"unknown constellation {constellation!r}")
    _check_epsilon(epsilon)
    ref = _single_soliton_product(epsilon)
    entries = [BoundPoint(1, 1.0, (0.5,) if constellation == "imaginary" else (0.0,))]
    prev_x = None
    for n in range(2, n_max + 1):
        k = n - 1
        if constellation == "imaginary":
            objective = lambda x: _imag_objective(x, epsilon) / n
            starts = [0.5 + step * np.arange(k, 0, -1) for step in (0.05, 0.1, 0.2, 0.4)]
            if prev_x is not None:
                starts.append(np.sort(np.concatenate([prev_x, [prev_x.min() * 0.5 + 0.35]]))[::-1])
            pinned = (0.5,)
        else:
            objective = lambda x: _real_objective(x, epsilon) / n
            starts = [step * np.arange(1, k + 1, dtype=float) for step in (0.2, 0.5, 1.0)]
            starts.append(np.linspace(-0.5 * k, 0.5 * k, k) + 0.123)
            if prev_x is not None:
                starts.append(np.concatenate([prev_x, [np.max(np.abs(prev_x)) + 0.6]]))
            pinned = (0.0,)
        x, f, ok = _minimize_multistart(objective, starts)
        if x is None:
            entries.append(BoundPoint(n, math.nan, (), converged=False))
            continue
        prev_x = x
        entries.append(BoundPoint(n, f / ref, tuple(float(v) for v in x) + pinned, converged=ok))
    return tuple(entries)


def _check_epsilon(epsilon):
    if not (0.0 < epsilon < 1.0):
        raise InvalidParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
