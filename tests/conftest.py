"""Shared fixtures and independent oracles for the test suite."""

import numpy as np
import pytest

from soliton_tbp.darboux import auto_grid
from soliton_tbp.spectrum import DiscreteSpectrum


def naive_darboux(spectrum: DiscreteSpectrum, t: np.ndarray) -> np.ndarray:
    """Direct complex-arithmetic evaluation of the recursive synthesis.

    The update equations of the package, one eigenvalue pair at a time on
    a single row, without batching or log-domain stabilization; valid while
    exp(2*sigma*|t|) stays in range.  Serves as the independent oracle for
    both synthesis paths: the direct one through `synthesize_samples` and
    the stabilized one through `darboux._synthesize_log`.
    """
    lams = spectrum.lams
    etas = spectrum.etas
    phis = spectrum.phis
    n = spectrum.n
    rho = [
        etas[k]
        * np.exp(1j * phis[k])
        * np.exp(2j * lams[k].real * t)
        * np.exp(-2.0 * lams[k].imag * t)
        for k in range(n)
    ]
    q = np.zeros_like(t, dtype=complex)
    for j in range(n):
        p = rho[j]
        denom = 1.0 + np.abs(p) ** 2
        q = q + 2j * (lams[j] - np.conj(lams[j])) * np.conj(p) / denom
        cc = (lams[j] - np.conj(lams[j])) / denom
        for k in range(j + 1, n):
            num = (lams[k] - lams[j]) * rho[k] + cc * (rho[k] - p)
            den = lams[k] - np.conj(lams[j]) - cc * (1.0 + np.conj(p) * rho[k])
            rho[k] = num / den
    return q


def lean_grid(spectrum: DiscreteSpectrum, config):
    """The measurement grid `t_hat_b_hat` picks for ``spectrum`` at a single distance."""
    return auto_grid(spectrum, config.epsilon, boundary_clean=False)


def smallest_window_oracle(cells: np.ndarray, x0: float, dx: float, epsilon: float,
                           refine: int = 8) -> float:
    """Brute-force smallest (1-epsilon)-energy window width.

    Scans a dense grid of left edges and inverts the piecewise-linear
    cumulative for the matching right edge; accurate to dx/refine.
    """
    bounds = x0 + dx * np.arange(len(cells) + 1)
    cum = np.concatenate([[0.0], np.cumsum(cells)])
    capture = (1.0 - epsilon) * cum[-1]
    xs = np.linspace(bounds[0], bounds[-1], refine * len(cells) + 1)
    fx = np.interp(xs, bounds, cum)
    ok = fx + capture <= cum[-1]
    ys = np.interp(fx[ok] + capture, cum, bounds)
    return float(np.min(ys - xs[ok]))


def random_spectrum(rng, n=None, sigma_range=(0.3, 1.5), omega_range=(-1.0, 1.0),
                    dt_range=(-2.0, 2.0), min_gap=0.15, imaginary=False):
    """Random valid spectrum with a minimum pairwise eigenvalue distance."""
    if n is None:
        n = int(rng.integers(1, 4))
    while True:
        sig = np.sort(rng.uniform(*sigma_range, n))[::-1]
        om = np.zeros(n) if imaginary else rng.uniform(*omega_range, n)
        lam = om + 1j * sig
        if n == 1:
            break
        gaps = np.abs(np.subtract.outer(lam, lam))[~np.eye(n, dtype=bool)]
        if gaps.min() > min_gap:
            break
    dts = rng.uniform(*dt_range, n)
    phis = rng.uniform(0.0, 2.0 * np.pi, n)
    return DiscreteSpectrum.from_delta_t(sig, om, dts, phis)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
