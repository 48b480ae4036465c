"""Reference computations written independently of the package under test.

Nothing here imports ``soliton_tbp``.  The benchmark compares the CLI's
outputs against these: a direct (unstabilized) evaluation of the Darboux
recursion, a smallest-energy-window search by binary search on the
cumulative energy, a unitary-DFT bandwidth, the canonical spectral
amplitude, the closed-form spectral evolution and a CSV/YAML reader.
"""

from __future__ import annotations

import math

import numpy as np
import yaml

EPSILON = 1e-4

# Published optima (Table 1: imaginary axis, Table 2: parallel to the real
# axis).  The smallest sigma is pinned to 0.5 and the last shift to 0.
TABLE1 = {
    2: {"sigmas": (0.58, 0.5), "dts": (2.0, 0.0), "ratio": 0.89},
    3: {"sigmas": (0.7, 0.62, 0.5), "dts": (-2.85, 1.05, 0.0), "ratio": 0.84},
}
TABLE2_N2 = {"omega_1": 0.075, "dt_1": -0.9, "ratio": 0.74}


def spectrum_yaml(sigmas, omegas, dts, phis) -> str:
    """Spectrum document in the CLI's schema; eta_k = exp(2 sigma_k dt_k)."""
    lines = [f"n: {len(sigmas)}", "entries:"]
    for s, w, d, p in zip(sigmas, omegas, dts, phis):
        eta = math.exp(2.0 * s * d)
        lines.append(f"- {{sigma: {float(s)!r}, omega: {float(w)!r}, "
                     f"eta: {eta!r}, phi: {float(p)!r}}}")
    return "\n".join(lines) + "\n"


def read_spectrum_yaml(text: str):
    """(lams, amplitudes eta*exp(j*phi)) of a spectrum document."""
    doc = yaml.safe_load(text)
    entries = doc["entries"]
    if doc["n"] != len(entries):
        raise ValueError("n does not match the entries")
    lams = np.array([e["omega"] + 1j * e["sigma"] for e in entries])
    amps = np.array([e["eta"] * np.exp(1j * e["phi"]) for e in entries])
    return lams, amps


def read_signal_csv(text: str):
    """(t, q) of a ``t,re,im,abs`` signal table."""
    lines = text.splitlines()
    if lines[0] != "t,re,im,abs":
        raise ValueError("unexpected signal header")
    data = np.array([[float(v) for v in row.split(",")[:3]] for row in lines[1:]])
    return data[:, 0], data[:, 1] + 1j * data[:, 2]


def energy(t, q) -> float:
    return float(np.sum(np.abs(q) ** 2) * (t[1] - t[0]))


def canonical_amplitude(lams, k: int) -> complex:
    """(l_k - conj l_k) * prod_{m != k} (l_k - conj l_m) / (l_k - l_m)."""
    lk = lams[k]
    value = lk - np.conj(lk)
    for m, lm in enumerate(lams):
        if m != k:
            value *= (lk - np.conj(lm)) / (lk - lm)
    return complex(value)


def evolved_amplitude(lams, amps, k: int, z: float) -> complex:
    """Scattering amplitude b_k(z) = b_k(0) exp(-4j lambda_k^2 z)."""
    b0 = amps[k] * canonical_amplitude(lams, k)
    return complex(b0 * np.exp(-4j * lams[k] ** 2 * z))


def darboux_direct(lams, etas, phis, t) -> np.ndarray:
    """Direct complex-arithmetic Darboux recursion, batched over phase rows.

    ``phis`` has shape (C, N); returns (C, len(t)).  Valid while
    exp(2 sigma |t|) squared stays inside the double range.
    """
    lams = np.asarray(lams, dtype=complex)
    phis = np.atleast_2d(phis)
    rho = [etas[k] * np.exp(1j * phis[:, k, None]) * np.exp(2j * lams[k] * t)[None, :]
           for k in range(len(lams))]
    q = np.zeros(rho[0].shape, dtype=complex)
    for j, lj in enumerate(lams):
        p = rho[j]
        denom = 1.0 + np.abs(p) ** 2
        q += 2j * (lj - np.conj(lj)) * np.conj(p) / denom
        cc = (lj - np.conj(lj)) / denom
        for k in range(j + 1, len(lams)):
            lk = lams[k]
            rho[k] = ((lk - lj) * rho[k] + cc * (rho[k] - p)) / (
                lk - np.conj(lj) - cc * (1.0 + np.conj(p) * rho[k]))
    return q


def smallest_window(cells: np.ndarray, dx: float, epsilon: float = EPSILON) -> float:
    """Width of the smallest interval holding (1-epsilon) of sum(cells).

    Each cell carries uniform density over width dx.  For every cell
    boundary taken as the left (or right) edge, the opposite edge follows by
    binary search on the cumulative energy and linear interpolation inside
    the cell it lands in.
    """
    cum = np.concatenate([[0.0], np.cumsum(cells)])
    capture = (1.0 - epsilon) * cum[-1]
    best = math.inf
    left = np.nonzero(cum + capture <= cum[-1])[0]
    target = cum[left] + capture
    j = np.searchsorted(cum, target, side="left")
    right = (j - 1) + (target - cum[j - 1]) / (cum[j] - cum[j - 1])
    best = min(best, float(np.min(right - left)))
    right_edges = np.nonzero(cum >= capture)[0]
    target = cum[right_edges] - capture
    i = np.searchsorted(cum, target, side="right") - 1
    lo = i + (target - cum[i]) / (cum[i + 1] - cum[i])
    best = min(best, float(np.min(right_edges - lo)))
    return best * dx


def duration_and_bandwidth(t, q, epsilon: float = EPSILON) -> tuple[float, float]:
    """Energy-window duration and unitary-DFT bandwidth of one sampled pulse."""
    dt = float(t[1] - t[0])
    df = 1.0 / (len(t) * dt)
    spectrum = np.abs(np.fft.fftshift(np.fft.fft(q))) * dt
    return (smallest_window(np.abs(q) ** 2 * dt, dt, epsilon),
            smallest_window(spectrum**2 * df, df, epsilon))


# Oracle grid: [-102.4, 102.4) at dt = 0.025.  It holds every Table-1 pulse
# with its tails below 1e-40 and resolves the bandwidth to df = 1/204.8;
# |rho|^2 ~ exp(4 sigma |t|) stays below 1e130 for sigma <= 0.7 there.
ORACLE_T = -102.4 + 0.025 * np.arange(8192)


def self_check() -> dict:
    """Validate the oracles on q = 2 sigma sech(2 sigma t) before use.

    The smallest (1-epsilon) window of a first-order soliton is
    artanh(1-epsilon)/sigma, and its T*B is the 9.9 +- 0.1 anchor.
    """
    sigma = 0.5
    q = darboux_direct([1j * sigma], [1.0], [[0.0]], ORACLE_T)[0]
    exact = 2.0 * sigma / np.cosh(2.0 * sigma * ORACLE_T)
    shape_err = float(np.max(np.abs(np.abs(q) - exact)))
    t_width, b_width = duration_and_bandwidth(ORACLE_T, q)
    t_exact = math.atanh(1.0 - EPSILON) / sigma
    report = {"shape_err": shape_err, "T": t_width, "T_exact": t_exact, "TB": t_width * b_width}
    if not (shape_err < 1e-12 and abs(t_width - t_exact) < 1e-3 * t_exact
            and abs(t_width * b_width - 9.9) <= 0.1):
        raise AssertionError(f"oracle self-check failed: {report}")
    return report


def phase_grid_brute_force(n: int = 3, m: int = 16, chunk: int = 32) -> tuple[float, float]:
    """Maxima of T and B of the Table-1 optimum over the M=m phase grid.

    The last phase is pinned to 0 (a global phase changes no magnitude), so
    m**(n-1) pulses are synthesized directly on `ORACLE_T`.
    """
    row = TABLE1[n]
    sigmas = np.array(row["sigmas"])
    etas = np.exp(2.0 * sigmas * np.array(row["dts"]))
    free = np.stack(np.meshgrid(*([np.arange(m)] * (n - 1)), indexing="ij"), -1).reshape(-1, n - 1)
    phis = np.concatenate([2.0 * math.pi * free / m, np.zeros((len(free), 1))], axis=1)
    t_max = b_max = -math.inf
    for start in range(0, len(phis), chunk):
        block = darboux_direct(1j * sigmas, etas, phis[start:start + chunk], ORACLE_T)
        for q in block:
            t_w, b_w = duration_and_bandwidth(ORACLE_T, q)
            t_max, b_max = max(t_max, t_w), max(b_max, b_w)
    return t_max, b_max
