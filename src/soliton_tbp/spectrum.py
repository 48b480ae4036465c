"""Discrete nonlinear spectrum data model and its exact transformations.

An N-soliton is described by N pairs of eigenvalue ``lambda_k = omega_k +
j*sigma_k`` (upper half-plane) and spectral amplitude, parametrized here by a
positive scaling ``eta_k`` and a phase ``phi_k``.  The canonical amplitude

    qd_init(k) = (lambda_k - conj(lambda_k))
                 * prod_{m != k} (lambda_k - conj(lambda_m)) / (lambda_k - lambda_m)

fixes the reference against which ``eta_k`` and ``phi_k`` are measured: the
complex amplitude carried into synthesis is ``eta_k * exp(j*phi_k) *
qd_init(k)``.  With this phase convention all six invariance transformations
(`transform`) hold as exact signal identities, and ``eta_k`` equals the
magnitude of the scattering coefficient b(lambda_k) of the synthesized pulse.

Everything in this module is an immutable value; operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, InvalidParameterError

# Minimum pairwise eigenvalue distance; below this the synthesis and the
# canonical-amplitude products divide by ~0.
DISTINCTNESS_TOL = 1e-6
# Largest |omega| of an eigenvalue that counts as on the imaginary axis.
IMAGINARY_TOL = 1e-12

TWO_PI = 2.0 * math.pi


def _wrap_phase(phi: float) -> float:
    """Normalize a phase into [0, 2*pi)."""
    phi = math.fmod(float(phi), TWO_PI)
    if phi < 0.0:
        phi += TWO_PI
    # fmod can return exactly TWO_PI after the correction for tiny negatives
    if phi >= TWO_PI:
        phi -= TWO_PI
    return phi


@dataclass(frozen=True)
class Eigenvalue:
    """Discrete eigenvalue ``omega + j*sigma`` strictly in the upper half-plane.

    Attributes:
        sigma: imaginary part, > 0 (dimensionless normalized units).
        omega: real part (dimensionless).
    """

    sigma: float
    omega: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "omega", float(self.omega))
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if not math.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")

    @property
    def lam(self) -> complex:
        return complex(self.omega, self.sigma)


@dataclass(frozen=True)
class SpectralAmplitude:
    """Amplitude scaling ``eta`` > 0 and phase ``phi``, stored in [0, 2*pi)."""

    eta: float = 1.0
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "phi", float(self.phi))
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        object.__setattr__(self, "phi", _wrap_phase(self.phi))


@dataclass(frozen=True)
class DiscreteSpectrum:
    """Ordered list of (Eigenvalue, SpectralAmplitude) pairs, N >= 1.

    All eigenvalues must be pairwise distinct by at least
    ``DISTINCTNESS_TOL`` in complex distance.
    """

    entries: tuple[tuple[Eigenvalue, SpectralAmplitude], ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) < 1:
            raise ValueError("spectrum needs at least one entry")
        lams = [ev.lam for ev, _ in entries]
        for i in range(len(lams)):
            for m in range(i + 1, len(lams)):
                if abs(lams[i] - lams[m]) < DISTINCTNESS_TOL:
                    raise DegenerateSpectrumError(
                        f"eigenvalues {lams[i]} and {lams[m]} closer than "
                        f"{DISTINCTNESS_TOL}"
                    )

    @classmethod
    def from_arrays(cls, sigmas, omegas=None, etas=None, phis=None) -> "DiscreteSpectrum":
        sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
        n = len(sigmas)
        omegas = np.zeros(n) if omegas is None else np.atleast_1d(np.asarray(omegas, dtype=float))
        etas = np.ones(n) if etas is None else np.atleast_1d(np.asarray(etas, dtype=float))
        phis = np.zeros(n) if phis is None else np.atleast_1d(np.asarray(phis, dtype=float))
        if not (len(omegas) == len(etas) == len(phis) == n):
            raise ValueError("sigma/omega/eta/phi arrays must have equal length")
        return cls(
            tuple(
                (Eigenvalue(s, w), SpectralAmplitude(e, p))
                for s, w, e, p in zip(sigmas, omegas, etas, phis)
            )
        )

    @classmethod
    def from_delta_t(cls, sigmas, omegas=None, delta_ts=None, phis=None) -> "DiscreteSpectrum":
        """Build a spectrum with ``eta_k = exp(2*sigma_k*delta_t_k)``."""
        sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
        delta_ts = np.zeros(len(sigmas)) if delta_ts is None else np.atleast_1d(
            np.asarray(delta_ts, dtype=float)
        )
        etas = np.exp(2.0 * sigmas * delta_ts)
        return cls.from_arrays(sigmas, omegas, etas, phis)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def sigmas(self) -> np.ndarray:
        return np.array([ev.sigma for ev, _ in self.entries])

    @property
    def omegas(self) -> np.ndarray:
        return np.array([ev.omega for ev, _ in self.entries])

    @property
    def etas(self) -> np.ndarray:
        return np.array([amp.eta for _, amp in self.entries])

    @property
    def phis(self) -> np.ndarray:
        return np.array([amp.phi for _, amp in self.entries])

    @property
    def lams(self) -> np.ndarray:
        return self.omegas + 1j * self.sigmas

    @property
    def delta_ts(self) -> np.ndarray:
        return np.log(self.etas) / (2.0 * self.sigmas)

    @property
    def energy(self) -> float:
        """Pulse energy of the synthesized signal, 4*sum(sigma_k)."""
        return float(4.0 * self.sigmas.sum())

    def is_imaginary(self) -> bool:
        return bool(np.all(np.abs(self.omegas) <= IMAGINARY_TOL))


@dataclass(frozen=True)
class PhysicalScaling:
    """Fiber constants mapping normalized quantities to physical ones.

    Attributes:
        beta2: chromatic dispersion in s^2/m, < 0 (anomalous).
        gamma: Kerr nonlinearity in 1/(W*m), > 0.
        T0: time scale in s, > 0.
    """

    beta2: float
    gamma: float
    T0: float

    def __post_init__(self):
        for name in ("beta2", "gamma", "T0"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (math.isfinite(self.beta2) and self.beta2 < 0.0):
            raise ValueError(f"beta2 must be finite and < 0, got {self.beta2}")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if not (math.isfinite(self.T0) and self.T0 > 0.0):
            raise ValueError(f"T0 must be finite and > 0, got {self.T0}")

    @property
    def p0(self) -> float:
        """Peak-power scale |beta2| / (gamma * T0^2) in W."""
        return abs(self.beta2) / (self.gamma * self.T0**2)

    def physical_distance(self, z: float) -> float:
        """Map a normalized distance z to meters."""
        return z * 2.0 * self.T0**2 / abs(self.beta2)


def qd_init(spectrum: DiscreteSpectrum, k: int) -> complex:
    """Canonical spectral amplitude of entry k (0-based).

    Evaluates ``(lam_k - conj(lam_k)) * prod_{m != k} (lam_k - conj(lam_m)) /
    (lam_k - lam_m)``.
    """
    lams = spectrum.lams
    if not 0 <= k < spectrum.n:
        raise IndexError(f"entry index {k} out of range for N={spectrum.n}")
    lk = lams[k]
    value = lk - np.conj(lk)
    for m in range(spectrum.n):
        if m == k:
            continue
        value *= (lk - np.conj(lams[m])) / (lk - lams[m])
    return complex(value)


def qd_value(spectrum: DiscreteSpectrum, k: int) -> complex:
    """Modulated spectral amplitude ``eta_k * |qd_init(k)| * exp(j*phi_k)``."""
    _, amp = spectrum.entries[k] if 0 <= k < spectrum.n else (None, None)
    if amp is None:
        raise IndexError(f"entry index {k} out of range for N={spectrum.n}")
    return amp.eta * abs(qd_init(spectrum, k)) * complex(math.cos(amp.phi), math.sin(amp.phi))


def delta_t(eigenvalue: Eigenvalue, eta: float) -> float:
    """Temporal shift ``ln(eta) / (2*sigma)`` of one solitonic component."""
    if not (math.isfinite(eta) and eta > 0.0):
        raise ValueError(f"eta must be finite and > 0, got {eta}")
    return math.log(eta) / (2.0 * eigenvalue.sigma)


def eta_of(eigenvalue: Eigenvalue, dt: float) -> float:
    """Inverse of `delta_t`: ``eta = exp(2*sigma*dt)``."""
    return math.exp(2.0 * eigenvalue.sigma * dt)


def evolve(spectrum: DiscreteSpectrum, z: float) -> DiscreteSpectrum:
    """Propagate the spectrum a normalized distance z (negative z allowed).

    Each amplitude picks up exp(-4j*lam_k^2*z):
    ``eta_k *= exp(8*sigma_k*omega_k*z)`` and
    ``phi_k -= 4*(omega_k^2 - sigma_k^2)*z`` (mod 2*pi).
    Eigenvalues are invariant.
    """
    if not math.isfinite(z):
        raise InvalidParameterError(f"z must be finite, got {z}")
    new_entries = []
    for ev, amp in spectrum.entries:
        growth = 8.0 * ev.sigma * ev.omega * z
        log_eta = math.log(amp.eta) + growth
        if log_eta > 700.0:  # exp would overflow; never clamp silently
            raise OverflowError(
                f"eta overflow for eigenvalue {ev.lam} at z={z} (log eta = {log_eta:.1f})"
            )
        eta = math.exp(log_eta)
        phi = amp.phi - 4.0 * (ev.omega**2 - ev.sigma**2) * z
        new_entries.append((ev, SpectralAmplitude(eta, phi)))
    return DiscreteSpectrum(tuple(new_entries))


TRANSFORM_KINDS = (
    "global_phase",
    "time_shift",
    "dilate",
    "freq_shift",
    "time_reverse",
    "conjugate",
)


def transform(spectrum: DiscreteSpectrum, kind: str, parameter: float | None = None) -> DiscreteSpectrum:
    """Apply one of the product-preserving spectrum transformations.

    Kinds and their parameter maps (the synthesized signal transforms
    correspondingly, see module docstring):

    - ``global_phase(phi0)``:  phi_k -> phi_k - phi0        (signal * exp(j*phi0))
    - ``time_shift(t0)``:      eta_k -> exp(2*sigma_k*t0)*eta_k,
                               phi_k -> phi_k - 2*omega_k*t0 (signal shifted to t-t0)
    - ``dilate(sigma0)``:      lam_k -> lam_k / sigma0       (signal (1/s0)q(t/s0)), sigma0 > 0
    - ``freq_shift(omega0)``:  omega_k -> omega_k - omega0   (signal * exp(2j*omega0*t))
    - ``time_reverse``:        eta_k -> 1/eta_k, omega_k -> -omega_k  (signal q(-t))
    - ``conjugate``:           phi_k -> -phi_k, omega_k -> -omega_k   (signal conj(q)(t))
    """
    if kind not in TRANSFORM_KINDS:
        raise ValueError(f"unknown transform kind {kind!r}")
    needs_param = kind in ("global_phase", "time_shift", "dilate", "freq_shift")
    if needs_param and parameter is None:
        raise ValueError(f"transform {kind!r} requires a parameter")
    out = []
    for ev, amp in spectrum.entries:
        if kind == "global_phase":
            out.append((ev, SpectralAmplitude(amp.eta, amp.phi - parameter)))
        elif kind == "time_shift":
            log_eta = math.log(amp.eta) + 2.0 * ev.sigma * parameter
            if log_eta > 700.0:
                raise OverflowError(f"eta overflow in time_shift(t0={parameter})")
            out.append(
                (ev, SpectralAmplitude(math.exp(log_eta), amp.phi - 2.0 * ev.omega * parameter))
            )
        elif kind == "dilate":
            if not parameter > 0.0:
                raise ValueError(f"dilate requires sigma0 > 0, got {parameter}")
            out.append((Eigenvalue(ev.sigma / parameter, ev.omega / parameter), amp))
        elif kind == "freq_shift":
            out.append((Eigenvalue(ev.sigma, ev.omega - parameter), amp))
        elif kind == "time_reverse":
            out.append((Eigenvalue(ev.sigma, -ev.omega), SpectralAmplitude(1.0 / amp.eta, amp.phi)))
        else:  # conjugate
            out.append((Eigenvalue(ev.sigma, -ev.omega), SpectralAmplitude(amp.eta, -amp.phi)))
    return DiscreteSpectrum(tuple(out))


def denormalize(signal, scaling: PhysicalScaling):
    """Map a normalized sampled signal to physical units.

    The physical envelope is ``sqrt(P0) * q(tau/T0)`` on the time axis
    ``tau = t*T0`` (seconds), amplitudes in sqrt(W).
    """
    from .darboux import SampledSignal, TimeGrid

    grid = TimeGrid(
        t_start=signal.grid.t_start * scaling.T0,
        dt=signal.grid.dt * scaling.T0,
        n_samples=signal.grid.n_samples,
    )
    return SampledSignal(grid=grid, samples=signal.samples * math.sqrt(scaling.p0))
