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


# the fields of a spectrum in row order, with the default and the exclusive
# lower bound of each
_FIELDS = (("sigma", None, 0.0), ("omega", 0.0, -math.inf), ("eta", 1.0, 0.0),
           ("phi", 0.0, -math.inf))
_FLOORS = np.array([[floor] for _, _, floor in _FIELDS])


def _check_and_wrap(table: np.ndarray, first: int = 0):
    """Raise ValueError unless the rows of a (4, N) field table from ``first`` on are valid.

    Then wrap its phase row into [0, 2*pi), in place.
    """
    bad = ~(np.isfinite(table[first:]) & (table[first:] > _FLOORS[first:]))
    if bad.any():
        row, k = np.argwhere(bad)[0]
        name, _, floor = _FIELDS[first + row]
        rule = "finite" if floor == -math.inf else f"finite and > {floor:g}"
        raise ValueError(f"{name} must be {rule}, got {table[first + row, k]}")
    phis = table[3]
    np.fmod(phis, TWO_PI, out=phis)
    phis[phis < 0.0] += TWO_PI
    # fmod can return exactly TWO_PI after the correction for tiny negatives
    phis[phis >= TWO_PI] -= TWO_PI


def _store(spectrum: "DiscreteSpectrum", table: np.ndarray):
    """Freeze a checked field table and make its rows the spectrum's four fields."""
    table.flags.writeable = False
    for row, (name, _, _) in enumerate(_FIELDS):
        object.__setattr__(spectrum, name + "s", table[row])


@dataclass(frozen=True, eq=False)
class DiscreteSpectrum:
    """N >= 1 eigenvalues ``omega_k + j*sigma_k`` and amplitudes ``(eta_k, phi_k)``.

    The four fields are read-only float arrays of length N, copied from the
    arguments.  ``omegas`` defaults to zeros, ``etas`` to ones and ``phis`` to
    zeros.  sigma and eta are finite and > 0, omega and phi finite, and phases
    are stored wrapped into [0, 2*pi).  All eigenvalues must be pairwise
    distinct by at least ``DISTINCTNESS_TOL`` in complex distance.  Two
    spectra are equal when their four arrays are; a spectrum is not hashable.
    """

    sigmas: np.ndarray
    omegas: np.ndarray | None = None
    etas: np.ndarray | None = None
    phis: np.ndarray | None = None

    def __post_init__(self):
        n = len(np.atleast_1d(self.sigmas))
        # the fields become the rows of one read-only (4, N) copy, so a
        # caller's array (or a view such as lams.imag) is neither aliased nor frozen
        table = np.empty((4, n))
        for row, (name, default, _) in enumerate(_FIELDS):
            value = getattr(self, name + "s")
            value = default if value is None else np.atleast_1d(np.asarray(value, dtype=float))
            if np.shape(value) not in ((), (n,)):
                raise ValueError("sigma/omega/eta/phi arrays must have equal length")
            table[row] = value
        if n < 1:
            raise ValueError("spectrum needs at least one entry")
        _check_and_wrap(table)
        lams = (table[1] + 1j * table[0]).tolist()
        for i in range(n):
            for m in range(i + 1, n):
                if abs(lams[i] - lams[m]) < DISTINCTNESS_TOL:
                    raise DegenerateSpectrumError(
                        f"eigenvalues {lams[i]} and {lams[m]} closer than {DISTINCTNESS_TOL}"
                    )
        _store(self, table)

    def _with_amplitudes(self, etas, phis) -> "DiscreteSpectrum":
        """This spectrum's eigenvalues with amplitudes ``etas`` and ``phis``, checked and wrapped.

        The amplitudes are checked and the phases wrapped as in the
        constructor; the eigenvalues, and so their distinctness, are this
        spectrum's and are not checked again.
        """
        table = np.array([self.sigmas, self.omegas, etas, phis], dtype=float)
        _check_and_wrap(table, first=2)
        spectrum = object.__new__(DiscreteSpectrum)
        _store(spectrum, table)
        return spectrum

    def __eq__(self, other):
        if not isinstance(other, DiscreteSpectrum):
            return NotImplemented
        return all(np.array_equal(getattr(self, name + "s"), getattr(other, name + "s"))
                   for name, _, _ in _FIELDS)

    @classmethod
    def from_delta_t(cls, sigmas, omegas=None, delta_ts=None, phis=None) -> "DiscreteSpectrum":
        """Build a spectrum with ``eta_k = exp(2*sigma_k*delta_t_k)``."""
        sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
        delta_ts = np.zeros(sigmas.shape) if delta_ts is None else np.atleast_1d(
            np.asarray(delta_ts, dtype=float))
        if delta_ts.shape != sigmas.shape:  # numpy would broadcast one shift to all
            raise ValueError("sigma/delta_t arrays must have equal length")
        return cls(sigmas, omegas, np.exp(2.0 * sigmas * delta_ts), phis)

    @property
    def n(self) -> int:
        return len(self.sigmas)

    @property
    def lams(self) -> np.ndarray:
        return self.omegas + 1j * self.sigmas

    @property
    def delta_ts(self) -> np.ndarray:
        """Temporal shifts ``ln(eta_k) / (2*sigma_k)`` of the components."""
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


def _shift_amplitudes(spectrum: DiscreteSpectrum, gains, steps, where: str) -> DiscreteSpectrum:
    """The spectrum with ``eta_k *= exp(gains[k])`` and ``phi_k -= steps[k]``, entry by entry.

    Scalar math.log/exp and float ** 2 round differently from their numpy
    array forms, and shifted spectra are written to files byte for byte.
    """
    etas, phis = [], []
    rows = zip(spectrum.sigmas.tolist(), spectrum.omegas.tolist(), spectrum.etas.tolist(),
               spectrum.phis.tolist(), gains, steps)
    for sigma, omega, eta, phi, gain, step in rows:
        log_eta = math.log(eta) + gain
        if log_eta > 700.0:  # exp would overflow; never clamp silently
            raise OverflowError(f"eta overflow for eigenvalue {complex(omega, sigma)} {where} "
                                f"(log eta = {log_eta:.1f})")
        etas.append(math.exp(log_eta))
        phis.append(phi - step)
    return spectrum._with_amplitudes(etas, phis)


def evolve(spectrum: DiscreteSpectrum, z: float) -> DiscreteSpectrum:
    """Propagate the spectrum a normalized distance z (negative z allowed).

    Each amplitude picks up exp(-4j*lam_k^2*z):
    ``eta_k *= exp(8*sigma_k*omega_k*z)`` and
    ``phi_k -= 4*(omega_k^2 - sigma_k^2)*z`` (mod 2*pi).
    The eigenvalues are invariant.
    """
    if not math.isfinite(z):
        raise InvalidParameterError(f"z must be finite, got {z}")
    pairs = list(zip(spectrum.sigmas.tolist(), spectrum.omegas.tolist()))
    return _shift_amplitudes(spectrum, [8.0 * sigma * omega * z for sigma, omega in pairs],
                             [4.0 * (omega**2 - sigma**2) * z for sigma, omega in pairs], f"at z={z}")


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
    sigmas, omegas, etas, phis = spectrum.sigmas, spectrum.omegas, spectrum.etas, spectrum.phis
    if kind == "global_phase":
        phis = phis - parameter
    elif kind == "time_shift":
        return _shift_amplitudes(spectrum, [2.0 * sigma * parameter for sigma in sigmas.tolist()],
                                 2.0 * omegas * parameter, f"in time_shift(t0={parameter})")
    elif kind == "dilate":
        if not parameter > 0.0:
            raise ValueError(f"dilate requires sigma0 > 0, got {parameter}")
        sigmas, omegas = sigmas / parameter, omegas / parameter
    elif kind == "freq_shift":
        omegas = omegas - parameter
    elif kind == "time_reverse":
        omegas, etas = -omegas, 1.0 / etas
    else:  # conjugate
        omegas, phis = -omegas, -phis
    return DiscreteSpectrum(sigmas, omegas, etas, phis)
