"""Split-step Fourier integrator for the normalized focusing NLSE.

Advances ``dq/dz = -j d^2q/dt^2 - 2j|q|^2 q`` with symmetric (Strang)
operator splitting: a half dispersive step in the DFT domain, a full Kerr
phase rotation, and another half dispersive step.  Both sub-steps are
unitary, so the energy is conserved to rounding regardless of step size;
the splitting error is second order in dz.

Sign conventions are pinned by the first-order soliton: a pulse with a
single imaginary eigenvalue must propagate without changing shape.  The
dispersive factor is ``exp(+j*(2*pi*f)^2*dz)`` with f in cycles per unit
time and the Kerr factor is ``exp(-2j*|q|^2*dz)``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .darboux import SampledSignal
from .errors import AliasingWarning, InvalidParameterError
from .metrics import ALIASING_FRACTION, _nyquist_edge_share

DEFAULT_DZ = 1e-3


def _check_distance(z_total: float):
    if not math.isfinite(z_total):
        raise InvalidParameterError(f"z_total must be finite, got {z_total}")


@dataclass(frozen=True)
class PropagationPlan:
    """Integration plan: total normalized distance and step count."""

    z_total: float
    n_steps: int

    def __post_init__(self):
        _check_distance(self.z_total)
        if self.n_steps < 1:
            raise InvalidParameterError("n_steps must be >= 1")

    @classmethod
    def with_dz(cls, z_total: float, dz: float = DEFAULT_DZ) -> "PropagationPlan":
        _check_distance(z_total)
        if not (math.isfinite(dz) and dz > 0.0):
            raise InvalidParameterError(f"dz must be finite and > 0, got {dz}")
        return cls(z_total=z_total, n_steps=max(1, math.ceil(abs(z_total) / dz)))

    @property
    def dz(self) -> float:
        return self.z_total / self.n_steps


def _check_aliasing(q_freq: np.ndarray, where: str):
    share = _nyquist_edge_share(np.fft.fftshift(np.abs(q_freq) ** 2))
    if share > ALIASING_FRACTION:
        warnings.warn(
            f"spectral energy at the Nyquist edge ({share:.2e} of total) {where}",
            AliasingWarning,
            stacklevel=3,
        )


def propagate(signal: SampledSignal, plan: PropagationPlan) -> SampledSignal:
    """Propagate a sampled signal by plan.z_total (negative distance allowed).

    The signal must decay at the grid edges; the periodic wrap of the DFT
    and any spectral content near the Nyquist edge are flagged with
    `AliasingWarning`.
    """
    grid = signal.grid
    freqs = np.fft.fftfreq(grid.n_samples, d=grid.dt)
    dz = plan.dz
    half = np.exp(1j * (2.0 * math.pi * freqs) ** 2 * (0.5 * dz))
    full = half * half

    q_freq = np.fft.fft(signal.samples)
    _check_aliasing(q_freq, "before propagation")
    q = np.fft.ifft(q_freq * half)
    # the Kerr factor exp(-2j*|q|^2*dz) as cos + j*sin of the real phase
    # |q|^2*(-2*dz): exp(+-0 + j*theta) is cos(theta) + j*sin(theta), and two
    # real passes into one buffer are cheaper than a complex exp
    theta = np.empty(grid.n_samples)
    kerr = np.empty(grid.n_samples, dtype=complex)
    for step in range(plan.n_steps):
        np.multiply(q.real**2 + q.imag**2, -2.0 * dz, out=theta)
        np.cos(theta, out=kerr.real)
        np.sin(theta, out=kerr.imag)
        q = q * kerr
        if step < plan.n_steps - 1:
            q = np.fft.ifft(np.fft.fft(q) * full)
    q_freq = np.fft.fft(q) * half
    _check_aliasing(q_freq, "after propagation")
    return SampledSignal(grid=grid, samples=np.fft.ifft(q_freq))


def propagate_with_snapshots(
    signal: SampledSignal, plan: PropagationPlan, n_snapshots: int
) -> list[tuple[float, SampledSignal]]:
    """Propagate and return (z, signal) at z = 0 and after each of n_snapshots
    segments: snapshot i lands on step round(i * n_steps / n_snapshots), so the
    segments take exactly the plan's n_steps at its dz and end at z_total."""
    if not 1 <= n_snapshots <= plan.n_steps:
        raise InvalidParameterError(f"n_snapshots must be in 1..{plan.n_steps}, got {n_snapshots}")
    out = [(0.0, signal)]
    marks = [round(i * plan.n_steps / n_snapshots) for i in range(n_snapshots + 1)]
    for prev, mark in zip(marks, marks[1:]):
        seg = PropagationPlan(z_total=(mark - prev) * plan.dz, n_steps=mark - prev)
        out.append((plan.z_total * (mark / plan.n_steps), propagate(out[-1][1], seg)))
    return out
