"""Multi-soliton pulse synthesis and time-bandwidth product analysis.

Builds N-soliton pulses from a discrete nonlinear spectrum, verifies them by
forward scattering and split-step propagation, measures duration/bandwidth
under modulation- and link-aware definitions, optimizes the time-bandwidth
product per eigenvalue by a best-first lattice search, and evaluates the closed-form
asymptotic estimates and bound curves.
"""

from .darboux import SampledSignal, TimeGrid, auto_grid, denormalize, synthesize
from .errors import (
    AliasingWarning,
    DegenerateRootError,
    DegenerateSpectrumError,
    EigenvalueCountError,
    GridTooNarrowWarning,
    InvalidParameterError,
    MeasurementUnreliableError,
    SolitonError,
    SolitonWarning,
    SpectrumFileError,
)
from .metrics import MeasureConfig, TBReport, measure, t_hat_b_hat, t_max_b_max
from .propagation import PropagationPlan, propagate
from .spectrum import (
    DiscreteSpectrum,
    PhysicalScaling,
    evolve,
    qd_init,
    transform,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
