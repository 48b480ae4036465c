"""Exception and warning types shared across the package."""


class SolitonError(Exception):
    """Base class for numeric/domain errors raised by this package."""


class DegenerateSpectrumError(SolitonError):
    """Two eigenvalues coincide (or nearly coincide) and division terms blow up."""


class DegenerateRootError(SolitonError):
    """Newton on a(lambda) reached no simple root: a' vanished, a step left Im > 0, or no fixed point."""


class EigenvalueCountError(SolitonError):
    """The eigenvalue search found another number of roots than the argument principle counts."""


class MeasurementUnreliableError(SolitonError):
    """Duration/bandwidth measurement invalidated by grid leakage or aliasing."""


class SpectrumFileError(SolitonError):
    """A spectrum, signal or trace file failed validation."""


class InvalidParameterError(SolitonError, ValueError):
    """A caller-supplied argument lies outside its valid range."""


class SolitonWarning(UserWarning):
    """Base class for non-fatal diagnostics."""


class GridTooNarrowWarning(SolitonWarning):
    """Synthesized signal carries non-negligible magnitude at the grid edges."""


class AliasingWarning(SolitonWarning):
    """Spectral content near the Nyquist edge exceeds the safe threshold."""
