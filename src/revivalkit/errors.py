"""Exception hierarchy.

Two branches matter for the CLI exit code: configuration problems
(exit 2) and numeric failures discovered during a run (exit 3).
"""


class RevivalKitError(Exception):
    """Base class for all package errors."""


class ConfigError(RevivalKitError):
    """Invalid run configuration (exit code 2)."""


class ParameterError(ConfigError):
    """A parameter violates one of its admissibility constraints."""


class NumericalFailure(RevivalKitError):
    """Numeric failure during a computation (exit code 3)."""


class DomainError(NumericalFailure):
    """Argument outside the domain an operation is defined on."""


class NumericalError(NumericalFailure):
    """Internal inconsistency, e.g. a NaN inside a root bracket or an unconverged rule."""


class NonClosingOrbit(NumericalFailure):
    """Hamiltonian trajectory did not return within the allotted time."""


class ToleranceFailure(NumericalFailure):
    """A conservation or closure tolerance was exceeded."""


class TopologyError(NumericalFailure):
    """Level-set turning points could not be bracketed."""


class MonotonicityError(NumericalFailure):
    """A quantization function sampled as non-monotone."""


class ResolutionError(NumericalFailure):
    """Grid spacing too coarse for the requested spectral window."""


class TruncationError(NumericalFailure):
    """Domain truncation too small to confine the windowed states."""


class SolverFailure(NumericalFailure):
    """Eigenvalue solver failed to converge."""


class EmptyWindow(NumericalFailure):
    """No eigenvalues available in the spectral window."""


class ProfileError(ConfigError):
    """Packet profile violates its requirements or lacks Fourier data."""


class SupportError(NumericalFailure):
    """Packet support is not contained in the spectral window."""


class TimeScaleError(ConfigError):
    """Time grid extends beyond the validity window of an approximant."""


class NotCoprime(ConfigError):
    """p and q must be coprime."""
