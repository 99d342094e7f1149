"""Exception hierarchy for guidance_lab.

Every error raised on purpose by this package derives from GuidanceLabError,
so callers can catch the package's failures without swallowing genuine bugs.
"""

import math
import numbers


class GuidanceLabError(Exception):
    """Base class for all errors raised by guidance_lab."""


class ConfigurationError(GuidanceLabError):
    """A config object or config file carries inconsistent or invalid values."""


class DomainError(GuidanceLabError):
    """An input lies outside the mathematical domain of an operation."""


class ShapeError(GuidanceLabError):
    """An array argument has the wrong shape or dimensionality."""


class CapabilityError(GuidanceLabError):
    """The requested computation is not available for the given object
    (e.g. an exact divergence was requested from a field without one)."""


class DegenerateNormalError(GuidanceLabError):
    """The normal direction is numerically zero, so the parallel/orthogonal
    split of the guidance residual is undefined at this point."""


class IntegrationError(GuidanceLabError):
    """The ODE integration produced a non-finite state.

    Attributes
    ----------
    last_valid_step : int
        Index of the last step whose state was still finite.
    """

    def __init__(self, message, last_valid_step):
        super().__init__(message)
        self.last_valid_step = last_valid_step


class EstimationError(GuidanceLabError):
    """A stochastic estimator received a non-finite field evaluation.

    Attributes
    ----------
    probe_index : int
        Index of the probe that produced the non-finite value.
    """

    def __init__(self, message, probe_index):
        super().__init__(message)
        self.probe_index = probe_index


def require_int(name, value, least):
    """``value`` as a Python int, if it is an integer (not a bool) of at
    least ``least``; otherwise ConfigurationError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ConfigurationError(f"{name} must be an int >= {least}, got {value!r}")
    return int(value)


def require_real(name, value):
    """``value`` as a Python float, if it is a finite real number (not a
    bool); otherwise ConfigurationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigurationError(
            f"{name} must be finite, got an integer too large for a float"
        ) from exc
    if not math.isfinite(number):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return number
