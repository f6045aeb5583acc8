"""Exception taxonomy.

Two broad families matter to callers: configuration problems (bad input that
a user can fix by editing a spec or scenario) and numeric failures (the
computation itself broke down).  The CLI maps them to exit codes 1 and 2.
"""

from __future__ import annotations

import math


class SchrodsepError(Exception):
    """Base class for everything raised on purpose by this package."""


class ConfigurationError(SchrodsepError):
    """Invalid configuration, scenario, or incompatible combination."""


class UsageError(ConfigurationError):
    """An operation was called on a spec of the wrong kind."""


class NumericError(SchrodsepError):
    """A numeric procedure failed to produce a trustworthy result."""


class DomainError(NumericError):
    """A coordinate or function argument lies outside its admissible set."""

    def __init__(self, message: str, axis: int | None = None):
        super().__init__(message)
        self.axis = axis


class SingularityError(NumericError):
    """A Jacobian or metric degenerated below the determinant guard."""


class InversionError(NumericError):
    """Newton inversion did not converge.

    Carries the last iterate and its forward residual for diagnosis.
    """

    def __init__(self, message: str, last_omega=None, residual: float | None = None):
        super().__init__(message)
        self.last_omega = last_omega
        self.residual = residual


class IntegrationError(NumericError):
    """ODE integration failed (for example step-size underflow)."""

    def __init__(self, message: str, location: float | None = None):
        super().__init__(message)
        self.location = location


class QuadratureError(NumericError):
    """Adaptive quadrature could not reach the requested tolerance."""


class TurningPointError(NumericError):
    """A Hamilton-Jacobi radicand went negative inside the requested range."""

    def __init__(self, message: str, axis: int | None = None, omega: float | None = None):
        super().__init__(message)
        self.axis = axis
        self.omega = omega


class StencilError(NumericError):
    """A finite-difference stencil node could not be evaluated."""


class OutOfRangeError(NumericError):
    """A point left the tabulated range of a separated factor."""


def check_range(what: str, lo, hi, where: str = "") -> tuple[float, float]:
    """(lo, hi) as floats, or a :class:`ConfigurationError` unless both ends
    and the span hi - lo (which may overflow) are finite and lo < hi."""
    try:
        lo, hi = float(lo), float(hi)
    except OverflowError:  # an integer beyond the float range
        raise ConfigurationError(f"{what}{where} must be finite") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
        raise ConfigurationError(f"{what} ({lo}, {hi}){where} must be finite")
    if not lo < hi:
        raise ConfigurationError(f"empty {what} ({lo}, {hi}){where}")
    return lo, hi
