"""Exception and warning types, and the finiteness check, shared across the package."""

import math
import numbers


class GaussmetError(Exception):
    """Base class for all errors raised by this package."""


class InputError(GaussmetError, ValueError):
    """Malformed, inconsistent or out-of-range input, or input outside the
    premise of a construction (a spectrum, generator or mode family that
    the requested probe, fit or measurement formula cannot use)."""


class TailTooLargeError(GaussmetError):
    """Truncated Fock representation lost more probability than allowed."""


class GaussmetWarning(UserWarning):
    """Base class for advisory warnings."""


class RegularizationWarning(GaussmetWarning):
    """Mode overlap is small but not negligible; closed forms degrade."""


class ConditionNotVerifiedWarning(GaussmetWarning):
    """A measurement identity is being applied without its premise checked."""


def require_finite(**values) -> None:
    """Raise InputError naming the first value that is not a finite number."""
    for name, value in values.items():
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise InputError(f"{name} must be a finite number, got {value!r}")
