"""Exception and warning types, and the finiteness, integer and allocation checks, shared across the package."""

import math
import numbers

import numpy as np


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
    """Raise InputError naming the first value that is not a finite number; a bool is not one."""
    for name, value in values.items():
        try:
            finite = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
        except OverflowError:  # an int past the float range; its repr may exceed Python's digit limit
            raise InputError(f"{name} must be a finite number, got a number too large for a float") from None
        if not finite:
            raise InputError(f"{name} must be a finite number, got {value!r}")


def _require_integer(value, least: int, rule: str) -> int:
    """``value`` as an int; InputError stating ``rule`` unless it is an integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InputError(f"{rule}, got {value!r}")
    return int(value)


def _allocate(shape, what: str) -> np.ndarray:
    """``np.empty(shape)``, or InputError naming ``what`` if numpy cannot allocate it."""
    try:
        return np.empty(shape)
    except (MemoryError, ValueError):  # ValueError: the size is past numpy's index range
        raise InputError(f"cannot allocate {what}") from None
