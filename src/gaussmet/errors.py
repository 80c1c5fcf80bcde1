"""Exception and warning types shared across the package."""


class GaussmetError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteError(GaussmetError):
    """Input contains NaN or infinite entries."""


class NotHermitianError(GaussmetError):
    """Matrix fails the Hermitian symmetry check."""


class NotSymmetricError(GaussmetError):
    """Matrix fails the complex-symmetry (transpose) check."""


class NotPSDError(GaussmetError):
    """Matrix has an eigenvalue below the positive-semidefinite tolerance."""


class DimensionMismatchError(GaussmetError):
    """Objects that must share a mode count do not."""


class ModesNotOrthonormalError(GaussmetError):
    """Numerical mode family deviates too far from orthonormality."""


class SpectrumUnreachableError(GaussmetError):
    """No spectrum points close enough to the required generator eigenvalues."""


class ConditionViolatedError(GaussmetError):
    """Structural precondition of a probe construction does not hold."""


class NoIdlerModesError(GaussmetError):
    """Generator lacks the idler (zero-eigenvalue) modes a construction needs."""


class StateNotEigenbasisDiagonalError(GaussmetError):
    """State is not diagonal in the generator eigenbasis where required."""


class TailTooLargeError(GaussmetError):
    """Truncated Fock representation lost more probability than allowed."""


class TooManyModesError(GaussmetError):
    """Mode count exceeds what the brute-force oracle supports."""


class RegularizationPoorError(GaussmetError):
    """Regularized probe modes overlap too strongly to be treated as orthogonal."""


class FitIllConditionedError(GaussmetError):
    """Least-squares system for asymptotic coefficients is near-singular."""


class InputError(GaussmetError, ValueError):
    """Malformed, inconsistent or out-of-range input."""


class GaussmetWarning(UserWarning):
    """Base class for advisory warnings."""


class RegularizationWarning(GaussmetWarning):
    """Mode overlap is small but not negligible; closed forms degrade."""


class ConditionNotVerifiedWarning(GaussmetWarning):
    """A measurement identity is being applied without its premise checked."""
