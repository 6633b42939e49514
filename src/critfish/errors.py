"""Exception types shared across the package."""


class CritfishError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidMatrix(CritfishError):
    """Matrix input is malformed (non-square, non-finite, bad trace)."""


class NotPSD(CritfishError):
    """Matrix has a negative eigenvalue beyond the roundoff clamp."""


class DiagonalizationFailed(CritfishError):
    """The eigensolver did not converge on a (block of a) symmetric matrix."""


class DimMismatch(CritfishError):
    """Operands live in Hilbert spaces of different dimension."""


class InvalidDimension(CritfishError):
    """Requested basis size is outside the supported range."""


class BeyondCriticality(CritfishError):
    """Oscillator coupling at or past the critical value g = omega."""


class InvalidTemperature(CritfishError):
    """Inverse temperature must be positive (math.inf is allowed)."""


class GapTooSmall(CritfishError):
    """Ground-state gap too close to degeneracy to parametrize beta by it."""


class DegenerateLevel(CritfishError):
    """Operation requires a non-degenerate eigenvalue."""


class IncompleteSpectrum(CritfishError):
    """The operation needs every level, and the spectrum was solved in a window."""


class NegativeFisherPart(CritfishError):
    """A sum-of-squares Fisher contribution came out negative beyond roundoff."""


class ZeroVariance(CritfishError):
    """Observable has (numerically) zero variance in the given state."""


class UndefinedForZeroCoupling(CritfishError):
    """Closed form contains a 1/g factor and needs g > 0."""


class TruncationNotConverged(CritfishError):
    """Fock truncation hit its cap before the result settled.

    ``last_two`` carries the values at the two largest sizes tried.
    """

    def __init__(self, message, last_two=None):
        super().__init__(message)
        self.last_two = last_two


class NoFDConvergence(CritfishError):
    """Finite-difference ladder ran out of step sizes without settling.

    ``estimates`` carries the last two estimates.
    """

    def __init__(self, message, estimates=None):
        super().__init__(message)
        self.estimates = estimates


class WorkerDied(CritfishError):
    """A sweep's worker process ended abruptly, so the sweep has no table."""


class ConfigError(CritfishError):
    """Sweep configuration rejected; ``field`` points at the offender."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field
