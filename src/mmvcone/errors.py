"""Exception hierarchy shared by all engine modules."""


class MmvConeError(Exception):
    """Base class for every error raised by this package."""


class ConfigInvalid(MmvConeError):
    """A configuration document failed validation.

    Carries ``field`` naming the offending entry when known.
    """

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)


class DimensionMismatch(MmvConeError):
    """Inconsistent vector/matrix dimensions."""


class DegenerateVolatility(MmvConeError):
    """Volatility Gram matrix fell below the declared ellipticity floor."""


class NonPositiveTheta(MmvConeError):
    """Risk aversion must be strictly positive."""


class SingularGram(MmvConeError):
    """sigma sigma' is numerically singular."""


class TimeOutOfRange(MmvConeError):
    """Evaluation time outside [0, T]."""


class NoConvergence(MmvConeError):
    """Iterative solver exceeded its iteration budget."""


class PositivityLost(MmvConeError):
    """A solution crossed its uniform-positivity envelope."""


class RegressionIllConditioned(MmvConeError):
    """Regression basis is rank deficient beyond repair."""


class ExplodedPath(MmvConeError):
    """A simulated state became non-finite; step size too coarse."""


class MissingTrajectories(MmvConeError):
    """Operation requires full stored trajectories."""


class AdversaryNotZero(MmvConeError):
    """Mean-variance objective requires a batch simulated with eta = 0."""


class SaddleViolated(MmvConeError):
    """A saddle-point inequality failed beyond statistical tolerance.

    ``cell`` identifies the offending (portfolio, adversary) pair.
    """

    def __init__(self, message, cell=None):
        self.cell = cell
        if cell is not None:
            message = f"{message} [cell {cell}]"
        super().__init__(message)


class InvalidBound(MmvConeError):
    """A solved quantity violated a bound the theory guarantees."""
