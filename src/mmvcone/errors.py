"""Exception hierarchy shared by all engine modules, and the typed readers
through which every module takes an entry of a config."""

import sys

import numpy as np


class MmvConeError(Exception):
    """Base class for every error raised by this package."""


class ConfigInvalid(MmvConeError):
    """A config entry was refused; ``field`` names it when known."""

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


def _is_real(value, finite: bool) -> bool:
    """value is a number, not a boolean, and finite when finite is true; an
    integer past float's range is neither."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (-sys.float_info.max <= value <= sys.float_info.max
                 or not finite and isinstance(value, float)))


def read_object(value, field):
    """value as a JSON object (a dict), else ConfigInvalid."""
    if not isinstance(value, dict):
        raise ConfigInvalid(f"must be an object, got {value!r}", field=field)
    return value


def check_count(value, field, least=1):
    """value as an integer (never a boolean) >= least, else ConfigInvalid."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigInvalid(f"must be an integer >= {least}, got {value!r}", field=field)
    return value


def read_count(block, key, default, field, least=1):
    """block[key] (default when absent) as check_count."""
    return check_count(block.get(key, default), field, least)


def read_flag(block, key):
    """block[key] (false when absent) as a JSON boolean, else ConfigInvalid."""
    value = block.get(key, False)
    if not isinstance(value, bool):
        raise ConfigInvalid(f"must be true or false, got {value!r}", field=key)
    return value


def read_number(block, key, default, field):
    """block[key] (default when absent) as a finite float, else ConfigInvalid."""
    value = block.get(key, default)
    if not _is_real(value, False):
        raise ConfigInvalid(f"must be a number, got {value!r}", field=field)
    if not _is_real(value, True):
        raise ConfigInvalid(f"must be finite, got {value!r}", field=field)
    return float(value)


def read_array(value, shape, field, what, finite=True):
    """value as a float array of the given shape (None: any length on that
    axis) whose entries are numbers, finite unless finite is false; else
    ConfigInvalid saying it must be what."""
    arr = np.asarray(value, dtype=object)
    if (arr.ndim != len(shape) or any(s not in (None, d) for s, d in zip(shape, arr.shape))
            or not all(_is_real(v, finite) for v in arr.flat)):
        raise ConfigInvalid(f"must be {what}, got {value!r}", field=field)
    return arr.astype(float)
