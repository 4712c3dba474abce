"""Exception types shared across the package, and the config field checks
that raise them."""

import numbers
import sys


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class LengthMismatchError(InvalidArgumentError):
    """Two sequences that must share a length do not."""


class RejectedTemplateError(InvalidArgumentError):
    """Template spectrum falls below the non-vanishing floor; unusable for alignment."""


class ExcludedBinError(InvalidArgumentError):
    """Frequency bin is excluded from phase statistics (zero magnitude or zero-DC)."""


class InsufficientDataError(ValueError):
    """Too few samples or trials for the requested statistic."""


class UndefinedCorrelationError(ValueError):
    """Pearson correlation is undefined for constant inputs."""


# Field checks for the config dataclasses: each returns the checked value or
# raises InvalidArgumentError naming the field.

def typed(field: str, value, kind, name: str):
    """``value`` itself if it is a ``kind``; a bool passes only as a bool."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise InvalidArgumentError(f"{field} must be {name}, got {value!r}")
    return value


def _at_least(field: str, value, minimum):
    if not value >= minimum:
        raise InvalidArgumentError(f"{field} must be >= {minimum}, got {value!r}")
    return value


def integral(field: str, value, minimum) -> int:
    """``value`` as an int of at least ``minimum``; a whole float counts, 10.9 does not."""
    typed(field, value, numbers.Real, "an integer")
    if not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise InvalidArgumentError(f"{field} must be an integer, got {value!r}")
    return _at_least(field, int(value), minimum)


def real(field: str, value, minimum):
    """``value`` itself if it is a finite number of at least ``minimum``."""
    typed(field, value, numbers.Real, "a number")
    if not abs(value) <= sys.float_info.max:  # also an int too large for a float
        raise InvalidArgumentError(f"{field} must be finite, got {value!r}")
    return _at_least(field, value, minimum)


def entries(field: str, value) -> tuple:
    """The entries of a list, tuple, range or array, as a tuple."""
    try:
        return tuple(value)
    except TypeError:
        raise InvalidArgumentError(f"{field} must be a list, got {value!r}") from None
