"""Exception types shared across the package."""


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
