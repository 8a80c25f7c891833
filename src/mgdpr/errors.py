"""Exception taxonomy shared across the package.

Every error a caller can sensibly react to gets its own class; the CLI maps
them onto stable exit codes (see cli.EXIT_TABLE).
"""


class MgdprError(Exception):
    """Base class for all package errors."""


class ShapeError(MgdprError, ValueError):
    """Operands have incompatible shapes or axes."""


class UsageError(MgdprError, ValueError):
    """An operation was called in a way its contract forbids."""


class ConfigError(MgdprError, ValueError):
    """Inconsistent or invalid configuration."""


class DataError(MgdprError, ValueError):
    """Input data violates a documented precondition."""


class FormatError(DataError):
    """A file does not match its documented layout."""


class EmptyInputError(DataError):
    """An input that must be non-empty was empty."""


class CoverageError(DataError):
    """No instrument met the calendar-coverage threshold."""


class InsufficientDataError(DataError):
    """Too few trading days for the requested lookback window."""


class DegenerateSeriesError(MgdprError, ValueError):
    """A window has (near-)zero signal energy, so energy ratios blow up."""


class DayRangeError(MgdprError, ValueError):
    """A requested end-day index has no valid lookback window or label."""


class DivergenceError(MgdprError, RuntimeError):
    """Training produced a non-finite loss."""


class CheckpointError(MgdprError, ValueError):
    """A parameter checkpoint is corrupt or inconsistent with the config."""
