"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation problems (bad input files,
malformed configs, schema mismatches) exit 2, numerical failures exit 3,
and I/O failures exit 4.
"""


class CensdevError(Exception):
    """Base class for all package errors."""


class ValidationError(CensdevError):
    """Malformed user input: dataset rows, configs, incompatible reports."""


class ParameterError(ValidationError):
    """Distribution parameters outside their domain."""


class BoundOrderError(ValidationError):
    """Interval bounds supplied in the wrong order."""


class SchemaError(ValidationError):
    """Parameter vector does not match the model's schema."""


class DataError(ValidationError):
    """Dataset violates a structural constraint."""


class ParseError(ValidationError):
    """Dataset file could not be parsed; carries line/column context."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            loc = f"line {line}" + (f", column {column!r}" if column else "")
            message = f"{loc}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class ComparabilityError(ValidationError):
    """Selection reports computed on different datasets or modes."""


class NumericError(CensdevError):
    """Non-finite arithmetic or a numerically degenerate state."""


class DegenerateRegionError(NumericError):
    """Truncation region carries (numerically) zero probability."""


class DegenerateDensityError(NumericError):
    """Kernel density requested for a zero-variance trace."""


class InitializationError(NumericError):
    """No finite-posterior starting point found after max retries."""


class PluginError(NumericError):
    """Plug-in deviance at the posterior mean could not be evaluated."""


class InsufficientReplicationError(ValidationError):
    """Optimism estimation needs two independent runs."""
