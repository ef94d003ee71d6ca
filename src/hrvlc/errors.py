"""Exception hierarchy shared across the package."""


class HrvlcError(Exception):
    """Base class for all package errors."""


class ConfigParseError(HrvlcError):
    """Raised when a config document is not valid JSON."""


class ConfigValidationError(HrvlcError):
    """Raised when a parsed config violates an invariant.

    ``field`` carries the dotted path of the offending entry, e.g.
    ``mts[0].fov_deg``.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class NoCoverageError(HrvlcError):
    """Every AP yields zero channel gain for the terminal."""


class ConvergenceError(HrvlcError):
    """The iterative solver exhausted its iteration budget."""


class MalformedCsvError(HrvlcError):
    """A CSV file handed to the chart command is outside the dialect the
    commands write, has no data row, holds a row that does not parse or a
    value past the float range, or cannot be drawn."""
