"""Exception types shared across the toolkit.

Everything rooted at ValidationError is an input or output problem (bad files,
bad values, unusable configurations, unwritable outputs) and maps to CLI exit
code 2; anything else escaping a command is an internal error (exit code 1).
ValidationError is a ValueError, as json.JSONDecodeError is.
"""


class ValidationError(ValueError):
    """Input data or configuration violates a documented contract."""


def check_open_unit(name: str, value: float) -> None:
    """The one range rule for an overlap parameter (an alpha or tau): refuse ``value`` outside (0, 1), naming it."""
    if not 0.0 < value < 1.0:
        raise ValidationError(f"{name} must lie in (0, 1), got {value}")


class ParseError(ValidationError):
    """File is not valid JSON. Carries the source path and byte offset."""

    def __init__(self, path, message, offset=None):
        self.path = str(path)
        self.offset = offset
        where = f"{self.path}" if offset is None else f"{self.path} (byte offset {offset})"
        super().__init__(f"malformed JSON in {where}: {message}")


class TaxonomyError(ValidationError):
    """A source category id has no mapping onto the class taxonomy."""


class CalibrationError(ValidationError):
    """Calibration inputs cannot produce an operating point."""
