"""Exception types shared across the toolkit.

Everything rooted at ValidationError is an input or output problem (bad files,
bad values, unusable configurations, unwritable outputs) and maps to CLI exit
code 2; anything else escaping a command is an internal error (exit code 1).
"""


class ValidationError(Exception):
    """Input data or configuration violates a documented contract."""


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
