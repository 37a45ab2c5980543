"""Exception hierarchy shared across the package."""


class LexivisError(Exception):
    """Base class for all package errors."""


class DataError(LexivisError):
    """An input file (snapshot, dataset, regions, lexicon, ...) is invalid or missing."""


class ConfigError(LexivisError):
    """A configuration value or combination of values is invalid."""


class NumericsError(LexivisError):
    """A loss, gradient or feature became non-finite or zero-norm; carries a diagnostic payload."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
