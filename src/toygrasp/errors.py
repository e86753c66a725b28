"""The package's errors: one class per CLI exit code that an error maps to.

`InvalidInput` is a config, document or argument the package refuses (the
CLI exits 2); `IoFailure` is a file that could not be read or written (it
exits 3). Each message names the field, file or check involved, so the
message, not the class, tells one refusal from another.
"""


class ToygraspError(Exception):
    """Base class for all package errors."""


class InvalidInput(ToygraspError, ValueError):
    """A config, document, shape or value that the package refuses."""


class IoFailure(ToygraspError, OSError):
    """A file could not be read or written."""
