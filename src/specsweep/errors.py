"""Exception types of the package.

A rejected input is a ``ValueError`` (CLI exit 2), so a file field's error
is one too; sweep data too thin for an estimate is the one other type.
"""


class ScenarioFormatError(ValueError):
    """A scenario or report file failed strict parsing/validation.

    ``path`` points at the offending field, e.g. ``scenario.filters[0].order``.
    """

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class UndiagnosableError(Exception):
    """Sweep data is insufficient to produce the requested estimate."""
