"""Exception types shared across the package."""


class SpecsweepError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SpecsweepError):
    """A parameter combination is unusable (e.g. a crosstalk bench of fewer than 3 slots)."""


class ScenarioFormatError(SpecsweepError):
    """A scenario or report file failed strict parsing/validation.

    ``path`` points at the offending field, e.g. ``scenario.filters[0].order``.
    """

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class UndiagnosableError(SpecsweepError):
    """Sweep data is insufficient to produce the requested estimate."""
