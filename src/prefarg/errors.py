"""Exception types shared across the package."""


class PrefargError(Exception):
    """Base class for all errors raised by this library."""


class UnknownArgumentError(PrefargError):
    """An operation referenced an argument the framework does not contain."""


class DomainMismatchError(PrefargError):
    """A labelling or preference function does not cover the framework exactly."""


class InvalidOrderError(PrefargError):
    """A preference order is malformed or does not fit the framework."""


class InconsistentPreferenceError(PrefargError):
    """A preference function induces a cycle with a strict preference step."""

    def __init__(self, message: str, cycle: tuple[str, ...] = ()):
        super().__init__(message)
        self.cycle = tuple(cycle)


class SizeLimitError(PrefargError):
    """An exhaustive enumeration was refused because the input is too large."""


class ParseError(PrefargError):
    """Text input could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
