"""Exception types shared across the package, and the bounded way messages list names."""

from typing import Collection


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


def least_names(names: Collection[str]) -> str:
    """The five least names, each cut to 40 characters, and how many more there are."""
    least = [name[:40] for name in sorted(names)[:5]]
    return str(least) + (f" and {len(names) - 5} more" if len(names) > 5 else "")
