"""Exception taxonomy shared across the library and the command line tool.

Three broad classes matter to callers: malformed input text (ParseError),
mathematically invalid requests on well-formed input (DomainError), and
requests that exceed a configured resource bound (LimitError).  The CLI
maps them to exit codes 2, 1 and 3 respectively.
"""

from __future__ import annotations

import math

__all__ = ["KnitError", "ParseError", "DomainError", "LimitError"]


class KnitError(Exception):
    """Base class for all library errors."""


class ParseError(KnitError):
    """Input text does not conform to the expected grammar."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class DomainError(KnitError):
    """Well-formed input that violates a mathematical precondition."""


class LimitError(KnitError):
    """A configured size or resource limit would be exceeded."""


def _is_int(x) -> bool:
    """An int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _quoted(text: str) -> str:
    """``repr(text)`` up to 20 characters, else its first 9 and its length,
    so a bad value from outside the program is never echoed in full."""
    if len(text) <= 20:
        return repr(text)
    return f"{text[:9]!r}... ({len(text)} characters)"


def _shown(n) -> str:
    """``str(n)`` for a message, except that an int past 20 digits is named
    by its digit count and, when negative, its sign, so a long number is
    never echoed in full.  The digits are counted from the logarithm
    (nearest power of ten), since str() refuses ints past ~4,300 digits."""
    size = abs(n) if isinstance(n, int) else 0
    if size < 10**20:
        return str(n)
    d = round(math.log10(size))
    digits = f"of {d + (size >= 10**d)} digits"
    return f"a negative number {digits}" if n < 0 else digits


def _shown_repr(value) -> str:
    """``repr(value)`` for a message, with each int in it, or in the tuples
    and lists it nests, written by _shown, and each str by _quoted."""
    if type(value) is int:
        return _shown(value)
    if type(value) in (tuple, list):
        inner = ", ".join(map(_shown_repr, value))
        if type(value) is list:
            return f"[{inner}]"
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    return _quoted(value) if type(value) is str else repr(value)
