"""Exception types shared across the package."""

from __future__ import annotations


class GramlmError(Exception):
    """Base class for all errors raised by this package."""


class DslSyntaxError(GramlmError):
    """A grammar file could not be tokenized or parsed.

    Carries the 1-based line and column of the offending text.
    """

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ValidationError(GramlmError):
    """A grammar parsed but failed semantic validation."""

    def __init__(self, diagnostics) -> None:
        lines = "\n".join(str(d) for d in diagnostics)
        super().__init__(f"{len(diagnostics)} validation error(s):\n{lines}")
        self.diagnostics = list(diagnostics)


class CompileError(GramlmError):
    """The compilation pipeline cannot produce a well-formed result."""


class UnknownTokenError(GramlmError):
    """A parse was attempted on a token absent from the lexicon."""

    def __init__(self, token: str, position: int) -> None:
        super().__init__(f"unknown token {token!r} at position {position}")
        self.token = token
        self.position = position


# Default caps, for the library and the command line alike: on the strings
# one enumeration stores, and on the tuples instantiation enumerates (also
# the alternatives left-recursion elimination substitutes).
CAP_STRINGS = 8 * 10**6
CAP_TUPLES = 10**7


class ResourceCapError(GramlmError):
    """An enumeration or instantiation exceeded its configured cap."""

    def __init__(self, kind: str, cap: int) -> None:
        super().__init__(f"{kind} exceeded the configured cap of {cap}")
        self.kind = kind
        self.cap = cap


class UndefinedPerplexityError(GramlmError):
    """The corpus has no sentences, or every one fell outside the model's
    language."""
