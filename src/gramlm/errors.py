"""Exception types, resource caps and the collector guard shared across the
package.

Besides the exceptions, this module holds the default caps on the strings
an enumeration stores and on the tuples instantiation enumerates, and
:func:`collector_paused`, which runs the two string-set enumerators with
the cyclic garbage collector paused. It is the only module the oracle
shares with the pipeline, so both enumerators can import from it.
"""

from __future__ import annotations

import functools
import gc


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


def collector_paused(function):
    """Run ``function`` with the cyclic garbage collector paused.

    The string-set enumerators allocate hundreds of thousands of string
    tuples and file them in a few large sets that hold no reference
    cycles; every young collection would re-scan those sets and free
    nothing. The collector is re-enabled on return, or when an exception
    propagates, only if it was enabled on entry; no collection is forced.
    """

    @functools.wraps(function)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return function(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


class ResourceCapError(GramlmError):
    """An enumeration or instantiation exceeded its configured cap."""

    def __init__(self, kind: str, cap: int) -> None:
        super().__init__(f"{kind} exceeded the configured cap of {cap}")
        self.kind = kind
        self.cap = cap


class UndefinedPerplexityError(GramlmError):
    """The corpus has no sentences, or every one fell outside the model's
    language."""
