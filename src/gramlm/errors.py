"""Exception types, resource caps, the collector guard and the record
decorator shared across the package.

Besides the exceptions, this module holds the default caps on the strings
an enumeration stores and on the tuples instantiation enumerates;
:func:`collector_paused`, which runs the two string-set enumerators and the
compile stages (``compile_grammar``, ``build_pfsg`` and ``cfg_from_text``)
with the cyclic garbage collector paused; and :func:`record`, which makes
the value records those stages build by the thousand. It is the only module
the oracle shares with the pipeline, so both enumerators can import from it.
"""

from __future__ import annotations

import dataclasses
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
    nothing. The compile stages likewise build tens of thousands of tuples
    and records and leave no cyclic garbage. The collector is re-enabled
    on return, or when an exception propagates, only if it was enabled on
    entry; no collection is forced.
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


def record(cls):
    """``cls`` as a frozen dataclass with slots, whose ``__init__`` stores
    each field through its slot.

    A frozen dataclass's own ``__init__`` stores each field with
    ``object.__setattr__``, which looks the attribute up on the class; a
    slot's descriptor stores it directly, in about two thirds of the time
    for one field. Instances stay frozen, are compared and hashed by their
    compared fields, and print as the dataclass prints them. Every field
    is a required argument, so a field with a default is refused.
    """
    cls = dataclasses.dataclass(frozen=True, slots=True)(cls)
    fields = dataclasses.fields(cls)
    defaulted = [f.name for f in fields if (f.default, f.default_factory) != (dataclasses.MISSING,) * 2]
    if defaulted:
        raise TypeError(f"{cls.__qualname__}: record fields take no default: {', '.join(defaulted)}")
    names = [f.name for f in fields]
    setters = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    body = "".join(f"    _set_{name}(self, {name})\n" for name in names)
    scope: dict = {}
    exec(f"def __init__(self, {', '.join(names)}):\n{body}", setters, scope)
    init = scope["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


class ResourceCapError(GramlmError):
    """An enumeration or instantiation exceeded its configured cap."""

    def __init__(self, kind: str, cap: int) -> None:
        super().__init__(f"{kind} exceeded the configured cap of {cap}")
        self.kind = kind
        self.cap = cap


class UndefinedPerplexityError(GramlmError):
    """The corpus has no sentences, or every one fell outside the model's
    language."""
