"""Exception hierarchy and source locations shared across the toolchain.

Every stage of the pipeline (lexing, parsing, semantic checking, analysis,
transformation, interpretation, simulation) raises a subclass of
:class:`ReproError`, so callers can catch one type at the harness boundary.
So does :func:`env_number`, the one parser of the numeric ``REPRO_*``
knobs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SourceLocation:
    """A position in a source file, used for diagnostics.

    ``line`` and ``column`` are 1-based.  ``filename`` defaults to
    ``"<input>"`` for programs supplied as strings.
    """

    line: int
    column: int
    filename: str = "<input>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


#: Location used for synthesized nodes (builtins, generated code).
BUILTIN_LOC = SourceLocation(0, 0, "<builtin>")


class ReproError(Exception):
    """Base class for all errors raised by the repro toolchain."""

    def __init__(self, message: str, loc: SourceLocation | None = None):
        self.loc = loc
        if loc is not None:
            message = f"{loc}: {message}"
        super().__init__(message)


class LexError(ReproError):
    """Raised when the lexer encounters an invalid character or literal."""


class ParseError(ReproError):
    """Raised when the parser encounters a syntax error."""


class CheckError(ReproError):
    """Raised by the semantic checker (type errors, model violations)."""


class AnalysisError(ReproError):
    """Raised when a compile-time analysis cannot proceed."""


class TransformError(ReproError):
    """Raised when a data transformation cannot be applied."""


class RuntimeFault(ReproError):
    """Raised by the SPMD interpreter for runtime errors in the program
    under test (out-of-bounds index, deadlock, null dereference, ...)."""


class SimulationError(ReproError):
    """Raised by the cache simulator for invalid configurations."""


def env_number(name: str, default, cast=int):
    """The environment variable ``name`` parsed by ``cast`` (``int`` or
    ``float``); ``default`` when it is unset or blank.  A malformed or
    non-finite value raises a one-line :class:`ReproError` instead of
    silently meaning the default."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = cast(raw)
        if not math.isfinite(value):
            raise ValueError(raw)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ReproError(f"{name} must be {kind}; got {raw!r}") from None
    return value
