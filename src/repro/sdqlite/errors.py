"""Exception hierarchy for the SDQLite language and the STOREL pipeline.

Every error raised by this package derives from :class:`SDQLiteError`, so
callers can catch a single exception type at the boundary of the library.
"""

from __future__ import annotations


class SDQLiteError(Exception):
    """Base class for all errors raised by the repro package."""


class ParseError(SDQLiteError):
    """Raised when SDQLite source text cannot be parsed.

    Attributes
    ----------
    message:
        Human readable description of the problem.
    line, column:
        1-based position of the offending token, when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{message}{location}")


class DesugarError(SDQLiteError):
    """Raised when a surface-syntax construct cannot be desugared."""


class ScopeError(SDQLiteError):
    """Raised when a variable is referenced outside of any binder."""


class EvaluationError(SDQLiteError):
    """Raised by the reference interpreter when an expression cannot be evaluated."""


class StorageError(SDQLiteError):
    """Raised for inconsistent physical storage declarations or data."""


class OptimizationError(SDQLiteError):
    """Raised when the optimizer cannot produce a physical plan."""


class ExecutionError(SDQLiteError):
    """Raised by the physical execution engine."""
