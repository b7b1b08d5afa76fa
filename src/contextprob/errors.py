"""Exception types shared across the toolkit.

Every error raised on purpose by this package derives from
:class:`ContextProbError`, so callers can catch one base class.  Errors that
are really value or type problems also inherit the matching builtin so that
generic handlers keep working.
"""

from __future__ import annotations


class ContextProbError(Exception):
    """Base class for all errors raised by this package."""


class InvariantViolation(ContextProbError, ValueError):
    """A structural invariant failed: shape, normalization, domain, schema.

    ``path`` optionally points at the offending location in an input
    document (for example ``"kernel.row[1]"``).
    """

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        super().__init__(message if path is None else f"{path}: {message}")


class DegenerateContext(ContextProbError):
    """Conditioning on an empty or zero-probability set of points."""


class TypeMismatch(ContextProbError, TypeError):
    """A variable's alphabet is unsuitable for the requested operation."""


class UnknownValue(ContextProbError, LookupError):
    """A value that is not in the variable's alphabet."""


class NoPhase(ContextProbError):
    """Phase requested for a degenerate classification."""


class WrongRegime(ContextProbError):
    """Amplitude construction asked for under the wrong classification."""


class NotDoublyStochastic(ContextProbError):
    """Transition matrix is not doubly stochastic.  Carries both sum vectors."""

    def __init__(self, message: str, row_sums, column_sums):
        self.row_sums = tuple(float(x) for x in row_sums)
        self.column_sums = tuple(float(x) for x in column_sums)
        super().__init__(message)


class DegenerateData(ContextProbError):
    """Observed counts are too degenerate to normalize into statistics."""
