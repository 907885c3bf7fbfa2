"""Exception hierarchy.

Every failure mode that callers are expected to branch on gets its own
class; generic misuse (bad dimensions, malformed input) raises
DimensionMismatch or InputError, both ValueError subclasses so that
sloppy call sites still fail loudly.
"""

from __future__ import annotations


class TverbergError(Exception):
    """Base class for all library-specific errors."""


class InputError(TverbergError, ValueError):
    """Malformed input (bad rational string, bad document, bad flag)."""


class DimensionMismatch(InputError):
    """Points or structures of inconsistent dimension were mixed."""


class PreconditionViolated(TverbergError):
    """A documented precondition of an operation does not hold."""


class NotFound(TverbergError):
    """A search completed without finding the requested object."""


class CenterpointNotFound(NotFound):
    """No point of the ambient set reaches the requested depth."""


class SelectionNotFound(NotFound):
    """Selection search failed; carries the best part sizes achieved."""

    def __init__(self, message: str, best_sizes: tuple[int, ...] = ()):
        super().__init__(message)
        self.best_sizes = best_sizes


class ExtractionFailed(TverbergError):
    """Could not peel the requested number of minimal subsets."""


class Infeasible(TverbergError):
    """An exact feasibility problem has no solution."""


class BudgetExceeded(TverbergError):
    """An enumeration hit its check budget.

    ``remaining`` is a lower bound on the checks never made (at least 1
    when set), not an exact count: counting them would mean running the
    enumeration the budget was there to stop.
    """

    def __init__(self, message: str, remaining: int | None = None):
        super().__init__(message)
        self.remaining = remaining


class AssertionFailed(TverbergError):
    """A fact guaranteed by the construction failed to hold at runtime.

    Raised instead of AssertionError so that it survives python -O and
    can carry a structured message; seeing this exception means either a
    bug or an input violating an unchecked hypothesis.
    """


class UnsupportedAmbient(TverbergError):
    """The requested ambient set is outside the supported descriptors."""


class InternalError(TverbergError):
    """A mathematically impossible state was reached."""
